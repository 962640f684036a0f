import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from neighborrank import autodiff as ad
from neighborrank.rng import RngStream


def matmul_oracle(a, b):
    """Triple-loop matrix multiply, the independent reference."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def test_affine_identity():
    x = ad.constant([[1.0, 2.0]])
    w = ad.constant([[1.0, 0.0], [0.0, 1.0]])
    b = ad.constant([0.0, 0.0])
    assert np.allclose(ad.affine(x, w, b).value, [[1.0, 2.0]])


def test_affine_scalar():
    out = ad.affine(ad.constant([[1.0]]), ad.constant([[3.0]]), ad.constant([1.0]))
    assert np.allclose(out.value, [[4.0]])


def test_affine_matches_triple_loop_oracle():
    rng = RngStream(404)
    x = rng.normal((3, 4))
    w = rng.normal((4, 2))
    b = rng.normal((2,))
    out = ad.affine(ad.constant(x), ad.constant(w), ad.constant(b))
    expected = matmul_oracle(x, w) + b
    assert np.max(np.abs(out.value - expected)) < 1e-12


def test_affine_shape_error_names_both_shapes():
    with pytest.raises(ad.ShapeError) as exc:
        ad.affine(ad.constant(np.zeros((1, 3))), ad.constant(np.zeros((2, 2))), ad.constant(np.zeros(2)))
    assert "(1, 3)" in str(exc.value) and "(2, 2)" in str(exc.value)


def test_softmax_uniform_and_single():
    assert np.allclose(ad.softmax_rows(ad.constant([[0.0, 0.0]])).value, [[0.5, 0.5]])
    for x in (-3.0, 0.0, 1e8):
        assert np.allclose(ad.softmax_rows(ad.constant([[x]])).value, [[1.0]])


def test_softmax_large_logits_no_overflow():
    out = ad.softmax_rows(ad.constant([[1000.0, 0.0]])).value
    assert np.isfinite(out).all()
    assert out[0, 0] > 1 - 1e-12 and out[0, 1] < 1e-12


def test_softmax_nan_rejected():
    with pytest.raises(FloatingPointError):
        ad.softmax_rows(ad.constant([[np.nan, 1.0]]))


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=6),
                  elements=st.floats(-50, 50)))
@settings(max_examples=100, deadline=None)
def test_softmax_rows_stochastic(x):
    out = ad.softmax_rows(ad.constant(x)).value
    assert (out >= 0).all()
    assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12


def test_sigmoid_basics():
    assert ad.sigmoid(ad.constant(np.array([0.0]))).value[0] == pytest.approx(0.5)
    out = ad.sigmoid(ad.constant(np.array([-1000.0, 1000.0]))).value
    assert np.isfinite(out).all()
    inner = ad.sigmoid(ad.constant(np.linspace(-30, 30, 101))).value
    assert (inner > 0).all() and (inner < 1).all()


def test_reduce_mean_examples():
    assert np.allclose(ad.reduce_mean(ad.constant([[2.0, 4.0]]), axis=1).value, [3.0])
    assert ad.reduce_mean(ad.constant([[2.0, 4.0]]), axis=None).value == pytest.approx(3.0)


def test_embed_lookup_row():
    table = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(ad.embed_lookup(table, np.array([0])).value, [[1.0, 2.0]])


def test_embed_lookup_oov_reports_id():
    table = ad.param(np.zeros((4, 2)))
    with pytest.raises(ad.VocabError) as exc:
        ad.embed_lookup(table, np.array([1, 7]))
    assert "7" in str(exc.value)


def test_embed_lookup_backward_scatters():
    table = ad.param(np.arange(8.0).reshape(4, 2))
    ids = np.array([[1, 1], [3, 0]])
    out = ad.embed_lookup(table, ids)
    loss = ad.reduce_sum(out, axis=None)
    loss.backward()
    expected = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(table.grad, expected)


def test_embed_lookup_scatter_order_over_two_lookups():
    # one table looked up twice with repeated ids, at gradient scales about
    # 10^6 apart: the table's gradient is np.add.at of each lookup's rows into
    # one buffer, in backward order, which a dense per-lookup sum rounds apart
    rng = RngStream(21)
    table = ad.param(rng.normal((3, 4)))
    ids = [rng.integers(0, 3, (6, 5)), rng.integers(0, 3, (5, 6))]
    upstream = [rng.normal((6, 5, 4)) * 1e6, rng.normal((5, 6, 4))]
    lookups = [ad.embed_lookup(table, i) for i in ids]
    root = ad.add(ad.reduce_sum(ad.mul(lookups[0], upstream[0]), axis=None),
                  ad.reduce_sum(ad.mul(lookups[1], upstream[1]), axis=None))
    want = np.zeros(table.shape)
    for node in reversed(ad.topo_order(root)):
        for k, lookup in enumerate(lookups):
            if node is lookup:
                np.add.at(want, ids[k].reshape(-1), upstream[k].reshape(-1, 4))
    root.backward()
    assert np.array_equal(table.grad, want)


def test_backward_accumulates_over_paths():
    # f(x) = x*x + x -> df/dx = 2x + 1
    x = ad.param(np.array([3.0]))
    f = ad.reduce_sum(ad.add(ad.mul(x, x), x), axis=None)
    f.backward()
    assert x.grad[0] == pytest.approx(7.0)


def test_backward_visits_each_node_once():
    x = ad.param(np.array([2.0]))
    y = ad.mul(x, x)
    z = ad.add(y, y)           # diamond: z depends on y twice
    root = ad.reduce_sum(z, axis=None)
    order = ad.topo_order(root)
    ids = [id(n) for n in order]
    assert len(ids) == len(set(ids))
    root.backward()
    assert x.grad[0] == pytest.approx(8.0)  # d(2x^2)/dx = 4x


def test_root_must_be_scalar():
    x = ad.param(np.ones((2, 2)))
    with pytest.raises(ad.ShapeError):
        ad.add(x, x).backward()


def test_no_grad_blocks_graph():
    x = ad.param(np.array([1.0]))
    with ad.no_grad():
        y = ad.mul(x, x)
    assert not y.requires_grad and y.parents == ()


def test_no_grad_is_per_thread():
    # Two threads enter and leave no_grad() in the order that left a single
    # process-wide flag switched off: A enters, B enters, A leaves, B leaves.
    x = ad.param(np.array([1.0]))
    a_in, b_in, a_may_leave, a_out = (threading.Event() for _ in range(4))
    seen = {}

    def thread_a():
        with ad.no_grad():
            a_in.set()
            seen["a_waited"] = a_may_leave.wait(10)
            seen["a_inside"] = ad.mul(x, x).requires_grad
        a_out.set()

    def thread_b():
        seen["b_waited"] = a_in.wait(10)
        with ad.no_grad():
            b_in.set()
            seen["b_waited_out"] = a_out.wait(10)

    workers = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for w in workers:
        w.start()
    assert b_in.wait(10)
    # both workers are inside no_grad(); this thread still builds graphs
    assert ad.mul(x, x).requires_grad
    a_may_leave.set()
    for w in workers:
        w.join(10)
        assert not w.is_alive()
    assert seen == {"a_waited": True, "a_inside": False,
                    "b_waited": True, "b_waited_out": True}
    y = ad.mul(x, x)
    assert y.requires_grad and y.parents
    ad.reduce_sum(y, axis=None).backward()
    assert x.grad[0] == pytest.approx(2.0)


def test_no_grad_on_many_threads_keeps_each_thread_mode():
    x = ad.param(np.array([1.0]))
    results = []

    def worker():
        ok = True
        for _ in range(200):
            with ad.no_grad():
                ok &= not ad.mul(x, x).requires_grad
            ok &= ad.mul(x, x).requires_grad
        results.append(ok)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(30)
            assert not w.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [True] * 8
    assert ad.mul(x, x).requires_grad


def test_grad_same_shape_as_value():
    x = ad.param(np.ones((3, 2)))
    loss = ad.reduce_mean(ad.sigmoid(x), axis=None)
    loss.backward()
    assert x.grad.shape == x.value.shape


# entries of scale(x, 0.01) + CLAMP_OFFSETS lie about 1 from clamp's edges
# [-1, 1]: clipped low, passed and clipped high, never within h of an edge
CLAMP_OFFSETS = np.array([[-2.0, 0.0, 2.0], [0.0, 2.0, -2.0]])

PRIMITIVE_CASES = [
    ("affine", lambda t: ad.reduce_sum(ad.affine(t[0], t[1], t[2]), axis=None), [(3, 4), (4, 2), (2,)]),
    ("matmul_batched", lambda t: ad.reduce_sum(ad.matmul(t[0], t[1]), axis=None), [(2, 3, 4), (4, 3)]),
    ("matmul_rows_4d", lambda t: ad.reduce_sum(ad.mul(ad.matmul(t[0], t[1]), t[2]), axis=None),
     [(2, 3, 2, 4), (4, 3), (2, 3, 2, 3)]),
    ("softmax", lambda t: ad.reduce_sum(ad.mul(ad.softmax_rows(t[0]), t[1]), axis=None), [(3, 4), (3, 4)]),
    ("sigmoid", lambda t: ad.reduce_sum(ad.sigmoid(t[0]), axis=None), [(3, 3)]),
    ("relu_shifted", lambda t: ad.reduce_sum(ad.relu(ad.add(t[0], 0.3)), axis=None), [(4, 3)]),
    ("mean_axis", lambda t: ad.reduce_sum(ad.reduce_mean(t[0], axis=1), axis=None), [(3, 5)]),
    ("concat", lambda t: ad.reduce_sum(ad.mul(ad.concat([t[0], t[1]], axis=-1), 1.5), axis=None), [(2, 3), (2, 2)]),
    ("slice", lambda t: ad.reduce_sum(ad.slice_axis(t[0], 1, 1, 3), axis=None), [(3, 4)]),
    ("log", lambda t: ad.reduce_sum(ad.log(ad.add(ad.mul(t[0], t[0]), 1.0)), axis=None), [(3, 3)]),
    ("broadcast", lambda t: ad.reduce_sum(ad.mul(ad.broadcast_to(ad.expand_dims(t[0], 0), (4, 2, 3)), 0.7), axis=None), [(2, 3)]),
    ("transpose", lambda t: ad.reduce_sum(ad.matmul(t[0], ad.transpose_last2(t[0])), axis=None), [(3, 4)]),
    ("sub", lambda t: ad.reduce_sum(ad.mul(ad.sub(t[0], t[1]), t[2]), axis=None), [(3, 4), (4,), (3, 4)]),
    ("neg", lambda t: ad.reduce_sum(ad.mul(ad.neg(t[0]), t[1]), axis=None), [(3, 2), (3, 2)]),
    ("scale", lambda t: ad.reduce_sum(ad.mul(ad.scale(t[0], -2.5), t[1]), axis=None), [(2, 3), (2, 3)]),
    ("clamp", lambda t: ad.reduce_sum(ad.mul(ad.clamp(ad.add(ad.scale(t[0], 0.01), CLAMP_OFFSETS),
                                                      -1.0, 1.0), t[1]), axis=None), [(2, 3), (2, 3)]),
    ("reshape", lambda t: ad.reduce_sum(ad.mul(ad.reshape(t[0], (3, 4)), t[1]), axis=None), [(2, 6), (3, 4)]),
    ("sum_axes", lambda t: ad.reduce_sum(ad.mul(ad.reduce_sum(t[0], axis=(0, 2)), t[1]), axis=None),
     [(2, 3, 4), (3,)]),
    ("mul_two_params", lambda t: ad.reduce_sum(ad.mul(t[0], t[1]), axis=None), [(3, 4), (1, 4)]),
]


@pytest.mark.parametrize("name,builder,shapes", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_match_finite_differences(name, builder, shapes):
    rng = RngStream(hash(name) & 0xFFFF)
    tensors = [ad.param(rng.normal(s) * 0.8) for s in shapes]
    err = ad.grad_check(lambda: builder(tensors), tensors, h=1e-5)
    assert err < 1e-6, f"{name}: rel err {err}"


def test_grad_check_square():
    x = ad.param(np.array([3.0]))
    err = ad.grad_check(lambda: ad.reduce_sum(ad.mul(x, x), axis=None), [x])
    assert err < 1e-6


def test_grad_check_softmax_cross_entropy():
    rng = RngStream(55)
    z = ad.param(rng.normal((4, 5)))
    y = np.zeros((4, 5))
    y[np.arange(4), [0, 2, 1, 4]] = 1.0

    def build():
        p = ad.softmax_rows(z)
        return ad.neg(ad.reduce_sum(ad.mul(ad.log(ad.clamp(p, 1e-12, 1.0)), y), axis=None))

    err = ad.grad_check(build, [z])
    assert err < 1e-6


def test_forward_and_gradients_bit_identical_across_runs():
    def run():
        rng = RngStream(77)
        x = ad.param(rng.normal((4, 3)))
        w = ad.param(rng.normal((3, 2)) * 0.1)
        b = ad.param(np.zeros(2))
        loss = ad.reduce_mean(ad.sigmoid(ad.affine(x, w, b)), axis=None)
        loss.backward()
        return loss.value.copy(), x.grad.copy(), w.grad.copy()

    r1 = run()
    r2 = run()
    for a, b_ in zip(r1, r2):
        assert np.array_equal(a, b_)


def test_backward_releases_interior_grads():
    x = ad.param(np.array([1.0, 2.0]))
    w = ad.param(np.array([[0.5], [-1.0]]))
    hidden = ad.matmul(ad.expand_dims(x, 0), w)
    root = ad.reduce_sum(ad.sigmoid(hidden), axis=None)
    root.backward()
    assert hidden.grad is None and root.grad is None
    assert x.grad is not None and w.grad is not None


def broadcast_matmul_grads(av, bv, g):
    """The batched rule as the reference: one (k, n) product per leading
    index, summed down to the operands' shapes afterwards."""
    ga = g @ np.swapaxes(bv, -1, -2)
    gb = np.swapaxes(av, -1, -2) @ g
    while ga.ndim > av.ndim:
        ga = ga.sum(axis=0)
    while gb.ndim > bv.ndim:
        gb = gb.sum(axis=0)
    ga = ga.sum(axis=tuple(i for i, d in enumerate(av.shape) if d == 1), keepdims=True)
    gb = gb.sum(axis=tuple(i for i, d in enumerate(bv.shape) if d == 1), keepdims=True)
    return ga, gb


def matmul_grads(av, bv, g):
    a, b = ad.param(av), ad.param(bv)
    ad.reduce_sum(ad.mul(ad.matmul(a, b), g), axis=None).backward()
    return a.grad, b.grad


@pytest.mark.parametrize("a_shape", [(1, 5, 7), (3, 5, 7), (64, 5, 48), (2, 3, 5, 7)])
@pytest.mark.parametrize("n", [4, 1])
def test_rows_by_weight_grads_match_batched_rule(a_shape, n):
    rng = RngStream(9)
    av, bv = rng.normal(a_shape), rng.normal((a_shape[-1], n))
    g = rng.normal(a_shape[:-1] + (n,))
    got, want = matmul_grads(av, bv, g), broadcast_matmul_grads(av, bv, g)
    for x, y in zip(got, want):
        assert x.shape == y.shape
        assert np.allclose(x, y, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("b_shape", [(3, 7, 5), (1, 7, 5)])
def test_batched_by_batched_keeps_the_batched_rule(b_shape):
    # attention products such as q @ k^T: b has a batch axis, nothing is folded
    rng = RngStream(10)
    av, bv, g = rng.normal((3, 5, 7)), rng.normal(b_shape), rng.normal((3, 5, 5))
    got, want = matmul_grads(av, bv, g), broadcast_matmul_grads(av, bv, g)
    for x, y in zip(got, want):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("n", [32, 1])
def test_rows_by_weight_forward_is_batch_invariant(n):
    # every list's scores must not depend on which batch it was scored in
    rng = RngStream(11)
    x, w = rng.normal((64, 5, 48)), rng.normal((48, n))
    out = ad.matmul(ad.constant(x), ad.constant(w)).value
    for i in range(len(x)):
        assert np.array_equal(out[i : i + 1], ad.matmul(ad.constant(x[i : i + 1]), ad.constant(w)).value)


# the deep MLP's layers (48 -> 1024 -> 256 -> 128), the default MLP's (48, 64)
# and (64, 32), and widths 8-256 at k = 512 and 1,024, where one GEMM over
# every row of every list rounds differently from the per-list product on some
# BLAS kernels
@pytest.mark.parametrize("k,n", [(48, 1024), (1024, 256), (256, 128), (128, 64), (48, 64),
                                 (64, 32), (48, 8), (1024, 8), (1024, 32), (1024, 64),
                                 (1024, 128), (512, 256)])
def test_rows_by_weight_forward_equals_per_list_product(k, n):
    # each list of a (B, m, k) @ (k, n) forward must equal its own
    # (m, k) @ (k, n) product bit for bit, so its score is the same in any batch
    rng = RngStream(13)
    x, w = rng.normal((128, 5, k)), rng.normal((k, n))
    out = ad.matmul(ad.constant(x), ad.constant(w)).value
    assert out.shape == (128, 5, n)
    for i in range(len(x)):
        assert np.array_equal(out[i], x[i] @ w)


def test_rows_by_weight_backward_memory_is_bounded():
    rng = RngStream(12)
    x, w = ad.param(rng.normal((256, 5, 512))), ad.param(rng.normal((512, 256)) * 0.05)
    tracemalloc.start()
    try:
        out = ad.matmul(x, w)
        root = ad.reduce_sum(ad.relu(out), axis=None)
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        root.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    operands = x.value.nbytes + w.value.nbytes + out.value.nbytes
    # the batched rule would build a (256, 512, 256) stack: 268 MB
    assert peak - before < 4 * operands, (peak - before, operands)
