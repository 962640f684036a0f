import math

import numpy as np
import pytest

from neighborrank import autodiff as ad
from neighborrank import evaluator as ev
from neighborrank import generator as gen
from neighborrank.checkpoint import CheckpointError, load_arrays, save_arrays
from neighborrank.rng import RngStream


def tiny_dims(**overrides) -> ev.ModelDims:
    base = dict(item_vocab=12, cat_vocab=4, brand_vocab=3, list_size=3,
                num_candidates=5, history_sessions=2, embed_dim=2, mlp_hidden=(4,))
    base.update(overrides)
    return ev.ModelDims(**base)


def make_generator(dims=None, seed=5) -> gen.GeneratorParams:
    shared = ev.EvaluatorParams.init(dims or tiny_dims(), RngStream(seed))
    shared.ps.set_trainable(False)
    return gen.GeneratorParams.init(shared, RngStream(seed + 1))


def rand_ids(seed, lead_shape, dims) -> np.ndarray:
    rng = RngStream(seed)
    fields = [rng.integers(0, v, lead_shape)
              for v in (dims.item_vocab, dims.cat_vocab, dims.brand_vocab)]
    return np.stack(fields, axis=-1)


def numpy_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestPositionLogits:
    def test_zero_weights_give_equal_logits(self):
        gp = make_generator()
        gp.ps["pdu.w"].value[:] = 0.0
        dims = gp.dims
        flat = ad.constant(RngStream(3).normal((2, dims.list_size, dims.flat_dim)))
        e_l = ad.constant(RngStream(4).normal((2, dims.embed_dim)))
        e_u = ad.constant(RngStream(5).normal((2, dims.embed_dim)))
        h = gen.position_logits(flat, e_l, e_u, gp)
        assert h.shape == (2, dims.list_size)
        assert np.allclose(h.value, h.value[:, :1])

    def test_matches_affine_oracle(self):
        gp = make_generator(seed=9)
        dims = gp.dims
        rng = RngStream(31)
        flat = rng.normal((1, dims.list_size, dims.flat_dim))
        e_l = rng.normal((1, dims.embed_dim))
        e_u = rng.normal((1, dims.embed_dim))
        h = gen.position_logits(ad.constant(flat), ad.constant(e_l), ad.constant(e_u), gp)
        w = gp.ps["pdu.w"].value
        bias = gp.ps["pdu.b"].value
        for j in range(dims.list_size):
            z = np.concatenate([flat[0, j], e_l[0], e_u[0], gp.ps["pos"].value[j]])
            assert abs(h.value[0, j] - (z @ w + bias)[0]) < 1e-12


class TestGumbel:
    def test_uniform_logits_no_noise(self):
        soft, hard = gen.gumbel_sample(ad.constant([[0.0, 0.0]]),
                                       gen.GumbelConfig(tau=1.0, noise=False))
        assert np.allclose(soft.value, [[0.5, 0.5]])
        assert hard[0] == 0  # tie broken toward the lowest index

    def test_gumbel_max_property_monte_carlo(self):
        rng = RngStream(12)
        logits = rng.normal((4,))
        draws = 100_000
        noise = RngStream(13).gumbel((draws, 4))
        with ad.no_grad():
            soft, hard = gen.gumbel_sample(
                ad.constant(np.tile(logits, (draws, 1))),
                gen.GumbelConfig(tau=1.0, noise=True), noise=noise)
        freq = np.bincount(hard, minlength=4) / draws
        assert np.max(np.abs(freq - numpy_softmax(logits))) < 0.01

    def test_low_temperature_sharpens(self):
        logits = ad.constant([[1.0, 0.2, -0.5]])
        soft, hard = gen.gumbel_sample(logits, gen.GumbelConfig(tau=0.1, noise=False))
        assert hard[0] == 0
        assert soft.value[0, 0] > 0.999

    def test_straight_through_gradient_flows_via_soft(self):
        z = ad.param(np.array([[0.4, -0.3, 0.1]]))

        def build():
            soft, hard = gen.gumbel_sample(z, gen.GumbelConfig(tau=0.7, noise=False))
            picked = ad.slice_axis(soft, 1, int(hard[0]), int(hard[0]) + 1)
            return ad.reduce_sum(picked, axis=None)

        err = ad.grad_check(build, [z], h=1e-6)
        assert err < 1e-5

    def test_non_finite_logits_rejected(self):
        with pytest.raises(FloatingPointError):
            gen.gumbel_sample(ad.constant([[np.inf, 0.0]]), gen.GumbelConfig(noise=False))


class TestMaskedEncoding:
    def test_independent_of_masked_item(self):
        gp = make_generator()
        dims = gp.dims
        rng = RngStream(8)
        flat_a = rng.normal((1, dims.list_size, dims.flat_dim))
        flat_b = flat_a.copy()
        flat_b[0, 1] = rng.normal((dims.flat_dim,))  # only the masked row differs
        a = gen.masked_list_encoding(flat_a, np.array([[1]]), gp).value
        b = gen.masked_list_encoding(flat_b, np.array([[1]]), gp).value
        assert np.array_equal(a, b)

    def test_different_positions_differ(self):
        gp = make_generator()
        # move weights away from near-zero init so differences are visible
        scales = RngStream(70)
        for name in ("mask.q", "mask.k", "mask.v", "mask.token"):
            gp.ps[name].value = scales.split(name).normal(gp.ps[name].value.shape) * 0.5
        dims = gp.dims
        flat = RngStream(9).normal((1, dims.list_size, dims.flat_dim))
        got = gen.masked_list_encoding(flat, np.array([[0, 2]]), gp).value
        assert got.shape == (1, 2, dims.embed_dim)
        assert not np.allclose(got[0, 0], got[0, 1])

    def test_matches_hand_oracle(self):
        gp = make_generator(seed=21)
        dims = gp.dims
        flat = RngStream(22).normal((2, dims.list_size, dims.flat_dim))
        slots = np.array([[1, 0, 1], [2, 2, 0]])   # per-row slots, one repeated
        got = gen.masked_list_encoding(flat, slots, gp).value
        assert got.shape == (2, 3, dims.embed_dim)
        for b in range(2):
            for s, j in enumerate(slots[b]):
                rows = flat[b].copy()
                rows[j] = gp.ps["mask.token"].value.reshape(-1)
                q = rows @ gp.ps["mask.q"].value
                k = rows @ gp.ps["mask.k"].value
                v = rows @ gp.ps["mask.v"].value
                att = numpy_softmax(q @ k.T / math.sqrt(dims.embed_dim))
                ref = (att @ v).mean(axis=0)
                assert np.max(np.abs(got[b, s] - ref)) < 1e-12

    def test_position_bounds(self):
        gp = make_generator()
        flat = np.zeros((1, 3, gp.dims.flat_dim))
        for bad in (3, -1):
            with pytest.raises(ValueError):
                gen.masked_list_encoding(flat, np.array([[0, bad]]), gp)


class TestCandidateLogits:
    def test_shape_and_duplicate_candidates_equal(self):
        gp = make_generator()
        dims = gp.dims
        rng = RngStream(14)
        cand = rng.normal((1, dims.num_candidates, dims.flat_dim))
        cand[0, 3] = cand[0, 1]  # duplicate item content
        e_mask = ad.constant(rng.normal((1, 1, dims.embed_dim)))
        e_user = ad.constant(rng.normal((1, dims.embed_dim)))
        g = gen.candidate_logits(ad.constant(cand), e_mask, e_user, np.array([[0]]), gp)
        assert g.shape == (1, 1, dims.num_candidates)
        assert g.value[0, 0, 3] == pytest.approx(g.value[0, 0, 1], abs=1e-12)

    def test_matches_hand_oracle(self):
        gp = make_generator(seed=33)
        dims = gp.dims
        rng = RngStream(34)
        cand = rng.normal((2, dims.num_candidates, dims.flat_dim))
        e_mask = rng.normal((2, 3, dims.embed_dim))
        e_user = rng.normal((2, dims.embed_dim))
        slots = np.array([[2, 0, 2], [1, 1, 0]])   # per-row slots, one repeated
        got = gen.candidate_logits(ad.constant(cand), ad.constant(e_mask),
                                   ad.constant(e_user), slots, gp).value
        assert got.shape == (2, 3, dims.num_candidates)
        for b in range(2):
            for s, j in enumerate(slots[b]):
                pe = gp.ps["pos"].value[j]
                for k in range(dims.num_candidates):
                    rep = (np.concatenate([cand[b, k], pe]) @ gp.ps["cand.w"].value
                           + gp.ps["cand.b"].value)
                    rep = np.maximum(rep, 0.0)
                    z = np.concatenate([rep, e_mask[b, s], e_user[b], pe])
                    ref = z @ gp.ps["cru.w"].value + gp.ps["cru.b"].value
                    assert abs(got[b, s, k] - ref[0]) < 1e-12

    def test_blocked_candidates_masked_out(self):
        gp = make_generator()
        dims = gp.dims
        rng = RngStream(35)
        cand = ad.constant(rng.normal((1, dims.num_candidates, dims.flat_dim)))
        e_mask = ad.constant(rng.normal((1, 1, dims.embed_dim)))
        e_user = ad.constant(rng.normal((1, dims.embed_dim)))
        blocked = np.array([[[False, True, False, True, False]]])
        g = gen.candidate_logits(cand, e_mask, e_user, np.array([[0]]), gp, blocked)
        soft, hard = gen.gumbel_sample(g, gen.GumbelConfig(noise=False))
        assert soft.value[0, 0, 1] < 1e-12 and soft.value[0, 0, 3] < 1e-12


class TestBlockedCandidates:
    def test_swap_mode_blocks_nothing(self):
        assert gen.blocked_candidates(np.array([[0, 1, 2]]), np.array([[1, 0]]), 3) is None

    def test_substitution_mode_blocks_other_slots(self):
        lists = np.array([[0, 2, 4], [5, 1, 3]])
        blocked = gen.blocked_candidates(lists, np.array([[1, 0], [2, 2]]), 6)
        assert blocked.shape == (2, 2, 6)
        assert blocked.tolist() == [
            [[True, False, False, False, True, False], [False, False, True, False, True, False]],
            [[False, True, False, False, False, True], [False, True, False, False, False, True]],
        ]


class TestApplyMove:
    def test_substitution(self):
        assert gen.apply_move((0, 1, 2), 1, 4) == (0, 4, 2)

    def test_exchange_keeps_items_unique(self):
        assert gen.apply_move((0, 1, 2), 0, 2) == (2, 1, 0)

    def test_same_item_is_identity(self):
        assert gen.apply_move((0, 1, 2), 1, 1) == (0, 1, 2)


class TestGenerate:
    def setup_method(self):
        self.dims = tiny_dims()
        self.gp = make_generator(self.dims, seed=3)
        self.cand = rand_ids(41, (self.dims.num_candidates,), self.dims)
        self.sess = rand_ids(42, (self.dims.history_sessions, self.dims.list_size), self.dims)

    def test_theta_one_stops_immediately(self):
        cfg = gen.GumbelConfig(noise=False, theta_p=1.0)
        final, trace = gen.generate((0, 1, 2), self.cand, self.sess, self.gp, cfg)
        assert final == (0, 1, 2)
        assert trace.stop_reason == "low-confidence"
        assert len(trace.steps) == 1

    def test_every_applied_step_edits_one_slot(self):
        scales = RngStream(90)
        for name, t in self.gp.ps.items():
            t.value = scales.split(name).normal(t.value.shape) * 0.8
        cfg = gen.GumbelConfig(noise=False, theta_p=1e-6, theta_c=1e-6)
        start = (0, 1, 2)
        cur = start
        final, trace = gen.generate(start, self.cand, self.sess, self.gp, cfg)
        for s in trace.steps:
            if not s.applied:
                continue
            nxt = gen.apply_move(cur, s.position, s.candidate)
            diff = sum(a != b for a, b in zip(cur, nxt))
            assert diff in (1, 2)  # substitution or exchange
            assert len(set(nxt)) == len(nxt)
            cur = nxt
        assert cur == final
        assert trace.stop_reason in ("same-item", "low-confidence", "max-steps")

    def test_pure_function_without_noise(self):
        cfg = gen.GumbelConfig(noise=False, theta_p=1e-6, theta_c=1e-6)
        a = gen.generate((2, 0, 1), self.cand, self.sess, self.gp, cfg)
        b = gen.generate((2, 0, 1), self.cand, self.sess, self.gp, cfg)
        assert a[0] == b[0]
        assert [s.to_json() for s in a[1].steps] == [s.to_json() for s in b[1].steps]

    def test_max_steps_bounds_iterations(self):
        scales = RngStream(91)
        for name, t in self.gp.ps.items():
            t.value = scales.split(name).normal(t.value.shape) * 0.8
        cfg = gen.GumbelConfig(noise=False, theta_p=1e-9, theta_c=1e-9, max_steps=2)
        _, trace = gen.generate((0, 1, 2), self.cand, self.sess, self.gp, cfg)
        assert len(trace.steps) <= 2

    def test_duplicate_initial_list_rejected(self):
        with pytest.raises(ValueError):
            gen.generate((0, 0, 1), self.cand, self.sess, self.gp, gen.GumbelConfig(noise=False))


def reference_generate(initial_idx, candidate_ids, e_user, gp, cfg):
    """Test-only copy of the one-record walk that generate_batch replaced."""
    dims = gp.dims
    cfg = cfg.resolved(dims)
    cur = tuple(int(i) for i in initial_idx)
    n = candidate_ids.shape[0]
    trace = gen.GenerationTrace()
    with ad.no_grad():
        e_user_t = ad.constant(e_user.reshape(1, dims.embed_dim))
        cand_flat = ev.flatten_items(candidate_ids[None, ...], gp.shared)
        for step in range(cfg.max_steps):
            x = ev.embed_lists(candidate_ids[list(cur)][None, ...], gp.shared)
            _, e_list = ev.list_attention(x, gp.shared)
            flat = ad.reshape(x, (1, dims.list_size, dims.flat_dim))
            soft_p, hard_p = gen.gumbel_sample(gen.position_logits(flat, e_list, e_user_t, gp), cfg)
            j = int(hard_p[0])
            p_max = float(soft_p.value[0].max())
            if p_max < cfg.theta_p:
                trace.steps.append(gen.TraceStep(step, j, None, p_max, None, False,
                                                 "low-confidence"))
                break
            slot = np.array([[j]])
            e_mask = gen.masked_list_encoding(flat.value, slot, gp)
            blocked = gen.blocked_candidates(np.array([cur]), slot, n)
            g = gen.candidate_logits(cand_flat, e_mask, e_user_t, slot, gp, blocked)
            soft_c, hard_c = gen.gumbel_sample(g, cfg)
            k = int(hard_c[0, 0])
            c_max = float(soft_c.value[0, 0].max())
            if c_max < cfg.theta_c:
                trace.steps.append(gen.TraceStep(step, j, k, p_max, c_max, False,
                                                 "low-confidence"))
                break
            if k == cur[j]:
                trace.steps.append(gen.TraceStep(step, j, k, p_max, c_max, False, "same-item"))
                break
            cur = gen.apply_move(cur, j, k)
            stop = "max-steps" if step == cfg.max_steps - 1 else None
            trace.steps.append(gen.TraceStep(step, j, k, p_max, c_max, True, stop))
    return cur, trace


class TestGenerateBatch:
    @pytest.mark.parametrize("n,m", [(5, 5), (12, 4), (8, 5)])
    def test_matches_one_record_walks(self, n, m):
        """Finals and traces equal the one-record walk bit for bit, on swap and
        substitution pools, with every stop rule firing somewhere."""
        dims = tiny_dims(item_vocab=30, list_size=m, num_candidates=n, embed_dim=4)
        gp = make_generator(dims, seed=7)
        weights = RngStream(92)   # unit-scale weights, shared trunk included
        for name, t in [*gp.ps.items(), *gp.shared.ps.items()]:
            t.value = weights.split(name).normal(t.value.shape)
        records = 240
        cand = rand_ids(43, (records, n), dims)
        e_user = RngStream(44).normal((records, dims.embed_dim))
        initial = np.stack([RngStream(45).split(i).choice(n, m) for i in range(records)])
        cfg = gen.GumbelConfig(tau=1.0, noise=False, theta_p=0.45, theta_c=0.55, max_steps=3)
        finals, traces = gen.generate_batch(initial, cand, e_user, gp, cfg)
        assert finals.shape == (records, m) and finals.dtype == np.int64
        for i in range(records):
            ref_final, ref_trace = reference_generate(initial[i], cand[i], e_user[i], gp, cfg)
            assert tuple(finals[i].tolist()) == ref_final
            assert traces[i].to_json() == ref_trace.to_json()
            single = gen.generate(initial[i], cand[i], None, gp, cfg, e_user=e_user[i])
            assert type(single[0]) is tuple and all(type(x) is int for x in single[0])
            assert single[0] == ref_final and single[1].to_json() == ref_trace.to_json()
        reasons = {t.stop_reason for t in traces}
        assert reasons == {"low-confidence", "same-item", "max-steps"}
        assert any(s.candidate is None for t in traces for s in t.steps)   # slot head stopped
        assert any(len(t.steps) > 1 for t in traces)

    def test_noise_needs_an_array(self):
        gp = make_generator()
        initial = np.array([[0, 1, 2]])
        cand = rand_ids(41, (1, gp.dims.num_candidates), gp.dims)
        with pytest.raises(ValueError, match="noise"):
            gen.generate_batch(initial, cand, np.zeros((1, gp.dims.embed_dim)), gp,
                               gen.GumbelConfig(noise=True))


class TestCheckpoint:
    def test_round_trip_and_dims_check(self, tmp_path):
        gp = make_generator(seed=50)
        gp.reward_scale = 2.75
        path = tmp_path / "gen.ckpt"
        gp.save(path)
        loaded = gen.GeneratorParams.load(path, gp.shared)
        assert loaded.reward_scale == 2.75
        for name, tensor in gp.ps.items():
            assert np.array_equal(tensor.value, loaded.ps[name].value)
        other = ev.EvaluatorParams.init(tiny_dims(embed_dim=4), RngStream(1))
        with pytest.raises(ValueError):
            gen.GeneratorParams.load(path, other)

    def test_load_draws_no_random_init_and_names_missing_tensor(self, tmp_path, monkeypatch):
        gp = make_generator(seed=51)
        path = tmp_path / "gen.ckpt"
        gp.save(path)
        monkeypatch.setattr(RngStream, "normal", lambda *a, **k: pytest.fail("random init"))
        loaded = gen.GeneratorParams.load(path, gp.shared)
        assert list(loaded.ps) == list(gp.ps)
        arrays = load_arrays(path)
        del arrays["cand.b"]
        save_arrays(path, arrays)
        with pytest.raises(CheckpointError, match="'cand.b'"):
            gen.GeneratorParams.load(path, gp.shared)
