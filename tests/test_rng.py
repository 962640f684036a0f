import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neighborrank import rng as rng_mod
from neighborrank.rng import RngStream, StreamRows

# Every draw in this module runs with warnings as errors: the streams use
# wrapping uint64 arithmetic and must not emit overflow warnings. The one
# exception is a DeprecationWarning hypothesis's own failure reporting raises
# (it imports libcst, which uses mypy_extensions.TypedDict); as an error it
# would end the whole pytest run in INTERNALERROR instead of one failed test.
pytestmark = pytest.mark.filterwarnings(
    "error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

U64 = st.integers(0, 2**64 - 1)
TAGS = st.lists(st.one_of(U64, st.text(max_size=8)), max_size=4)


# Reference SplitMix64 on numpy uint64 arrays, with np.errstate: the stream
# layout that StreamRows rows and RngStream (its one-row view) must reproduce.
def ref_finalize(x):
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def ref_mix_pair(a, b):
    mask = 2**64 - 1
    arr = np.array([(a + ((b * 0x9E3779B97F4A7C15) & mask)) & mask], dtype=np.uint64)
    return int(ref_finalize(arr)[0])


def ref_split_seed(seed, tags):
    child = ref_mix_pair(seed, 0x5851F42D4C957F2D)
    for tag in tags:
        child = ref_mix_pair(child, rng_mod._token_to_int(tag))
    return child


def ref_raw(seed, counter, n):
    idx = np.arange(counter + 1, counter + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return ref_finalize(np.uint64(seed) + idx * np.uint64(0x9E3779B97F4A7C15))


def ref_uniform(seed, counter, n):
    return ((ref_raw(seed, counter, n) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def ref_normal(seed, counter, n):
    """Box-Muller over the reference uniforms: first u1 for every pair, then u2."""
    pairs = (n + 1) // 2
    u1, u2 = ref_uniform(seed, counter, pairs), ref_uniform(seed, counter + pairs, pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    return np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:n]


def ref_gumbel(seed, counter, n):
    return -np.log(-np.log(ref_uniform(seed, counter, n)))


def ref_permutation(seed, counter, n):
    return np.argsort(ref_raw(seed, counter, n), kind="stable")


@given(seed=U64, tags=TAGS)
@settings(max_examples=300, deadline=None)
def test_split_matches_numpy_reference(seed, tags):
    child = RngStream(seed).split(*tags)
    assert type(child.seed) is int and child.seed == ref_split_seed(seed, tags)
    assert child.counter == 0


@given(seed=U64, counter=st.integers(0, 2**48), n=st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_uniform_matches_numpy_reference(seed, counter, n):
    expected = ref_uniform(seed, counter, n)
    scalar = RngStream(seed, counter)
    draws = [scalar.uniform() for _ in range(n)]
    assert all(type(u) is float for u in draws)
    assert np.array_equal(np.array(draws), expected)
    assert scalar.counter == counter + n
    array = RngStream(seed, counter)
    assert np.array_equal(array.uniform((n,)), expected)
    assert array.counter == counter + n


@given(seed=U64, counter=st.integers(0, 2**48), low=st.integers(-50, 50),
       span=st.integers(1, 10**6), n=st.integers(1, 20))
@settings(max_examples=200, deadline=None)
def test_scalar_integers_match_array_integers(seed, counter, low, span, n):
    scalar = RngStream(seed, counter)
    draws = [scalar.integers(low, low + span) for _ in range(n)]
    assert all(type(k) is int for k in draws)
    assert draws == RngStream(seed, counter).integers(low, low + span, (n,)).tolist()


def test_same_seed_counter_same_sequence():
    a = RngStream(1234, 0)
    b = RngStream(1234, 0)
    assert np.array_equal(a.uniform((100,)), b.uniform((100,)))
    assert a.counter == b.counter == 100


def test_counter_resume_matches_fresh_stream():
    a = RngStream(7)
    first = a.uniform((10,))
    resumed = RngStream(7, counter=0)
    assert np.array_equal(resumed.uniform((10,)), first)
    tail_direct = a.uniform((5,))
    tail_resumed = RngStream(7, counter=10).uniform((5,))
    assert np.array_equal(tail_direct, tail_resumed)


def test_split_streams_differ_and_are_stable():
    root = RngStream(42)
    a = root.split("alpha")
    b = root.split("beta")
    a2 = RngStream(42).split("alpha")
    assert np.array_equal(a.uniform((20,)), a2.uniform((20,)))
    assert not np.array_equal(RngStream(42).split("alpha").uniform((20,)), b.uniform((20,)))


def test_split_with_mixed_tags():
    s1 = RngStream(5).split("record", 17)
    s2 = RngStream(5).split("record", 18)
    assert s1.seed != s2.seed


def test_uniform_open_interval():
    u = RngStream(99).uniform((200_000,))
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_normal_moments():
    z = RngStream(3).normal((200_000,))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_normal_odd_size_prefix_of_even():
    s1 = RngStream(11).normal((7,))
    s2 = RngStream(11).normal((8,))
    # both consume the same underlying pairs, so draws are reproducible
    assert np.array_equal(s1, RngStream(11).normal((7,)))
    assert s1.shape == (7,) and s2.shape == (8,)


def test_gumbel_location():
    g = RngStream(8).gumbel((200_000,))
    # mean of Gumbel(0,1) is the Euler-Mascheroni constant
    assert abs(g.mean() - 0.5772156649) < 0.01


def test_integers_range_and_determinism():
    s = RngStream(21)
    draws = s.integers(3, 9, (10_000,))
    assert draws.min() >= 3 and draws.max() <= 8
    counts = np.bincount(draws - 3, minlength=6) / draws.size
    assert np.all(np.abs(counts - 1 / 6) < 0.02)
    with pytest.raises(ValueError):
        s.integers(5, 5)


def test_permutation_and_choice():
    s = RngStream(2)
    p = s.permutation(10)
    assert sorted(p.tolist()) == list(range(10))
    c = RngStream(2).split("pick").choice(10, 4)
    assert len(set(c.tolist())) == 4
    with pytest.raises(ValueError):
        RngStream(2).choice(3, 5)


@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 50))
@settings(max_examples=50, deadline=None)
def test_determinism_property(seed, n):
    assert np.array_equal(RngStream(seed).uniform((n,)), RngStream(seed).uniform((n,)))


ROWS = st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=6)


@given(seed=U64, tags=TAGS, rows=ROWS, child=TAGS, m=st.integers(1, 6), n=st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_stream_rows_match_per_row_streams(seed, tags, rows, child, m, n):
    """split_rows/StreamRows draw, row for row, what RngStream.split draws."""
    streams = RngStream(seed).split_rows(*tags, rows=np.array(rows))
    gumbel_m, gumbel_mn = streams.gumbel((m,)), streams.gumbel((m, n))
    # m and m * n cover odd and even sizes, whose Box-Muller pairs differ
    normal_m, normal_mn = streams.normal((m,)), streams.normal((m, n))
    kids = streams.split(*child)
    perm, uni = kids.permutation(m), kids.uniform((m, n))
    assert gumbel_mn.shape == (len(rows), m, n) and uni.shape == (len(rows), m, n)
    assert normal_mn.shape == (len(rows), m, n)
    for i, r in enumerate(rows):
        one = RngStream(seed).split(*tags, r)
        assert np.array_equal(gumbel_m[i], one.gumbel((m,)))
        assert np.array_equal(gumbel_mn[i], one.gumbel((m, n)))
        assert np.array_equal(normal_m[i], one.normal((m,)))
        assert np.array_equal(normal_mn[i], one.normal((m, n)))
        assert one.counter == streams.counter
        kid = one.split(*child)
        assert np.array_equal(perm[i], kid.permutation(m))
        assert np.array_equal(uni[i], kid.uniform((m, n)))
        assert kid.counter == kids.counter


@given(seed=U64, counter=st.integers(0, 2**48), n=st.integers(1, 30))
@settings(max_examples=100, deadline=None)
def test_stream_rows_resume_at_a_counter(seed, counter, n):
    rows = rng_mod.StreamRows([seed, seed ^ 1], counter)
    got = rows.uniform((n,))
    assert np.array_equal(got[0], ref_uniform(seed, counter, n))
    assert np.array_equal(got[1], ref_uniform(seed ^ 1, counter, n))
    assert rows.counter == counter + n


@given(seeds=st.lists(U64, min_size=1, max_size=4), counter=st.integers(0, 2**48),
       n=st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_draws_match_numpy_reference(seeds, counter, n):
    """normal (odd and even sizes), gumbel and permutation, drawn back to back,
    from every StreamRows row and from RngStream alike."""
    rows = StreamRows(seeds, counter)
    normal, gumbel, perm = rows.normal((n,)), rows.gumbel((n,)), rows.permutation(n)
    pairs = (n + 1) // 2
    for i, seed in enumerate(seeds):
        want_normal = ref_normal(seed, counter, n)
        want_gumbel = ref_gumbel(seed, counter + 2 * pairs, n)
        want_perm = ref_permutation(seed, counter + 2 * pairs + n, n)
        assert np.array_equal(normal[i], want_normal)
        assert np.array_equal(gumbel[i], want_gumbel)
        assert np.array_equal(perm[i], want_perm)
        one = RngStream(seed, counter)
        assert np.array_equal(one.normal((n,)), want_normal)
        assert np.array_equal(one.gumbel((n,)), want_gumbel)
        assert np.array_equal(one.permutation(n), want_perm)
        assert one.counter == rows.counter == counter + 2 * pairs + 2 * n
        scalar = RngStream(seed, counter)
        z, g = scalar.normal(), scalar.gumbel()
        assert type(z) is float and z == ref_normal(seed, counter, 1)[0]
        assert type(g) is float and g == ref_gumbel(seed, counter + 2, 1)[0]
        assert scalar.counter == counter + 3
