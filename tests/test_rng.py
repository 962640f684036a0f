import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neighborrank import rng as rng_mod
from neighborrank.rng import RngStream

# Every draw in this module runs with warnings as errors: the streams use
# wrapping uint64 arithmetic and must not emit overflow warnings.
pytestmark = pytest.mark.filterwarnings("error")

U64 = st.integers(0, 2**64 - 1)
TAGS = st.lists(st.one_of(U64, st.text(max_size=8)), max_size=4)


# Reference SplitMix64 on numpy uint64 arrays, with np.errstate: the stream
# layout the Python-int split and the errstate-free draws must reproduce.
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


def ref_uniform(seed, counter, n):
    idx = np.arange(counter + 1, counter + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = np.uint64(seed) + idx * np.uint64(0x9E3779B97F4A7C15)
    return ((ref_finalize(x) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


@given(a=U64, b=U64)
@settings(max_examples=300, deadline=None)
def test_mix_pair_matches_numpy_reference(a, b):
    assert rng_mod._mix_pair(a, b) == ref_mix_pair(a, b)


@given(seed=U64, tags=TAGS)
@settings(max_examples=200, deadline=None)
def test_split_matches_numpy_reference(seed, tags):
    child = RngStream(seed).split(*tags)
    assert child.seed == ref_split_seed(seed, tags)
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
