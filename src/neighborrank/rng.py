"""Counter-based random streams with explicit splitting.

Every draw is a pure function of (seed, counter), so a stream can be
reconstructed from two integers and identical (seed, counter) pairs produce
identical sequences on any platform. Streams are split by hashing string/int
tags into a child seed, which keeps data generation, sampling noise and
parameter init statistically independent without shared mutable state.

`StreamRows` is the one SplitMix64 implementation: many streams drawn in
lockstep on uint64 arrays. `RngStream` is its one-row view.
"""
from __future__ import annotations

import math

import numpy as np

_U64 = np.uint64
_GOLDEN_INT = 0x9E3779B97F4A7C15
_GOLDEN = _U64(_GOLDEN_INT)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF
_INV53 = float(2.0**-53)


def _finalize(x: np.ndarray) -> np.ndarray:
    # SplitMix64 output function. uint64 array arithmetic wraps silently,
    # which is the intended modular arithmetic.
    x = (x ^ (x >> _U64(30))) * _MIX1
    x = (x ^ (x >> _U64(27))) * _MIX2
    return x ^ (x >> _U64(31))


def _mix_rows(a: np.ndarray, b) -> np.ndarray:
    # finalize(a + b * golden) on a uint64 array, with one int tag or an array of tags
    b = b.astype(np.uint64) * _GOLDEN if isinstance(b, np.ndarray) else _U64((b * _GOLDEN_INT) & _MASK)
    return _finalize(a + b)


def _shape(shape) -> tuple:
    """An int or tuple shape as a tuple; None (one scalar draw) as (1,)."""
    if shape is None:
        return (1,)
    return (int(shape),) if isinstance(shape, (int, np.integer)) else tuple(shape)


def _token_to_int(token) -> int:
    if isinstance(token, (int, np.integer)):
        return int(token) & _MASK
    if isinstance(token, str):
        h = 0xCBF29CE484222325
        for byte in token.encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) & _MASK
        return h
    raise TypeError(f"stream tag must be int or str, got {type(token).__name__}")


class RngStream:
    """A deterministic stream identified by (seed, counter): row 0 of a
    one-row StreamRows. Each method draws that row, then moves the counter
    past what it drew; shape None gives a Python scalar."""

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed) & _MASK
        self.counter = int(counter)

    def lockstep(self, draw, *args):
        """draw(StreamRows([seed], counter), *args), whose row 0 is this
        stream; the counter then moves past what the draw consumed."""
        rows = StreamRows([self.seed], self.counter)
        out = draw(rows, *args)
        self.counter = rows.counter
        return out

    def _row(self, draw, shape, *args):
        """Row 0 of draw(*args, shape); a Python scalar when shape is None."""
        row = self.lockstep(draw, *args, _shape(shape))[0]
        return row.item() if shape is None else row

    def split(self, *tags) -> "RngStream":
        """Derive an independent child stream from hashable tags."""
        return RngStream(int(self.lockstep(StreamRows.split, *tags).seeds[0, 0]))

    def split_rows(self, *tags, rows) -> "StreamRows":
        """Child streams self.split(*tags, r) for every int r in `rows`: the
        shared prefix once, then one array mix over the row tags."""
        return StreamRows(_mix_rows(_U64(self.split(*tags).seed), np.asarray(rows)))

    def uniform(self, shape=None):
        """Uniform draws on the open interval (0, 1)."""
        return self._row(StreamRows.uniform, shape)

    def normal(self, shape=None, mean: float = 0.0, std: float = 1.0):
        return mean + std * self._row(StreamRows.normal, shape)

    def gumbel(self, shape=None):
        """Standard Gumbel noise, -log(-log(u)) with u in (0, 1)."""
        return self._row(StreamRows.gumbel, shape)

    def integers(self, low: int, high: int, shape=None):
        """Uniform integers in [low, high)."""
        return self._row(StreamRows.integers, shape, low, high)

    def permutation(self, n: int) -> np.ndarray:
        """A uniformly random permutation of range(n)."""
        return self.lockstep(StreamRows.permutation, n)[0]

    def choice(self, n: int, k: int) -> np.ndarray:
        """k distinct indices sampled uniformly from range(n)."""
        if k > n:
            raise ValueError(f"cannot draw {k} distinct values from range({n})")
        return self.permutation(n)[:k]

    def __repr__(self):
        return f"RngStream(seed={self.seed:#018x}, counter={self.counter})"


class StreamRows:
    """Streams drawn in lockstep: row i is RngStream(seeds[i], counter), and a
    draw of shape S is (rows, *S) with row i equal to that stream's draw."""

    def __init__(self, seeds, counter: int = 0):
        self.seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1)
        self.counter = int(counter)

    def split(self, *tags) -> "StreamRows":
        child = _mix_rows(self.seeds, 0x5851F42D4C957F2D)
        for tag in tags:
            child = _mix_rows(child, _token_to_int(tag))
        return StreamRows(child)

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        return _finalize(self.seeds + idx * _GOLDEN)

    def uniform(self, shape: tuple) -> np.ndarray:
        """On the open interval (0, 1): the top 53 bits of each raw draw, centred."""
        u = ((self._raw(math.prod(shape)) >> _U64(11)).astype(np.float64) + 0.5) * _INV53
        return u.reshape(len(self.seeds), *shape)

    def normal(self, shape: tuple) -> np.ndarray:
        """Box-Muller per row over the flat draw: u1 for every pair, then u2."""
        n = math.prod(shape)
        pairs = (n + 1) // 2
        u1, u2 = self.uniform((pairs,)), self.uniform((pairs,))
        r, theta = np.sqrt(-2.0 * np.log(u1)), 2.0 * math.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=1)[:, :n]
        return z.reshape(len(self.seeds), *shape)

    def gumbel(self, shape: tuple) -> np.ndarray:
        return -np.log(-np.log(self.uniform(shape)))

    def integers(self, low: int, high: int, shape: tuple) -> np.ndarray:
        if high <= low:
            raise ValueError(f"empty integer range [{low}, {high})")
        out = np.floor(self.uniform(shape) * (high - low)).astype(np.int64) + low
        return np.minimum(out, high - 1)

    def permutation(self, n: int) -> np.ndarray:
        return np.argsort(self._raw(n), axis=1, kind="stable")
