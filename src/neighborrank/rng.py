"""Counter-based random streams with explicit splitting.

Every draw is a pure function of (seed, counter), so a stream can be
reconstructed from two integers and identical (seed, counter) pairs produce
identical sequences on any platform. Streams are split by hashing string/int
tags into a child seed, which keeps data generation, sampling noise and
parameter init statistically independent without shared mutable state.
"""
from __future__ import annotations

import math

import numpy as np

_U64 = np.uint64
_GOLDEN_INT = 0x9E3779B97F4A7C15
_MIX1_INT = 0xBF58476D1CE4E5B9
_MIX2_INT = 0x94D049BB133111EB
_GOLDEN = _U64(_GOLDEN_INT)
_MIX1 = _U64(_MIX1_INT)
_MIX2 = _U64(_MIX2_INT)
_MASK = 0xFFFFFFFFFFFFFFFF
_INV53 = float(2.0**-53)


def _finalize(x: np.ndarray) -> np.ndarray:
    # SplitMix64 output function. uint64 array arithmetic wraps silently,
    # which is the intended modular arithmetic.
    x = (x ^ (x >> _U64(30))) * _MIX1
    x = (x ^ (x >> _U64(27))) * _MIX2
    return x ^ (x >> _U64(31))


def _finalize_int(x: int) -> int:
    # The same output function on one value, as 64-bit-masked Python ints.
    x = ((x ^ (x >> 30)) * _MIX1_INT) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2_INT) & _MASK
    return x ^ (x >> 31)


def _mix_pair(a: int, b: int) -> int:
    return _finalize_int((a + ((b * _GOLDEN_INT) & _MASK)) & _MASK)


def _mix_rows(a: np.ndarray, b) -> np.ndarray:
    # _mix_pair on a uint64 array, with one int tag or an array of tags
    b = b.astype(np.uint64) * _GOLDEN if isinstance(b, np.ndarray) else _U64((b * _GOLDEN_INT) & _MASK)
    return _finalize(a + b)


def _unit(raw: np.ndarray) -> np.ndarray:
    """Raw 64-bit draws to uniforms on the open interval (0, 1)."""
    return ((raw >> _U64(11)).astype(np.float64) + 0.5) * _INV53


def _box_muller(u1: np.ndarray, u2: np.ndarray, n: int) -> np.ndarray:
    """n standard normals along the last axis from paired uniforms."""
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * math.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)[..., :n]


def _size(shape) -> int:
    """Element count of an int or tuple shape."""
    return int(shape) if isinstance(shape, (int, np.integer)) else int(math.prod(shape))


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
    """A deterministic stream identified by (seed, counter)."""

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed) & _MASK
        self.counter = int(counter)

    def split(self, *tags) -> "RngStream":
        """Derive an independent child stream from hashable tags."""
        child = _mix_pair(self.seed, 0x5851F42D4C957F2D)
        for tag in tags:
            child = _mix_pair(child, _token_to_int(tag))
        return RngStream(child, 0)

    def split_rows(self, *tags, rows) -> "StreamRows":
        """Child streams self.split(*tags, r) for every int r in `rows`: the
        shared prefix once, then one array mix over the row tags."""
        return StreamRows(_mix_rows(_U64(self.split(*tags).seed), np.asarray(rows)))

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        return _finalize(_U64(self.seed) + idx * _GOLDEN)

    def uniform(self, shape=None) -> np.ndarray | float:
        """Uniform draws on the open interval (0, 1)."""
        n = 1 if shape is None else _size(shape)
        u = _unit(self._raw(n))
        if shape is None:
            return float(u[0])
        return u.reshape(shape)

    def normal(self, shape=None, mean: float = 0.0, std: float = 1.0):
        n = 1 if shape is None else _size(shape)
        pairs = (n + 1) // 2
        u1 = self.uniform((pairs,))
        z = mean + std * _box_muller(u1, self.uniform((pairs,)), n)
        if shape is None:
            return float(z[0])
        return z.reshape(shape)

    def gumbel(self, shape=None):
        """Standard Gumbel noise, -log(-log(u)) with u in (0, 1)."""
        u = self.uniform(shape)
        return -np.log(-np.log(u))

    def integers(self, low: int, high: int, shape=None):
        """Uniform integers in [low, high)."""
        if high <= low:
            raise ValueError(f"empty integer range [{low}, {high})")
        out = np.floor(self.uniform(shape) * (high - low)).astype(np.int64) + low
        out = np.minimum(out, high - 1)
        return int(out) if shape is None else out

    def permutation(self, n: int) -> np.ndarray:
        """A uniformly random permutation of range(n)."""
        return np.argsort(self._raw(n), kind="stable").astype(np.int64)

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
        return _unit(self._raw(math.prod(shape))).reshape(len(self.seeds), *shape)

    def normal(self, shape: tuple) -> np.ndarray:
        """RngStream.normal per row: u1 then u2, Box-Muller over the flat draw."""
        n = math.prod(shape)
        pairs = (n + 1) // 2
        u1 = self.uniform((pairs,))
        return _box_muller(u1, self.uniform((pairs,)), n).reshape(len(self.seeds), *shape)

    def gumbel(self, shape: tuple) -> np.ndarray:
        return -np.log(-np.log(self.uniform(shape)))

    def permutation(self, n: int) -> np.ndarray:
        return np.argsort(self._raw(n), axis=1, kind="stable")
