"""Reverse-mode autodiff on float64 numpy arrays.

The graph is rebuilt on every forward pass (define-by-run). Each Tensor holds
a value, a lazily allocated gradient of the same shape, the name of the op
that produced it and references to its parents. backward() walks the graph in
reverse topological order, so every node's rule fires exactly once and
gradients accumulate across all paths.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    pass


class VocabError(IndexError):
    pass


class _GradMode(threading.local):
    # one flag per thread, enabled in every new thread
    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Disable graph construction inside the block (forward values only).

    Grad mode is kept per thread, as in PyTorch: the block switches it off for
    the calling thread only, and other threads keep building graphs. Blocks
    that run on several threads at once therefore cannot leave it off.
    """
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


class Tensor:
    __slots__ = ("value", "grad", "op", "parents", "requires_grad", "_bwd")

    def __init__(self, value, requires_grad: bool = False, op: str = "leaf",
                 parents: tuple = (), bwd: Callable | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.op = op
        self.parents = parents
        self.requires_grad = requires_grad
        self._bwd = bwd

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    @property
    def size(self):
        return self.value.size

    def item(self) -> float:
        return float(self.value.reshape(())[()])

    def zero_grad(self):
        self.grad = None

    def _accum(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros(self.value.shape, dtype=np.float64)
        self.grad += g

    def backward(self):
        """Backpropagate from a scalar root; root grad is set to 1."""
        if self.size != 1:
            raise ShapeError(f"backward() root must be scalar, got shape {self.shape}")
        order = topo_order(self)
        self.grad = np.ones(self.value.shape, dtype=np.float64)
        for node in reversed(order):
            if node._bwd is not None and node.grad is not None:
                node._bwd(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def topo_order(root: Tensor) -> list[Tensor]:
    """Topological order of the subgraph that needs gradients, each node once."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def constant(value) -> Tensor:
    return Tensor(value, requires_grad=False, op="const")


def param(value) -> Tensor:
    return Tensor(value, requires_grad=True, op="param")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _make(value, op, parents, bwd) -> Tensor:
    if _grad_mode.enabled and any(p.requires_grad for p in parents):
        return Tensor(value, requires_grad=True, op=op, parents=tuple(parents), bwd=bwd)
    return Tensor(value, requires_grad=False, op=op)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_val = a.value + b.value

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.shape))

    return _make(out_val, "add", (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_val = a.value - b.value

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g, b.shape))

    return _make(out_val, "sub", (a, b), bwd)


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):
        if a.requires_grad:
            a._accum(-g)

    return _make(-a.value, "neg", (a,), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_val = a.value * b.value
    av, bv = a.value, b.value

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * bv, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * av, b.shape))

    return _make(out_val, "mul", (a, b), bwd)


def scale(a, s: float) -> Tensor:
    a = _as_tensor(a)
    s = float(s)

    def bwd(g):
        if a.requires_grad:
            a._accum(g * s)

    return _make(a.value * s, "scale", (a,), bwd)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out_val = a.value @ b.value
    av, bv = a.value, b.value

    def bwd(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(bv, -1, -2)
            a._accum(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.swapaxes(av, -1, -2) @ g
            b._accum(_unbroadcast(gb, b.shape))

    return _make(out_val, "matmul", (a, b), bwd)


def affine(x, w, b) -> Tensor:
    """x @ w + b with the bias broadcast over leading axes."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.shape[-1] != w.shape[-2]:
        raise ShapeError(f"affine: input shape {x.shape} does not match weight shape {w.shape}")
    if b.shape[-1] != w.shape[-1]:
        raise ShapeError(f"affine: bias shape {b.shape} does not match weight shape {w.shape}")
    return add(matmul(x, w), b)


def transpose_last2(a) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):
        if a.requires_grad:
            a._accum(np.swapaxes(g, -1, -2))

    return _make(np.swapaxes(a.value, -1, -2), "transpose", (a,), bwd)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old_shape = a.shape

    def bwd(g):
        if a.requires_grad:
            a._accum(g.reshape(old_shape))

    return _make(a.value.reshape(shape), "reshape", (a,), bwd)


def expand_dims(a, axis: int) -> Tensor:
    a = _as_tensor(a)

    def bwd(g):
        if a.requires_grad:
            a._accum(np.squeeze(g, axis=axis))

    at = range(a.ndim + 1)[axis]   # np.expand_dims' position, by a cheaper reshape
    return _make(a.value.reshape(a.shape[:at] + (1,) + a.shape[at:]), "expand_dims", (a,), bwd)


def broadcast_to(a, shape) -> Tensor:
    a = _as_tensor(a)
    old_shape = a.shape

    def bwd(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, old_shape))

    out = np.empty(shape)
    out[...] = a.value           # a broadcasting copy, without np.broadcast_to's overhead
    return _make(out, "broadcast", (a,), bwd)


def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in ts]
    out_val = np.concatenate([t.value for t in ts], axis=axis)
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        parts = np.split(g, splits, axis=axis)
        for t, part in zip(ts, parts):
            if t.requires_grad:
                t._accum(part)

    return _make(out_val, "concat", tuple(ts), bwd)


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def bwd(g):
        if a.requires_grad:
            full = np.zeros(a.shape, dtype=np.float64)
            full[index] = g
            a._accum(full)

    return _make(a.value[index].copy(), "slice", (a,), bwd)


def embed_lookup(table, ids) -> Tensor:
    """Gather rows of a (vocab, dim) table; backward scatters into the table."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        bad = ids[(ids < 0) | (ids >= table.shape[0])].ravel()[0]
        raise VocabError(f"id {int(bad)} outside vocabulary of size {table.shape[0]}")
    out_val = table.value[ids]
    dim = table.shape[1]

    def bwd(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros(table.shape, dtype=np.float64)
            np.add.at(table.grad, ids.reshape(-1), g.reshape(-1, dim))

    return _make(out_val, "embed", (table,), bwd)


def softmax_rows(a) -> Tensor:
    """Row-wise softmax over the last axis, stabilized by max subtraction."""
    a = _as_tensor(a)
    if np.isnan(a.value).any():
        raise FloatingPointError("softmax_rows: NaN in input")
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_val = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        if a.requires_grad:
            dot = (g * out_val).sum(axis=-1, keepdims=True)
            a._accum(out_val * (g - dot))

    return _make(out_val, "softmax", (a,), bwd)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    # tanh form is overflow-safe at both tails
    out_val = 0.5 * (1.0 + np.tanh(0.5 * a.value))

    def bwd(g):
        if a.requires_grad:
            a._accum(g * out_val * (1.0 - out_val))

    return _make(out_val, "sigmoid", (a,), bwd)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.value > 0

    def bwd(g):
        if a.requires_grad:
            a._accum(g * mask)

    return _make(a.value * mask, "relu", (a,), bwd)


def log(a) -> Tensor:
    a = _as_tensor(a)
    out_val = np.log(a.value)
    av = a.value

    def bwd(g):
        if a.requires_grad:
            a._accum(g / av)

    return _make(out_val, "log", (a,), bwd)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out_val = np.exp(a.value)

    def bwd(g):
        if a.requires_grad:
            a._accum(g * out_val)

    return _make(out_val, "exp", (a,), bwd)


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient passes only through unclipped entries."""
    a = _as_tensor(a)
    out_val = np.clip(a.value, lo, hi)
    mask = (a.value > lo) & (a.value < hi)

    def bwd(g):
        if a.requires_grad:
            a._accum(g * mask)

    return _make(out_val, "clamp", (a,), bwd)


def _reduce_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(ax % ndim for ax in axis)


def reduce_sum(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    axes = _reduce_axes(axis, a.ndim)
    out_val = a.value.sum(axis=axes)
    in_shape = a.shape

    def bwd(g):
        if a.requires_grad:
            ge = g
            for ax in sorted(axes):
                ge = np.expand_dims(ge, ax)
            a._accum(np.broadcast_to(ge, in_shape).copy())

    return _make(out_val, "sum", (a,), bwd)


def reduce_mean(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    axes = _reduce_axes(axis, a.ndim)
    count = int(np.prod([a.shape[ax] for ax in axes]))
    out_val = a.value.mean(axis=axes)
    in_shape = a.shape

    def bwd(g):
        if a.requires_grad:
            ge = g
            for ax in sorted(axes):
                ge = np.expand_dims(ge, ax)
            a._accum(np.broadcast_to(ge, in_shape) / count)

    return _make(out_val, "mean", (a,), bwd)


def grad_check(build: Callable[[], Tensor], wrt: Sequence[Tensor], h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `build` must construct a fresh scalar graph from the current values of the
    tensors in `wrt`. Relative error per coordinate is
    |analytic - numeric| / max(1, |analytic|).
    """
    if h <= 0:
        raise ValueError("grad_check: h must be positive")
    for t in wrt:
        t.zero_grad()
    root = build()
    root.backward()
    analytic = [np.zeros(t.shape) if t.grad is None else t.grad.copy() for t in wrt]
    for t in wrt:
        t.zero_grad()

    worst = 0.0
    for t, a_grad in zip(wrt, analytic):
        flat = t.value.reshape(-1)
        a_flat = a_grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            with no_grad():
                f_plus = build().item()
            flat[i] = orig - h
            with no_grad():
                f_minus = build().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            err = abs(a_flat[i] - numeric) / max(1.0, abs(a_flat[i]))
            worst = max(worst, err)
    return worst
