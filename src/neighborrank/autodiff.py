"""Reverse-mode autodiff on float64 numpy arrays.

The graph is rebuilt on every forward pass (define-by-run). Each Tensor holds
a value, a lazily allocated gradient of the same shape, the name of the op
that produced it, references to its parents and, for each parent, one
vector-Jacobian product (VJP): a function from the output's gradient to that
parent's share of it. Ops state only their VJPs. backward() walks the graph
in reverse topological order, so every node passes its gradient on exactly
once. It alone routes the shares and adds them, so gradients accumulate across
all paths. A share is an array of the parent's shape, or a (rows, values) pair
that is added row by row with np.add.at (an embedding table's share). A VJP
returns a new array or a view, never an array it keeps: a parent's first share
becomes its gradient when the VJP allocated it, and a copy when it is the
output's gradient itself or a view. affine (x @ w + b) is one op that adds the
bias in place, so an MLP layer keeps one full-size array before its activation.
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
    __slots__ = ("value", "grad", "op", "parents", "requires_grad", "vjps")

    def __init__(self, value, requires_grad: bool = False, op: str = "leaf",
                 parents: tuple = (), vjps: tuple[Callable, ...] = ()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.op = op
        self.parents = parents
        self.requires_grad = requires_grad
        self.vjps = vjps

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

    def backward(self):
        """Backpropagate from a scalar root; root grad is set to 1.

        Each interior node, the root included, drops its gradient once it has
        passed it to its parents, so afterwards only leaves hold a gradient."""
        if self.size != 1:
            raise ShapeError(f"backward() root must be scalar, got shape {self.shape}")
        order = topo_order(self)
        self.grad = np.ones(self.value.shape, dtype=np.float64)
        for node in reversed(order):
            g = node.grad
            if not node.vjps or g is None:
                continue
            for parent, vjp in zip(node.parents, node.vjps):
                if not parent.requires_grad:
                    continue
                share = vjp(g)
                if type(share) is tuple:
                    if parent.grad is None:
                        parent.grad = np.zeros(parent.value.shape, dtype=np.float64)
                    np.add.at(parent.grad, *share)
                elif parent.grad is not None:
                    parent.grad += share
                elif share is not g and share.base is None and type(share) is np.ndarray:
                    parent.grad = share             # the VJP allocated it
                else:
                    parent.grad = np.array(share)   # g itself, a view or a numpy scalar
            node.grad = None

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


def _make(value, op, parents, vjps) -> Tensor:
    """The op's output; `vjps[i]` maps its gradient to `parents[i]`'s share."""
    if _grad_mode.enabled and any(p.requires_grad for p in parents):
        return Tensor(value, requires_grad=True, op=op, parents=tuple(parents), vjps=vjps)
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
    return _make(out_val, "add", (a, b), (lambda g: _unbroadcast(g, a.shape),
                                          lambda g: _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_val = a.value - b.value
    return _make(out_val, "sub", (a, b), (lambda g: _unbroadcast(g, a.shape),
                                          lambda g: _unbroadcast(-g, b.shape)))


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _make(-a.value, "neg", (a,), (lambda g: -g,))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_val = a.value * b.value
    av, bv = a.value, b.value
    return _make(out_val, "mul", (a, b), (lambda g: _unbroadcast(g * bv, a.shape),
                                          lambda g: _unbroadcast(g * av, b.shape)))


def scale(a, s: float) -> Tensor:
    a = _as_tensor(a)
    s = float(s)
    return _make(a.value * s, "scale", (a,), (lambda g: g * s,))


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return _make(a.value @ b.value, "matmul", (a, b), _matmul_vjps(a, b))


def _matmul_vjps(a: Tensor, b: Tensor) -> tuple[Callable, Callable]:
    """a @ b's VJPs for a and b, shared by matmul and affine."""
    av, bv = a.value, b.value
    if bv.ndim == 2:
        # rows x weight: fold the leading axes into rows, so b's gradient is
        # one (k, n) GEMM, never a (..., k, n) stack summed afterwards
        return (lambda g: (g.reshape(-1, g.shape[-1]) @ bv.T).reshape(a.shape),
                lambda g: av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
    return (lambda g: _unbroadcast(g @ np.swapaxes(bv, -1, -2), a.shape),
            lambda g: _unbroadcast(np.swapaxes(av, -1, -2) @ g, b.shape))


def affine(x, w, b) -> Tensor:
    """x @ w + b with the bias broadcast over leading axes, as one op: the
    bias is added in place into matmul's product."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.ndim < 2 or w.ndim < 2 or x.shape[-1] != w.shape[-2]:
        raise ShapeError(f"affine: input shape {x.shape} does not match weight shape {w.shape}")
    if b.shape[-1] != w.shape[-1]:
        raise ShapeError(f"affine: bias shape {b.shape} does not match weight shape {w.shape}")
    out_val = x.value @ w.value
    out_val += b.value
    return _make(out_val, "affine", (x, w, b),
                 _matmul_vjps(x, w) + (lambda g: _unbroadcast(g, b.shape),))


def transpose_last2(a) -> Tensor:
    a = _as_tensor(a)
    return _make(np.swapaxes(a.value, -1, -2), "transpose", (a,),
                 (lambda g: np.swapaxes(g, -1, -2),))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old_shape = a.shape
    return _make(a.value.reshape(shape), "reshape", (a,), (lambda g: g.reshape(old_shape),))


def expand_dims(a, axis: int) -> Tensor:
    a = _as_tensor(a)
    at = range(a.ndim + 1)[axis]   # np.expand_dims' position, by a cheaper reshape
    return _make(a.value.reshape(a.shape[:at] + (1,) + a.shape[at:]), "expand_dims", (a,),
                 (lambda g: np.squeeze(g, axis=axis),))


def broadcast_to(a, shape) -> Tensor:
    a = _as_tensor(a)
    old_shape = a.shape
    out = np.empty(shape)
    out[...] = a.value           # a broadcasting copy, without np.broadcast_to's overhead
    return _make(out, "broadcast", (a,), (lambda g: _unbroadcast(g, old_shape),))


def _axis_slice(ndim: int, axis: int, start: int, stop: int) -> tuple:
    index = [slice(None)] * ndim
    index[axis] = slice(start, stop)
    return tuple(index)


def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    """Join along `axis`, each part broadcast over the other axes by numpy's
    rules; a part's VJP is its slice of the gradient summed to its shape."""
    ts = [_as_tensor(t) for t in tensors]
    ndim = max([t.ndim for t in ts])
    axis, shapes = axis % ndim, [(1,) * (ndim - t.ndim) + t.shape for t in ts]
    # numpy's rule: a 1 gives way to any size, 0 included; a mismatch fails the copy below
    out_shape = [0 if 0 in sizes else max(sizes) for sizes in zip(*shapes)]
    out_shape[axis] = sum([s[axis] for s in shapes])
    out_val, vjps, stop, lead = np.empty(out_shape), [], 0, (slice(None),) * axis
    for t, s in zip(ts, shapes):
        start, stop = stop, stop + s[axis]
        index = lead + (slice(start, stop),)
        out_val[index] = t.value
        vjps.append(lambda g, index=index, shape=t.shape: _unbroadcast(g[index], shape))
    return _make(out_val, "concat", tuple(ts), tuple(vjps))


def _zeros_with(shape: tuple, index: tuple, g: np.ndarray) -> np.ndarray:
    full = np.zeros(shape, dtype=np.float64)
    full[index] = g
    return full


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    index = _axis_slice(a.ndim, axis, start, stop)
    return _make(a.value[index].copy(), "slice", (a,), (lambda g: _zeros_with(a.shape, index, g),))


def embed_lookup(table, ids) -> Tensor:
    """Gather rows of a (vocab, dim) table; backward scatters into the table."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        bad = ids[(ids < 0) | (ids >= table.shape[0])].ravel()[0]
        raise VocabError(f"id {int(bad)} outside vocabulary of size {table.shape[0]}")
    out_val = table.value.take(ids, axis=0)   # the range check above: take wraps negative ids
    dim = table.shape[1]
    # a (rows, values) share: backward adds it row by row, repeated ids included
    return _make(out_val, "embed", (table,), (lambda g: (ids.reshape(-1), g.reshape(-1, dim)),))


def softmax_rows(a) -> Tensor:
    """Row-wise softmax over the last axis, stabilized by max subtraction."""
    a = _as_tensor(a)
    if np.isnan(a.value).any():
        raise FloatingPointError("softmax_rows: NaN in input")
    shifted = a.value - _reduce_axis(a.value, -1, np.maximum, keepdims=True)
    e = np.exp(shifted)
    out_val = e / _reduce_axis(e, -1, np.add, keepdims=True)
    return _make(out_val, "softmax", (a,),
                 (lambda g: out_val * (g - _reduce_axis(g * out_val, -1, np.add, keepdims=True)),))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    # tanh form is overflow-safe at both tails
    out_val = 0.5 * (1.0 + np.tanh(0.5 * a.value))
    return _make(out_val, "sigmoid", (a,), (lambda g: g * out_val * (1.0 - out_val),))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.value > 0
    return _make(a.value * mask, "relu", (a,), (lambda g: g * mask,))


def log(a) -> Tensor:
    a = _as_tensor(a)
    out_val = np.log(a.value)
    av = a.value
    return _make(out_val, "log", (a,), (lambda g: g / av,))


def clamp(a, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient passes only through unclipped entries."""
    a = _as_tensor(a)
    out_val = np.clip(a.value, lo, hi)
    mask = (a.value > lo) & (a.value < hi)
    return _make(out_val, "clamp", (a,), (lambda g: g * mask,))


# Rows (reductions) from which _reduce_axis folds. Measured on one core, folding
# breaks even with numpy at about 200 rows in softmax_rows (forward and VJP) and
# 500 in reduce_mean; a walk's batch of one reduces 5-25 rows a call.
FOLD_MIN_ROWS = 256


def _reduce_axis(x: np.ndarray, axis: int, ufunc: np.ufunc, keepdims: bool = False) -> np.ndarray:
    """ufunc.reduce(x, axis) bit for bit. numpy reduces an axis shorter than 8 left
    to right (a sum from 0), one inner-loop call per row; folding the axis's slices
    in that order is faster over many rows. Longer axes keep numpy's pairwise sum."""
    n = x.shape[axis]
    if not 0 < n < 8 or x.size < FOLD_MIN_ROWS * n:
        return ufunc.reduce(x, axis=axis, keepdims=keepdims)
    ax = axis % x.ndim
    lead = (slice(None),) * ax
    out = x[lead + (0,)].copy() if ufunc.identity is None else ufunc(ufunc.identity, x[lead + (0,)])
    for i in range(1, n):
        ufunc(out, x[lead + (i,)], out=out)
    return out.reshape(x.shape[:ax] + (1,) + x.shape[ax + 1:]) if keepdims else out


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
    return _make(out_val, "sum", (a,),
                 (lambda g: np.broadcast_to(np.expand_dims(g, axes), in_shape),))


def reduce_mean(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    axes = _reduce_axes(axis, a.ndim)
    count = int(np.prod([a.shape[ax] for ax in axes]))
    out_val = _reduce_axis(a.value, axes[0], np.add) / count if len(axes) == 1 else a.value.mean(axis=axes)
    in_shape = a.shape
    return _make(out_val, "mean", (a,),
                 (lambda g: np.broadcast_to(np.expand_dims(g, axes), in_shape) / count,))


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
