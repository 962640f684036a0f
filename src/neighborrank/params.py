"""Named parameter collections backed by autodiff tensors."""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .checkpoint import CheckpointError
from .rng import RngStream

# (name, shape, random) per parameter, in insertion order; random entries
# start as small normal draws, the rest as zeros.
Layout = list[tuple[str, tuple[int, ...], bool]]


def _checked(values: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> np.ndarray:
    if name not in values:
        raise CheckpointError(f"missing parameter {name!r} in checkpoint")
    arr = np.asarray(values[name], dtype=np.float64)
    if arr.shape != shape:
        raise CheckpointError(f"parameter {name!r}: shape {arr.shape} != expected {shape}")
    if not np.isfinite(arr).all():
        raise CheckpointError(f"parameter {name!r}: non-finite values")
    return arr


class ParamSet:
    """Ordered name -> Tensor mapping with init/copy/export helpers."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    @classmethod
    def init(cls, layout: Layout, rng: RngStream, std: float) -> "ParamSet":
        """Fresh parameters: one child stream per random entry, named after it."""
        ps = cls()
        for name, shape, random in layout:
            ps.add(name, rng.split(name).normal(shape, std=std) if random else np.zeros(shape))
        return ps

    @classmethod
    def from_arrays(cls, layout: Layout, arrays: dict[str, np.ndarray]) -> "ParamSet":
        """Parameters taken from checkpoint arrays; raises CheckpointError
        for a missing name or a wrong shape. Names outside the layout are ignored."""
        ps = cls()
        for name, shape, _ in layout:
            ps.add(name, _checked(arrays, name, shape))
        return ps

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True, op="param")
        self._tensors[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __iter__(self):
        return iter(self._tensors)

    def items(self):
        return self._tensors.items()

    def trainable(self) -> dict[str, Tensor]:
        return {k: t for k, t in self._tensors.items() if t.requires_grad}

    def set_trainable(self, flag: bool):
        for t in self._tensors.values():
            t.requires_grad = flag

    def values(self) -> dict[str, np.ndarray]:
        """Copies of all parameter arrays, in insertion order."""
        return {k: t.value.copy() for k, t in self._tensors.items()}

    def load_values(self, values: dict[str, np.ndarray]):
        for name, t in self._tensors.items():
            t.value = _checked(values, name, t.value.shape).copy()
