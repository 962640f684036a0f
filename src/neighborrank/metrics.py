"""Ranking metrics and the permutation space behind the exhaustive oracle.

AUC / log loss / NDCG score per-item predictions against labels. The
permutation utilities enumerate every ordered m-selection from n candidates
(lexicographic order over candidate indices), which lets the oracle in
`pipeline` rank any proposed list against the full combinatorial space
(scored per item set, see `selection_index`). Hit ratio at a percentage is
then "did the proposed list land in the top slice".
"""
from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Iterator, Sequence

import numpy as np


class MetricError(ValueError):
    pass


class PermutationSpace:
    """All ordered m-selections of range(n), in lexicographic order."""

    def __init__(self, n: int, m: int):
        if not (1 <= m <= n):
            raise MetricError(f"need 1 <= m <= n, got m={m}, n={n}")
        self.n = n
        self.m = m

    @property
    def count(self) -> int:
        return math.perm(self.n, self.m)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return itertools.permutations(range(self.n), self.m)

    def index(self, perm: Sequence[int]) -> int:
        """Lexicographic position of one m-selection, 0-based."""
        perm = tuple(int(p) for p in perm)
        if len(perm) != self.m or len(set(perm)) != self.m:
            raise MetricError(f"not a valid selection of length {self.m}: {perm}")
        if any(p < 0 or p >= self.n for p in perm):
            raise MetricError(f"selection {perm} outside range({self.n})")
        used = np.zeros(self.n, dtype=bool)
        idx = 0
        for t, p in enumerate(perm):
            smaller_unused = int(np.count_nonzero(~used[:p]))
            idx += smaller_unused * math.perm(self.n - t - 1, self.m - t - 1)
            used[p] = True
        return idx

    def as_array(self) -> np.ndarray:
        """(count, m) int array of all selections; only for enumerable sizes."""
        return np.array(list(self), dtype=np.int64)


@functools.cache
def selection_index(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each m-selection of range(n), in enumeration order, by its item set:
    `sets` (S, m) sorted, in itertools.combinations order; `set_of` (count,)
    and `item_pos` (count, m) with `sets[set_of[i], item_pos[i]]` selection i.
    Built once per (n, m); read-only, so every thread may share the arrays."""
    perms = PermutationSpace(n, m).as_array()
    sets, set_of = np.unique(np.sort(perms, axis=1), axis=0, return_inverse=True)
    item_pos = np.argsort(np.argsort(perms, axis=1), axis=1)
    out = (sets, set_of.reshape(-1), item_pos)
    for arr in out:
        arr.flags.writeable = False
    return out


def auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative.

    Ties count half. Returns NaN when only one class is present, so callers
    can drop undefined slices from aggregates.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # every run of tied scores [start, end) shares its mean 1-based rank
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], scores.size]
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    rank_sum_pos = ranks[pos].sum()
    return float((rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def log_loss(probs, labels, eps: float = 1e-12) -> float:
    probs = np.clip(np.asarray(probs, dtype=np.float64).ravel(), eps, 1.0 - eps)
    labels = np.asarray(labels, dtype=np.float64).ravel()
    return float(-(labels * np.log(probs) + (1.0 - labels) * np.log(1.0 - probs)).mean())


def ndcg_rows(scores, relevance, k: int) -> np.ndarray:
    """NDCG@k of every row of (N, m) scores against (N, m) relevance.

    Gain = relevance, discount 1/log2(pos+1); positions come from sorting
    each row by predicted score (descending, stable). A row that carries no
    relevance is NaN, flagging it for exclusion from averages.
    """
    if k < 1:
        raise MetricError(f"k must be >= 1, got {k}")
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    relevance = np.atleast_2d(np.asarray(relevance, dtype=np.float64))
    if scores.shape[-1] == 0:
        raise MetricError("empty list")
    order = np.argsort(-scores, axis=1, kind="mergesort")
    discounts = 1.0 / np.log2(np.arange(2, scores.shape[1] + 2, dtype=np.float64))[:k]
    dcg = (np.take_along_axis(relevance, order, axis=1)[:, :k] * discounts).sum(axis=1)
    ideal = (np.sort(relevance, axis=1)[:, ::-1][:, :k] * discounts).sum(axis=1)
    defined = relevance.sum(axis=1) > 0
    return np.divide(dcg, ideal, out=np.full(len(dcg), np.nan), where=defined)


def ndcg_at_k(scores, relevance, k: int) -> float:
    """NDCG@k of one list (see ndcg_rows); NaN when it carries no relevance."""
    return float(ndcg_rows(np.ravel(scores), np.ravel(relevance), k)[0])


def mean_ignoring_undefined(values: Iterable[float]) -> float:
    arr = np.asarray([v for v in values if not math.isnan(v)], dtype=np.float64)
    return float(arr.mean()) if arr.size else float("nan")


def rank_in_scores(scores: np.ndarray, index: int) -> int:
    """1-based rank of entry `index` under descending score.

    Ties resolve by enumeration order, so equal-scored entries that enumerate
    earlier rank better.
    """
    s = scores[index]
    better = int(np.count_nonzero(scores > s))
    tied_before = int(np.count_nonzero(scores[:index] == s))
    return better + tied_before + 1


def hit_cutoff(count: int, pct: float) -> int:
    if not (0 < pct < 100):
        raise MetricError(f"pct must be in (0, 100), got {pct}")
    return max(1, math.floor(pct / 100.0 * count))


def hit_ratio(ranks: Sequence[int], count: int, pct: float) -> float:
    """Fraction of records whose rank among `count` lists lands within the
    top pct% cutoff; NaN when there are no records."""
    ranks = np.asarray(ranks, dtype=np.int64)
    return float(np.mean(ranks <= hit_cutoff(count, pct))) if ranks.size else float("nan")


def greedy_order(pctr: np.ndarray) -> np.ndarray:
    """Reorder positions by descending predicted click rate, stable on ties."""
    return np.argsort(-np.asarray(pctr, dtype=np.float64), kind="mergesort")
