"""Ranking metrics and the permutation space behind the exhaustive oracle.

AUC / log loss / NDCG score per-item predictions against labels. The
permutation utilities enumerate every ordered m-selection from n candidates
(lexicographic order over candidate indices), which lets the oracle in
`pipeline` rank any proposed list against the full combinatorial space. Hit
ratio at a percentage is then "did the proposed list land in the top slice".
"""
from __future__ import annotations

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

    def __len__(self) -> int:
        return self.count

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
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    rank_pos = 1.0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        avg = 0.5 * (rank_pos + rank_pos + (j - i))
        ranks[order[i : j + 1]] = avg
        rank_pos += j - i + 1
        i = j + 1
    rank_sum_pos = ranks[pos].sum()
    return float((rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def log_loss(probs, labels, eps: float = 1e-12) -> float:
    probs = np.clip(np.asarray(probs, dtype=np.float64).ravel(), eps, 1.0 - eps)
    labels = np.asarray(labels, dtype=np.float64).ravel()
    return float(-(labels * np.log(probs) + (1.0 - labels) * np.log(1.0 - probs)).mean())


def ndcg_at_k(scores, relevance, k: int) -> float:
    """NDCG with gain = relevance and 1/log2(pos+1) discount.

    Positions come from sorting by predicted score (descending, stable).
    Returns NaN when the list carries no relevance, flagging it for exclusion
    from averages.
    """
    if k < 1:
        raise MetricError(f"k must be >= 1, got {k}")
    scores = np.asarray(scores, dtype=np.float64).ravel()
    relevance = np.asarray(relevance, dtype=np.float64).ravel()
    if scores.size == 0:
        raise MetricError("empty list")
    if relevance.sum() <= 0:
        return float("nan")
    order = np.argsort(-scores, kind="mergesort")
    discounts = 1.0 / np.log2(np.arange(2, scores.size + 2, dtype=np.float64))
    dcg = float((relevance[order][:k] * discounts[:k]).sum())
    ideal = float((np.sort(relevance)[::-1][:k] * discounts[:k]).sum())
    return dcg / ideal


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


def hit_ratio(ranks: Sequence[int], counts: Sequence[int] | int, pct: float) -> float:
    """Fraction of records whose rank lands within the top pct% cutoff."""
    ranks = np.asarray(ranks, dtype=np.int64)
    if isinstance(counts, (int, np.integer)):
        counts = np.full(ranks.shape, int(counts), dtype=np.int64)
    else:
        counts = np.asarray(counts, dtype=np.int64)
    hits = [int(r <= hit_cutoff(int(c), pct)) for r, c in zip(ranks, counts)]
    return float(np.mean(hits)) if len(hits) else float("nan")


def greedy_order(pctr: np.ndarray) -> np.ndarray:
    """Reorder positions by descending predicted click rate, stable on ties."""
    return np.argsort(-np.asarray(pctr, dtype=np.float64), kind="mergesort")
