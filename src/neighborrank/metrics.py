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
from typing import Iterable, Sequence

import numpy as np


class MetricError(ValueError):
    pass


class PermutationSpace:
    """Ordered m-selections of range(n) in lexicographic order: count and index."""

    def __init__(self, n: int, m: int):
        if not (1 <= m <= n):
            raise MetricError(f"need 1 <= m <= n, got m={m}, n={n}")
        self.n = n
        self.m = m

    @property
    def count(self) -> int:
        return math.perm(self.n, self.m)

    def index(self, perms) -> int | np.ndarray:
        """Lexicographic position, 0-based, of one m-selection or of each row of
        an (R, m) int array of them: Lehmer digit t is the item less the smaller
        items before it, weighted perm(n-t-1, m-t-1)."""
        arr = np.asarray(perms)
        if arr.ndim not in (1, 2) or arr.shape[-1] != self.m or arr.dtype.kind not in "iu":
            raise MetricError(f"not a valid selection of length {self.m}: {perms}")
        rows = np.atleast_2d(arr).astype(np.int64, copy=False)
        ordered = np.sort(rows, axis=1)
        bad = (ordered[:, 0] < 0) | (ordered[:, -1] >= self.n) | (np.diff(ordered) == 0).any(1)
        if bad.any():
            r = int(np.argmax(bad))
            raise MetricError(f"row {r}, {rows[r].tolist()}, is not a selection of {self.m} "
                              f"distinct items from range({self.n})")
        digits = rows - np.triu(rows[:, :, None] < rows[:, None, :], 1).sum(axis=1)
        weights = [math.perm(self.n - t - 1, self.m - t - 1) for t in range(self.m)]
        # Python ints where a position may not fit int64
        idx = digits @ np.array(weights, dtype=np.int64 if self.count <= 2**63 else object)
        return int(idx[0]) if arr.ndim == 1 else idx


@functools.cache
def selection_index(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Each m-selection of range(n), by its item set: `sets` (S, m) sorted, in
    itertools.combinations order, and `at` (count, m), in enumeration order,
    where at[i, j] is the flat position, in a raveled (S, item, slot) table, of
    the item selection i puts at slot j. Built once per (n, m) in closed form;
    read-only, so every caller may share the arrays."""
    sets = np.array(list(itertools.combinations(range(n), m)), dtype=np.int64)
    orders = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    # selection sets[s][orders[p]] ranks as PermutationSpace.index does: digit t is
    # its item less the smaller items before it (in a sorted set, those of smaller
    # order), weighted perm(n-t-1, m-t-1)
    digits = sets[:, orders] - np.triu(orders[:, :, None] < orders[:, None, :], 1).sum(axis=1)
    rank = digits @ [math.perm(n - t - 1, m - t - 1) for t in range(m)]
    at = np.empty((rank.size, m), dtype=np.int64)
    at[rank] = (np.arange(len(sets))[:, None, None] * m + orders) * m + np.arange(m)
    for arr in (sets, at):
        arr.flags.writeable = False
    return sets, at


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


def cutoff_keys(scores: np.ndarray, cutoffs: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Score and enumeration index, each (R, len(cutoffs)), of the entry that
    rank_in_scores ranks c-th in each row of (R, count) scores, per cutoff c.
    An entry (s, i) ranks within c exactly when (-s, i) <= (-s_c, i_c)."""
    kth = [scores.shape[1] - c for c in cutoffs]
    key_s = np.partition(scores, kth, axis=1)[:, kth]
    key_i = np.empty(key_s.shape, dtype=np.int64)
    for k, c in enumerate(cutoffs):
        s = key_s[:, k, None]
        # entries tied at s take the ranks the better ones leave, in enumeration order
        left = c - np.count_nonzero(scores > s, axis=1)
        key_i[:, k] = np.argmax(np.cumsum(scores == s, axis=1) >= left[:, None], axis=1)
    return key_s, key_i


def within_cutoff(score, index, key_score, key_index) -> np.ndarray:
    """Whether entries (score, index) rank within their cutoff (see cutoff_keys)."""
    return (score > key_score) | ((score == key_score) & (index <= key_index))


def hit_ratio(ranks: Sequence[int], count: int, pct: float) -> float:
    """Fraction of records whose rank among `count` lists lands within the
    top pct% cutoff; NaN when there are no records."""
    ranks = np.asarray(ranks, dtype=np.int64)
    return float(np.mean(ranks <= hit_cutoff(count, pct))) if ranks.size else float("nan")


def greedy_order(pctr: np.ndarray) -> np.ndarray:
    """Reorder positions by descending predicted click rate, stable on ties."""
    return np.argsort(-np.asarray(pctr, dtype=np.float64), kind="mergesort")
