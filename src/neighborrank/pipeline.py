"""End-to-end composition: reranking runs, oracle ranking and benchmarks.

Everything here treats the evaluator as frozen. HR@k% asks only whether a list
ranks in the top c = hit_cutoff(count, k) orderings of its record's candidates,
so each record's oracle table is cut to the sort keys of its c-th entries.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import evaluator
from .datagen import Records
from .evaluator import EvaluatorParams, scores_for_lists, slot_tables
from .generator import GeneratorParams, GenerationTrace, GumbelConfig, generate_batch
from .metrics import MetricError, PermutationSpace, cutoff_keys, greedy_order, hit_cutoff
from .metrics import rank_in_scores  # noqa: F401  (the benchmark tracer wraps it here)
from .metrics import selection_index, within_cutoff
from .rng import RngStream
from .trainer import RewardConfig, list_reward

ORACLE_CAP = 20_000   # largest permutation space the oracle enumerates
HIT_PCTS = (10.0, 1.0)


@dataclass
class OracleTable:
    """Every permutation's reward for one record, in enumeration order."""

    space: PermutationSpace
    scores: np.ndarray


@dataclass
class OracleKeys:
    """Per record, the (score, enumeration index) keys of its oracle table's
    entries ranked hit_cutoff(count, pct) for HIT_PCTS, and what scores a list."""

    space: PermutationSpace
    key_scores: np.ndarray
    key_index: np.ndarray
    candidate_ids: np.ndarray   # (R, n, F)
    e_user: np.ndarray          # (R, D)
    eval_params: EvaluatorParams
    reward_cfg: RewardConfig
    kept_slot_tables: np.ndarray   # (2, R, m, m) for a swap pool (n == m), else empty


def _oracle_space(eval_params: EvaluatorParams) -> PermutationSpace:
    space = PermutationSpace(eval_params.dims.num_candidates, eval_params.dims.list_size)
    if space.count > ORACLE_CAP:
        raise MetricError(f"permutation space of size {space.count} exceeds enumeration "
                          f"cap {ORACLE_CAP}; sampled ranking is out of scope")
    return space


def _table_rows(candidate_ids: np.ndarray, e_user: np.ndarray, eval_params: EvaluatorParams,
                reward_cfg: RewardConfig) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """(B, count) tables of (B, n, F) candidates, one slot_tables call for all,
    and the (pctr, pcvr) slot tables, each (B * S, m, m), they gather from."""
    b, n, f = candidate_ids.shape
    sets, at = selection_index(n, eval_params.dims.list_size)
    slots = slot_tables(candidate_ids[:, sets].reshape(-1, sets.shape[1], f),
                        np.repeat(e_user, len(sets), axis=0), eval_params)
    pctr, pcvr = (a.reshape(b, -1)[:, at] for a in slots)
    return list_reward(pctr, pcvr, reward_cfg), slots


def oracle_table(record: Records, eval_params: EvaluatorParams,
                 reward_cfg: RewardConfig, e_user: np.ndarray) -> OracleTable:
    """Shaped reward of every ordered slate drawn from the record's candidates."""
    space = _oracle_space(eval_params)
    return OracleTable(space, _table_rows(record.candidate_ids[None], e_user[None],
                                          eval_params, reward_cfg)[0][0])


def greedy_rerank(records: Records, eval_params: EvaluatorParams,
                  e_user: np.ndarray) -> np.ndarray:
    """Score each logged list once, then reorder its slots by descending pCTR:
    (R, m) lists."""
    pctr, _ = scores_for_lists(records.exposed_ids, e_user, eval_params)
    return np.take_along_axis(records.exposed, greedy_order(pctr), axis=1)


def build_oracle_tables(records: Records, eval_params: EvaluatorParams,
                        reward_cfg: RewardConfig, e_user: np.ndarray) -> OracleKeys:
    """Every record's oracle table, cut to its cutoff keys: as many records a
    pass as SCORE_CHUNK // m item sets hold (at least one), each block freed
    once keyed, so memory stays O(records)."""
    space = _oracle_space(eval_params)
    cand = records.candidate_ids
    cutoffs = [hit_cutoff(space.count, pct) for pct in HIT_PCTS]
    key_s = np.empty((len(records), len(cutoffs)))
    key_i = np.empty(key_s.shape, dtype=np.int64)
    # a swap pool has one item set per record, every list's own: keep its 2m² slot scores
    kept = np.empty((2, len(records) if space.n == space.m else 0, space.m, space.m))
    for blk in evaluator.passes(len(records), space.m * math.comb(space.n, space.m)):
        rows, slots = _table_rows(cand[blk], e_user[blk], eval_params, reward_cfg)
        key_s[blk], key_i[blk] = cutoff_keys(rows, cutoffs)
        if kept.size:
            kept[:, blk] = slots
    return OracleKeys(space, key_s, key_i, cand, e_user, eval_params, reward_cfg, kept)


@dataclass
class HrReport:
    """Hit ratios at 10% and 1%, and mean rewards, per reranker."""

    hr: dict[str, dict[float, float]]
    mean_reward: dict[str, float]


def list_rewards(keys: OracleKeys, lists: np.ndarray) -> np.ndarray:
    """Shaped reward of (K, m) lists, list k for record k mod R, gathered from
    the slot tables of its own item set (a swap pool's kept ones, else one
    slot_tables pass over the distinct (record, set) pairs): bit for bit each
    list's oracle_table entry."""
    rec, order = np.arange(len(lists)) % max(1, len(keys.e_user)), np.argsort(lists, axis=1)
    (pctr, pcvr), which = keys.kept_slot_tables, rec
    if not keys.kept_slot_tables.size:
        sets, which = np.unique(np.column_stack([rec, np.take_along_axis(lists, order, axis=1)]),
                                axis=0, return_inverse=True)
        pctr, pcvr = slot_tables(keys.candidate_ids[sets[:, :1], sets[:, 1:]],
                                 keys.e_user[sets[:, 0]], keys.eval_params)
    at = (which.reshape(-1, 1), np.argsort(order, axis=1), np.arange(lists.shape[1]))
    return list_reward(pctr[at], pcvr[at], keys.reward_cfg)


def evaluate_rerankers(keys: OracleKeys, lists_by_model: dict[str, np.ndarray]) -> HrReport:
    """HR@10%, HR@1% and mean shaped reward of each model's list for every
    record, given (R, m) lists (or R tuples) per model; a list hits when its
    (score, index) key is within the cutoff's."""
    r, models = len(keys.e_user), len(lists_by_model)
    if any(len(lists) != r for lists in lists_by_model.values()):
        raise MetricError(f"every model needs one list for each of the {r} records")
    lists = np.array(list(lists_by_model.values()), dtype=np.int64).reshape(-1, keys.space.m)
    index = keys.space.index(lists).reshape(models, r, 1)
    rewards = list_rewards(keys, lists).reshape(models, r)
    hits = within_cutoff(rewards[..., None], index, keys.key_scores, keys.key_index)
    report = HrReport(hr={}, mean_reward={})
    for k, model in enumerate(lists_by_model):
        report.mean_reward[model] = float(np.mean(rewards[k])) if r else float("nan")
        report.hr[model] = {pct: float(np.mean(hits[k, :, p])) if r else float("nan")
                            for p, pct in enumerate(HIT_PCTS)}
    return report


def rerank_records(records: Records, gp: GeneratorParams, cfg: GumbelConfig,
                   e_user: np.ndarray) -> tuple[np.ndarray, list[GenerationTrace]]:
    """Run the generator walk on every record at once (noise off: deterministic):
    (R, m) final lists and their traces."""
    return generate_batch(records.exposed, records.candidate_ids, e_user,
                          gp, dataclasses.replace(cfg, noise=False))


def baseline_lists(records: Records, eval_params: EvaluatorParams,
                   seed: int, e_user: np.ndarray) -> dict[str, np.ndarray]:
    """Input, random and greedy rerankers' (R, m) lists for a record set;
    record i's random list is a permutation from
    RngStream(seed).split("random-baseline").split(i), cut to m."""
    dims = eval_params.dims
    rows = RngStream(seed).split("random-baseline").split_rows(rows=np.arange(len(records)))
    return {
        "input": records.exposed.copy(),
        "random": rows.permutation(dims.num_candidates)[:, : dims.list_size],
        "greedy": greedy_rerank(records, eval_params, e_user),
    }
