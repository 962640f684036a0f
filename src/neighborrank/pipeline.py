"""End-to-end composition: reranking runs, oracle ranking and benchmarks.

Everything here treats the evaluator as frozen. Hit-ratio evaluation scores
the full permutation space of each record once with the shaped list reward,
then ranks any number of proposed lists against that table, so comparing
several rerankers costs one table per record, gathered from the evaluator's
per-set (item, slot) scores rather than one network pass per ordering.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .datagen import InteractionRecord
from .evaluator import EvaluatorParams, scores_for_lists, slot_tables
from .generator import GeneratorParams, GenerationTrace, GumbelConfig, generate_batch
from .metrics import MetricError, PermutationSpace, greedy_order, hit_ratio, rank_in_scores
from .metrics import selection_index
from .rng import RngStream
from .trainer import RewardConfig, list_reward

ORACLE_CAP = 20_000   # largest permutation space the oracle enumerates


@dataclass
class OracleTable:
    """Every permutation's reward for one record, in enumeration order."""

    space: PermutationSpace
    scores: np.ndarray


def oracle_table(record: InteractionRecord, eval_params: EvaluatorParams,
                 reward_cfg: RewardConfig, e_user: np.ndarray) -> OracleTable:
    """Shaped reward of every ordered slate drawn from the record's candidates."""
    dims = eval_params.dims
    space = PermutationSpace(dims.num_candidates, dims.list_size)
    if space.count > ORACLE_CAP:
        raise MetricError(f"permutation space of size {space.count} exceeds enumeration "
                          f"cap {ORACLE_CAP}; sampled ranking is out of scope")
    sets, at = selection_index(space.n, space.m)
    pctr, pcvr = slot_tables(record.candidate_ids[sets], e_user, eval_params)
    return OracleTable(space=space, scores=list_reward(pctr.reshape(-1)[at],
                                                       pcvr.reshape(-1)[at], reward_cfg))


def greedy_rerank(records: list[InteractionRecord], eval_params: EvaluatorParams,
                  e_user: np.ndarray) -> list[tuple[int, ...]]:
    """Score each logged list once, then reorder its slots by descending pCTR."""
    pctr, _ = scores_for_lists(np.stack([r.exposed_ids for r in records]), e_user, eval_params)
    return [tuple(int(i) for i in rec.exposed[order])
            for rec, order in zip(records, greedy_order(pctr))]


@dataclass
class HrReport:
    """Hit ratios at 10% and 1%, and mean rewards, per reranker."""

    hr: dict[str, dict[float, float]]
    mean_reward: dict[str, float]


def evaluate_rerankers(tables: Iterable[OracleTable],
                       lists_by_model: dict[str, list[tuple[int, ...]]]) -> HrReport:
    """Rank each model's proposed list for record i against the i-th table.

    Tables are consumed one at a time, so a generator holds one in memory."""
    ranks: dict[str, list[int]] = {model: [] for model in lists_by_model}
    rewards: dict[str, list[float]] = {model: [] for model in lists_by_model}
    count = 0
    for i, table in enumerate(tables):
        count = table.space.count
        for model, lists in lists_by_model.items():
            idx = table.space.index(lists[i])
            ranks[model].append(rank_in_scores(table.scores, idx))
            rewards[model].append(float(table.scores[idx]))

    report = HrReport(hr={}, mean_reward={})
    for model in lists_by_model:
        report.mean_reward[model] = (float(np.mean(rewards[model])) if rewards[model]
                                     else float("nan"))
        report.hr[model] = {pct: hit_ratio(ranks[model], count, pct) for pct in (10.0, 1.0)}
    return report


def build_oracle_tables(records: list[InteractionRecord], eval_params: EvaluatorParams,
                        reward_cfg: RewardConfig, e_user: np.ndarray) -> list[OracleTable]:
    """Precompute per-record permutation tables (reusable across rerankers)."""
    return [oracle_table(rec, eval_params, reward_cfg, e_user[i])
            for i, rec in enumerate(records)]


def rerank_records(records: list[InteractionRecord], gp: GeneratorParams,
                   cfg: GumbelConfig, e_user: np.ndarray
                   ) -> tuple[list[tuple[int, ...]], list[GenerationTrace]]:
    """Run the generator walk on every record at once (noise off: deterministic)."""
    if not records:
        return [], []
    return generate_batch(np.stack([r.exposed for r in records]),
                          np.stack([r.candidate_ids for r in records]), e_user,
                          gp, dataclasses.replace(cfg, noise=False))


def baseline_lists(records: list[InteractionRecord], eval_params: EvaluatorParams,
                   seed: int, e_user: np.ndarray) -> dict[str, list[tuple[int, ...]]]:
    """Input, random and greedy rerankers for a record set; record i's random list
    is a permutation from RngStream(seed).split("random-baseline").split(i), cut to m."""
    dims = eval_params.dims
    rows = RngStream(seed).split("random-baseline").split_rows(rows=np.arange(len(records)))
    return {
        "input": [tuple(int(x) for x in r.exposed) for r in records],
        "random": [tuple(p) for p in
                   rows.permutation(dims.num_candidates)[:, : dims.list_size].tolist()],
        "greedy": greedy_rerank(records, eval_params, e_user),
    }
