"""End-to-end composition: reranking runs, oracle ranking and benchmarks.

Everything here treats the evaluator as frozen. Hit-ratio evaluation scores
the full permutation space of each record once with the shaped list reward,
then ranks any number of proposed lists against that table, so comparing
several rerankers costs one enumeration per record.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .datagen import InteractionRecord
from .evaluator import EvaluatorParams, scores_for_lists, user_vectors
from .generator import GeneratorParams, GenerationTrace, GumbelConfig, generate_batch
from .metrics import MetricError, PermutationSpace, greedy_order, hit_ratio, rank_in_scores
from .rng import RngStream
from .trainer import RewardConfig, list_reward

ORACLE_CAP = 20_000   # largest permutation space the oracle enumerates


@dataclass
class OracleTable:
    """Every permutation's reward for one record, in enumeration order."""

    space: PermutationSpace
    scores: np.ndarray

    def rank(self, perm) -> int:
        """1-based rank of one list; ties go to the earlier enumerated list."""
        return rank_in_scores(self.scores, self.space.index(perm))


def oracle_table(record: InteractionRecord, eval_params: EvaluatorParams,
                 reward_cfg: RewardConfig, e_user: np.ndarray) -> OracleTable:
    """Shaped reward of every ordered slate drawn from the record's candidates."""
    dims = eval_params.dims
    space = PermutationSpace(dims.num_candidates, dims.list_size)
    if space.count > ORACLE_CAP:
        raise MetricError(f"permutation space of size {space.count} exceeds enumeration "
                          f"cap {ORACLE_CAP}; sampled ranking is out of scope")
    perms = space.as_array()
    e_rep = np.broadcast_to(e_user, (len(perms), e_user.shape[-1]))
    pctr, pcvr = scores_for_lists(record.candidate_ids[perms], e_rep, eval_params)
    return OracleTable(space=space, scores=list_reward(pctr, pcvr, reward_cfg))


def random_list(space: PermutationSpace, rng: RngStream) -> tuple[int, ...]:
    return tuple(int(i) for i in rng.permutation(space.n)[: space.m])


def greedy_rerank(records: list[InteractionRecord], eval_params: EvaluatorParams,
                  e_user: np.ndarray) -> list[tuple[int, ...]]:
    """Score each logged list once, then reorder its slots by descending pCTR."""
    pctr, _ = scores_for_lists(np.stack([r.exposed_ids for r in records]), e_user, eval_params)
    return [tuple(int(i) for i in rec.exposed[order])
            for rec, order in zip(records, greedy_order(pctr))]


@dataclass
class HrReport:
    """Hit ratios and mean rewards per reranker, plus per-record detail."""

    hr: dict[str, dict[float, float]]
    mean_reward: dict[str, float]
    ranks: dict[str, list[int]] = field(repr=False, default_factory=dict)
    count: int = 0


def evaluate_rerankers(records: list[InteractionRecord],
                       eval_params: EvaluatorParams,
                       reward_cfg: RewardConfig,
                       lists_by_model: dict[str, list[tuple[int, ...]]],
                       pcts: tuple[float, ...] = (10.0, 1.0),
                       e_user_cache: np.ndarray | None = None,
                       tables: list[OracleTable] | None = None) -> HrReport:
    """Rank each model's proposed list per record against the full space."""
    if e_user_cache is None:
        e_user_cache = user_vectors(records, eval_params)
    ranks: dict[str, list[int]] = {model: [] for model in lists_by_model}
    rewards: dict[str, list[float]] = {model: [] for model in lists_by_model}
    for i, record in enumerate(records):
        table = tables[i] if tables is not None else oracle_table(
            record, eval_params, reward_cfg, e_user_cache[i])
        for model, lists in lists_by_model.items():
            idx = table.space.index(lists[i])
            ranks[model].append(rank_in_scores(table.scores, idx))
            rewards[model].append(float(table.scores[idx]))

    space = PermutationSpace(eval_params.dims.num_candidates, eval_params.dims.list_size)
    report = HrReport(hr={}, mean_reward={}, ranks=ranks, count=space.count)
    for model in lists_by_model:
        report.mean_reward[model] = (float(np.mean(rewards[model])) if rewards[model]
                                     else float("nan"))
        report.hr[model] = {pct: hit_ratio(ranks[model], space.count, pct) for pct in pcts}
    return report


def build_oracle_tables(records: list[InteractionRecord], eval_params: EvaluatorParams,
                        reward_cfg: RewardConfig,
                        e_user_cache: np.ndarray | None = None) -> list[OracleTable]:
    """Precompute per-record permutation tables (reusable across rerankers)."""
    if e_user_cache is None:
        e_user_cache = user_vectors(records, eval_params)
    return [oracle_table(rec, eval_params, reward_cfg, e_user_cache[i])
            for i, rec in enumerate(records)]


def rerank_records(records: list[InteractionRecord], gp: GeneratorParams,
                   cfg: GumbelConfig, e_user_cache: np.ndarray | None = None
                   ) -> tuple[list[tuple[int, ...]], list[GenerationTrace]]:
    """Run the generator walk on every record at once (noise off: deterministic)."""
    if not records:
        return [], []
    if e_user_cache is None:
        e_user_cache = user_vectors(records, gp.shared)
    return generate_batch(np.stack([r.exposed for r in records]),
                          np.stack([r.candidate_ids for r in records]), e_user_cache,
                          gp, dataclasses.replace(cfg, noise=False))


def baseline_lists(records: list[InteractionRecord], eval_params: EvaluatorParams,
                   seed: int, e_user_cache: np.ndarray | None = None
                   ) -> dict[str, list[tuple[int, ...]]]:
    """Input, random and greedy rerankers for a record set."""
    dims = eval_params.dims
    space = PermutationSpace(dims.num_candidates, dims.list_size)
    if e_user_cache is None:
        e_user_cache = user_vectors(records, eval_params)
    rng = RngStream(seed).split("random-baseline")
    return {
        "input": [tuple(int(x) for x in r.exposed) for r in records],
        "random": [random_list(space, rng.split(i)) for i in range(len(records))],
        "greedy": greedy_rerank(records, eval_params, e_user_cache),
    }
