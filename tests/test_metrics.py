import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neighborrank import evaluator as ev
from neighborrank import metrics
from neighborrank.datagen import DataConfig, generate_records
from neighborrank.metrics import (
    MetricError,
    PermutationSpace,
    auc,
    greedy_order,
    hit_cutoff,
    hit_ratio,
    log_loss,
    ndcg_at_k,
    rank_in_scores,
)
from neighborrank.pipeline import OracleTable, oracle_table
from neighborrank.rng import RngStream
from neighborrank.trainer import RewardConfig


def pairwise_auc_oracle(scores, labels):
    """O(P*N) comparison count: ties weigh one half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


class TestPermutations:
    def test_counts_match_reported_sizes(self):
        assert PermutationSpace(5, 5).count == 120
        assert PermutationSpace(12, 4).count == 11_880
        assert PermutationSpace(3, 2).count == 6

    def test_count_matches_closed_form(self):
        for n in range(1, 13):
            for m in range(1, min(n, 5) + 1):
                space = PermutationSpace(n, m)
                assert space.count == math.factorial(n) // math.factorial(n - m)

    def test_enumeration_is_exact_and_unique(self):
        space = PermutationSpace(5, 3)
        perms = list(space)
        assert len(perms) == space.count
        assert len(set(perms)) == space.count

    def test_rejects_m_greater_than_n(self):
        with pytest.raises(MetricError):
            PermutationSpace(3, 4)

    def test_index_matches_enumeration_order(self):
        space = PermutationSpace(6, 3)
        for i, perm in enumerate(space):
            assert space.index(perm) == i

    def test_index_rejects_duplicates(self):
        with pytest.raises(MetricError):
            PermutationSpace(4, 3).index((1, 1, 2))


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.1], [1, 0]) == pytest.approx(1.0)

    def test_all_ties(self):
        assert auc([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0]) == pytest.approx(0.5)

    def test_matches_pairwise_oracle(self):
        rng = RngStream(13)
        scores = np.round(rng.uniform((20,)), 2)  # rounding forces some ties
        labels = (rng.uniform((20,)) < 0.4).astype(int)
        if labels.sum() in (0, 20):
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == pytest.approx(pairwise_auc_oracle(scores, labels))

    def test_single_class_is_undefined(self):
        assert math.isnan(auc([0.2, 0.4], [1, 1]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = RngStream(seed)
        scores = rng.normal((15,))
        labels = (rng.uniform((15,)) < 0.5).astype(int)
        if labels.sum() in (0, 15):
            labels[0] = 1 - labels[0]
        transformed = np.exp(2.0 * scores) + 3.0
        assert auc(scores, labels) == pytest.approx(auc(transformed, labels))


class TestNdcg:
    def test_single_relevant_first(self):
        assert ndcg_at_k([0.9, 0.5, 0.1], [1, 0, 0], 3) == pytest.approx(1.0)

    def test_single_relevant_second(self):
        got = ndcg_at_k([0.5, 0.9, 0.1], [1, 0, 0], 3)
        assert got == pytest.approx(1.0 / math.log2(3), abs=1e-9)

    def test_zero_relevance_flagged(self):
        assert math.isnan(ndcg_at_k([0.3, 0.2], [0, 0], 2))

    def test_k_validation(self):
        with pytest.raises(MetricError):
            ndcg_at_k([0.5], [1], 0)

    def test_mean_skips_flagged(self):
        vals = [1.0, float("nan"), 0.5]
        assert metrics.mean_ignoring_undefined(vals) == pytest.approx(0.75)


class TestLogLoss:
    def test_known_value(self):
        assert log_loss([0.5], [1]) == pytest.approx(math.log(2))

    def test_clamping(self):
        assert np.isfinite(log_loss([0.0, 1.0], [1, 0]))


def oracle_inputs(num_candidates: int, list_size: int):
    """One simulated record and a randomly initialised evaluator for it."""
    cfg = DataConfig(seed=3, num_items=30, num_categories=4, num_brands=5, num_users=10,
                     num_records=2, num_candidates=num_candidates, list_size=list_size)
    record = generate_records(cfg)[0]
    dims = ev.ModelDims(item_vocab=cfg.num_items, cat_vocab=cfg.num_categories,
                        brand_vocab=cfg.num_brands, list_size=list_size,
                        num_candidates=num_candidates, history_sessions=cfg.history_sessions,
                        embed_dim=4, mlp_hidden=(8,))
    params = ev.EvaluatorParams.init(dims, RngStream(5), std=0.5)
    return record, params, ev.user_vectors([record], params)[0]


class TestOracleRank:
    def test_hand_sorted_table(self):
        # n=3, m=2: six lists, scored by a hand-set table
        space = PermutationSpace(3, 2)
        table = {
            (0, 1): 0.9, (0, 2): 0.4, (1, 0): 0.7,
            (1, 2): 0.4, (2, 0): 0.1, (2, 1): 0.95,
        }
        oracle = OracleTable(space, np.array([table[perm] for perm in space]))
        assert oracle.rank((2, 1)) == 1
        assert oracle.rank((0, 1)) == 2
        assert oracle.rank((1, 0)) == 3
        # (0,2) and (1,2) tie at 0.4; (0,2) enumerates first so wins the tie
        assert oracle.rank((0, 2)) == 4
        assert oracle.rank((1, 2)) == 5
        assert oracle.rank((2, 0)) == 6

    def test_argmax_is_rank_one_and_min_is_last(self):
        record, params, e_user = oracle_inputs(5, 3)
        oracle = oracle_table(record, params, RewardConfig(), e_user)
        assert len(oracle.scores) == oracle.space.count == 60
        assert len(set(oracle.scores.tolist())) > 1
        perms = list(oracle.space)
        assert oracle.rank(perms[int(np.argmax(oracle.scores))]) == 1
        assert oracle.rank(perms[int(np.argmin(oracle.scores))]) == oracle.space.count

    def test_rank_deterministic(self):
        record, params, e_user = oracle_inputs(4, 2)
        first = oracle_table(record, params, RewardConfig(), e_user)
        second = oracle_table(record, params, RewardConfig(), e_user)
        assert np.array_equal(first.scores, second.scores)
        assert first.rank((2, 1)) == second.rank((2, 1))

    def test_cap_enforced(self):
        record, params, e_user = oracle_inputs(12, 5)  # 95,040 > 20,000
        with pytest.raises(MetricError, match="cap"):
            oracle_table(record, params, RewardConfig(), e_user)


class TestHitRatio:
    def test_cutoffs(self):
        assert hit_cutoff(120, 10) == 12
        assert hit_ratio([1], 120, 10) == 1.0
        assert hit_ratio([12], 120, 10) == 1.0
        assert hit_ratio([13], 120, 10) == 0.0

    def test_minimum_cutoff_one(self):
        assert hit_cutoff(6, 1) == 1
        assert hit_ratio([1], 6, 1) == 1.0
        assert hit_ratio([2], 6, 1) == 0.0

    def test_mean_over_records(self):
        assert hit_ratio([1, 13, 12, 120], 120, 10) == pytest.approx(0.5)

    def test_random_ranks_calibrate_to_pct(self):
        rng = RngStream(77)
        count = 120
        ranks = rng.integers(1, count + 1, (4000,))
        assert abs(hit_ratio(ranks, count, 10) - 0.10) < 0.02


def test_greedy_order_stable():
    assert greedy_order([0.3, 0.9, 0.3]).tolist() == [1, 0, 2]
    assert greedy_order([0.5, 0.5]).tolist() == [0, 1]
