import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neighborrank import autodiff as ad
from neighborrank import evaluator as ev
from neighborrank import metrics
from neighborrank import pipeline as pl
from neighborrank.datagen import DataConfig, generate_records
from neighborrank.metrics import (
    MetricError,
    PermutationSpace,
    auc,
    cutoff_keys,
    greedy_order,
    hit_cutoff,
    hit_ratio,
    log_loss,
    ndcg_at_k,
    rank_in_scores,
    selection_index,
    within_cutoff,
)
from neighborrank.pipeline import OracleTable, oracle_table
from neighborrank.rng import RngStream
from neighborrank.trainer import RewardConfig, list_reward


def pairwise_auc_oracle(scores, labels):
    """O(P*N) comparison count: ties weigh one half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def all_selections(n, m):
    """Every m-selection of range(n), in enumeration (lexicographic) order."""
    return list(itertools.permutations(range(n), m))


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
        perms = all_selections(5, 3)
        assert len(perms) == space.count
        assert len(set(perms)) == space.count

    def test_rejects_m_greater_than_n(self):
        with pytest.raises(MetricError):
            PermutationSpace(3, 4)

    def test_index_matches_enumeration_order(self):
        space = PermutationSpace(6, 3)
        for i, perm in enumerate(all_selections(6, 3)):
            assert space.index(perm) == i

    def test_index_rejects_duplicates(self):
        with pytest.raises(MetricError):
            PermutationSpace(4, 3).index((1, 1, 2))

    @pytest.mark.parametrize("n,m", [(5, 5), (6, 3), (12, 4)])
    def test_index_ranks_an_array_of_lists_in_enumeration_order(self, n, m):
        space = PermutationSpace(n, m)
        perms = np.array(all_selections(n, m), dtype=np.int64)
        shuffled = RngStream(n * 10 + m).permutation(len(perms))
        got = space.index(perms[shuffled])
        assert got.dtype == np.int64 and np.array_equal(got, shuffled)
        # one list is the one-row case, returned as a Python int
        for i in (0, len(perms) // 2, len(perms) - 1):
            assert space.index(tuple(perms[i].tolist())) == i
            assert type(space.index(perms[i])) is int
        assert space.index(perms[:0]).shape == (0,)

    @pytest.mark.parametrize("n,m", [(22, 17), (30, 20)])
    def test_index_is_exact_beyond_int64(self, n, m):
        space = PermutationSpace(n, m)
        first, last = list(range(m)), list(range(n - 1, n - m - 1, -1))
        assert space.count > 2**63
        assert space.index(last) == space.count - 1 and space.index(first) == 0
        assert space.index(np.array([first, last])).tolist() == [0, space.count - 1]

    @pytest.mark.parametrize("bad", [(0, 0, 1), (0, 1, 4), (-1, 0, 1)])
    def test_index_names_the_invalid_row(self, bad):
        rows = np.array([(0, 1, 2), (3, 2, 1), bad, (1, 0, 3)], dtype=np.int64)
        with pytest.raises(MetricError, match=re.escape(f"row 2, {list(bad)}")):
            PermutationSpace(4, 3).index(rows)

    @pytest.mark.parametrize("perms", [(0, 1), (0, 1, 2, 3), [[0, 1, 2, 3]], (0.0, 1.0, 2.0),
                                       ("a", "b", "c"), 2, np.zeros((2, 2, 3), dtype=np.int64)])
    def test_index_rejects_wrong_shape_or_dtype(self, perms):
        with pytest.raises(MetricError, match="not a valid selection of length 3"):
            PermutationSpace(4, 3).index(perms)


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


def loop_auc(scores, labels):
    """Test-only copy of the tie-walking auc loop the array form replaced."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i, rank_pos = 0, 1.0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (rank_pos + rank_pos + (j - i))
        rank_pos += j - i + 1
        i = j + 1
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def loop_ndcg(scores, relevance, k):
    """Test-only copy of the one-list ndcg_at_k that ndcg_rows replaced."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    relevance = np.asarray(relevance, dtype=np.float64).ravel()
    if relevance.sum() <= 0:
        return float("nan")
    order = np.argsort(-scores, kind="mergesort")
    discounts = 1.0 / np.log2(np.arange(2, scores.size + 2, dtype=np.float64))
    dcg = float((relevance[order][:k] * discounts[:k]).sum())
    ideal = float((np.sort(relevance)[::-1][:k] * discounts[:k]).sum())
    return dcg / ideal


class TestArrayMetricsMatchLoops:
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 400))
    @settings(max_examples=60, deadline=None)
    def test_auc(self, seed, size):
        rng = RngStream(seed)
        scores = np.round(rng.uniform((size,)), int(rng.integers(1, 4)))   # many ties
        labels = (rng.uniform((size,)) < 0.3).astype(int)
        labels[:2] = [0, 1]
        assert auc(scores, labels) == loop_auc(scores, labels)

    @given(seed=st.integers(0, 2**32 - 1), records=st.integers(1, 60), m=st.integers(1, 12),
           k=st.sampled_from([1, 3, 5, 10]))
    @settings(max_examples=60, deadline=None)
    def test_ndcg_rows_and_their_mean(self, seed, records, m, k):
        rng = RngStream(seed)
        scores = np.round(rng.uniform((records, m)), 1)                     # ties
        clicks = (rng.uniform((records, m)) < 0.25).astype(int)
        rows = metrics.ndcg_rows(scores, clicks, k)
        loops = [loop_ndcg(scores[i], clicks[i], k) for i in range(records)]
        assert np.array_equal(rows, np.array(loops), equal_nan=True)
        singles = [ndcg_at_k(s, c, k) for s, c in zip(scores, clicks)]
        assert np.array_equal(rows, singles, equal_nan=True)
        mean = metrics.mean_ignoring_undefined(rows)
        want = metrics.mean_ignoring_undefined(loops)
        assert mean == want or (math.isnan(mean) and math.isnan(want))


class TestLogLoss:
    def test_known_value(self):
        assert log_loss([0.5], [1]) == pytest.approx(math.log(2))

    def test_clamping(self):
        assert np.isfinite(log_loss([0.0, 1.0], [1, 0]))


def oracle_inputs(num_candidates: int, list_size: int, mlp_hidden=(8,), record=0):
    """One simulated record and a randomly initialised evaluator for it."""
    cfg = DataConfig(seed=3, num_items=30, num_categories=4, num_brands=5, num_users=10,
                     num_records=2, num_candidates=num_candidates, list_size=list_size)
    recs = generate_records(cfg)[record : record + 1]
    dims = ev.ModelDims(item_vocab=cfg.num_items, cat_vocab=cfg.num_categories,
                        brand_vocab=cfg.num_brands, list_size=list_size,
                        num_candidates=num_candidates, history_sessions=cfg.history_sessions,
                        embed_dim=4, mlp_hidden=mlp_hidden)
    params = ev.EvaluatorParams.init(dims, RngStream(5), std=0.5)
    return recs[0], params, ev.user_vectors(recs, params)[0]


def enumerated_oracle_scores(record, params, reward_cfg, e_user):
    """Reference oracle: every ordering scored whole through scores_for_lists."""
    dims = params.dims
    perms = np.array(all_selections(dims.num_candidates, dims.list_size))
    e_rep = np.broadcast_to(e_user, (len(perms), e_user.shape[-1]))
    pctr, pcvr = ev.scores_for_lists(record.candidate_ids[perms], e_rep, params)
    return list_reward(pctr, pcvr, reward_cfg)


def sorted_selection_index(n, m):
    """Reference: the index built by sorting every enumerated selection, as
    (sets, set_of, item_pos) with sets[set_of[i], item_pos[i]] selection i."""
    perms = np.array(all_selections(n, m), dtype=np.int64)
    sets, set_of = np.unique(np.sort(perms, axis=1), axis=0, return_inverse=True)
    item_pos = np.argsort(np.argsort(perms, axis=1), axis=1)
    return sets, set_of.reshape(-1), item_pos


def three_index_oracle_scores(record, params, reward_cfg, e_user):
    """Reference oracle: the sort-built index, one MLP pass per SCORE_CHUNK // m
    encoded sets, and a gather through three broadcast index arrays."""
    n, m = params.dims.num_candidates, params.dims.list_size
    sets, set_of, item_pos = sorted_selection_index(n, m)
    set_ids = record.candidate_ids[sets]
    pctr, pcvr = np.empty((2, len(sets), m, m))
    step = max(1, ev.SCORE_CHUNK // m)
    with ad.no_grad():
        for start in range(0, len(sets), step):
            blk = slice(start, start + step)
            x = ev.embed_lists(set_ids[blk], params)
            _, e_list = ev.list_attention(x, params)
            b = len(e_list.value)
            parts = (x.value.reshape(b, m, 1, -1), e_list.value[:, None, None], e_user,
                     params.ps["pos"].value)
            h = np.concatenate([np.broadcast_to(a, (b, m, m, a.shape[-1])) for a in parts], -1)
            p, v = ev.slot_heads(ad.constant(h), params)
            pctr[blk], pcvr[blk] = p.value, v.value
    at = (set_of[:, None], item_pos, np.arange(m))
    return list_reward(pctr[at], pcvr[at], reward_cfg)


class TestSelectionIndex:
    @pytest.mark.parametrize("n,m", [(5, 5), (12, 4), (8, 5), (6, 3), (4, 1)])
    def test_rebuilds_every_selection(self, n, m):
        sets, at = selection_index(n, m)
        perms = np.array(all_selections(n, m))
        assert at.shape == perms.shape and at.dtype == np.int64
        # every slot of a selection points into one set's (item, slot) block
        assert np.array_equal(at // (m * m), np.repeat(at[:, :1] // (m * m), m, axis=1))
        assert np.array_equal(sets.reshape(-1)[at // m], perms)
        assert np.array_equal(at % m, np.broadcast_to(np.arange(m), perms.shape))
        assert sets.tolist() == [list(c) for c in itertools.combinations(range(n), m)]

    @pytest.mark.parametrize("n,m", [(1, 1), (4, 1), (5, 5), (6, 3), (7, 7), (8, 5), (9, 2),
                                     (12, 4)])
    def test_closed_form_equals_sorted_build(self, n, m):
        sets, at = selection_index(n, m)
        ref_sets, set_of, item_pos = sorted_selection_index(n, m)
        assert np.array_equal(sets, ref_sets) and sets.dtype == ref_sets.dtype
        assert np.array_equal(at, (set_of[:, None] * m + item_pos) * m + np.arange(m))

    def test_arrays_are_read_only_and_shared(self):
        arrays = selection_index(6, 3)
        assert all(a is b for a, b in zip(arrays, selection_index(6, 3)))
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0


class TestSetFactorizedOracle:
    # swap pool, substitution pools, and a deeper MLP on a substitution pool
    CASES = {"swap-5of5": (5, 5, (8,)), "sub-12of4": (12, 4, (8,)),
             "sub-8of5": (8, 5, (8,)), "deep-8of5": (8, 5, (256, 64))}

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("record", [0, 1])
    def test_matches_enumerated_scoring(self, case, record):
        n, m, hidden = self.CASES[case]
        rec, params, e_user = oracle_inputs(n, m, hidden, record)
        cfg = RewardConfig()
        want = enumerated_oracle_scores(rec, params, cfg, e_user)
        got = oracle_table(rec, params, cfg, e_user).scores
        assert got.shape == want.shape and len(set(got.tolist())) > 1
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert np.array_equal(np.argsort(-got, kind="stable"), np.argsort(-want, kind="stable"))

    @pytest.mark.parametrize("chunk", [1, 7, 64, None])
    @pytest.mark.parametrize("case", list(CASES))
    def test_scores_equal_three_index_gather(self, monkeypatch, case, chunk):
        n, m, hidden = self.CASES[case]
        rec, params, e_user = oracle_inputs(n, m, hidden)
        want = three_index_oracle_scores(rec, params, RewardConfig(), e_user)
        if chunk is not None:
            monkeypatch.setattr(ev, "SCORE_CHUNK", chunk)
        got = oracle_table(rec, params, RewardConfig(), e_user).scores
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_slot_tables_do_not_depend_on_chunk_size(self, monkeypatch, chunk):
        rec, params, e_user = oracle_inputs(8, 5)
        set_ids = rec.candidate_ids[selection_index(8, 5)[0]]
        users = np.broadcast_to(e_user, (len(set_ids), len(e_user)))
        want = ev.slot_tables(set_ids, users, params)
        monkeypatch.setattr(ev, "SCORE_CHUNK", chunk)
        got = ev.slot_tables(set_ids, users, params)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_slot_table_entries_score_sorted_lists(self):
        # a sorted list is its set's own row order: the same inputs and network
        rec, params, e_user = oracle_inputs(6, 3)
        sets = selection_index(6, 3)[0]
        users = np.broadcast_to(e_user, (len(sets), len(e_user)))
        pctr, pcvr = ev.slot_tables(rec.candidate_ids[sets], users, params)
        ref_ctr, ref_cvr = ev.scores_for_lists(rec.candidate_ids[sets], users, params)
        diag = np.arange(3)
        assert np.array_equal(pctr[:, diag, diag], ref_ctr)
        assert np.array_equal(pcvr[:, diag, diag], ref_cvr)


class TestOracleRank:
    @staticmethod
    def rank(oracle, perm):
        return rank_in_scores(oracle.scores, oracle.space.index(perm))

    def test_hand_sorted_table(self):
        # n=3, m=2: six lists, scored by a hand-set table
        space = PermutationSpace(3, 2)
        table = {
            (0, 1): 0.9, (0, 2): 0.4, (1, 0): 0.7,
            (1, 2): 0.4, (2, 0): 0.1, (2, 1): 0.95,
        }
        oracle = OracleTable(space, np.array([table[perm] for perm in all_selections(3, 2)]))
        assert self.rank(oracle, (2, 1)) == 1
        assert self.rank(oracle, (0, 1)) == 2
        assert self.rank(oracle, (1, 0)) == 3
        # (0,2) and (1,2) tie at 0.4; (0,2) enumerates first so wins the tie
        assert self.rank(oracle, (0, 2)) == 4
        assert self.rank(oracle, (1, 2)) == 5
        assert self.rank(oracle, (2, 0)) == 6

    def test_argmax_is_rank_one_and_min_is_last(self):
        record, params, e_user = oracle_inputs(5, 3)
        oracle = oracle_table(record, params, RewardConfig(), e_user)
        assert len(oracle.scores) == oracle.space.count == 60
        assert len(set(oracle.scores.tolist())) > 1
        perms = all_selections(5, 3)
        assert self.rank(oracle, perms[int(np.argmax(oracle.scores))]) == 1
        assert self.rank(oracle, perms[int(np.argmin(oracle.scores))]) == oracle.space.count

    def test_rank_deterministic(self):
        record, params, e_user = oracle_inputs(4, 2)
        first = oracle_table(record, params, RewardConfig(), e_user)
        second = oracle_table(record, params, RewardConfig(), e_user)
        assert np.array_equal(first.scores, second.scores)
        assert self.rank(first, (2, 1)) == self.rank(second, (2, 1))

    def test_cap_enforced(self, monkeypatch):
        record, params, e_user = oracle_inputs(12, 5)  # 95,040 > 20,000

        def no_index(*args):
            raise AssertionError("index built before the cap check")

        monkeypatch.setattr(pl, "selection_index", no_index)
        with pytest.raises(MetricError, match="cap"):
            oracle_table(record, params, RewardConfig(), e_user)


class TestCutoffKeys:
    @given(values=st.lists(st.floats(-2, 2), min_size=1, max_size=3, unique=True),
           weights=st.lists(st.integers(1, 50), min_size=3, max_size=3),
           count=st.integers(1, 200), pct=st.sampled_from([10.0, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_key_test_equals_rank_within_cutoff(self, values, weights, count, pct, seed):
        # tie-heavy rows: every entry one of at most 3 distinct scores, drawn with
        # uneven weights, so the cutoff entry is often tied below a rarer best score
        cum = np.cumsum(weights[: len(values)]) / sum(weights[: len(values)])
        rows = np.array(values)[np.searchsorted(cum, RngStream(seed).uniform((3, count)))]
        c = hit_cutoff(count, pct)
        key_s, key_i = cutoff_keys(rows, [c])
        for row, ks, ki in zip(rows, key_s[:, 0], key_i[:, 0]):
            got = within_cutoff(row, np.arange(count), ks, ki)
            want = [rank_in_scores(row, i) <= c for i in range(count)]
            assert got.tolist() == want
            assert rank_in_scores(row, int(ki)) == c and row[ki] == ks

    def test_several_cutoffs_in_one_pass(self):
        rows = RngStream(8).integers(0, 4, (6, 120)).astype(np.float64)
        cutoffs = [hit_cutoff(120, 10), hit_cutoff(120, 1)]
        key_s, key_i = cutoff_keys(rows, cutoffs)
        assert key_s.shape == key_i.shape == (6, 2) and key_i.dtype == np.int64
        for k, c in enumerate(cutoffs):
            one_s, one_i = cutoff_keys(rows, [c])
            assert np.array_equal(key_s[:, k], one_s[:, 0])
            assert np.array_equal(key_i[:, k], one_i[:, 0])


class TestBlockedOracle:
    """Tables scored many records a pass, and lists scored through their own
    item sets, give the bits of the one-record table."""

    # (n, m, records): enough records for several blocks of several records,
    # except at 12-of-4, where every record fills a pass of its own
    CASES = {"5of5": (5, 5, 40), "12of4": (12, 4, 3), "6of3": (6, 3, 40)}

    @staticmethod
    def inputs(n, m, records):
        cfg = DataConfig(seed=4, num_items=30, num_categories=4, num_brands=5, num_users=10,
                         num_records=max(records, 2), num_candidates=n, list_size=m)
        recs = generate_records(cfg)[:records]
        dims = ev.ModelDims(item_vocab=30, cat_vocab=4, brand_vocab=5, list_size=m,
                            num_candidates=n, history_sessions=cfg.history_sessions,
                            embed_dim=4, mlp_hidden=(8,))
        params = ev.EvaluatorParams.init(dims, RngStream(6), std=0.5)
        return recs, params, ev.user_vectors(recs, params)

    @pytest.mark.parametrize("chunk", [1, 7, 64, None])
    @pytest.mark.parametrize("case", list(CASES))
    def test_list_reward_through_its_own_set_equals_table_entry(self, monkeypatch, case, chunk):
        n, m, _ = self.CASES[case]
        recs, params, e_user = self.inputs(n, m, 1)
        if chunk is not None:
            monkeypatch.setattr(ev, "SCORE_CHUNK", chunk)
        table = oracle_table(recs[0], params, RewardConfig(), e_user[0])
        keys = pl.build_oracle_tables(recs, params, RewardConfig(), e_user)
        assert keys.kept_slot_tables.shape == ((2, 1, m, m) if n == m else (2, 0, m, m))
        perms = np.array(all_selections(n, m), dtype=np.int64)[::-1]   # not in table order
        want = table.scores[table.space.index(perms)]
        assert np.array_equal(pl.list_rewards(keys, perms), want)
        # a swap pool's kept slot tables and a fresh pass over each list's set agree
        fresh = dataclasses.replace(keys, kept_slot_tables=np.empty((2, 0, m, m)))
        assert np.array_equal(pl.list_rewards(fresh, perms), want)

    @pytest.mark.parametrize("chunk", [1, 7, 64, None])
    @pytest.mark.parametrize("case", list(CASES))
    def test_blocked_tables_equal_per_record_tables(self, monkeypatch, case, chunk):
        n, m, records = self.CASES[case]
        recs, params, e_user = self.inputs(n, m, records)
        if chunk is not None:
            monkeypatch.setattr(ev, "SCORE_CHUNK", chunk)
        blocks = []
        real_keys = pl.cutoff_keys

        def spy(rows, cutoffs):
            blocks.append(rows.copy())
            return real_keys(rows, cutoffs)

        monkeypatch.setattr(pl, "cutoff_keys", spy)
        keys = pl.build_oracle_tables(recs, params, RewardConfig(), e_user)
        step = max(1, ev.SCORE_CHUNK // m // math.comb(n, m))
        assert [len(b) for b in blocks] == [min(step, records - s)
                                            for s in range(0, records, step)]
        if chunk is None:   # several records a pass, except where one record fills it
            assert (len(blocks[0]) > 1) == (case != "12of4")
        want = np.stack([oracle_table(r, params, RewardConfig(), u).scores
                         for r, u in zip(recs, e_user)])
        assert np.array_equal(np.concatenate(blocks), want)
        want_s, want_i = real_keys(want, [hit_cutoff(want.shape[1], p) for p in pl.HIT_PCTS])
        assert np.array_equal(keys.key_scores, want_s)
        assert np.array_equal(keys.key_index, want_i)


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
        # the per-record loop it replaced, bit for bit
        for pct in (10.0, 1.0):
            loop = float(np.mean([int(r <= hit_cutoff(count, pct)) for r in ranks]))
            assert hit_ratio(ranks, count, pct) == loop


def test_greedy_order_stable():
    assert greedy_order([0.3, 0.9, 0.3]).tolist() == [1, 0, 2]
    assert greedy_order([0.5, 0.5]).tolist() == [0, 1]
