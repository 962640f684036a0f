import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from neighborrank import evaluator as ev
from neighborrank import pipeline as pl
from neighborrank import trainer as tr
from neighborrank.config import TrainingSection, wide_pool_config
from neighborrank.datagen import DataConfig, generate_records
from neighborrank.generator import GumbelConfig
from neighborrank.metrics import PermutationSpace, hit_ratio, rank_in_scores
from neighborrank.rng import RngStream


@pytest.fixture(scope="module")
def setup():
    cfg = DataConfig(seed=19, num_items=60, num_categories=6, num_brands=8,
                     num_users=40, num_records=1500)
    records = generate_records(cfg)
    train, test = records[:1350], records[1350:]
    dims = ev.ModelDims(item_vocab=cfg.num_items, cat_vocab=cfg.num_categories,
                        brand_vocab=cfg.num_brands, list_size=cfg.list_size,
                        num_candidates=cfg.num_candidates,
                        history_sessions=cfg.history_sessions,
                        embed_dim=6, mlp_hidden=(24, 12))
    eval_params, _ = ev.train_evaluator(train, test, dims,
                                        TrainingSection(eval_epochs=3, seed=1))
    gp, _, reward_cfg = tr.train_generator(train, eval_params,
                                           TrainingSection(gen_epochs=2, seed=2))
    e_user = ev.user_vectors(test, eval_params)
    keys = pl.build_oracle_tables(test, eval_params, reward_cfg, e_user)
    return dict(cfg=cfg, test=test, eval_params=eval_params, gp=gp,
                reward_cfg=reward_cfg, e_user=e_user, keys=keys)


def tables_of(setup, count):
    """The first `count` test records' full oracle tables (the rank reference)."""
    return [pl.oracle_table(rec, setup["eval_params"], setup["reward_cfg"], u)
            for rec, u in zip(setup["test"][:count], setup["e_user"])]


def test_greedy_sits_between_random_and_oracle(setup):
    test, keys = setup["test"], setup["keys"]
    lists = pl.baseline_lists(test, setup["eval_params"], 5, setup["e_user"])
    report = pl.evaluate_rerankers(keys, lists)
    greedy = report.hr["greedy"][10.0]
    random_hr = report.hr["random"][10.0]
    assert random_hr == pytest.approx(0.10, abs=0.05)
    assert greedy > random_hr
    assert greedy < 1.0


def test_greedy_output_is_permutation_of_input(setup):
    test = setup["test"][:50]
    out = pl.greedy_rerank(test, setup["eval_params"], setup["e_user"][:50])
    for rec, lst in zip(test, out):
        assert sorted(lst) == sorted(int(x) for x in rec.exposed)


def test_greedy_sorted_input_unchanged(setup):
    first = setup["test"][:1]
    e_user = setup["e_user"][:1]
    once = pl.greedy_rerank(first, setup["eval_params"], e_user)
    twice = pl.greedy_rerank(dataclasses.replace(first, exposed=once), setup["eval_params"],
                             e_user)
    assert np.array_equal(twice, once)


def test_proposed_lists_are_int64_arrays_and_score_as_tuples(setup):
    test, e_user, m = setup["test"][:60], setup["e_user"][:60], setup["cfg"].list_size
    gcfg = GumbelConfig(tau=0.3, noise=False)
    lists = pl.baseline_lists(test, setup["eval_params"], 5, e_user)
    lists["generator"], traces = pl.rerank_records(test, setup["gp"], gcfg, e_user)
    assert set(lists) == {"input", "random", "greedy", "generator"} and len(traces) == 60
    for model, got in lists.items():
        assert isinstance(got, np.ndarray) and got.shape == (60, m) and got.dtype == np.int64, model
    assert np.array_equal(lists["greedy"], pl.greedy_rerank(test, setup["eval_params"], e_user))
    assert np.array_equal(lists["input"], test.exposed)
    empty, no_traces = pl.rerank_records(test[:0], setup["gp"], gcfg, e_user[:0])
    assert empty.shape == (0, m) and empty.dtype == np.int64 and no_traces == []
    # the same lists as R tuples per model give an equal report
    keys = pl.build_oracle_tables(test, setup["eval_params"], setup["reward_cfg"], e_user)
    report = pl.evaluate_rerankers(keys, lists)
    tuples = {model: [tuple(row) for row in got.tolist()] for model, got in lists.items()}
    assert pl.evaluate_rerankers(keys, tuples) == report
    assert all(np.isfinite(list(hr.values())).all() for hr in report.hr.values())


def test_oracle_table_extremes(setup):
    [table] = tables_of(setup, 1)
    perms = list(itertools.permutations(range(table.space.n), table.space.m))
    best = perms[int(np.argmax(table.scores))]
    worst = perms[int(np.argmin(table.scores))]
    assert rank_in_scores(table.scores, table.space.index(best)) == 1
    assert rank_in_scores(table.scores, table.space.index(worst)) == table.space.count


def test_training_after_pipeline_still_learns(setup, monkeypatch):
    # reranking and oracle tables run inside no_grad(); afterwards the
    # evaluator must still train
    test = setup["test"][:60]
    gcfg = GumbelConfig(tau=0.3, noise=False)
    pl.rerank_records(test, setup["gp"], gcfg, setup["e_user"][:60])
    pl.build_oracle_tables(test, setup["eval_params"], setup["reward_cfg"],
                           setup["e_user"][:60])

    initial = {}
    real_init = ev.EvaluatorParams.init

    def spy_init(cls, *args, **kwargs):
        params = real_init(*args, **kwargs)
        initial.update(params.ps.values())
        return params

    monkeypatch.setattr(ev.EvaluatorParams, "init", classmethod(spy_init))
    trained, _ = ev.train_evaluator(setup["test"][:100], setup["test"][100:],
                                    setup["eval_params"].dims,
                                    TrainingSection(eval_epochs=1, seed=4))
    assert initial
    changed = [name for name, value in trained.ps.values().items()
               if not np.array_equal(value, initial[name])]
    assert changed


def test_generated_reward_not_below_input_for_majority(setup):
    # the editor may leave a list unchanged; it should rarely make it worse
    test, keys = setup["test"], setup["keys"]
    gcfg = GumbelConfig(tau=0.3, noise=False)
    gen_lists, _ = pl.rerank_records(test, setup["gp"], gcfg, setup["e_user"])
    r_gen = pl.list_rewards(keys, gen_lists)
    r_in = pl.list_rewards(keys, test.exposed)
    wins = int(np.count_nonzero(r_gen >= r_in))
    assert wins / len(test) > 0.5
    # each is the record's table entry, bit for bit
    for i, table in enumerate(tables_of(setup, 5)):
        assert r_gen[i] == table.scores[table.space.index(gen_lists[i])]


@pytest.mark.parametrize("n,m", [(5, 5), (12, 4)], ids=["5of5", "12of4"])
def test_random_baseline_matches_per_record_streams(n, m):
    """One split_rows draw gives record i the first m of a permutation from
    stream split("random-baseline").split(i), as the per-record loop did."""
    cfg = DataConfig(seed=3, num_items=30, num_categories=4, num_brands=5, num_users=10,
                     num_records=200, list_size=m, num_candidates=n)
    records = generate_records(cfg)
    dims = ev.ModelDims(item_vocab=30, cat_vocab=4, brand_vocab=5, list_size=m,
                        num_candidates=n, history_sessions=cfg.history_sessions)
    params = ev.EvaluatorParams.init(dims, RngStream(1))
    got = pl.baseline_lists(records, params, 7, ev.user_vectors(records, params))["random"]
    rng = RngStream(7).split("random-baseline")
    assert got.dtype == np.int64 and got.shape == (len(records), m)
    assert got.tolist() == [rng.split(i).permutation(n)[:m].tolist()
                            for i in range(len(records))]
    assert len(set(map(tuple, got.tolist()))) > 1


def test_hr_report_structure(setup, monkeypatch):
    test, tables = setup["test"][:40], tables_of(setup, 40)
    keys = pl.build_oracle_tables(test, setup["eval_params"], setup["reward_cfg"],
                                  setup["e_user"][:40])
    lists = {"input": [tuple(int(x) for x in r.exposed) for r in test]}
    report = pl.evaluate_rerankers(keys, lists)
    assert set(report.hr["input"]) == {10.0, 1.0}
    ranks = [rank_in_scores(t.scores, t.space.index(p)) for t, p in zip(tables, lists["input"])]
    assert report.hr["input"][10.0] == hit_ratio(ranks, 120, 10.0)
    assert report.hr["input"][1.0] == hit_ratio(ranks, 120, 1.0)
    assert report.mean_reward["input"] == float(np.mean(
        [t.scores[t.space.index(p)] for t, p in zip(tables, lists["input"])]))
    # keys built one record a pass give the same report
    monkeypatch.setattr(ev, "SCORE_CHUNK", 1)
    assert pl.evaluate_rerankers(pl.build_oracle_tables(
        test, setup["eval_params"], setup["reward_cfg"], setup["e_user"][:40]), lists) == report


def test_hr_report_rejects_a_missing_or_invalid_list(setup):
    keys = pl.build_oracle_tables(setup["test"][:3], setup["eval_params"], setup["reward_cfg"],
                                  setup["e_user"][:3])
    with pytest.raises(ValueError, match="one list for each of the 3 records"):
        pl.evaluate_rerankers(keys, {"input": [(0, 1, 2, 3, 4)] * 2})
    with pytest.raises(ValueError, match="row 4"):
        pl.evaluate_rerankers(keys, {"a": [(0, 1, 2, 3, 4)] * 3,
                                     "b": [(0, 1, 2, 3, 4), (0, 1, 2, 3, 3), (4, 3, 2, 1, 0)]})


def test_hr_report_of_no_records_is_nan(setup):
    params = setup["eval_params"]
    keys = pl.build_oracle_tables(setup["test"][:0], params, setup["reward_cfg"],
                                  np.empty((0, params.dims.embed_dim)))
    report = pl.evaluate_rerankers(keys, {"input": []})
    assert np.isnan(report.hr["input"][10.0]) and np.isnan(report.hr["input"][1.0])
    assert np.isnan(report.mean_reward["input"])


def test_validation_keys_memory_does_not_grow_by_a_table_per_record():
    """The train-gen HR callback keeps its validation keys for all of training:
    they must grow O(records), not by a full oracle table per record."""
    data = dataclasses.replace(wide_pool_config().data, seed=5, num_records=40)
    records = generate_records(data)
    dims = ev.ModelDims(item_vocab=data.num_items, cat_vocab=data.num_categories,
                        brand_vocab=data.num_brands, list_size=data.list_size,
                        num_candidates=data.num_candidates,
                        history_sessions=data.history_sessions)
    params = ev.EvaluatorParams.init(dims, RngStream(3))
    e_user = ev.user_vectors(records, params)
    table_bytes = PermutationSpace(12, 4).count * 8

    def peak(count):
        # a first call fills the per-(n, m) selection index cache outside the trace
        pl.build_oracle_tables(records[:count], params, tr.RewardConfig(), e_user[:count])
        tracemalloc.start()
        try:
            keys = pl.build_oracle_tables(records[:count], params, tr.RewardConfig(),
                                          e_user[:count])
            return tracemalloc.get_traced_memory()[1], keys
        finally:
            tracemalloc.stop()

    (small, _), (large, keys) = peak(4), peak(32)
    assert len(keys.key_scores) == 32
    assert large - small < table_bytes, (small, large, table_bytes)
