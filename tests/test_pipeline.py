import dataclasses

import numpy as np
import pytest

from neighborrank import evaluator as ev
from neighborrank import pipeline as pl
from neighborrank import trainer as tr
from neighborrank.config import TrainingSection
from neighborrank.datagen import DataConfig, generate_records
from neighborrank.generator import GumbelConfig
from neighborrank.metrics import hit_ratio, rank_in_scores
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
    tables = pl.build_oracle_tables(test, eval_params, reward_cfg, e_user)
    return dict(cfg=cfg, test=test, eval_params=eval_params, gp=gp,
                reward_cfg=reward_cfg, e_user=e_user, tables=tables)


def test_greedy_sits_between_random_and_oracle(setup):
    test, tables = setup["test"], setup["tables"]
    lists = pl.baseline_lists(test, setup["eval_params"], 5, setup["e_user"])
    report = pl.evaluate_rerankers(tables, lists)
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
    rec = setup["test"][0]
    e_user = setup["e_user"][:1]
    [once] = pl.greedy_rerank([rec], setup["eval_params"], e_user)
    reordered = dataclasses.replace(rec, exposed=np.asarray(once, dtype=np.int64))
    [twice] = pl.greedy_rerank([reordered], setup["eval_params"], e_user)
    assert twice == once


def test_oracle_table_extremes(setup):
    table = setup["tables"][0]
    perms = list(table.space)
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
    test, tables = setup["test"], setup["tables"]
    gcfg = GumbelConfig(tau=0.3, noise=False)
    gen_lists, _ = pl.rerank_records(test, setup["gp"], gcfg, setup["e_user"])
    wins = 0
    for i, rec in enumerate(test):
        r_gen = tables[i].scores[tables[i].space.index(gen_lists[i])]
        r_in = tables[i].scores[tables[i].space.index(tuple(int(x) for x in rec.exposed))]
        wins += r_gen >= r_in
    assert wins / len(test) > 0.5


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
    assert got == [tuple(int(x) for x in rng.split(i).permutation(n)[:m])
                   for i in range(len(records))]
    assert all(type(x) is int for perm in got for x in perm)
    assert len(set(got)) > 1


def test_hr_report_structure(setup):
    test, tables = setup["test"][:40], setup["tables"][:40]
    lists = {"input": [tuple(int(x) for x in r.exposed) for r in test]}
    report = pl.evaluate_rerankers(tables, lists)
    assert set(report.hr["input"]) == {10.0, 1.0}
    ranks = [rank_in_scores(t.scores, t.space.index(p)) for t, p in zip(tables, lists["input"])]
    assert report.hr["input"][10.0] == hit_ratio(ranks, 120, 10.0)
    # a generator of tables, consumed once, gives the same report
    assert pl.evaluate_rerankers(iter(tables), lists) == report


def test_hr_report_of_no_records_is_nan():
    report = pl.evaluate_rerankers([], {"input": []})
    assert np.isnan(report.hr["input"][10.0]) and np.isnan(report.mean_reward["input"])
