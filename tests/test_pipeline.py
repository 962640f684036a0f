import dataclasses

import numpy as np
import pytest

from neighborrank import evaluator as ev
from neighborrank import pipeline as pl
from neighborrank import trainer as tr
from neighborrank.datagen import DataConfig, generate_records
from neighborrank.generator import GumbelConfig
from neighborrank.metrics import PermutationSpace, hit_ratio
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
    eval_params, _ = ev.train_evaluator(train, test, dims, epochs=3, seed=1)
    gp, _, reward_cfg = tr.train_generator(train, eval_params,
                                           tr.TrainConfig(epochs=2, seed=2))
    e_user = ev.user_vectors(test, eval_params)
    tables = pl.build_oracle_tables(test, eval_params, reward_cfg, e_user_cache=e_user)
    return dict(cfg=cfg, test=test, eval_params=eval_params, gp=gp,
                reward_cfg=reward_cfg, e_user=e_user, tables=tables)


def test_greedy_sits_between_random_and_oracle(setup):
    test, tables = setup["test"], setup["tables"]
    lists = pl.baseline_lists(test, setup["eval_params"], seed=5,
                              e_user_cache=setup["e_user"])
    report = pl.evaluate_rerankers(test, setup["eval_params"], setup["reward_cfg"],
                                   lists, e_user_cache=setup["e_user"], tables=tables)
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
    assert table.rank(best) == 1
    assert table.rank(worst) == table.space.count


def test_training_after_pipeline_still_learns(setup, monkeypatch):
    # reranking and oracle tables run inside no_grad(); afterwards the
    # evaluator must still train
    test = setup["test"][:60]
    gcfg = GumbelConfig(tau=0.3, noise=False)
    pl.rerank_records(test, setup["gp"], gcfg, e_user_cache=setup["e_user"][:60])
    pl.build_oracle_tables(test, setup["eval_params"], setup["reward_cfg"],
                           e_user_cache=setup["e_user"][:60])

    initial = {}
    real_init = ev.EvaluatorParams.init

    def spy_init(cls, *args, **kwargs):
        params = real_init(*args, **kwargs)
        initial.update(params.values())
        return params

    monkeypatch.setattr(ev.EvaluatorParams, "init", classmethod(spy_init))
    trained, _ = ev.train_evaluator(setup["test"][:100], setup["test"][100:],
                                    setup["eval_params"].dims, epochs=1, seed=4)
    assert initial
    changed = [name for name, value in trained.values().items()
               if not np.array_equal(value, initial[name])]
    assert changed


def test_generated_reward_not_below_input_for_majority(setup):
    # the editor may leave a list unchanged; it should rarely make it worse
    test, tables = setup["test"], setup["tables"]
    gcfg = GumbelConfig(tau=0.3, noise=False)
    gen_lists, _ = pl.rerank_records(test, setup["gp"], gcfg,
                                     e_user_cache=setup["e_user"])
    wins = 0
    for i, rec in enumerate(test):
        r_gen = tables[i].scores[tables[i].space.index(gen_lists[i])]
        r_in = tables[i].scores[tables[i].space.index(tuple(int(x) for x in rec.exposed))]
        wins += r_gen >= r_in
    assert wins / len(test) > 0.5


def test_random_list_is_valid_selection():
    space = PermutationSpace(7, 4)
    rng = RngStream(3)
    for i in range(50):
        perm = pl.random_list(space, rng.split(i))
        assert len(perm) == 4
        assert len(set(perm)) == 4
        assert all(0 <= p < 7 for p in perm)


def test_hr_report_structure(setup):
    test = setup["test"][:40]
    lists = {"input": [tuple(int(x) for x in r.exposed) for r in test]}
    report = pl.evaluate_rerankers(test, setup["eval_params"], setup["reward_cfg"],
                                   lists, e_user_cache=setup["e_user"][:40],
                                   tables=setup["tables"][:40])
    assert set(report.hr["input"]) == {10.0, 1.0}
    assert len(report.ranks["input"]) == 40
    assert report.count == 120
