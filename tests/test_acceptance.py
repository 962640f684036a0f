"""Acceptance gate: one test per criterion, printing a PASS/FAIL line each.

The heavy end-to-end artifacts (synthetic log, trained evaluator, trained
generator plus its ablated variants, exhaustive rank tables) are built once
in module-scoped fixtures and shared across criteria.
"""
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from neighborrank import autodiff as ad
from neighborrank import evaluator as ev
from neighborrank import pipeline as pl
from neighborrank import trainer as tr
from neighborrank.cli import main as cli_main
from neighborrank.config import TrainingSection
from neighborrank.datagen import DataConfig, generate_records
from neighborrank.generator import GumbelConfig, gumbel_sample
from neighborrank.metrics import PermutationSpace
from neighborrank.rng import RngStream


def check(criterion: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def rand_ids(rng: RngStream, lead_shape, dims) -> np.ndarray:
    fields = [rng.split(f"f{i}").integers(0, v, lead_shape)
              for i, v in enumerate((dims.item_vocab, dims.cat_vocab, dims.brand_vocab))]
    return np.stack(fields, axis=-1)


def healthy_params(params, rng: RngStream, scale: float = 0.5):
    """Move weights away from near-zero init; relu kinks break central
    differences when pre-activations sit within h of zero."""
    for name, t in params.ps.items():
        t.value = rng.split(name).normal(t.value.shape) * scale


# ---------------------------------------------------------------- criterion 1

class TestCriterion1Gradients:
    def test_gradient_correctness(self):
        start = time.time()
        worst = 0.0
        for trial in range(20):
            seed = 1000 + trial
            rng = RngStream(seed)
            m = int(rng.split("m").integers(2, 4))
            n = m + int(rng.split("n").integers(0, 3))
            dims = ev.ModelDims(
                item_vocab=8, cat_vocab=4, brand_vocab=3, list_size=m,
                num_candidates=n, history_sessions=int(rng.split("h").integers(1, 3)),
                embed_dim=int(rng.split("d").integers(2, 4)), mlp_hidden=(4, 3))
            params = ev.EvaluatorParams.init(dims, rng.split("init"))
            healthy_params(params, rng.split("scale"))

            # primitive spot checks at this configuration
            x = ad.param(rng.split("px").normal((m, n)))
            w = ad.param(rng.split("pw").normal((n, 2)))
            b = ad.param(rng.split("pb").normal((2,)))
            worst = max(worst, ad.grad_check(
                lambda: ad.reduce_sum(ad.sigmoid(ad.affine(x, w, b)), axis=None), [x, w, b]))
            s = ad.param(rng.split("ps").normal((m, n)))
            worst = max(worst, ad.grad_check(
                lambda: ad.reduce_sum(ad.mul(ad.softmax_rows(s), s), axis=None), [s]))

            # full evaluator forward + loss
            ids = rand_ids(rng.split("ids"), (2, m), dims)
            sess = rand_ids(rng.split("sess"), (2, dims.history_sessions, m), dims)
            clicks = (rng.split("ck").uniform((2, m)) < 0.5).astype(float)
            convs = clicks * (rng.split("cv").uniform((2, m)) < 0.5)

            def eval_loss():
                e_user = ev.encode_sessions(sess, params)
                pctr, pcvr = ev.predict_graph(ids, e_user, params)
                return ev.loss_graph(pctr, pcvr, clicks, convs)

            worst = max(worst, ad.grad_check(eval_loss, list(params.ps.trainable().values())))

            # full generator forward + combined loss
            from neighborrank.generator import GeneratorParams
            params.ps.set_trainable(False)
            gp = GeneratorParams.init(params, rng.split("gen"))
            healthy_params(gp, rng.split("gscale"))
            cache_flat = rng.split("cf").normal((2, m, dims.flat_dim))
            cand_flat = rng.split("cc").normal((2, n, dims.flat_dim))
            e_list = rng.split("el").normal((2, dims.embed_dim))
            e_user_v = rng.split("eu").normal((2, dims.embed_dim))
            rewards = rng.split("rw").normal((2, m, n)) * 0.1
            pos_rewards = rng.split("pr").normal((2, m))
            cru_noise = rng.split("cn").gumbel((m, 2, n))
            gcfg = GumbelConfig(tau=0.8, noise=True)
            with ad.no_grad():
                from neighborrank.generator import position_logits
                h0 = position_logits(ad.constant(cache_flat), ad.constant(e_list),
                                     ad.constant(e_user_v), gp)
                weights = gumbel_sample(h0, gcfg, noise=rng.split("pn").gumbel((2, m)))[0].value

            def gen_loss():
                from neighborrank.generator import (
                    candidate_logits,
                    masked_list_encoding,
                    position_logits,
                )
                lf = ad.constant(cache_flat)
                soft_c = []
                for j in range(m):
                    e_mask = masked_list_encoding(lf, j, gp)
                    g = candidate_logits(ad.constant(cand_flat), e_mask,
                                         ad.constant(e_user_v), j, gp)
                    soft_c.append(gumbel_sample(g, gcfg, noise=cru_noise[j])[0])
                main_term = tr.counterfactual_reward_loss(weights, soft_c, rewards)
                h = position_logits(lf, ad.constant(e_list), ad.constant(e_user_v), gp)
                aux = tr.position_guidance_loss(ad.softmax_rows(h), pos_rewards)
                return ad.add(main_term, ad.scale(aux, 0.2))

            worst = max(worst, ad.grad_check(gen_loss, list(gp.ps.trainable().values())))
        elapsed = time.time() - start
        check("1", worst < 1e-4 and elapsed < 60,
              f"max rel err {worst:.3e} over 20 configs in {elapsed:.1f}s "
              "(primitives + evaluator/generator compositions, h=1e-5)")


# ---------------------------------------------------------------- criterion 2

class TestCriterion2GumbelMax:
    def test_argmax_frequencies_match_softmax(self):
        start = time.time()
        draws = 100_000
        worst = 0.0
        for trial in range(5):
            rng = RngStream(2000 + trial)
            m = int(rng.split("m").integers(2, 9))
            logits = rng.split("z").normal((m,))
            noise = rng.split("g").gumbel((draws, m))
            with ad.no_grad():
                _, hard = gumbel_sample(ad.constant(np.tile(logits, (draws, 1))),
                                        GumbelConfig(tau=1.0, noise=True), noise=noise)
            freq = np.bincount(hard, minlength=m) / draws
            expect = np.exp(logits - logits.max())
            expect /= expect.sum()
            worst = max(worst, float(np.max(np.abs(freq - expect))))
        elapsed = time.time() - start
        check("2", worst < 0.01 and elapsed < 10,
              f"max |freq - softmax| = {worst:.4f} over 5 logit vectors, "
              f"1e5 draws each, in {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 3

class TestCriterion3RewardShaping:
    def test_shape_exact_and_monotone(self):
        exact_zero = tr.shaped_reward(1.0) == 0.0
        at_two = abs(tr.shaped_reward(2.0) - (math.e - 1.0)) < 1e-12
        at_half = abs(tr.shaped_reward(0.5) - (1.0 - math.exp(0.5))) < 1e-12
        grid = np.arange(0.0, 3.0 + 1e-9, 0.01)
        monotone = bool((np.diff(tr.shaped_reward(grid)) > 0).all())
        check("3", exact_zero and at_two and at_half and monotone,
              f"shape(1)={tr.shaped_reward(1.0)}, shape(2)-(e-1)="
              f"{tr.shaped_reward(2.0) - (math.e - 1):.2e}, strictly increasing on [0,3]")


# ---------------------------------------------------------------- criterion 4

class TestCriterion4PermutationSpace:
    def test_counts_and_timed_scoring(self):
        c55 = PermutationSpace(5, 5).count
        c124 = PermutationSpace(12, 4).count
        dims = ev.ModelDims(item_vocab=50, cat_vocab=8, brand_vocab=12,
                            list_size=4, num_candidates=12, history_sessions=3)
        params = ev.EvaluatorParams.init(dims, RngStream(77))
        rng = RngStream(78)
        cand_ids = rand_ids(rng, (12,), dims)
        record = SimpleNamespace(candidate_ids=cand_ids)   # all the oracle reads
        rec_sessions = rand_ids(rng.split("s"), (3, 4), dims)
        start = time.time()
        with ad.no_grad():
            e_user = ev.encode_sessions(rec_sessions[None], params).value[0]
        table = pl.oracle_table(record, params, tr.RewardConfig(), e_user)
        elapsed = time.time() - start
        check("4", c55 == 120 and c124 == 11_880 and len(table.scores) == c124
              and np.isfinite(table.scores).all() and elapsed < 60,
              f"counts 120/{c124}; the oracle scored all {len(table.scores):,} orderings "
              f"of one 12-of-4 record in {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 5

class TestCriterion5NeighborInvariant:
    def test_ten_thousand_neighbors(self):
        rng = RngStream(4242)
        produced = 0
        ok = True
        while produced < 10_000:
            m = int(rng.split("m", produced).integers(2, 6))
            n = m + int(rng.split("n", produced).integers(1, 5))  # strict pool exists
            origin = tuple(int(x) for x in rng.split("o", produced).choice(n, m))
            _, cands, lists = tr.build_neighbors(origin, n, beta=1, rng=rng.split("b", produced))
            for k, neighbor in zip(cands.ravel().tolist(), lists.reshape(-1, m).tolist()):
                diff = sum(a != b for a, b in zip(origin, neighbor))
                ok &= diff == 1
                ok &= len(set(neighbor)) == m
                ok &= k not in origin
                produced += 1
        check("5", ok, f"{produced} sampled neighbor lists at edit distance exactly 1, "
              "duplicate-free")


# ------------------------------------------------- end-to-end shared fixtures

E2E_SEED = 7
TRAIN_N = 20_000


@pytest.fixture(scope="module")
def e2e():
    """Dataset, trained evaluator and full generator plus evaluation caches."""
    timing = {}
    t0 = time.time()
    cfg = DataConfig(seed=E2E_SEED, num_records=22_223)
    records = generate_records(cfg)
    train, test = records[:TRAIN_N], records[TRAIN_N:]
    timing["datagen"] = time.time() - t0

    dims = ev.ModelDims(item_vocab=cfg.num_items, cat_vocab=cfg.num_categories,
                        brand_vocab=cfg.num_brands, list_size=cfg.list_size,
                        num_candidates=cfg.num_candidates,
                        history_sessions=cfg.history_sessions)
    t0 = time.time()
    eval_params, eval_history = ev.train_evaluator(train, test, dims,
                                                   TrainingSection(eval_epochs=6, seed=1))
    timing["train_eval"] = time.time() - t0

    t0 = time.time()
    training = TrainingSection(gen_epochs=12, seed=2)
    gen_full, _, reward_cfg = tr.train_generator(train, eval_params, training)
    timing["train_gen"] = time.time() - t0

    t0 = time.time()
    e_user_test = ev.user_vectors(test, eval_params)
    tables = pl.build_oracle_tables(test, eval_params, reward_cfg, e_user_test)
    gcfg = GumbelConfig(tau=training.tau_end, noise=False)
    lists = pl.baseline_lists(test, eval_params, 3, e_user_test)
    lists["generator"], _ = pl.rerank_records(test, gen_full, gcfg, e_user_test)
    report = pl.evaluate_rerankers(tables, lists)
    timing["evaluate"] = time.time() - t0
    return {
        "cfg": cfg, "train": train, "test": test, "eval_params": eval_params,
        "eval_history": eval_history, "gen_full": gen_full, "reward_cfg": reward_cfg,
        "tables": tables, "e_user_test": e_user_test, "gcfg": gcfg,
        "lists": lists, "report": report, "timing": timing,
    }


def train_variant(e2e_state, **overrides):
    training = TrainingSection(gen_epochs=12, seed=2, **overrides)
    gp, _, reward_cfg = tr.train_generator(e2e_state["train"], e2e_state["eval_params"],
                                           training)
    gen_lists, _ = pl.rerank_records(e2e_state["test"], gp, e2e_state["gcfg"],
                                     e2e_state["e_user_test"])
    return pl.evaluate_rerankers(e2e_state["tables"], {"gen": gen_lists}).hr["gen"][10.0]


@pytest.fixture(scope="module")
def ablations(e2e):
    return {
        "alpha0": train_variant(e2e, alpha=0.0),
        "no_relative": train_variant(e2e, ablation="no-relative-reward"),
        "beta01": train_variant(e2e, beta=0.1),
    }


# ---------------------------------------------------------------- criterion 6

class TestCriterion6MetricCalibration:
    def test_random_hit_ratio_near_ten_percent(self, e2e):
        hr = e2e["report"].hr["random"][10.0]
        n = len(e2e["test"])
        check("6", abs(hr - 0.10) <= 0.02 and n >= 2000,
              f"random reranker HR@10% = {hr:.4f} over {n} records")


# ---------------------------------------------------------------- criterion 7

class TestCriterion7EndToEnd:
    def test_a_evaluator_auc(self, e2e):
        auc = max(r["auc"] for r in e2e["eval_history"] if r["split"] == "test")
        check("7a", auc > 0.75, f"evaluator test AUC = {auc:.4f} "
              f"({TRAIN_N} train / {len(e2e['test'])} test records)")

    def test_b_generator_beats_baselines(self, e2e):
        hr = e2e["report"].hr
        gen, rnd, greedy = hr["generator"][10.0], hr["random"][10.0], hr["greedy"][10.0]
        check("7b", gen >= rnd + 0.10 and gen >= greedy + 0.10,
              f"HR@10%: generator {gen:.3f} vs random {rnd:.3f} / greedy {greedy:.3f} "
              "(margin >= 0.10 required)")

    def test_c_mean_reward_improves(self, e2e):
        r = e2e["report"].mean_reward
        check("7c", r["generator"] > r["input"],
              f"mean shaped reward: generated {r['generator']:+.4f} > "
              f"input {r['input']:+.4f}")

    def test_runtime_budget(self, e2e):
        total = sum(e2e["timing"].values())
        detail = ", ".join(f"{k}={v:.0f}s" for k, v in e2e["timing"].items())
        check("7-runtime", total < 1800, f"end-to-end {total:.0f}s ({detail})")


# ---------------------------------------------------------------- criterion 8

class TestCriterion8AblationTrends:
    def test_alpha_direction(self, e2e, ablations):
        full = e2e["report"].hr["generator"][10.0]
        check("8-alpha", full > ablations["alpha0"],
              f"HR@10% alpha=0.2 ({full:.3f}) > alpha=0 ({ablations['alpha0']:.3f})")

    def test_relative_reward_direction(self, e2e, ablations):
        full = e2e["report"].hr["generator"][10.0]
        check("8-relative", ablations["no_relative"] < full,
              f"HR@10% raw-reward ablation ({ablations['no_relative']:.3f}) < "
              f"full ({full:.3f})")

    def test_beta_direction(self, e2e, ablations):
        full = e2e["report"].hr["generator"][10.0]
        check("8-beta", full >= ablations["beta01"],
              f"HR@10% beta=1 ({full:.3f}) >= beta=0.1 ({ablations['beta01']:.3f})")


# ---------------------------------------------------------------- criterion 9

class TestCriterion9Determinism:
    def test_pipeline_reruns_byte_identical(self, tmp_path):
        import json

        out = tmp_path / "run"
        cfg = {
            "version": 1,
            "data": {"seed": 5, "num_items": 40, "num_categories": 5, "num_brands": 6,
                     "num_users": 30, "num_records": 400},
            "model": {"embed_dim": 4, "mlp_hidden": [16, 8]},
            "training": {"eval_epochs": 2, "gen_epochs": 2, "seed": 11,
                         "hr_validation_records": 40},
            "paths": {"out_dir": str(out)},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))

        def run_all():
            for cmd in ("gen-data", "train-eval", "train-gen", "bench"):
                assert cli_main([cmd, "--config", str(cfg_path)]) == 0
            return {name: (out / name).read_bytes()
                    for name in ("report.csv", "eval.ckpt", "gen.ckpt")}

        first = run_all()
        second = run_all()
        same = all(first[k] == second[k] for k in first)
        check("9", same, "report.csv, eval.ckpt and gen.ckpt byte-identical "
              "across two identical pipeline runs")
