#!/usr/bin/env python3
"""Exhaustive hit-ratio benchmark against baselines, plus the CLI sweep.

Run: python3 demos/05_benchmark_and_sweep.py   (a few minutes on a laptop)
"""
import numpy as np

from neighborrank import evaluator as ev
from neighborrank import pipeline as pl
from neighborrank import trainer as tr
from neighborrank.config import TrainingSection
from neighborrank.datagen import DataConfig, generate_records
from neighborrank.generator import GumbelConfig

cfg = DataConfig(seed=7, num_records=12000)
records = generate_records(cfg)
train, test = records[:10800], records[10800:]

dims = ev.ModelDims(item_vocab=cfg.num_items, cat_vocab=cfg.num_categories,
                    brand_vocab=cfg.num_brands, list_size=cfg.list_size,
                    num_candidates=cfg.num_candidates,
                    history_sessions=cfg.history_sessions)
eval_params, _ = ev.train_evaluator(train, test, dims, TrainingSection(eval_epochs=4, seed=1))
training = TrainingSection(gen_epochs=16, seed=2)
gp, _, reward_cfg = tr.train_generator(train, eval_params, training)

# every reranker proposes one list per record; the oracle ranks each proposal
# against all 120 permutations of that record's candidates
e_user = ev.user_vectors(test, eval_params)
tables = pl.build_oracle_tables(test, eval_params, reward_cfg, e_user)
lists = pl.baseline_lists(test, eval_params, 3, e_user)
lists["generator"], _ = pl.rerank_records(test, gp,
                                          GumbelConfig(tau=training.tau_end, noise=False),
                                          e_user)
report = pl.evaluate_rerankers(tables, lists)

print(f"{'model':10s}  HR@10%   HR@1%    mean shaped reward")
for model in ("input", "random", "greedy", "generator"):
    print(f"{model:10s}  {report.hr[model][10.0]:.3f}    {report.hr[model][1.0]:.3f}    "
          f"{report.mean_reward[model]:+.4f}")

print("""
For hyperparameter sweeps use the CLI, e.g. the loss-balance sweep:

  cat > sweep.json <<'JSON'
  {"version": 1, "param": "training.alpha",
   "values": [0, 0.01, 0.2, 0.5, 1.0],
   "base": {"version": 1, "data": {"num_records": 22223},
            "paths": {"out_dir": "runs/sweep"}}}
  JSON
  neighborrank sweep --config sweep.json --out runs/alpha_sweep

which writes one report per value plus summary.csv.
""")
