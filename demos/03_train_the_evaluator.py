#!/usr/bin/env python3
"""Train the list-wise evaluator on simulated logs and inspect what it learned.

Run: python3 demos/03_train_the_evaluator.py   (about a minute on a laptop)
"""
import numpy as np

from neighborrank import evaluator as ev
from neighborrank.config import TrainingSection
from neighborrank.datagen import DataConfig, generate_records

cfg = DataConfig(seed=7, num_records=6000)
records = generate_records(cfg)
train, test = records[:5400], records[5400:]

dims = ev.ModelDims(item_vocab=cfg.num_items, cat_vocab=cfg.num_categories,
                    brand_vocab=cfg.num_brands, list_size=cfg.list_size,
                    num_candidates=cfg.num_candidates,
                    history_sessions=cfg.history_sessions)
params, history = ev.train_evaluator(train, test, dims, TrainingSection(eval_epochs=4, seed=1))

print("epoch  split  auc     logloss  ndcg5")
for row in history:
    print(f"{row['epoch']:5d}  {row['split']:5s}  {row['auc']:.4f}  "
          f"{row['logloss']:.4f}   {row['ndcg5']:.4f}")

# position awareness: the same items, swapped, score differently
ids = test[0].exposed_ids.copy()
swapped = ids.copy()
swapped[[0, 4]] = swapped[[4, 0]]
e_user = ev.user_vectors(test[:1], params)
(base, after), (pcvr, _) = ev.scores_for_lists(np.stack([ids, swapped]),
                                               np.repeat(e_user, 2, axis=0), params)
print("\npCTR of the logged order:   ", np.round(base, 3))
print("pCTR with slots 1/5 swapped:", np.round(after, 3))
print("\nper-slot conversion estimates:", np.round(pcvr, 3))
params.save("/tmp/demo_eval.ckpt")
print("checkpoint written to /tmp/demo_eval.ckpt")
