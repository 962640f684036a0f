#!/usr/bin/env python3
"""The synthetic click world: position bias, taste, cannibalization, headroom.

Run: python3 demos/02_simulated_session_logs.py
"""
import itertools

import numpy as np

from neighborrank.datagen import DataConfig, generate_records, ground_truth

cfg = DataConfig(seed=7, num_records=300)
model = ground_truth(cfg)

# --- the click model ----------------------------------------------------------
user = 12
items = np.array([5, 17, 42, 101, 160])
probs = model.list_click_probs(items, user)
print("click probabilities down the list:", np.round(probs, 3))
print("position bias vector:", model.position_bias)

# same item, same slot, but now right after a same-category item
cat = model.catalog.category[items[1]]
same_cat = np.flatnonzero(model.catalog.category == cat)[:2]
full = model.list_click_probs(np.array([same_cat[0], same_cat[1], 42, 101, 160]), user)
solo = model.list_click_probs(np.array([5, same_cat[1], 42, 101, 160]), user)
print(f"slot-2 click prob after a same-category lead-in: {full[1]:.3f} "
      f"vs after a different category: {solo[1]:.3f}")

# --- logged records -----------------------------------------------------------
records = generate_records(cfg, model)
rec = records[0]
print("\nfirst record: user", rec.user_id)
print("  candidates (item ids):", rec.candidate_ids[:, 0].tolist())
print("  exposed order:", rec.exposed.tolist(), "clicks:", rec.clicks.tolist())
ctr = records.clicks.mean()
print(f"  empirical CTR over {len(records)} records: {ctr:.3f}")

# --- how much can reordering gain? -------------------------------------------
better = 0
for rec in records[:100]:
    pool = rec.candidate_ids[:, 0]
    logged = pool[rec.exposed]
    best = max(itertools.permutations(pool.tolist(), cfg.list_size),
               key=lambda p: model.expected_clicks(np.array(p), rec.user_id))
    gain = (model.expected_clicks(np.array(best), rec.user_id)
            - model.expected_clicks(logged, rec.user_id))
    better += gain > 1e-9
print(f"\nbest ordering beats the logged one on {better}/100 records "
      "(the reranking headroom the generator is meant to capture)")
