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
# click_model scores (R, m) ordered lists, each under its row of (R, C)
# per-category affinities; `affinities` draws one row per user
user = 12
aff = model.affinities([user])
items = np.array([[5, 17, 42, 101, 160]])
probs = model.click_model(items, aff)[0]
print("click probabilities down the list:", np.round(probs[0], 3))
print("position bias vector:", model.position_bias)

# same item, same slot, but now right after a same-category item
cat = model.catalog.category[items[0, 1]]
same_cat = np.flatnonzero(model.catalog.category == cat)[:2]
lists = np.array([[same_cat[0], same_cat[1], 42, 101, 160], [5, same_cat[1], 42, 101, 160]])
full, solo = model.click_model(lists, np.repeat(aff, 2, axis=0))[0]
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
for rec, taste in zip(records[:100], model.affinities(records.user_id[:100])):
    pool = rec.candidate_ids[:, 0]
    orderings = np.array(list(itertools.permutations(pool.tolist(), cfg.list_size)))
    expected = model.click_model(orderings, taste[None])[0].sum(axis=1)
    logged = model.click_model(pool[rec.exposed][None], taste[None])[0].sum()
    better += expected.max() - logged > 1e-9
print(f"\nbest ordering beats the logged one on {better}/100 records "
      "(the reranking headroom the generator is meant to capture)")
