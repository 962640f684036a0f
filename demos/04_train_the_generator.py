#!/usr/bin/env python3
"""Counterfactual neighbor training of the list editor, then watch it walk.

Run: python3 demos/04_train_the_generator.py   (a few minutes on a laptop)
"""

from neighborrank import evaluator as ev
from neighborrank import trainer as tr
from neighborrank.config import TrainingSection
from neighborrank.datagen import DataConfig, generate_records
from neighborrank.generator import GumbelConfig, generate
from neighborrank.rng import RngStream

cfg = DataConfig(seed=7, num_records=12000)
records = generate_records(cfg)
train, test = records[:10800], records[10800:]

dims = ev.ModelDims(item_vocab=cfg.num_items, cat_vocab=cfg.num_categories,
                    brand_vocab=cfg.num_brands, list_size=cfg.list_size,
                    num_candidates=cfg.num_candidates,
                    history_sessions=cfg.history_sessions)
eval_params, _ = ev.train_evaluator(train, test, dims, TrainingSection(eval_epochs=4, seed=1))

# neighbor sampling: the per-edit counterfactuals the trainer scores
slots, cands, lists = tr.build_neighbors((0, 1, 2, 3, 4), num_candidates=5, beta=1,
                                         rng=RngStream(3))
print("sampled edits of the list (0,1,2,3,4):")
for slot, k, neighbor in zip(slots.tolist(), cands[:, 0].tolist(), lists[:, 0].tolist()):
    print(f"  slot {slot} <- candidate {k}  ->  {tuple(neighbor)}")

training = TrainingSection(gen_epochs=16, seed=2)   # the CLI's training section
gp, history, reward_cfg = tr.train_generator(train, eval_params, training)
print("\nepoch  main loss   guidance loss")
for row in history:
    print(f"{row['epoch']:5d}  {row['loss_main']:+.5f}    {row['loss_aux']:.4f}")
print(f"reward scale fitted on train utilities: {reward_cfg.scale:.4f}")

# deterministic walks on held-out records; show one that edits the list
gcfg = GumbelConfig(tau=training.tau_end, noise=False)
rec, final, trace = None, None, None
for candidate_rec in test[:50]:
    start = tuple(int(x) for x in candidate_rec.exposed)
    f, t = generate(start, candidate_rec.candidate_ids, candidate_rec.session_ids, gp, gcfg)
    if rec is None or sum(1 for s in t.steps if s.applied) >= 2:
        rec, final, trace = candidate_rec, f, t
        if f != start:
            break
print("\ninitial order:", rec.exposed.tolist(), "-> final:", list(final))
for s in trace.steps:
    action = "applied" if s.applied else "stopped"
    print(f"  step {s.step}: slot {s.position}, candidate {s.candidate}, "
          f"p_max={s.max_position_prob:.2f}, "
          f"c_max={'-' if s.max_candidate_prob is None else f'{s.max_candidate_prob:.2f}'} "
          f"[{action}{'' if not s.stop else ': ' + s.stop}]")
