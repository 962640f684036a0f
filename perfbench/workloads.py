"""Workload definitions: a config preset plus the sizes the benchmark sets.

Every workload is the full CLI pipeline on one preset from
`neighborrank.config`. The benchmark sets record counts, the train/test
split, epoch counts and the validation subset, and it lowers the walk's stop
rules (`theta_p = 1/m`, `theta_c = 1/n`, `max_steps = 1`). Lowered stop rules
make every walk run both edit heads once, so the walk layer is measured and
walk latency has one shape on every seed; at the default thresholds a
generator trained within a run's budget stops every walk at step 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str                      # function name in neighborrank.config
    why: str
    data: dict = field(default_factory=dict)
    training: dict = field(default_factory=dict)
    min_walks: int = 1000


def _walk_rules(m: int, n: int) -> dict:
    return {"theta_p": 1.0 / m, "theta_c": 1.0 / n, "max_steps": 1}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="narrow-5of5",
        preset="default_config",
        why="paper setup, 5 of 5 and 120 permutations, swap edits: "
            "simulator, scalar RNG and neighbor sampling dominate",
        data={"num_records": 600, "train_fraction": 0.5},
        training={"eval_epochs": 12, "gen_epochs": 6, "hr_validation_records": 100,
                  **_walk_rules(5, 5)},
    ),
    Workload(
        name="wide-12of4",
        preset="wide_pool_config",
        why="12 candidates, slate of 4, 11,880 permutations, masked substitutions: "
            "oracle tables through evaluator inference dominate",
        data={"num_records": 250, "train_fraction": 0.9},
        training={"eval_epochs": 20, "gen_epochs": 3, "hr_validation_records": 12,
                  **_walk_rules(4, 12)},
    ),
    Workload(
        name="deep-mlp",
        preset="deep_mlp_config",
        why="MLP widths 1024/256/128, 512 train records in one batch (batch size 1,024): "
            "evaluator training through autodiff backward and Adam, and peak memory",
        data={"num_records": 560, "train_fraction": 0.915},
        training={"eval_epochs": 1, "gen_epochs": 1, "hr_validation_records": 16,
                  **_walk_rules(5, 5)},
    ),
)}

# A toy scale for the harness's own smoke test: seconds, not minutes.
TOY = {"data": {"num_records": 80, "train_fraction": 0.75},
       "training": {"eval_epochs": 1, "gen_epochs": 1, "hr_validation_records": 8},
       "min_walks": 40}


def build_config(workload: Workload, seed: int, toy: bool = False) -> dict:
    """The JSON config a run hands to the CLI, with the seed in both sections."""
    import neighborrank.config as nc

    cfg = getattr(nc, workload.preset)().to_dict()
    cfg["data"].update(workload.data)
    cfg["training"].update(workload.training)
    if toy:
        cfg["data"].update(TOY["data"])
        cfg["training"].update(TOY["training"])
    cfg["data"]["seed"] = seed
    cfg["training"]["seed"] = seed
    return cfg
