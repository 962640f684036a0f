"""Outside-in tracing of neighborrank, with no edit to the library.

`Tracer.install()` wraps public functions and methods at module boundaries.
A function is replaced in every `neighborrank` module that binds it, so
`scores_for_lists` is traced whether `evaluator`, `trainer` or `pipeline`
calls it. Every wrapped call pushes a frame; on exit the frame's duration is
charged to its caller as child time, and its self time (duration minus child
time) to its own name, per stage. Frames marked as spans are also recorded as
(name, start, end, parent, stage), kept in memory and written out at exit.
Hot, tiny calls (RNG draws, per-record metrics) are frames but not spans.

A target that no longer exists is listed in `missing`, and the per-layer
metrics that need it are left out rather than failing the run.
"""
from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PKG = "neighborrank"


def _walk_post(add, args, out):
    steps = out[1].steps
    add("generator.walks", 1)
    add("generator.steps", len(steps))
    add("generator.applied", sum(1 for s in steps if s.applied))
    add(f"generator.stop.{out[1].stop_reason}", 1)


def _save_post(add, args, out):
    add("checkpoint.bytes", os.path.getsize(args[0]))


# (owner, attribute, frame name, recorded as span, post hook). The owner is
# a module, or "module:Class" for a method.
TARGETS = [
    ("datagen", "generate_records", "datagen.generate", True,
     lambda add, a, out: add("datagen.records", len(out))),
    ("datagen", "write_dataset", "datagen.write", True, None),
    ("datagen", "load_dataset", "datagen.load", True, None),
    ("datagen:GroundTruthModel", "affinity", "datagen.affinity", False, None),
    ("rng:RngStream", "split", "rng.split", False, None),
    ("rng:RngStream", "uniform", "rng.draw", False, None),
    ("rng:RngStream", "permutation", "rng.draw", False, None),
    ("rng:RngStream", "normal", "rng.normal", False, None),
    ("rng:RngStream", "gumbel", "rng.gumbel", False, None),
    ("rng:RngStream", "integers", "rng.integers", False, None),
    ("rng:RngStream", "choice", "rng.choice", False, None),
    ("trainer", "train_generator", "trainer.train", True, None),
    ("trainer", "build_neighbors", "trainer.build_neighbors", False,
     lambda add, a, out: add("trainer.neighbors", len(out.samples))),
    ("evaluator", "train_evaluator", "evaluator.train", True, None),
    ("evaluator", "evaluate_metrics", "evaluator.metrics", True, None),
    ("evaluator", "user_vectors", "evaluator.user_vectors", True, None),
    ("evaluator", "scores_for_lists", "evaluator.score", False,
     lambda add, a, out: add("evaluator.lists", len(a[0]))),
    ("pipeline", "build_oracle_tables", "pipeline.oracle_tables", True, None),
    ("pipeline", "oracle_table", "pipeline.oracle", True,
     lambda add, a, out: add("pipeline.perms", len(out.scores))),
    ("pipeline", "evaluate_rerankers", "pipeline.evaluate", True, None),
    ("pipeline", "baseline_lists", "pipeline.baselines", True, None),
    ("pipeline", "rerank_records", "pipeline.rerank", True, None),
    ("pipeline", "rank_in_scores", "pipeline.rank", False, None),
    ("metrics:PermutationSpace", "index", "pipeline.rank", False, None),
    ("autodiff:Tensor", "backward", "autodiff.backward", True, None),
    ("autodiff", "topo_order", "autodiff.topo_order", False,
     lambda add, a, out: add("autodiff.nodes", len(out))),
    ("optim:Adam", "step", "optim.step", True, None),
    ("metrics", "auc", "metrics.auc", False, None),
    ("metrics", "ndcg_at_k", "metrics.ndcg", False, None),
    ("generator", "generate", "generator.walk", True, _walk_post),
    ("checkpoint", "save_arrays", "checkpoint.save", True, _save_post),
    ("checkpoint", "load_arrays", "checkpoint.load", True, None),
]

LAYERS = ("datagen", "rng", "trainer", "evaluator", "pipeline", "autodiff", "optim",
          "metrics", "generator", "checkpoint")
STAGES = ("gen-data", "train-eval", "train-gen", "rerank", "bench", "walks")


class Tracer:
    """Frames, spans and counters for one process."""

    def __init__(self):
        self.stage = ""
        self.spans: list[list] = []          # [name, start, end, parent, stage]
        self.calls = defaultdict(int)        # (stage, name) -> calls
        self.incl = defaultdict(float)       # (stage, name) -> seconds, all calls
        self.self_s = defaultdict(float)     # (stage, name) -> self seconds
        self.counts = defaultdict(float)     # (stage, counter) -> value
        self.missing: list[tuple[str, str]] = []   # (target, frame name)
        self.post_errors = 0
        self._frames: list[list] = []        # [name, start, child_s, span, recorded]

    # -- frames ------------------------------------------------------------
    def enter(self, name: str, record: bool) -> list:
        parent = self._frames[-1][3] if self._frames else -1
        idx = parent
        start = time.perf_counter()
        if record:
            idx = len(self.spans)
            self.spans.append([name, start, None, parent, self.stage])
        frame = [name, start, 0.0, idx, record]
        self._frames.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._frames.pop()
        name, start, child, idx, record = frame
        dur = end - start
        key = (self.stage, name)
        self.calls[key] += 1
        self.incl[key] += dur
        self.self_s[key] += dur - child
        if self._frames:
            self._frames[-1][2] += dur
        if record:
            self.spans[idx][2] = end

    @contextmanager
    def span(self, name: str):
        """A span opened by the harness itself."""
        frame = self.enter(name, True)
        try:
            yield
        finally:
            self.exit(frame)

    def add(self, counter: str, value: float) -> None:
        self.counts[(self.stage, counter)] += value

    # -- patching ----------------------------------------------------------
    def _wrapper(self, fn, name: str, record: bool, post):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            frame = tracer.enter(name, record)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if post is not None:
                try:
                    post(tracer.add, args, out)
                except (AttributeError, TypeError, IndexError, OSError):
                    tracer.post_errors += 1
            return out

        return wrapped

    def install(self) -> None:
        import neighborrank  # noqa: F401  (imports every submodule)

        for owner, attr, name, record, post in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            module = sys.modules.get(f"{PKG}.{mod_name}")
            if cls_name:
                cls = getattr(module, cls_name, None)
                fn = cls.__dict__.get(attr) if cls is not None else None
                if not callable(fn):
                    self.missing.append((f"{owner}.{attr}", name))
                    continue
                setattr(cls, attr, self._wrapper(fn, name, record, post))
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append((f"{owner}.{attr}", name))
                continue
            wrapped = self._wrapper(fn, name, record, post)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith(PKG) and getattr(mod, attr, None) is fn:
                    setattr(mod, attr, wrapped)

    # -- output ------------------------------------------------------------
    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, stage in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "stage": stage}) + "\n")

    def summary(self) -> dict:
        """JSON-ready totals; keys are "stage|name"."""
        def flat(d):
            return {f"{s}|{n}": v for (s, n), v in d.items()}
        return {"calls": flat(self.calls), "incl": flat(self.incl),
                "self": flat(self.self_s), "counts": flat(self.counts),
                "missing": self.missing, "post_errors": self.post_errors,
                "spans": len(self.spans)}


# -- per-layer metrics -------------------------------------------------------

def _total(table: dict, name: str, stage: str | None = None) -> float:
    total = 0.0
    for key, value in table.items():
        s, _, n = key.partition("|")
        if n == name and (stage is None or s == stage):
            total += value
    return total


def _prefix_total(table: dict, prefix: str, stage: str | None = None) -> float:
    total = 0.0
    for key, value in table.items():
        s, _, n = key.partition("|")
        if n.startswith(prefix) and (stage is None or s == stage):
            total += value
    return total


def _ratio(a: float, b: float):
    return a / b if b else None


def layer_metrics(summary: dict, walk_ms: list[float],
                  report: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run; absent targets drop their metrics."""
    calls, incl, self_s, counts = (summary["calls"], summary["incl"],
                                   summary["self"], summary["counts"])
    have = {t[2] for t in TARGETS} - {frame for _, frame in summary["missing"]}

    def c(name, stage=None):
        return _total(calls, name, stage)

    def t(name, stage=None):
        return _total(incl, name, stage)

    def n(name, stage=None):
        return _total(counts, name, stage)

    walks = n("generator.walks")
    steps = n("generator.steps")
    records = n("datagen.records", "gen-data")
    backward = c("autodiff.backward")
    defs = [
        ("datagen.generate_s", "s", ["datagen.generate"], lambda: t("datagen.generate")),
        ("datagen.write_s", "s", ["datagen.write"], lambda: t("datagen.write")),
        ("datagen.load_s", "s", ["datagen.load"], lambda: t("datagen.load")),
        ("datagen.load_calls", "count", ["datagen.load"], lambda: c("datagen.load")),
        ("datagen.affinity_calls_per_record", "count", ["datagen.affinity", "datagen.generate"],
         lambda: _ratio(c("datagen.affinity", "gen-data"), records)),
        ("rng.split_calls", "count", ["rng.split"], lambda: c("rng.split")),
        ("rng.draw_calls", "count", ["rng.draw"], lambda: c("rng.draw")),
        ("rng.splits_per_record", "count", ["rng.split", "datagen.generate"],
         lambda: _ratio(c("rng.split", "gen-data"), records)),
        ("rng.draws_per_record", "count", ["rng.draw", "datagen.generate"],
         lambda: _ratio(c("rng.draw", "gen-data"), records)),
        ("trainer.train_s", "s", ["trainer.train"], lambda: t("trainer.train")),
        ("trainer.neighbors_built", "count", ["trainer.build_neighbors"],
         lambda: n("trainer.neighbors")),
        ("trainer.build_neighbors_s", "s", ["trainer.build_neighbors"],
         lambda: t("trainer.build_neighbors")),
        ("evaluator.train_s", "s", ["evaluator.train"], lambda: t("evaluator.train")),
        ("evaluator.metrics_s", "s", ["evaluator.metrics"], lambda: t("evaluator.metrics")),
        ("evaluator.user_vectors_s", "s", ["evaluator.user_vectors"],
         lambda: t("evaluator.user_vectors")),
        ("evaluator.score_calls", "count", ["evaluator.score"], lambda: c("evaluator.score")),
        ("evaluator.lists_scored", "count", ["evaluator.score"], lambda: n("evaluator.lists")),
        ("evaluator.score_s", "s", ["evaluator.score"], lambda: t("evaluator.score")),
        ("pipeline.oracle_s", "s", ["pipeline.oracle"], lambda: t("pipeline.oracle")),
        ("pipeline.oracle_tables", "count", ["pipeline.oracle"], lambda: c("pipeline.oracle")),
        ("pipeline.perms_scored", "count", ["pipeline.oracle"], lambda: n("pipeline.perms")),
        ("pipeline.rank_s", "s", ["pipeline.rank"], lambda: t("pipeline.rank")),
        ("pipeline.baselines_s", "s", ["pipeline.baselines"], lambda: t("pipeline.baselines")),
        ("pipeline.rerank_s", "s", ["pipeline.rerank"], lambda: t("pipeline.rerank")),
        ("autodiff.backward_calls", "count", ["autodiff.backward"], lambda: backward),
        ("autodiff.backward_s", "s", ["autodiff.backward"], lambda: t("autodiff.backward")),
        ("autodiff.nodes_per_backward", "count", ["autodiff.backward", "autodiff.topo_order"],
         lambda: _ratio(n("autodiff.nodes"), backward)),
        ("optim.steps", "count", ["optim.step"], lambda: c("optim.step")),
        ("optim.step_s", "s", ["optim.step"], lambda: t("optim.step")),
        ("metrics.auc_s", "s", ["metrics.auc"], lambda: t("metrics.auc")),
        ("metrics.ndcg_s", "s", ["metrics.ndcg"], lambda: t("metrics.ndcg")),
        ("generator.walks", "count", ["generator.walk"], lambda: walks),
        ("generator.steps_per_walk", "count", ["generator.walk"], lambda: _ratio(steps, walks)),
        ("generator.changed_share", "ratio", ["generator.walk"],
         lambda: _ratio(n("generator.applied"), steps)),
        ("generator.stop_low_confidence", "count", ["generator.walk"],
         lambda: n("generator.stop.low-confidence")),
        ("generator.stop_same_item", "count", ["generator.walk"],
         lambda: n("generator.stop.same-item")),
        ("generator.stop_max_steps", "count", ["generator.walk"],
         lambda: n("generator.stop.max-steps")),
        ("generator.walk_p99_ms", "ms", ["generator.walk"],
         lambda: percentile(walk_ms, 99) if walk_ms else None),
        ("generator.hr10", "ratio", [], lambda: report.get("generator.hr10")),
        ("checkpoint.save_s", "s", ["checkpoint.save"], lambda: t("checkpoint.save")),
        ("checkpoint.load_s", "s", ["checkpoint.load"], lambda: t("checkpoint.load")),
        ("checkpoint.bytes", "bytes", ["checkpoint.save"], lambda: n("checkpoint.bytes")),
    ]
    out: dict[str, tuple[float, str]] = {}
    for name, unit, needs, fn in defs:
        if all(x in have for x in needs):
            value = fn()
            if value is not None:
                out[name] = (float(value), unit)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (_prefix_total(self_s, layer + "."), "s")
    for stage in STAGES:
        wall = _total(incl, f"stage.{stage}", stage)
        out[f"stage.{stage}.wall_s"] = (wall, "s")
        out[f"stage.{stage}.unaccounted_s"] = (_total(self_s, f"stage.{stage}", stage), "s")
    return out


def stage_table(summary: dict) -> list[dict]:
    """Per stage: wall time and self time by layer; the stage frame's own
    self time is the CLI or harness code between wrapped calls."""
    rows = []
    for stage in STAGES:
        wall = _total(summary["incl"], f"stage.{stage}", stage)
        if not wall:
            continue
        by_layer = {layer: _prefix_total(summary["self"], layer + ".", stage) for layer in LAYERS}
        glue = _total(summary["self"], f"stage.{stage}", stage)
        rows.append({"stage": stage, "wall_s": wall, "self_s": by_layer,
                     "unaccounted_s": glue,
                     "accounted_share": 1.0 - glue / wall})
    return rows


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]
