"""One repetition of a workload, in a fresh process.

Set-up (interpreter start, imports, config) is timed from the moment the
parent spawned this process to the start of the first stage. Then the five
CLI stages run in-process through `neighborrank.cli.main`, followed by the
closed walk loop: one caller calls `generator.generate` once per test record,
noise off, cycling over the test split until `min_walks` walks are done.
Output checks count failures instead of raising. The result is one JSON
file; `run.py` aggregates repetitions.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR \
        --result FILE --spawned MONOTONIC [--trace] [--setup-only] [--toy]
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

STAGES = ("gen-data", "train-eval", "train-gen", "rerank", "bench")
ARTIFACTS = ("dataset.jsonl", "eval.ckpt", "gen.ckpt", "trace.jsonl", "report.csv")
REPORT_ROWS = {"evaluator": ("auc", "logloss", "ndcg5", "ndcg10"),
               "input": ("hr10", "hr1"), "random": ("hr10", "hr1"),
               "greedy": ("hr10", "hr1"), "generator": ("hr10", "hr1")}
ROOT = Path(__file__).resolve().parent.parent


class Checks:
    """Operations attempted and failed, by check name, with failure details."""

    def __init__(self):
        self.rows: dict[str, list] = {}

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        row = self.rows.setdefault(name, [0, 0, []])
        row[0] += 1
        if not ok:
            row[1] += 1
            if len(row[2]) < 5:
                row[2].append(detail)
        return ok


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def blas_info() -> dict:
    """BLAS library and its live thread count, read from the loaded library."""
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for fn_name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
            fn = getattr(lib, fn_name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def valid_selection(lst, m: int, n: int) -> bool:
    return (isinstance(lst, (list, tuple)) and len(lst) == m
            and all(isinstance(x, int) and 0 <= x < n for x in lst)
            and len(set(lst)) == m)


def snapshot_adam_inits(optim_module, snapshots: list) -> None:
    """Record the weights every optimizer starts from, to catch training
    that returns its initial weights unchanged."""
    original = optim_module.Adam.__init__

    def init(self, params, *args, **kwargs):
        snapshots.append({name: t.value.copy() for name, t in dict(params).items()})
        original(self, params, *args, **kwargs)

    optim_module.Adam.__init__ = init


def check_trained(checks: Checks, name: str, ckpt: Path, init: dict | None, load_arrays) -> None:
    if init is None:
        checks.record(f"{name}_trained", True, "no optimizer seen; not checked")
        return
    arrays = load_arrays(ckpt)
    common = [k for k in init if k in arrays and arrays[k].shape == init[k].shape]
    unchanged = bool(common) and all((arrays[k] == init[k]).all() for k in common)
    checks.record(f"{name}_trained", not unchanged,
                  f"{ckpt.name} equals its initial weights ({len(common)} arrays)")


def check_report(checks: Checks, path: Path) -> dict:
    rows = {}
    with path.open(encoding="utf-8") as fh:
        for row in csv.DictReader(line for line in fh if not line.startswith("#")):
            rows[row.get("model")] = row
    values = {}
    for model, columns in REPORT_ROWS.items():
        row = rows.get(model)
        if not checks.record("report_row", row is not None, f"report.csv lacks row {model}"):
            continue
        for col in columns:
            try:
                value = float(row.get(col) or "nan")
            except ValueError:
                value = float("nan")
            checks.record("report_value", math.isfinite(value),
                          f"report.csv {model}.{col} = {row.get(col)!r}")
            values[f"{model}.{col}"] = value
    return values


def run(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import neighborrank.checkpoint as ckpt_mod
    import neighborrank.cli as cli
    import neighborrank.datagen as dg
    import neighborrank.evaluator as ev
    import neighborrank.generator as gm
    import neighborrank.optim as optim
    from neighborrank.config import config_from_dict
    from tracer import Tracer
    from workloads import TOY, WORKLOADS, build_config

    load_arrays = ckpt_mod.load_arrays          # untraced, for the checks
    workload = WORKLOADS[args.workload]
    cfg_dict = build_config(workload, args.seed, toy=args.toy)
    cfg = config_from_dict(cfg_dict)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg_dict, sort_keys=True), encoding="utf-8")
    snapshots: list = []
    snapshot_adam_inits(optim, snapshots)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    result = {"setup_s": time.monotonic() - args.spawned, **blas_info()}
    if args.setup_only:
        return result

    checks = Checks()
    stage_s, inits = {}, {}
    for stage in STAGES:
        before = len(snapshots)
        t0 = time.perf_counter()
        try:
            with stage_span(tracer, stage):
                rc = cli.main([stage, "--config", str(cfg_path), "--out", str(out)])
        except Exception:  # a stage that raises is a failed operation, not a crash
            traceback.print_exc()
            rc = "raised"
        stage_s[stage] = time.perf_counter() - t0
        inits[stage] = snapshots[before] if len(snapshots) > before else None
        if not checks.record("stage", rc == 0, f"{stage} exited {rc}"):
            break
    result["stage_s"] = stage_s
    completed = len(stage_s) == len(STAGES) and checks.rows["stage"][1] == 0

    walk_ms: list[float] = []
    if completed:
        check_trained(checks, "eval_ckpt", out / "eval.ckpt", inits["train-eval"], load_arrays)
        check_trained(checks, "gen_ckpt", out / "gen.ckpt", inits["train-gen"], load_arrays)
        result["report"] = check_report(checks, out / "report.csv")
        min_walks = TOY["min_walks"] if args.toy else workload.min_walks
        with stage_span(tracer, "walks"):
            walk_ms = walk_loop(args, cfg, out, checks, dg, ev, gm, min_walks)
        result["hashes"] = {name: sha256(out / name) for name in ARTIFACTS}
        manifest = json.loads((out / "dataset.jsonl.manifest.json").read_text(encoding="utf-8"))
        result["num_records"] = manifest["num_records"]
        result["num_train"] = manifest["num_train"]
        result["num_test"] = manifest["num_test"]
        result["eval_epochs"] = cfg.training.eval_epochs
        result["gen_epochs"] = cfg.training.gen_epochs
    result["walk_ms"] = walk_ms
    result["checks"] = checks.rows
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write_spans(out / "spans.jsonl")
        result["trace"] = tracer.summary()
    return result


def stage_span(tracer, stage: str):
    """The stage's span when tracing, else nothing."""
    if tracer is None:
        return contextlib.nullcontext()
    tracer.stage = stage
    return tracer.span(f"stage.{stage}")


def walk_loop(args, cfg, out: Path, checks: Checks, dg, ev, gm, min_walks: int) -> list[float]:
    """Closed loop of single walks; each final list must be a duplicate-free
    m-selection and match the rerank stage's trace for the same record."""
    records, manifest = dg.load_dataset(out / "dataset.jsonl")
    _, test = dg.split_records(records, manifest)
    eval_params = ev.EvaluatorParams.load(out / "eval.ckpt")
    gp = gm.GeneratorParams.load(out / "gen.ckpt", eval_params)
    t = cfg.training
    gcfg = gm.GumbelConfig(tau=t.tau_end, noise=False, theta_p=t.theta_p,
                           theta_c=t.theta_c, max_steps=t.max_steps)
    e_user = ev.user_vectors(test, eval_params)
    m, n = cfg.data.list_size, cfg.data.num_candidates

    traced_finals = []
    with (out / "trace.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            final = json.loads(line).get("final")
            checks.record("trace_list", valid_selection(final, m, n),
                          f"trace.jsonl record {len(traced_finals)}: {final}")
            traced_finals.append(final)
    checks.record("trace_count", len(traced_finals) == len(test),
                  f"trace.jsonl has {len(traced_finals)} lists for {len(test)} test records")

    passes = max(1, math.ceil(min_walks / len(test)))
    latencies = []
    for _ in range(passes):
        for i, rec in enumerate(test):
            start = time.perf_counter()
            try:
                final, _ = gm.generate(tuple(int(x) for x in rec.exposed), rec.candidate_ids,
                                       rec.session_ids, gp, gcfg, e_user=e_user[i])
            except Exception as exc:  # a failed walk counts against those attempted
                checks.record("walk", False, f"record {i}: {exc!r}")
                continue
            latencies.append((time.perf_counter() - start) * 1e3)
            final = [int(x) for x in final]
            if args.inject_invalid_list and not latencies[:-1]:
                final = [final[0]] * m
            ok = valid_selection(final, m, n)
            if ok and i < len(traced_finals):
                ok = final == traced_finals[i]
            checks.record("walk", ok, f"record {i}: walk gave {final}, trace has "
                          f"{traced_finals[i] if i < len(traced_finals) else None}")
    return latencies


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--toy", action="store_true")
    p.add_argument("--inject-invalid-list", action="store_true")
    args = p.parse_args(argv)
    result = run(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
