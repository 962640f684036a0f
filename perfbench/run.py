"""Benchmark of the neighborrank CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each repetition is a fresh worker
process (`worker.py`) that runs gen-data, train-eval, train-gen, rerank and
bench through `neighborrank.cli.main`, then a closed loop of single walks.
Repetitions continue while the next one is expected to end within
`--seconds`; at least one runs, and with `--trace 1` at least one traced and
one plain, alternating, so the tracing overhead is measured in the same run.
A few set-up-only workers add samples to `setup_s`.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with `--trace 0`,
per-layer metrics with `--trace 1`). Lines before it give sample counts,
host facts, artifact hashes and, when traced, the per-stage self-time table.
Everything written goes under `perfbench/_work/`.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import layer_metrics, stage_table  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = 1          # explicit and never above nproc
NPROC = len(os.sched_getaffinity(0))
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150
PR_SET_PDEATHSIG = 1
LIBC = ctypes.CDLL(None, use_errno=True)


def end_to_end(reps: list[dict], probes: list[dict]) -> tuple[dict, dict]:
    """Metrics and their sample counts from plain repetitions.

    Timings report the slowest repetition of the run (largest time, smallest
    rate). The host switches between two speeds, about 1.8x apart, for
    stretches of a minute or so; a median of a few repetitions then flips
    between the two from run to run, while the slowest one stays put. Set-up
    is the median of all workers."""
    done = [r for r in reps if r.get("stage_s") and len(r["stage_s"]) == 5 and "report" in r]
    values, samples = {}, {}

    def put(name, unit, series, pick):
        series = [v for v in series if v is not None]
        if series:
            values[name] = {"value": pick(series), "unit": unit}
            samples[name] = len(series)

    put("setup_s", "s", [r["setup_s"] for r in probes + reps], statistics.median)
    put("pipeline_s", "s", [sum(r["stage_s"].values()) for r in done], max)
    put("gen_data_rec_per_s", "1/s",
        [r["num_records"] / r["stage_s"]["gen-data"] for r in done], min)
    put("train_eval_rec_per_s", "1/s",
        [r["num_train"] * r["eval_epochs"] / r["stage_s"]["train-eval"] for r in done], min)
    put("train_gen_rec_per_s", "1/s",
        [r["num_train"] * r["gen_epochs"] / r["stage_s"]["train-gen"] for r in done], min)
    put("bench_rec_per_s", "1/s", [r["num_test"] / r["stage_s"]["bench"] for r in done], min)
    put("walk_p50_ms", "ms", [statistics.median(r["walk_ms"]) for r in done if r["walk_ms"]],
        max)
    put("peak_rss_mb", "MB", [r["peak_rss_mb"] for r in done], statistics.median)
    put("eval_auc", "ratio", [r["report"].get("evaluator.auc") for r in done[:1]],
        statistics.median)
    return values, samples


def per_layer(reps: list[dict]) -> tuple[dict, list]:
    traced = [r for r in reps if r.get("trace") and r.get("stage_s")]
    plain = [r for r in reps if not r.get("trace") and r.get("stage_s")]
    if not traced:
        return {}, []
    per_rep = [layer_metrics(r["trace"], r["walk_ms"], r.get("report", {})) for r in traced]
    values = {}
    for name in per_rep[0]:
        series = [m[name][0] for m in per_rep if name in m]
        values[name] = {"value": statistics.median(series), "unit": per_rep[0][name][1]}
    if plain:
        t = statistics.median(sum(r["stage_s"].values()) for r in traced)
        p = statistics.median(sum(r["stage_s"].values()) for r in plain)
        values["trace.overhead_pct"] = {"value": 100.0 * (t / p - 1.0), "unit": "%"}
    tables = [stage_table(r["trace"]) for r in traced]
    wall = sum(row["wall_s"] for row in tables[0])
    glue = sum(row["unaccounted_s"] for row in tables[0])
    values["trace.unaccounted_share"] = {"value": glue / wall if wall else 0.0, "unit": "ratio"}
    return values, tables[0]


def source_fingerprint(root: Path) -> str:
    h = hashlib.sha256()
    for base in (root / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            if "_work" in path.parts or "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


class Registry:
    """Artifact hashes by (source fingerprint, workload, seed, config): any
    later run of the same key must reproduce the same bytes."""

    def __init__(self, path: Path):
        self.path = path
        self.entries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}

    def compare(self, key: str, hashes: dict) -> list[str]:
        known = self.entries.setdefault(key, {})
        mismatches = []
        for name, digest in hashes.items():
            if name not in known:
                known[name] = digest
            elif known[name] != digest:
                mismatches.append(f"{name}: {digest[:16] if digest else None} != "
                                  f"{known[name][:16] if known[name] else None}")
        return mismatches

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


def die_with_parent() -> None:
    """Runs in the forked worker before exec: the kernel sends it SIGKILL if
    this process dies first, so a killed benchmark leaves no worker behind."""
    LIBC.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def spawn(root: Path, work: Path, args, tag: str, extra: list[str]) -> dict:
    """Run one worker to completion; a worker that fails yields {"error": ...}."""
    out = work / "rep" / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result = out / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), "--result", str(result)] + extra
    if args.toy:
        cmd.append("--toy")
    if args.inject_invalid_list:
        cmd.append("--inject-invalid-list")
    load_before = os.getloadavg()
    with (out / "worker.log").open("w", encoding="utf-8") as log:
        cmd += ["--spawned", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, cwd=root, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=WORKER_TIMEOUT_S, env=worker_env(),
                                  preexec_fn=die_with_parent)
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
    if rc != 0 or not result.exists():
        tail = (out / "worker.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        return {"error": f"worker exited {rc}", "log_tail": tail}
    data = json.loads(result.read_text(encoding="utf-8"))
    data["load_before"], data["load_after"] = load_before, os.getloadavg()
    return data


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, NPROC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="neighborrank CLI pipeline benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="toy sizes for the smoke test")
    p.add_argument("--inject-invalid-list", action="store_true",
                   help="corrupt one walk result, to test failure counting")
    args = p.parse_args(argv)
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "neighborrank" / "cli.py").is_file():
        print(f"error: {root} holds no neighborrank source (src/neighborrank)", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, NPROC))
    work = HERE / "_work"
    (work / "results").mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    deadline = started + args.seconds

    probes = [spawn(root, work, args, f"setup{i}", ["--setup-only"])
              for i in range(SETUP_PROBES)]
    reps: list[dict] = []
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 0
        t0 = time.monotonic()
        rep = spawn(root, work, args, f"r{len(reps)}", ["--trace"] if traced else [])
        longest = max(longest, time.monotonic() - t0)
        rep["traced"] = traced
        reps.append(rep)
        need = 2 if args.trace else 1
        if len(reps) >= need and time.monotonic() + longest > deadline:
            break
        if "error" in rep:
            break

    attempted = failed = 0
    problems = []
    for i, rep in enumerate(probes + reps):
        attempted += 1
        if "error" in rep:
            failed += 1
            problems.append(f"worker {i}: {rep['error']}\n{rep.get('log_tail', '')}")
    registry = Registry(work / "registry.json")
    fingerprint = source_fingerprint(root)
    for i, rep in enumerate(reps):
        for name, (n_att, n_fail, details) in rep.get("checks", {}).items():
            attempted += n_att
            failed += n_fail
            problems += [f"rep {i} {name}: {d}" for d in details if n_fail]
        if rep.get("hashes"):
            config = (work / "rep" / f"r{i}" / "config.json").read_bytes()
            key = f"{fingerprint}|{args.workload}|{args.seed}|{hashlib.sha256(config).hexdigest()}"
            mismatches = registry.compare(key, rep["hashes"])
            attempted += len(rep["hashes"])
            failed += len(mismatches)
            problems += [f"rep {i} determinism: {m}" for m in mismatches]
    registry.save()

    plain = [r for r in reps if not r.get("traced") and "error" not in r]
    if args.trace:
        metrics, table = per_layer([r for r in reps if "error" not in r])
        samples = {}
    else:
        metrics, samples = end_to_end(plain, [r for r in probes if "error" not in r])
        table = []
    first = next((r for r in probes + reps if "numpy" in r), {})
    host = {
        "python": platform.python_version(), "numpy": first.get("numpy"),
        "blas": first.get("blas"), "blas_threads": first.get("blas_threads"),
        "nproc": NPROC, "git_sha": git_sha(root), "source_sha256": fingerprint,
        "load_avg": [[r.get("load_before"), r.get("load_after")] for r in reps],
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "wall_s": time.monotonic() - started,
              "repetitions": len(reps), "host": host, "samples": samples,
              "hashes": [r.get("hashes") for r in reps], "stage_table": table,
              "problems": problems, "metrics": metrics,
              "trace_missing": [r["trace"]["missing"] for r in reps if r.get("trace")][:1],
              "trace_post_errors": sum(r["trace"]["post_errors"] for r in reps if r.get("trace")),
              "walks": [len(r.get("walk_ms", [])) for r in reps],
              "per_rep": [{"traced": r.get("traced"), "setup_s": r.get("setup_s"),
                           "stage_s": r.get("stage_s"), "peak_rss_mb": r.get("peak_rss_mb"),
                           "walk_p50_ms": statistics.median(r["walk_ms"])
                           if r.get("walk_ms") else None} for r in reps]}
    suffix = "toy_" if args.toy else ""
    out_name = f"{suffix}{args.workload}_seed{args.seed}_trace{args.trace}"
    (work / "results" / f"{out_name}.json").write_text(json.dumps(record, indent=1),
                                                        encoding="utf-8")
    if args.trace:
        spans = next((work / "rep" / f"r{i}" / "spans.jsonl" for i, r in enumerate(reps)
                      if r.get("traced") and "error" not in r), None)
        if spans is not None and spans.exists():
            shutil.copyfile(spans, work / "results" / f"{out_name}_spans.jsonl")
    shutil.rmtree(work / "rep", ignore_errors=True)

    report(record)
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report(record: dict) -> None:
    host = record["host"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['repetitions']} repetitions in {record['wall_s']:.1f} s, walks per rep "
          f"{record['walks']}")
    print(f"host: python {host['python']}, numpy {host['numpy']}, {host['blas']} with "
          f"{host['blas_threads']} threads, nproc {host['nproc']}, git {host['git_sha']}, "
          f"source {host['source_sha256'][:16]}")
    print("load average (1/5/15 min) before -> after each repetition: " + "; ".join(
        f"{b[0]:.2f}/{b[1]:.2f}/{b[2]:.2f} -> {a[0]:.2f}/{a[1]:.2f}/{a[2]:.2f}"
        for b, a in host["load_avg"] if b and a))
    for i, hashes in enumerate(record["hashes"]):
        if hashes:
            print(f"rep {i} sha256: " + ", ".join(f"{k} {(v or 'missing')[:16]}"
                                                  for k, v in hashes.items()))
    for name, metric in record["metrics"].items():
        n = record["samples"].get(name)
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']:6s}"
              + (f" n={n}" if n is not None else ""))
    if record["samples"]:
        print(f"  (timings: slowest of n repetitions; walk_p50_ms over "
              f"{sum(record['walks'])} walks in all)")
    for row in record["stage_table"]:
        layers = ", ".join(f"{k} {v:.3f}" for k, v in row["self_s"].items() if v > 0.0005)
        print(f"  stage {row['stage']:10s} wall {row['wall_s']:.3f} s = {layers}, "
              f"cli/harness glue {row['unaccounted_s']:.3f} "
              f"({100 * row['accounted_share']:.1f}% in wrapped layers)")
    if record["trace_post_errors"]:
        print(f"trace counter hooks that failed: {record['trace_post_errors']}")
    if record["trace_missing"] and record["trace_missing"][0]:
        print("not traced (target missing): "
              + ", ".join(t for t, _ in record["trace_missing"][0]))
    for problem in record["problems"][:20]:
        print("FAILED " + problem)


if __name__ == "__main__":
    sys.exit(main())
