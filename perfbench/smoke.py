"""Toy-scale smoke test of the benchmark harness, in well under a minute.

    python3 perfbench/smoke.py

Run from the repository root. It checks that
- the plain and traced modes exit 0 and end with one result line whose metric
  names are exactly those BENCHMARK.json declares, with zero failures;
- an injected invalid walk result is counted as a failed operation, not
  raised;
- without the library source next to it the benchmark exits non-zero and
  prints no result.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASE = [sys.executable, "perfbench/run.py", "--workload", "narrow-5of5", "--seed", "5",
        "--seconds", "1", "--toy"]


def run(extra: list[str], cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(BASE + extra, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 and proc.stderr:
        print(proc.stderr[-1000:], file=sys.stderr)
    return proc.returncode, result


def declared(kind: str) -> dict[str, str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    return {m["name"]: m["unit"] for m in json.loads(path.read_text(encoding="utf-8"))[kind]}


def check(label: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {label}" + (f": {detail}" if detail and not ok else ""))
    return ok


def check_result(label: str, rc: int, result: dict | None, kind: str) -> bool:
    ok = check(f"{label} exits 0 with a result line", rc == 0 and result is not None,
               f"exit {rc}")
    if not ok:
        return False
    ok &= check(f"{label} result keys",
                set(result) == {"correct", "attempted", "failed", "metrics"}, str(set(result)))
    ok &= check(f"{label} correct with no failures",
                result["correct"] is True and result["failed"] == 0
                and result["attempted"] >= 1, json.dumps(result)[:300])
    metrics = result["metrics"]
    ok &= check(f"{label} metric values are finite numbers",
                all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                    for m in metrics.values()))
    names = declared(kind)
    if names is not None:
        got = {k: m["unit"] for k, m in metrics.items()}
        ok &= check(f"{label} metrics match BENCHMARK.json {kind}", got == names,
                    f"missing {sorted(set(names) - set(got))}, "
                    f"extra {sorted(set(got) - set(names))}")
    return ok


def main() -> int:
    ok = check_result("plain", *run(["--trace", "0"]), "end_to_end")
    ok &= check_result("traced", *run(["--trace", "1"]), "per_layer")

    rc, result = run(["--trace", "0", "--inject-invalid-list"])
    ok &= check("injected invalid list is counted, not raised",
                rc == 0 and result is not None and result["correct"] is False
                and result["failed"] >= 1, f"exit {rc}, result {json.dumps(result)[:300]}")

    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench" / path.name)
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    rc, result = run(["--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    ok &= check("without the library source: non-zero exit, no result",
                rc != 0 and result is None, f"exit {rc}")
    print("smoke test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
