"""The benchmark harness drives the library through its CLI and traces it by
name (its post hooks read results such as `oracle_table(...).scores`), so an
API change can break a traced run without any unit test failing. Its own
toy-scale smoke test catches that."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke test passed" in proc.stdout
