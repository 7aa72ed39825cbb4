"""Smoke test of the benchmark: every workload at tiny size, traced and
untraced. It passes when all outputs pass the benchmark's checks and
tracing leaves every output digest unchanged."""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_mode_passes_and_tracing_keeps_digests():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "DIFFER" not in proc.stdout
    for name in ("lineshape", "dynamics", "montecarlo", "cli steady-state"):
        assert f"smoke {name}" in proc.stdout


def test_refuses_to_run_without_a_source_tree(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in RUN.parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "lineshape",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
