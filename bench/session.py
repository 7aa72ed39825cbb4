"""The cli_session workload and the measurements of the `cli` layer.

A session is the README example sequence, each step a `python -m ybion.cli`
subprocess run from the checked-out src/ tree, one at a time, with the
arguments jittered from the seed. Every invocation is run twice with the
same argv; both runs are operations, and the primary output of the second
must be byte-identical to the first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TIMEOUT_S = 100  # a run must end within 180 s
# Sessions per second of --seconds: one session's invocations take about
# 15 s at reference speed (see speed.py); a run holds at least one.
SESSIONS_PER_S = 1.0 / 15.0
# A session has 16 invocations, too few for a percentile above the median
# with ten samples beyond it. The tail is the 15th of 16: the faster of the
# two runs of the slowest subcommand (simulate at 1e5 trials).
TAIL_PCT = 93.75

SESSION = ("steady-state", "ionize-rate", "xsec", "crystal", "scan", "fit-scan",
           "simulate", "verify-roundtrip")
# Subcommands the traced runs of the in-process workloads probe: every
# README step except the two large Monte Carlo runs.
LIGHT = SESSION[:6]


def _g(x: float) -> str:
    return f"{x:.6g}"


def session_argv(rng: np.random.Generator, workdir: Path) -> list[tuple[str, list[str]]]:
    """The README session with jittered arguments; primary outputs in workdir."""

    def jit(x: float, rel: float) -> float:
        return x * (1.0 + rel * (2.0 * rng.random() - 1.0))

    def out(name: str) -> list[str]:
        return ["--out", str(workdir / f"{name}.tsv")]

    curve = str(workdir / "scan.tsv")
    half_span = jit(60e6, 0.1)
    return [
        ("steady-state", ["steady-state", "--drive-overrides", "7p12", "5d32",
                          "detuning_hz", _g(5e6 * (2.0 * rng.random() - 1.0))]
         + out("steady-state")),
        ("ionize-rate", ["ionize-rate", "--p7p", _g(jit(9.5e-3, 0.1)),
                         "--sigma-mb", _g(jit(5.5, 0.1)),
                         "--power-w", _g(jit(1e-4, 0.1)),
                         "--waist-m", _g(jit(1e-5, 0.1)),
                         "--wavelength-nm", "245.426"] + out("ionize-rate")),
        ("xsec", ["xsec", "--model", ("peach", "burgess")[int(rng.integers(2))],
                  "--limit", "98207.0",
                  "--wavelength-nm", _g(jit(245.426, 0.001))] + out("xsec")),
        ("crystal", ["crystal", "--nu1", _g(jit(474e3, 0.05)),
                     "--eta", _g(jit(2.13, 0.05)), "--q2", "2.0",
                     "--invert-from-ratio", _g(jit(1.74, 0.02))] + out("crystal")),
        ("scan", ["scan", "--scheme", "linewidth_reference", "--grid",
                  _g(-half_span), _g(half_span), "241", "--out", curve]),
        ("fit-scan", ["fit-scan", "--data", curve, "--saturation", "0.02"]
         + out("fit-scan")),
        ("simulate", ["simulate", "--rate", _g(jit(4.1, 0.1)),
                      "--duty", _g(jit(0.5, 0.1)), "--trials", "100000",
                      "--seed", str(int(rng.integers(0, 2**31)))] + out("simulate")),
        ("verify-roundtrip", ["verify-roundtrip", "--eta", _g(jit(2.135, 0.05)),
                              "--q2", "2.0", "--seeds", "1000",
                              "--seed-base", str(int(rng.integers(0, 2**31 - 4096)))]
         + out("verify-roundtrip")),
    ]


def primary_path(argv: list[str]) -> Path:
    return Path(argv[argv.index("--out") + 1])


def check_primary(cmd: str, argv: list[str], data: bytes) -> list[str]:
    """Problems with one primary output: it must parse as a TSV table with a
    header row, and a few values are checked against the request."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return ["primary output is not UTF-8"]
    if len(lines) < 2:
        return ["primary output has no data rows"]
    rows = [line.split("\t") for line in lines]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        return ["primary output rows differ in column count"]
    table = {r[0]: r[1:] for r in rows[1:]}
    problems = []
    try:
        if cmd == "steady-state":
            total = sum(float(r[1]) for r in rows[1:])
            if abs(total - 1.0) > 1e-9:
                problems.append(f"populations sum to {total!r}")
        elif cmd == "scan":
            if len(rows) - 1 != int(argv[argv.index("--grid") + 3]):
                problems.append("scan row count differs from the grid")
            [float(v) for r in rows[1:] for v in r]
        elif cmd == "fit-scan":
            tau = float(table["lifetime"][0])
            if table["converged"][0] != "1" or abs(tau - 13.5e-9) > 0.02 * 13.5e-9:
                problems.append(f"fit lifetime {tau!r} s is not 13.5 ns within 2%")
        elif cmd == "simulate":
            if len(rows) - 1 != int(argv[argv.index("--trials") + 1]):
                problems.append("simulate row count differs from --trials")
        elif cmd == "verify-roundtrip":
            if int(table["n_seeds"][0]) != int(argv[argv.index("--seeds") + 1]):
                problems.append("verify-roundtrip n_seeds differs from --seeds")
            if not np.isfinite(float(table["q2_mean"][0])):
                problems.append("q2_mean is not finite")
        else:
            [float(r[1]) for r in rows[1:] if r[0] not in ("model",)]
    except (KeyError, IndexError, ValueError) as exc:
        problems.append(f"primary output does not parse: {exc!r}")
    return problems


@dataclass
class Invocation:
    wall_s: float
    returncode: int
    primary: bytes
    stderr: str
    problems: list[str] = field(default_factory=list)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.primary).hexdigest()


def invoke(argv: list[str], env: dict, cwd: Path, track=None) -> Invocation:
    """One `python -m ybion.cli` subprocess; wall time covers the whole child.
    With a SpeedTrack, the processor speed is sampled while the child runs."""
    from speed import CHILD_SAMPLE_S

    path = primary_path(argv)
    path.unlink(missing_ok=True)
    err_path = cwd / "cli.stderr"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "ybion.cli", *argv], env=env, cwd=cwd,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            while True:
                try:
                    proc.wait(timeout=CHILD_SAMPLE_S)
                    break
                except subprocess.TimeoutExpired:
                    if time.perf_counter() - t0 > TIMEOUT_S:
                        raise
                    if track is not None:
                        track.sample_beside_child()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    primary = path.read_bytes() if path.is_file() else b""
    inv = Invocation(wall, proc.returncode, primary,
                     err_path.read_bytes().decode(errors="replace"))
    if proc.returncode != 0:
        inv.problems.append(
            f"exit code {proc.returncode}: {inv.stderr.strip()[-200:]}")
    else:
        inv.problems.extend(check_primary(argv[0], argv, primary))
    return inv


def main_in_process(argv: list[str]) -> tuple[float, int, bytes]:
    """ybion.cli.main(argv) in this process, looked up at call time so the
    traced run's wrapper applies; console output is discarded."""
    import ybion.cli

    path = primary_path(argv)
    path.unlink(missing_ok=True)
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = ybion.cli.main(list(argv))
    wall = time.perf_counter() - t0
    return wall, code, path.read_bytes() if path.is_file() else b""


def import_times(env: dict, cwd: Path) -> dict[str, float]:
    """Parse `python -X importtime -c "import ybion.cli"` into milliseconds.

    total: cumulative time of the top-level entries the statement created
    (`ybion` and `ybion.cli`); scipy: cumulative time of scipy entries not
    nested inside another scipy entry; plus the listed scipy submodules.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ybion.cli"],
        env=env, cwd=cwd, capture_output=True, timeout=TIMEOUT_S, check=True,
    )
    entries = []  # (depth, name, cumulative_us) in the order printed
    for line in proc.stderr.decode().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name_col = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # header line
        name = name_col.strip()
        depth = (len(name_col) - len(name_col.lstrip()) - 1) // 2
        entries.append((depth, name, int(cumulative)))
    out = {"total": 0.0, "scipy": 0.0}
    # Entries print after their children; walking backwards visits parents
    # first, so a stack of ancestors tells whether one is a scipy module.
    ancestors: list[str] = []
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if depth == 0 and (name == "ybion" or name.startswith("ybion.")):
            out["total"] += cumulative / 1e3
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for a in ancestors):
            out["scipy"] += cumulative / 1e3
        if name in ("scipy.optimize", "scipy.sparse.csgraph", "scipy.linalg",
                    "scipy.constants"):
            out[name] = cumulative / 1e3
        ancestors.append(name)
    return out
