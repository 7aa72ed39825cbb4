"""ybion benchmark: four workflow workloads, end-to-end and per-layer metrics.

Run from the repository root; the code under test is the checked-out src/
tree (PYTHONPATH=src, `python -m ybion.cli`), nothing needs installing:

    python3 bench/run.py --workload lineshape --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload cli_session --seed 1 --seconds 10 --trace 1
    python3 bench/run.py --smoke

Workloads (closed loop, one client, one process or one subprocess at a time):
lineshape, dynamics, montecarlo (in-process, see workloads.py) and
cli_session (subprocesses, see session.py). --seconds sets a fixed amount
of work, sized to take about that long at reference speed, so the inputs,
outputs, attempts and failures of a run depend only on --seed and --seconds.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 is the
separate traced run: the named workload, a short slice of every other
in-process workload and a probe of the CLI, all with spans recorded, giving
one metric set per layer (scheme, rates, spectro, photoion, crystal, mc,
cli) plus the tracing overhead. Both print a readable report, then as the
last line one JSON object {"correct", "attempted", "failed", "metrics"}.
`correct` is false when any returned output fails its check, or when the
traced and untraced runs of the same inputs give different output digests;
operations that raise count in `failed` and in failed_frac.

--smoke runs every workload at tiny size, traced and untraced, and exits 0
when all outputs pass their checks and the digests agree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("lineshape", "dynamics", "montecarlo", "cli_session")
SETUP_REPS = 5
IMPORTTIME_REPS = 3
# One BLAS thread: the matrices are at most 10x10, so pool threads only
# add noise.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# ROADMAP Baseline, for the table the traced run prints next to its numbers.
BASELINE = {
    "scheme edit + validation": "-",
    "rate-matrix build": "-",
    "steady state": "450-630 us (9 levels)",
    "evolve": "-",
    "one scan point": "460-620 us (0.11-0.15 s per 241 points)",
    "one Lorentzian fit": "4 ms (241 points)",
    "one MC trial": "42 us",
    "one MC trial, failure_prob > 0": "133 us",
    "one verification seed": "150 us (0.15 s per 1000 seeds)",
    "import ybion.cli": "710 ms",
    "CLI subcommand, end to end": "920-1160 ms",
}


def child_env() -> dict:
    """The environment of this run (thread variables included) with src/
    first on PYTHONPATH."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def environment() -> str:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "ybion").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return (
        f"commit={commit} src_sha256={digest.hexdigest()[:16]} "
        f"python={sys.version.split()[0]} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} nproc={os.cpu_count()} "
        f"pinned_cpu={','.join(map(str, sorted(os.sched_getaffinity(0))))}"
    )


def setup_seconds(argv: list[str], env: dict) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-up, SETUP_REPS times after one untimed run that
    leaves the bytecode caches written. Returns (scaled, raw) seconds."""
    from speed import SpeedTrack

    def child():
        subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, check=True,
                       timeout=100)

    child()
    track = SpeedTrack()
    spans = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        child()
        spans.append((t0, time.perf_counter()))
        track.sample()
    return [track.scale(a, b) for a, b in spans], [b - a for a, b in spans]


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """(value, samples beyond) of the pct-th percentile (nearest rank)."""
    ordered = sorted(latencies)
    rank = min(len(ordered), max(1, -(-len(ordered) * pct // 100)))
    return ordered[int(rank) - 1], len(ordered) - int(rank)


def block_tail(latencies: list[float], block_sizes: list[int], pct: float) -> tuple[float, int]:
    """Median over blocks of the pct-th percentile within each block, and the
    samples beyond it in one block. Every block holds the same mix of work,
    so this is the tail one block of operations sees; a stall of the shared
    machine lifts the tail of one block, not the median over all of them."""
    tails, start = [], 0
    for size in block_sizes:
        value, beyond = tail(latencies[start:start + size], pct)
        tails.append(value)
        start += size
    return statistics.median(tails), beyond


class Stats:
    """Totals over the operations of one pass. latencies are scaled to the
    reference speed (see speed.py); raw_latencies are wall seconds."""

    def __init__(self):
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.op_units: list[int] = []
        self.block_sizes: list[int] = []
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.digests: list[str] = []
        self.notes: Counter = Counter()
        self.wall = 0.0
        self.speed = 1.0

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    @property
    def units(self) -> int:
        return sum(self.op_units)

    def add(self, outcome) -> None:
        self.op_units.append(outcome.units)
        self.attempted += outcome.attempted
        self.errors += outcome.errors
        self.wrong += outcome.wrong
        self.digests.append(outcome.digest)
        self.notes.update(outcome.notes)

    def count(self, cmd: str, inv) -> None:
        """Account one CLI invocation: a nonzero exit is an error, any other
        problem with its output a failed check."""
        self.attempted += 1
        self.errors += inv.returncode != 0
        self.wrong += inv.returncode == 0 and bool(inv.problems)
        self.notes.update(f"{cmd}: {p}" for p in inv.problems)

    def merge(self, other: "Stats") -> None:
        self.attempted += other.attempted
        self.errors += other.errors
        self.wrong += other.wrong
        self.notes.update(other.notes)

    def timed(self, track, spans) -> None:
        """Set the latencies from wall intervals and the run's speed track."""
        track.sample()
        self.latencies = [track.scale(a, b) for a, b in spans]
        self.raw_latencies = [b - a for a, b in spans]
        self.speed = track.mean_factor()


def measure(workload, blocks, tracer=None) -> Stats:
    """Run every operation of `blocks`."""
    from speed import SpeedTrack

    stats = Stats()
    track = SpeedTrack()
    spans = []
    t_start = time.perf_counter()
    for block in blocks:
        for spec in block:
            t0 = time.perf_counter()
            if tracer is None:
                outcome = workload.run(spec)
            else:
                tracer.op_id += 1
                with tracer.span("op." + workload.name):
                    outcome = workload.run(spec)
            spans.append((t0, time.perf_counter()))
            stats.add(outcome)
            track.maybe_sample()
        stats.block_sizes.append(len(block))
    stats.wall = time.perf_counter() - t_start
    stats.timed(track, spans)
    return stats


def budget(per_s: float, seconds: float) -> int:
    """The fixed number of blocks (or sessions) of a run of `seconds`."""
    return max(1, round(per_s * seconds))


def seeded_blocks(workload, rng, n: int):
    for _ in range(n):
        yield workload.block(rng)


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(stats: Stats, setup: list[float], rss_mb: float, tail_pct: float) -> dict:
    """work_per_s is work over the time spent in operations: the loop is
    closed, so that is the rate one client sees."""
    value, _ = block_tail(stats.latencies, stats.block_sizes, tail_pct)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "work_per_s": (stats.units / sum(stats.latencies), "1/s"),
        "op_p50_ms": (statistics.median(stats.latencies) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def report_end_to_end(name: str, unit: str, stats: Stats, setup: tuple,
                      metrics: dict, pct: float) -> None:
    n = len(stats.latencies)
    raw_tail, beyond = block_tail(stats.raw_latencies, stats.block_sizes, pct)
    n_blocks = len(stats.block_sizes)
    scaled_setup, raw_setup = setup
    print(f"time scale {stats.speed:.4f} (reference-speed seconds per wall second; "
          "values below are scaled, raw wall values in brackets)")
    notes = {
        "setup_s": f"median of {len(scaled_setup)}; raw "
                   + " ".join(f"{s:.3f}" for s in raw_setup),
        "work_per_s": f"{stats.units} {unit}; raw "
                      f"{stats.units / sum(stats.raw_latencies):.6g}, "
                      f"wall {stats.wall:.2f} s",
        "op_p50_ms": f"n={n} operations; raw "
                     f"{statistics.median(stats.raw_latencies) * 1e3:.6g}",
        "op_tail_ms": f"p{pct:g} within each block, {beyond} beyond in a block, "
                      f"median over {n_blocks} blocks; raw {raw_tail * 1e3:.6g}",
        "peak_rss_mb": "largest child process" if name == "cli_session"
                       else "workload process",
    }
    for key, (value, u) in metrics.items():
        print(f"{key:<14} {value:>14.6g} {u:<4} ({notes[key]})")
    frac = stats.failed / stats.attempted if stats.attempted else 0.0
    print(f"{'failed_frac':<14} {frac:>14.6g}      "
          f"({stats.failed} of {stats.attempted} attempted: "
          f"{stats.errors} raised or exited nonzero, {stats.wrong} failed a check)")


def report_notes(stats: Stats) -> None:
    for note, count in stats.notes.most_common(8):
        print(f"  failure x{count}: {note}")


def print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))


# -- untraced runs -----------------------------------------------------------


def run_in_process(name: str, seed: int, seconds: float) -> int:
    import numpy as np

    from workloads import IN_PROCESS

    cls = IN_PROCESS[name]
    setup = setup_seconds([sys.executable, "-c", cls.setup_code], child_env())
    workload = cls()
    workload.run(workload.block(np.random.default_rng([seed, 1]))[0])  # warm-up
    stats = measure(workload, seeded_blocks(workload, np.random.default_rng(seed),
                                            budget(cls.blocks_per_s, seconds)))
    metrics = end_to_end(stats, setup[0], peak_rss_mb(resource.RUSAGE_SELF), cls.tail_pct)
    report_end_to_end(name, cls.unit, stats, setup, metrics, cls.tail_pct)
    run_digest = hashlib.sha256("".join(stats.digests).encode())
    print(f"digest of all outputs: {run_digest.hexdigest()}")
    report_notes(stats)
    print_result(stats.wrong == 0, stats.attempted, stats.failed, metrics)
    return 0


def run_cli_session(seed: int, seconds: float, workdir: Path) -> int:
    import numpy as np

    import session
    from speed import SpeedTrack

    env = child_env()
    setup = setup_seconds([sys.executable, "-m", "ybion.cli", "--version"], env)
    rng = np.random.default_rng(seed)
    stats = Stats()
    digests = []
    track = SpeedTrack()
    spans = []
    t_start = time.perf_counter()
    for k in range(budget(session.SESSIONS_PER_S, seconds)):
        sdir = workdir / f"session{k}"
        sdir.mkdir()
        argvs = session.session_argv(rng, sdir)
        for cmd, argv in argvs:
            pair = []
            for _ in range(2):
                pair.append(session.invoke(argv, env, workdir, track))
                end = time.perf_counter()
                spans.append((end - pair[-1].wall_s, end))
                track.sample()
            first, again = pair
            if first.returncode == 0 and again.primary != first.primary:
                again.problems.append("primary output differs from the first run")
            for inv in pair:
                stats.op_units.append(1)
                stats.count(cmd, inv)
            if k == 0:
                digests.append((cmd, first.sha256))
        stats.block_sizes.append(2 * len(argvs))
    stats.wall = time.perf_counter() - t_start
    stats.timed(track, spans)
    metrics = end_to_end(stats, setup[0], peak_rss_mb(resource.RUSAGE_CHILDREN),
                         session.TAIL_PCT)
    report_end_to_end("cli_session", "invocations", stats, setup, metrics,
                      session.TAIL_PCT)
    print("invocation ms (scaled, in run order): "
          + " ".join(f"{x * 1e3:.0f}" for x in stats.latencies))
    for cmd, sha in digests:
        print(f"digest {cmd:<17} {sha}")
    report_notes(stats)
    print_result(stats.wrong == 0, stats.attempted, stats.failed, metrics)
    return 0


# -- traced runs ---------------------------------------------------------------


def cli_probe(cmds, seed: int, workdir: Path, tracer):
    """The `cli` layer: import times, subprocess walls and in-process main().

    Each subcommand runs once as a subprocess, once in-process untraced and
    once in-process traced; the three primary outputs must be identical.
    Returns (cli metrics, stats, digests agree, overhead of traced mains,
    the subprocess invocations).
    """
    import numpy as np

    import session

    env = child_env()
    imports = [session.import_times(env, workdir) for _ in range(IMPORTTIME_REPS)]
    imp = {k: statistics.median(d[k] for d in imports) for k in imports[0]}
    sdir = workdir / "probe"
    sdir.mkdir()
    argvs = [(c, a) for c, a in session.session_argv(np.random.default_rng([seed, 3]), sdir)
             if c in cmds]
    stats = Stats()
    subs = []
    for cmd, argv in argvs:
        inv = session.invoke(argv, env, workdir)
        subs.append(inv)
        stats.count(cmd, inv)
    for cmd, argv in argvs:  # warm-up of the in-process path
        session.main_in_process(argv)
    plain = [session.main_in_process(argv) for _, argv in argvs]
    with tracer.installed():
        traced = []
        for _, argv in argvs:
            tracer.op_id += 1
            traced.append(session.main_in_process(argv))
    agree = all(
        s.primary == p[2] == t[2] and p[1] == t[1] == 0
        for s, p, t in zip(subs, plain, traced)
    )
    overhead = sum(t[0] for t in traced) / sum(p[0] for p in plain) - 1.0
    startup = [s.wall_s - t[0] for s, t in zip(subs, traced)]
    metrics = {
        "cli.import_ms": (imp["total"], "ms"),
        "cli.import_scipy_ms": (imp["scipy"], "ms"),
        "cli.startup_ms": (statistics.median(startup) * 1e3, "ms"),
        "cli.output_bytes": (statistics.mean(len(s.primary) for s in subs), "bytes"),
    }
    print("import ybion.cli (python -X importtime, median of "
          f"{IMPORTTIME_REPS}): total {imp['total']:.1f} ms, scipy {imp['scipy']:.1f} ms")
    for mod in ("scipy.optimize", "scipy.sparse.csgraph", "scipy.linalg", "scipy.constants"):
        print(f"  {mod:<22} {imp.get(mod, 0.0):8.1f} ms cumulative")
    for (cmd, _), s, t in zip(argvs, subs, traced):
        print(f"  {cmd:<17} subprocess {s.wall_s * 1e3:8.1f} ms, in-process main "
              f"{t[0] * 1e3:8.1f} ms, primary sha256 {s.sha256[:16]}")
    return metrics, stats, agree, overhead, subs


def layer_metrics(agg, cli_metrics: dict, overhead: float) -> dict:
    from tracing import Aggregate

    def get(name):
        return agg.get(name, Aggregate())

    def per_call(name, field, scale):
        a = get(name)
        return getattr(a, field) / a.calls * scale if a.calls else 0.0

    def per_unit(name, field, scale):
        a = get(name)
        return getattr(a, field) / a.units * scale if a.units else 0.0

    edit = get("scheme.edit")
    fit = get("spectro.fit")
    seeds = get("mc.synthesize").calls
    verify_ns = get("mc.synthesize").total_ns + get("mc.infer").total_ns
    out = {
        "scheme.load_ms": (per_call("scheme.load", "total_ns", 1e-6), "ms"),
        "scheme.edit_calls": (edit.calls, "count"),
        "scheme.edit_us": (per_call("scheme.edit", "self_ns", 1e-3), "us"),
        "rates.build_calls": (get("rates.build").calls, "count"),
        "rates.build_us": (per_call("rates.build", "self_ns", 1e-3), "us"),
        "rates.steady_calls": (get("rates.steady").calls, "count"),
        "rates.steady_us": (per_call("rates.steady", "self_ns", 1e-3), "us"),
        "rates.evolve_calls": (get("rates.evolve").calls, "count"),
        "rates.evolve_us": (per_call("rates.evolve", "self_ns", 1e-3), "us"),
        "rates.evolve_failed": (get("rates.evolve").errors, "count"),
        "spectro.scan_points": (get("spectro.scan").units, "count"),
        "spectro.scan_self_ms": (per_call("spectro.scan", "self_ns", 1e-6), "ms"),
        "spectro.fit_calls": (fit.calls, "count"),
        "spectro.fit_ms": (per_call("spectro.fit", "total_ns", 1e-6), "ms"),
        "spectro.fit_converged_ratio": (
            (fit.calls - fit.errors - fit.rejected) / fit.calls if fit.calls else 0.0,
            "ratio"),
        "photoion.xsec_calls": (get("photoion.xsec").calls, "count"),
        "photoion.xsec_us": (per_call("photoion.xsec", "self_ns", 1e-3), "us"),
        "photoion.defect_fit_ms": (per_call("photoion.defect_fit", "total_ns", 1e-6), "ms"),
        "crystal.infer_eta_calls": (get("crystal.infer_eta").calls, "count"),
        "crystal.infer_eta_us": (per_call("crystal.infer_eta", "self_ns", 1e-3), "us"),
        "mc.trials": (get("mc.sequence").units + get("mc.sequence_fail").units, "count"),
        "mc.trial_us": (per_unit("mc.sequence", "self_ns", 1e-3), "us"),
        "mc.trial_fail_walk_us": (per_unit("mc.sequence_fail", "self_ns", 1e-3), "us"),
        "mc.summarize_ms": (per_call("mc.summarize", "total_ns", 1e-6), "ms"),
        "mc.export_ms": (per_call("mc.export", "total_ns", 1e-6), "ms"),
        "mc.verify_seeds": (seeds, "count"),
        "mc.verify_seed_us": (verify_ns / seeds * 1e-3 if seeds else 0.0, "us"),
        "cli.import_ms": cli_metrics["cli.import_ms"],
        "cli.import_scipy_ms": cli_metrics["cli.import_scipy_ms"],
        "cli.main_ms": (per_call("cli.main", "total_ns", 1e-6), "ms"),
        "cli.startup_ms": cli_metrics["cli.startup_ms"],
        "cli.output_bytes": cli_metrics["cli.output_bytes"],
        "trace.overhead_frac": (overhead, "ratio"),
    }
    table = {
        "scheme edit + validation": f"{out['scheme.edit_us'][0]:.1f} us",
        "rate-matrix build": f"{out['rates.build_us'][0]:.1f} us",
        "steady state": f"{out['rates.steady_us'][0]:.1f} us",
        "evolve": f"{out['rates.evolve_us'][0]:.1f} us",
        "one scan point": f"{per_unit('spectro.scan', 'total_ns', 1e-3):.1f} us",
        "one Lorentzian fit": f"{out['spectro.fit_ms'][0]:.2f} ms",
        "one MC trial": f"{out['mc.trial_us'][0]:.1f} us",
        "one MC trial, failure_prob > 0": f"{out['mc.trial_fail_walk_us'][0]:.1f} us",
        "one verification seed": f"{out['mc.verify_seed_us'][0]:.1f} us",
        "import ybion.cli": f"{out['cli.import_ms'][0]:.1f} ms",
        "CLI subcommand, end to end": cli_metrics["subprocess_ms"],
    }
    print(f"{'stage (per call)':<32} {'traced run':>16}   ROADMAP baseline")
    for stage, measured in table.items():
        print(f"{stage:<32} {measured:>16}   {BASELINE[stage]}")
    print("(steady state and builds mix 4-level and 9-level schemes; see "
          "rates.* below. Times are self times unless a stage has no children.)")
    return out


def run_traced(name: str, seed: int, seconds: float, workdir: Path) -> int:
    import numpy as np

    import session
    from tracing import Tracer
    from workloads import IN_PROCESS

    tracer = Tracer()
    stats = Stats()
    agree = True
    if name == "cli_session":
        cmds = session.SESSION
    else:
        cmds = session.LIGHT
        cls = IN_PROCESS[name]
        workload = cls()
        rng = np.random.default_rng(seed)
        workload.run(workload.block(np.random.default_rng([seed, 1]))[0])  # warm-up
        first = workload.block(rng)
        plain = measure(workload, [first])
        rest = budget(cls.blocks_per_s, seconds) - 1
        with tracer.installed():
            traced_workload = cls()  # set-up inside the trace: scheme loads
            traced = measure(traced_workload, [first], tracer=tracer)
            main = measure(traced_workload, seeded_blocks(traced_workload, rng, rest),
                           tracer=tracer)
        overhead = sum(traced.latencies) / sum(plain.latencies) - 1.0
        agree = plain.digests == traced.digests
        for part in (plain, traced, main):
            stats.merge(part)
        print(f"traced {name}: {len(main.latencies) + len(traced.latencies)} operations, "
              f"overhead probe {sum(plain.latencies):.3f} s untraced vs "
              f"{sum(traced.latencies):.3f} s traced (reference-speed seconds); "
              f"time scale {main.speed:.4f}, per-layer times below are wall times")
    # Every layer gets samples: one seeded block of each other workload.
    with tracer.installed():
        for other, cls in IN_PROCESS.items():
            if other != name:
                extra = cls()
                stats.merge(measure(extra, [extra.block(np.random.default_rng([seed, 2]))],
                                    tracer=tracer))
    cli_metrics, cli_stats, cli_agree, cli_overhead, subs = cli_probe(
        cmds, seed, workdir, tracer)
    stats.merge(cli_stats)
    if name == "cli_session":
        overhead = cli_overhead
    agree = agree and cli_agree
    walls = sorted(s.wall_s * 1e3 for s in subs)
    cli_metrics["subprocess_ms"] = f"{walls[0]:.0f}-{walls[-1]:.0f} ms"
    metrics = layer_metrics(tracer.aggregate(), cli_metrics, overhead)
    for key, (value, unit) in metrics.items():
        print(f"{key:<28} {value:>14.6g} {unit}")
    print(f"traced and untraced output digests {'agree' if agree else 'DIFFER'}")
    report_notes(stats)
    print_result(stats.wrong == 0 and agree, stats.attempted, stats.failed, metrics)
    return 0


# -- smoke ---------------------------------------------------------------------


def run_smoke(workdir: Path) -> int:
    """Every workload at tiny size, untraced and traced; digests must agree."""
    import numpy as np

    import session
    from tracing import Tracer
    from workloads import IN_PROCESS

    ok = True
    tracer = Tracer()
    for name, cls in IN_PROCESS.items():
        workload = cls(smoke=True)
        block = workload.block(np.random.default_rng(7))
        plain = measure(workload, [block])
        with tracer.installed():
            traced = measure(workload, [block], tracer=tracer)
        agree = plain.digests == traced.digests
        ok = ok and agree and plain.wrong == 0 and traced.wrong == 0
        print(f"smoke {name:<12} ops={len(block)} failed={plain.failed}/{plain.attempted} "
              f"wrong={plain.wrong} digests {'agree' if agree else 'DIFFER'}")
        report_notes(plain)
    env = child_env()
    argvs = [(c, a) for c, a in session.session_argv(np.random.default_rng(7), workdir)
             if c in ("steady-state", "crystal")]
    for cmd, argv in argvs:
        first = session.invoke(argv, env, workdir)
        again = session.invoke(argv, env, workdir)
        plain = session.main_in_process(argv)
        with tracer.installed():
            traced = session.main_in_process(argv)
        agree = first.primary == again.primary == plain[2] == traced[2]
        ok = ok and agree and not first.problems and not again.problems
        print(f"smoke cli {cmd:<12} exit={first.returncode} problems={first.problems} "
              f"digests {'agree' if agree else 'DIFFER'}")
    print(f"smoke {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "ybion" / "__init__.py").is_file():
        print(f"error: no ybion source tree at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # One processor for the run and its children, so that the calibration
    # kernel (speed.py) and the work it scales see the same contention.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.smoke:
            return run_smoke(workdir)
        print(f"# ybion benchmark workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"# env {environment()}")
        if args.trace:
            return run_traced(args.workload, args.seed, args.seconds, workdir)
        if args.workload == "cli_session":
            return run_cli_session(args.seed, args.seconds, workdir)
        return run_in_process(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
