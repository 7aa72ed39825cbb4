"""Monte Carlo: chopped ionization sequences and synthetic verification.

The ionizing beam is chopped against cooling at chop_rate_hz; within each
cycle of period T = 1/chop_rate the beam is ON for duty*T, then OFF.
Ionization is a homogeneous Poisson process of rate R gated by the ON
windows. Internal-state transients at window edges are neglected: the
scheme's internal rates (>= 1e6 1/s) dwarf a 50 Hz chop, so the excited
population is quasi-static over a window. Each trial draws an exposure
time ~ Exp(R) and maps it through the window structure to a wall-clock
event time; the mapping and its inverse are exposed (exposure_to_wall,
wall_to_exposure) so distribution tests can undo the gating.

Each trial starts at a uniformly random phase of the chop cycle. A
phase-locked start would make the wall-clock mean depend on the lock
point; averaging over the phase gives the stationary mean 1/(R*duty).

Reproducibility: trials are drawn in fixed blocks of BLOCK_TRIALS = 4096.
Block b (trials b*4096 .. b*4096 + 4095) has its own numpy default_rng
(PCG64) seeded as SeedSequence([rng_seed, b]), and every block is drawn
in full and in a fixed order: 4096 standard exponentials (exposure times
in units of 1/rate), then 4096 uniform phases on [0, T), then, only when
failure_prob > 0, 4096 Geometric(failure_prob) window indices. A longer
run therefore extends a shorter one and never reshuffles it, across block
boundaries too. rng_description() reports this layout, the algorithm and
the numpy version for run manifests. The trials come back as one
SequenceRuns record of columns, entry i holding trial i, and each block
is written straight into its slice of the columns. summarize_times reads
the columns directly; runs_text_blocks formats the table a block at a
time, so the text of a long run never has to exist whole, and
runs_to_text joins those blocks.

The dark-state failure channel seen at high ionizing power is not
modeled; failure_prob is a constant per-window abort knob (default 0)
standing in for any such loss process. Aborting each entered ON window
with probability p is the same as drawing the first aborting window K ~
Geometric(p): a trial fails iff K is at most the number of windows it
enters before its event or the horizon, and then records K windows.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from .crystal import (
    ChargePair,
    TrapAxis,
    displacement_ratio,
    infer_charge,
    infer_eta,
    normal_mode_frequencies,
)
from .errors import SchemeError, SolverError, check, check_array, representable

__all__ = [
    "SequenceConfig",
    "SequenceRuns",
    "SequenceSummary",
    "VerificationNoise",
    "VerificationRecord",
    "ChargeInference",
    "REPORTED_NOISE",
    "BLOCK_TRIALS",
    "simulate_ionization_times",
    "summarize_times",
    "scaled_std",
    "exposure_to_wall",
    "wall_to_exposure",
    "synthesize_verification",
    "infer_from_verification",
    "runs_text_blocks",
    "runs_to_text",
    "rng_description",
    "verification_rng_description",
]


@dataclass(frozen=True)
class SequenceConfig:
    """One chopped-sequence experiment configuration.

    ionization_duty is the ON fraction of each chop cycle; 1.0 means the
    beam is never chopped (the duty = 1 limit is part of the contract, so
    the range is 0 < duty <= 1). failure_prob is the per-window abort
    probability standing in for unmodeled loss channels; default 0.
    """

    rate_per_s: float
    max_time_s: float
    rng_seed: int
    chop_rate_hz: float = 50.0
    ionization_duty: float = 0.5
    failure_prob: float = 0.0

    def __post_init__(self):
        check("ionization rate", self.rate_per_s, "[0, inf)")
        check("ionization duty", self.ionization_duty, "(0, 1]")
        check("chop rate", self.chop_rate_hz, "(0, inf)")
        check("max time", self.max_time_s, "(0, inf)")
        check("failure probability", self.failure_prob, "[0, 1]")
        check("rng seed", self.rng_seed, "[0, inf)")
        # Window counts are int64 and the chop phase must stay resolvable,
        # so the horizon may span at most 2**53 chop cycles of nonzero ON time.
        check("chop period", self.period_s, "(0, inf)", "s")
        check("ON time", self.on_time_s, "(0, inf)", "s")
        if self.max_time_s * self.chop_rate_hz > 2.0**53:
            raise SchemeError("max time spans more than 2**53 chop cycles")
        # Wall times reach up to a start phase plus the horizon plus a window.
        representable("max time plus two chop periods",
                      self.max_time_s + 2.0 * self.period_s,
                      max_time_s=self.max_time_s, chop_rate_hz=self.chop_rate_hz)

    @property
    def period_s(self) -> float:
        return 1.0 / self.chop_rate_hz

    @property
    def on_time_s(self) -> float:
        return self.ionization_duty * self.period_s


@dataclass(frozen=True, eq=False)
class SequenceRuns:
    """Outcomes of a batch of trials as columns; entry i is trial i.

    event_time_s is the wall-clock ionization time, NaN if the trial ran
    out of max_time or aborted via the failure knob (then failed is True).
    attempt_windows (int64) counts ON windows the trial entered.
    initial_phase_s is the chop-cycle phase at t = 0, needed to map the
    wall clock back to the exposure coordinate. seed is the rng_seed of
    the configuration that produced the batch.
    """

    seed: int
    event_time_s: np.ndarray
    attempt_windows: np.ndarray
    initial_phase_s: np.ndarray
    failed: np.ndarray


@dataclass(frozen=True)
class SequenceSummary:
    """Estimators over a batch of runs.

    Time statistics cover successful events only and are None when no
    trial ionized; ci95_s needs at least two events (normal approximation
    on the mean).
    """

    n_runs: int
    n_events: int
    success_fraction: float
    mean_s: float | None
    median_s: float | None
    ci95_s: tuple[float, float] | None


@dataclass(frozen=True)
class VerificationNoise:
    """Relative Gaussian sigmas applied to synthetic measurements."""

    ratio_rel: float
    freq_rel: float

    def __post_init__(self):
        for sigma in (self.ratio_rel, self.freq_rel):
            check("noise sigmas", sigma, "[0, inf)")


# Measurement scale of the published verification: about 2% on the
# displacement ratio (1.74 +- 0.04) and half a percent on frequencies.
REPORTED_NOISE = VerificationNoise(ratio_rel=0.02, freq_rel=0.005)


@dataclass(frozen=True)
class VerificationRecord:
    """Synthetic post-ionization measurement of the two-ion crystal."""

    displacement_ratio_measured: float
    nu1_measured_hz: float
    nu_com_measured_hz: float
    nu_bre_measured_hz: float

    def __post_init__(self):
        # One chained test on the hot path; the loop only names the culprit.
        if not (0.0 < self.displacement_ratio_measured < math.inf
                and 0.0 < self.nu1_measured_hz < math.inf
                and 0.0 < self.nu_com_measured_hz < math.inf
                and 0.0 < self.nu_bre_measured_hz < math.inf):
            for field in fields(self):
                check(field.name, getattr(self, field.name), "(0, inf)")


@dataclass(frozen=True)
class ChargeInference:
    """Charge estimate recovered from one VerificationRecord."""

    eta_mean: float
    q2: float


BLOCK_TRIALS = 4096


def rng_description() -> str:
    """Algorithm pin and stream layout for run manifests."""
    return (
        f"numpy default_rng (PCG64), numpy {np.__version__}, "
        f"blocks of {BLOCK_TRIALS} trials, block b seeded "
        "SeedSequence([rng_seed, b]), drawn in full as exposures, "
        "then phases, then Geometric(failure_prob) only if failure_prob > 0"
    )


def verification_rng_description() -> str:
    """Stream layout of synthesize_verification for run manifests."""
    return (
        f"numpy default_rng (PCG64), numpy {np.__version__}, "
        "default_rng(seed_base + i) for record i, drawing 4 standard normals "
        "applied in the order ratio, nu1, nu_com, nu_bre"
    )


def _check_phase(phase: np.ndarray, period: float) -> None:
    if not ((phase >= 0.0) & (phase < period)).all():
        raise SolverError("phase must lie in [0, period)")


def _scalar_or_array(value: np.ndarray, kind: type):
    return kind(value) if value.ndim == 0 else value


def exposure_to_wall(exposure_s, phase_s, chop_rate_hz: float, duty: float):
    """Map accumulated ON-time to wall-clock time from a given start phase.

    Returns (wall_time_s, on_windows_touched). phase_s is the position in
    the chop cycle at wall time zero, in [0, T). The ON window occupies
    the first duty*T of each cycle. exposure_s and phase_s may be scalars
    (giving a float and an int) or arrays that broadcast together (giving
    a float array and an int64 array).
    """
    period = 1.0 / chop_rate_hz
    t_on = duty * period
    exposure, phase = np.broadcast_arrays(
        np.asarray(exposure_s, dtype=float), np.asarray(phase_s, dtype=float)
    )
    _check_phase(phase, period)
    check_array("exposure", exposure, "[0, inf)", "s", SolverError)
    first_avail = np.maximum(t_on - phase, 0.0)
    remaining = exposure - first_avail
    full = np.floor_divide(remaining, t_on)
    rem = remaining - full * t_on
    # Exposure that exactly fills a window ends at that window's closing
    # edge, not at the opening of the next.
    exact = rem == 0.0
    full -= exact
    rem += exact * t_on
    wall = (full + 1.0) * period + rem - phase
    windows = (first_avail > 0.0) + full + 1.0
    # Exposure used up in the window open at the start touches that window
    # only, or none when it is zero.
    in_first = exposure <= first_avail
    wall = np.where(in_first, exposure, wall)
    windows = np.where(in_first, exposure > 0.0, windows)
    return (
        _scalar_or_array(wall, float),
        _scalar_or_array(windows.astype(np.int64), int),
    )


def wall_to_exposure(wall_s, phase_s, chop_rate_hz: float, duty: float):
    """Accumulated ON-time between wall time 0 and wall_s (inverse map).

    Scalars give a float; arrays broadcast together and give an array.
    """
    period = 1.0 / chop_rate_hz
    t_on = duty * period
    wall = np.asarray(wall_s, dtype=float)
    phase = np.asarray(phase_s, dtype=float)
    _check_phase(phase, period)
    check_array("wall time", wall, "[0, inf)", "s", SolverError)

    def on_time_up_to(c: np.ndarray) -> np.ndarray:
        cycles = np.floor(c / period)
        return cycles * t_on + np.minimum(c - cycles * period, t_on)

    exposure = on_time_up_to(phase + wall) - on_time_up_to(phase)
    return _scalar_or_array(exposure, float)


def simulate_ionization_times(config: SequenceConfig, trials: int) -> SequenceRuns:
    """Simulate trials of the chopped sequence; deterministic given config.

    Per trial: an exposure time ~ Exp(rate) and a uniform initial chop
    phase, mapped to wall clock through the ON windows; an event is
    recorded only if it lands before max_time_s. Trials are drawn and
    mapped a block at a time (see the module docstring for the layout),
    and each block is written into its slice of the record's columns.
    """
    if trials < 1:
        raise SchemeError("need at least one trial")
    chop, duty = config.chop_rate_hz, config.ionization_duty
    runs = SequenceRuns(
        config.rng_seed,
        event_time_s=np.empty(trials),
        attempt_windows=np.empty(trials, dtype=np.int64),
        initial_phase_s=np.empty(trials),
        failed=np.zeros(trials, dtype=bool),
    )
    for first in range(0, trials, BLOCK_TRIALS):
        rng = np.random.default_rng(
            np.random.SeedSequence([config.rng_seed, first // BLOCK_TRIALS])
        )
        block = slice(first, first + BLOCK_TRIALS)
        n = min(BLOCK_TRIALS, trials - first)
        draws = rng.standard_exponential(BLOCK_TRIALS)[:n]
        phase = rng.uniform(0.0, config.period_s, BLOCK_TRIALS)[:n]
        # A zero rate gives infinite exposures: no event before the horizon.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            exposure = draws / config.rate_per_s
        # A trial without an event spends its whole exposure budget, so
        # mapping the budget counts the windows it entered before the horizon.
        budget = wall_to_exposure(config.max_time_s, phase, chop, duty)
        event = exposure <= budget
        wall, windows = exposure_to_wall(
            np.where(event, exposure, budget), phase, chop, duty
        )
        if config.failure_prob > 0.0:
            abort_window = rng.geometric(config.failure_prob, BLOCK_TRIALS)[:n]
            failed = abort_window <= windows
            windows = np.where(failed, abort_window, windows)
            event &= ~failed
            runs.failed[block] = failed
        runs.event_time_s[block] = np.where(event, wall, np.nan)
        runs.attempt_windows[block] = windows
        runs.initial_phase_s[block] = phase
    return runs


def scaled_std(values: np.ndarray) -> float:
    """Sample standard deviation (ddof=1) whose squares cannot overflow.

    The values are divided by the power of two just below their largest
    magnitude before squaring, and the result is scaled back. Scaling by a
    power of two is exact, so wherever the plain std neither overflows nor
    underflows this returns the same bits; a finite spread of values near
    the floating-point limit gives a finite std instead of inf.
    """
    scale = np.ldexp(1.0, int(np.frexp(np.abs(values).max())[1]) - 1)
    return float(scale * (values / scale).std(ddof=1))


def summarize_times(runs: SequenceRuns) -> SequenceSummary:
    """Event-time estimators over a batch; None statistics when eventless.

    The mean, median and ci95 bounds have numpy's bits, so a statistic
    whose sum or bound lies beyond the float range is inf.
    """
    n_runs = len(runs.event_time_s)
    if n_runs == 0:
        raise SchemeError("no runs to summarize")
    times = runs.event_time_s[~np.isnan(runs.event_time_s)]
    n_events = len(times)
    mean = median = ci = None
    if n_events >= 1:
        # a sum beyond the float range gives inf, which callers refuse
        with np.errstate(over="ignore"):
            mean = float(times.mean())
        if n_events >= 2:
            half = 1.96 * scaled_std(times) / math.sqrt(n_events)
            ci = (mean - half, mean + half)
        # The sums above depend on element order, so the times (a copy this
        # function owns) are partitioned in place only now. np.median's
        # bits: its mean of the middle values sums from +0.0.
        lo, hi = (n_events - 1) // 2, n_events // 2
        times.partition([lo, hi])
        if lo == hi:
            median = 0.0 + float(times[hi])
        else:
            median = (0.0 + float(times[lo]) + float(times[hi])) / 2.0
    return SequenceSummary(n_runs, n_events, n_events / n_runs, mean, median, ci)


def synthesize_verification(
    trap: TrapAxis,
    charges: ChargePair,
    noise: VerificationNoise,
    seed: int,
) -> VerificationRecord:
    """Exact crystal observables perturbed by relative Gaussian noise.

    Four standard normals from default_rng(seed) are applied in a fixed
    order (ratio, nu1, nu_com, nu_bre), so records are reproducible for a
    given seed. Zero noise returns exact values.
    """
    ratio_true = displacement_ratio(trap.eta, charges.q2)
    nu_com_true, nu_bre_true = normal_mode_frequencies(trap)
    d_ratio, d_nu1, d_com, d_bre = np.random.default_rng(seed).standard_normal(4).tolist()
    return VerificationRecord(
        float(ratio_true * (1.0 + noise.ratio_rel * d_ratio)),
        float(trap.nu1_hz * (1.0 + noise.freq_rel * d_nu1)),
        float(nu_com_true * (1.0 + noise.freq_rel * d_com)),
        float(nu_bre_true * (1.0 + noise.freq_rel * d_bre)),
    )


def infer_from_verification(record: VerificationRecord) -> ChargeInference:
    """Published verification recipe: eta from each mode, averaged, then
    charge from the displacement ratio at that eta."""
    nu1 = record.nu1_measured_hz
    eta_mean = 0.5 * (infer_eta(record.nu_com_measured_hz, nu1, "com")
                      + infer_eta(record.nu_bre_measured_hz, nu1, "bre"))
    q2 = infer_charge(record.displacement_ratio_measured, eta_mean)
    return ChargeInference(eta_mean, q2)


def runs_text_blocks(runs: SequenceRuns) -> Iterator[str]:
    """Tabular export, one row per trial (index, event time or NA, windows).

    Yields the header line, then the rows of each block of BLOCK_TRIALS
    trials as one string, so a caller can write a table of any length
    while holding one block's text at a time.
    """
    yield "trial\tevent_time_s\tattempt_windows\n"
    for first in range(0, len(runs.event_time_s), BLOCK_TRIALS):
        block = slice(first, first + BLOCK_TRIALS)
        event_time = runs.event_time_s[block]
        times = list(map(repr, event_time.tolist()))
        for i in np.flatnonzero(np.isnan(event_time)).tolist():
            times[i] = "NA"
        rows = zip(range(first, first + len(times)), times,
                   runs.attempt_windows[block].tolist())
        yield "".join([f"{i}\t{t}\t{k}\n" for i, t, k in rows])


def runs_to_text(runs: SequenceRuns) -> str:
    """The whole table of runs_text_blocks as one string."""
    return "".join(runs_text_blocks(runs))
