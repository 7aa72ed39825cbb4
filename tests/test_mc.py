"""Chopped-sequence Monte Carlo and synthetic verification tests."""

import contextlib
import hashlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from ybion.cli import main
from ybion.crystal import (
    ChargePair,
    TrapAxis,
    displacement_ratio,
    infer_eta,
    normal_mode_frequencies,
)
from ybion.errors import SchemeError, SolverError
from ybion.mc import (
    BLOCK_TRIALS,
    REPORTED_NOISE,
    SequenceConfig,
    SequenceRuns,
    VerificationNoise,
    VerificationRecord,
    exposure_to_wall,
    infer_from_verification,
    rng_description,
    runs_to_text,
    scaled_std,
    simulate_ionization_times,
    summarize_times,
    synthesize_verification,
    wall_to_exposure,
)

RATE = 4.1
SEED = 20260817

duties = st.floats(min_value=0.05, max_value=1.0)
phase_fracs = st.floats(min_value=0.0, max_value=0.999)
exposures = st.floats(min_value=0.0, max_value=50.0)


def config(**overrides):
    base = dict(rate_per_s=RATE, max_time_s=10.0, rng_seed=SEED,
                chop_rate_hz=50.0, ionization_duty=0.5)
    base.update(overrides)
    return SequenceConfig(**base)


COLUMNS = ("event_time_s", "attempt_windows", "initial_phase_s", "failed")


def assert_same_runs(a, b, trials=None):
    """a equals the first `trials` entries of b (all of b when None)."""
    assert a.seed == b.seed
    for name in COLUMNS:
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name)[:trials], strict=True)


def make_runs(event_times, windows):
    """A hand-built record; None marks a trial without an event."""
    n = len(event_times)
    return SequenceRuns(
        seed=1,
        event_time_s=np.array([np.nan if t is None else t for t in event_times]),
        attempt_windows=np.array(windows, dtype=np.int64),
        initial_phase_s=np.zeros(n),
        failed=np.zeros(n, dtype=bool),
    )


def events(runs):
    """Event times of the trials that ionized, in trial order."""
    return runs.event_time_s[~np.isnan(runs.event_time_s)]


# -- exposure <-> wall clock mapping ------------------------------------------------


def test_duty_one_mapping_is_identity():
    wall, windows = exposure_to_wall(3.7, 0.005, config(ionization_duty=1.0))
    assert wall == 3.7
    assert wall_to_exposure(3.7, 0.005, config(ionization_duty=1.0)) == 3.7
    assert windows >= 1


def test_mapping_spans_off_windows():
    # 50 Hz, duty 0.5: 10 ms ON then 10 ms OFF. 25 ms of exposure from
    # phase 0 needs two full ON windows plus 5 ms of the third cycle.
    wall, windows = exposure_to_wall(0.025, 0.0, config())
    assert wall == pytest.approx(0.045, abs=1e-12)
    assert windows == 3


def test_mapping_phase_starts_in_off_part():
    # starting at phase 15 ms (OFF), the first ON time arrives at wall 5 ms
    wall, windows = exposure_to_wall(0.002, 0.015, config())
    assert wall == pytest.approx(0.007, abs=1e-12)
    assert windows == 1


def test_mapping_window_boundary_exact_fill():
    # exposure exactly one ON window: event at the window's closing edge
    wall, windows = exposure_to_wall(0.01, 0.0, config())
    assert wall == pytest.approx(0.01, abs=1e-15)
    assert windows == 1


def test_zero_exposure_is_zero_wall():
    assert exposure_to_wall(0.0, 0.013, config()) == (0.0, 0)
    assert wall_to_exposure(0.0, 0.013, config()) == 0.0


def test_scalar_mappings_give_0d_arrays_of_the_array_call():
    chopped = config()
    exposure, phase = np.array([0.025, 0.0]), np.array([0.015, 0.0])
    wall, windows = exposure_to_wall(exposure, phase, chopped)
    back = wall_to_exposure(wall, phase, chopped)
    one_wall, one_windows = exposure_to_wall(0.025, 0.015, chopped)
    one_back = wall_to_exposure(float(wall[0]), 0.015, chopped)
    for scalar, entries, dtype in ((one_wall, wall, np.float64),
                                   (one_windows, windows, np.int64),
                                   (one_back, back, np.float64)):
        assert isinstance(scalar, np.ndarray)
        assert scalar.shape == () and scalar.dtype == dtype
        assert scalar == entries[0]


def test_mapping_preconditions():
    with pytest.raises(SolverError, match="phase"):
        exposure_to_wall(1.0, 0.03, config())
    with pytest.raises(SolverError, match="exposure"):
        exposure_to_wall(-1.0, 0.0, config())
    with pytest.raises(SolverError, match="wall time"):
        wall_to_exposure(-1.0, 0.0, config())


@pytest.mark.parametrize("phase,shown", [
    (0.02, "0.02"),
    (-1e-3, "-0.001"),
    (math.nan, "nan"),
])
@pytest.mark.parametrize("mapping", [exposure_to_wall, wall_to_exposure])
def test_phase_refusal_names_the_phase_and_the_period(mapping, phase, shown):
    # the first phase outside [0, T) is named, here behind a valid one
    message = f"phase must lie in [0, 0.02) s, got {shown} s"
    with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
        mapping(1.0, np.array([0.01, phase, 0.05]), config())
    with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
        mapping(1.0, phase, config())


@given(exposure=exposures, phase_frac=phase_fracs, duty=duties)
@settings(max_examples=200)
def test_wall_inverts_exposure(exposure, phase_frac, duty):
    chopped = config(ionization_duty=duty)
    phase = phase_frac * chopped.period_s
    wall, _ = exposure_to_wall(exposure, phase, chopped)
    back = wall_to_exposure(wall, phase, chopped)
    assert back == pytest.approx(exposure, abs=1e-12, rel=1e-12)


@given(phase_frac=phase_fracs, duty=duties,
       pair=st.tuples(exposures, exposures))
@settings(max_examples=120)
def test_wall_monotone_in_exposure(phase_frac, duty, pair):
    chopped = config(ionization_duty=duty)
    phase = phase_frac * chopped.period_s
    lo, hi = sorted(pair)
    wall_lo, _ = exposure_to_wall(lo, phase, chopped)
    wall_hi, _ = exposure_to_wall(hi, phase, chopped)
    assert wall_hi >= wall_lo


# -- sequence simulation ------------------------------------------------------------


def test_simulation_is_deterministic():
    a = simulate_ionization_times(config(), 200)
    b = simulate_ionization_times(config(), 200)
    assert_same_runs(a, b)
    assert len(a.event_time_s) == 200
    assert a.event_time_s.dtype == np.float64
    assert a.attempt_windows.dtype == np.int64
    assert a.failed.dtype == bool
    assert a.seed == SEED


def test_trial_streams_are_chunking_invariant():
    # per-trial seeding: a longer batch extends, never reshuffles
    short = simulate_ionization_times(config(), 50)
    long = simulate_ionization_times(config(), 150)
    assert_same_runs(short, long, 50)


def test_zero_rate_never_ionizes():
    runs = simulate_ionization_times(config(rate_per_s=0.0), 50)
    assert np.isnan(runs.event_time_s).all()
    summary = summarize_times(runs)
    assert summary.success_fraction == 0.0
    assert summary.mean_s is None
    assert summary.median_s is None
    assert summary.ci95_s is None


@pytest.mark.parametrize("rate,duty,chop,max_time", [
    (RATE, 0.25, 50.0, 30.0), (RATE, 0.5, 50.0, 30.0), (RATE, 1.0, 50.0, 30.0),
    (20.0, 0.1, 5.0, 30.0), (1.0, 0.3, 0.5, 200.0)])
def test_mean_event_time_matches_gated_rate(rate, duty, chop, max_time):
    # exact mean of the gated Poisson process from a uniform start phase;
    # it tends to 1/(R*duty) only when R*duty*T is small, unlike the last two rows
    period = 1.0 / chop
    q = math.exp(-rate * duty * period)
    expected = ((2.0 - duty) / rate
                + (1.0 - duty) ** 2 * period * (1.0 + q) / (2.0 * (1.0 - q)))
    runs = simulate_ionization_times(
        config(rate_per_s=rate, ionization_duty=duty, chop_rate_hz=chop,
               max_time_s=max_time), 100_000)
    summary = summarize_times(runs)
    times = events(runs)
    se = times.std(ddof=1) / math.sqrt(len(times))
    assert summary.success_fraction == 1.0
    assert abs(summary.mean_s - expected) <= 2.0 * se


def test_reference_run_frozen_mean():
    runs = simulate_ionization_times(config(), 100_000)
    summary = summarize_times(runs)
    assert summary.mean_s == pytest.approx(0.4879991776255968, rel=1e-12)
    # consistent with the published one-second upper bound
    assert summary.mean_s < 1.0


def test_exposure_coordinates_are_exponential():
    # undo the gating per trial, then KS-test against Exp(rate) at the 1%
    # critical value
    chopped = config(rng_seed=42)
    runs = simulate_ionization_times(chopped, 10_000)
    hit = ~np.isnan(runs.event_time_s)
    exposures = wall_to_exposure(
        runs.event_time_s[hit], runs.initial_phase_s[hit], chopped)
    assert len(exposures) == 10_000
    result = kstest(exposures, "expon", args=(0.0, 1.0 / RATE))
    assert result.statistic < 1.628 / math.sqrt(len(exposures))


def test_event_times_respect_max_time():
    runs = simulate_ionization_times(config(rate_per_s=0.3, max_time_s=2.0), 2000)
    assert np.isnan(runs.event_time_s).any()
    times = events(runs)
    assert ((0.0 <= times) & (times <= 2.0)).all()
    assert (runs.initial_phase_s < config().period_s).all()


def test_failure_knob():
    certain = simulate_ionization_times(config(failure_prob=1.0), 20)
    assert certain.failed.all() and np.isnan(certain.event_time_s).all()
    assert (certain.attempt_windows == 1).all()
    sometimes = simulate_ionization_times(config(failure_prob=0.7), 400)
    clean = simulate_ionization_times(config(), 400)
    n_fail = sometimes.failed.sum()
    assert 0 < n_fail < 400
    assert len(events(sometimes)) < len(events(clean))
    again = simulate_ionization_times(config(failure_prob=0.7), 400)
    assert_same_runs(again, sometimes)


@pytest.mark.parametrize("failure_prob", [0.0, 0.01])
def test_runs_extend_across_block_boundaries(failure_prob):
    b = BLOCK_TRIALS
    full = simulate_ionization_times(config(failure_prob=failure_prob), 3 * b)
    for trials in (b - 1, b, b + 1, 2 * b + 3):
        assert_same_runs(simulate_ionization_times(
            config(failure_prob=failure_prob), trials), full, trials)


def test_failure_draws_leave_clean_trials_untouched():
    # the geometric window indices come after the exposures and phases in
    # each block, so switching the failure channel on only removes events
    trials = BLOCK_TRIALS + 100
    lossy = simulate_ionization_times(config(failure_prob=0.02), trials)
    clean = simulate_ionization_times(config(), trials)
    np.testing.assert_array_equal(lossy.initial_phase_s, clean.initial_phase_s)
    assert not clean.failed.any()
    ok, bad = ~lossy.failed, lossy.failed
    assert bad.any()
    np.testing.assert_array_equal(lossy.event_time_s[ok], clean.event_time_s[ok])
    np.testing.assert_array_equal(
        lossy.attempt_windows[ok], clean.attempt_windows[ok])
    assert np.isnan(lossy.event_time_s[bad]).all()
    assert (1 <= lossy.attempt_windows[bad]).all()
    assert (lossy.attempt_windows[bad] <= clean.attempt_windows[bad]).all()


def test_certain_failure_aborts_in_the_first_window():
    runs = simulate_ionization_times(config(failure_prob=1.0), BLOCK_TRIALS + 7)
    assert runs.failed.all() and (runs.attempt_windows == 1).all()


def test_simulation_preconditions():
    with pytest.raises(SchemeError, match="at least one trial"):
        simulate_ionization_times(config(), 0)


# -- summaries ----------------------------------------------------------------------


def test_single_event_summary():
    summary = summarize_times(make_runs([0.7], [3]))
    assert summary.mean_s == summary.median_s == 0.7
    assert summary.n_events == 1
    assert summary.success_fraction == 1.0
    assert summary.ci95_s is None


def test_mixed_summary_counts_and_ci():
    summary = summarize_times(make_runs([0.2, 0.6, None], [1, 1, 9]))
    assert summary.n_runs == 3
    assert summary.n_events == 2
    assert summary.success_fraction == pytest.approx(2.0 / 3.0)
    assert summary.mean_s == pytest.approx(0.4)
    lo, hi = summary.ci95_s
    assert lo < 0.4 < hi
    assert hi - lo == pytest.approx(2 * 1.96 * np.std([0.2, 0.6], ddof=1)
                                    / math.sqrt(2))


def summary_bits(summary):
    ci = summary.ci95_s or ()
    return [v.hex() for v in (summary.mean_s, summary.median_s, *ci)]


def reference_bits(runs):
    """summary_bits of mean, median and ci95 computed with np.median on a copy."""
    times = events(runs)
    mean, median = float(times.mean()), float(np.median(times))
    ci = ()
    if len(times) >= 2:
        half = 1.96 * scaled_std(times) / math.sqrt(len(times))
        ci = (mean - half, mean + half)
    return [v.hex() for v in (mean, median, *ci)]


# Finite times with ties, signed zeros and values near the float maximum;
# None is a trial without an event.
SUMMARY_TIMES = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0, 0.5, 1.7e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(times=st.lists(SUMMARY_TIMES, min_size=1, max_size=40).filter(
    lambda ts: any(t is not None for t in ts)))
@example(times=[0.25])
@example(times=[-0.0, -0.0])
@example(times=[1.7e308, None, 1.7976931348623157e308])
@settings(max_examples=500, deadline=None)
def test_summary_median_has_the_bits_of_the_numpy_median(times):
    runs = make_runs(times, [1] * len(times))
    with np.errstate(all="ignore"):
        assert summary_bits(summarize_times(runs)) == reference_bits(runs)


@pytest.mark.parametrize("trials", [4095, 4096, 4097])
def test_summary_bits_equal_the_numpy_reference_across_a_block_edge(trials):
    # failures and a short horizon leave NaN gaps in the event times
    runs = simulate_ionization_times(
        config(max_time_s=0.4, failure_prob=0.2), trials)
    assert runs.failed.any()
    assert 0 < len(events(runs)) < trials
    assert summary_bits(summarize_times(runs)) == reference_bits(runs)


def test_summary_needs_runs():
    with pytest.raises(SchemeError, match="no runs"):
        summarize_times(make_runs([], []))


# -- synthetic verification ---------------------------------------------------------


def test_zero_noise_record_is_exact():
    trap = TrapAxis(nu1_hz=474e3, eta=2.0)
    charges = ChargePair(q2=2.0)
    record = synthesize_verification(trap, charges,
                                     VerificationNoise(0.0, 0.0), seed=5)
    nu_com, nu_bre = normal_mode_frequencies(trap)
    assert record.displacement_ratio_measured == displacement_ratio(2.0, 2.0)
    assert record.nu1_measured_hz == 474e3
    assert record.nu_com_measured_hz == nu_com
    assert record.nu_bre_measured_hz == nu_bre


def test_noisy_record_is_seeded():
    trap = TrapAxis(nu1_hz=474e3, eta=2.135)
    charges = ChargePair(q2=2.0)
    a = synthesize_verification(trap, charges, REPORTED_NOISE, seed=9)
    b = synthesize_verification(trap, charges, REPORTED_NOISE, seed=9)
    c = synthesize_verification(trap, charges, REPORTED_NOISE, seed=10)
    assert a == b
    assert a != c


def test_zero_noise_inference_round_trip():
    trap = TrapAxis(nu1_hz=474e3, eta=2.135)
    charges = ChargePair(q2=2.0)
    record = synthesize_verification(trap, charges,
                                     VerificationNoise(0.0, 0.0), seed=0)
    inference = infer_from_verification(record)
    for mode, nu in (("com", record.nu_com_measured_hz),
                     ("bre", record.nu_bre_measured_hz)):
        assert infer_eta(nu, record.nu1_measured_hz, mode) == pytest.approx(
            2.135, abs=1e-6)
    assert inference.eta_mean == pytest.approx(2.135, abs=1e-6)
    assert inference.q2 == pytest.approx(2.0, abs=1e-5)


def test_round_trip_estimator_is_unbiased_at_reported_noise():
    # the +-0.14 coverage question is separate; the ESTIMATOR must not be
    # biased by more than 0.02 at the published noise scale
    trap = TrapAxis(nu1_hz=474e3, eta=2.135)
    charges = ChargePair(q2=2.0)
    q2s = np.array([
        infer_from_verification(
            synthesize_verification(trap, charges, REPORTED_NOISE, seed)).q2
        for seed in range(1000)
    ])
    assert abs(q2s.mean() - 2.0) <= 0.02
    # scale pin: the inferred-charge scatter tracks 3x the 2% ratio noise
    assert 0.08 < q2s.std(ddof=1) < 0.16


@pytest.mark.parametrize("eta,noise,digest", [
    (2.135, REPORTED_NOISE,
     "9d7ebd6db218b4fd60bc167b4e42f0260216ca08df8ca323afccb45de29bed6f"),
    # zero noise lands on the endpoint snaps of infer_eta
    (1.0, VerificationNoise(0.0, 0.0),
     "7a1c450b159392711a8fbd4f43c4734a8d9bef75f9b0558dd8c1498e538e8f0c"),
    (10.0, VerificationNoise(0.0, 0.0),
     "aba3741dc7386db4b3684fc9fbafff47ef897cfc2ad357f05368b8190de5c93b"),
], ids=["reported-noise", "eta-1-snap", "eta-10-snap"])
def test_round_trip_bits_are_pinned(eta, noise, digest):
    trap = TrapAxis(nu1_hz=474e3, eta=eta)
    charges = ChargePair(q2=2.0)
    inferences = [
        infer_from_verification(synthesize_verification(trap, charges, noise, seed))
        for seed in range(2000)
    ]
    pairs = np.array([(i.eta_mean, i.q2) for i in inferences], dtype=np.float64)
    assert hashlib.sha256(pairs.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("nu_hz,mode,message", [
    (400e3, "com", "measured com frequency 400000.0 Hz lies below the eta = 1 "
                   "value 474000.0 Hz"),
    (1e7, "bre", "measured bre frequency 10000000.0 Hz exceeds the eta = 10 "
                 "value 4787629.722749256 Hz"),
], ids=["below", "above"])
def test_infer_eta_refusals_are_pinned(nu_hz, mode, message):
    with pytest.raises(SolverError) as caught:
        infer_eta(nu_hz, 474e3, mode)
    assert str(caught.value) == message


def test_record_invariants():
    with pytest.raises(SchemeError, match="must be positive"):
        VerificationRecord(
            displacement_ratio_measured=-1.0, nu1_measured_hz=474e3,
            nu_com_measured_hz=6e5, nu_bre_measured_hz=1.2e6,
        )
    with pytest.raises(SchemeError, match="noise sigmas"):
        VerificationNoise(-0.1, 0.005)


# -- configuration and export -------------------------------------------------------


def test_config_invariants():
    with pytest.raises(SchemeError):
        config(rate_per_s=-1.0)
    with pytest.raises(SchemeError):
        config(ionization_duty=0.0)
    with pytest.raises(SchemeError):
        config(ionization_duty=1.2)
    with pytest.raises(SchemeError):
        config(chop_rate_hz=0.0)
    with pytest.raises(SchemeError):
        config(max_time_s=0.0)
    with pytest.raises(SchemeError):
        config(failure_prob=1.5)
    full_duty = config(ionization_duty=1.0)
    assert full_duty.on_time_s == full_duty.period_s


# The chop-window mappings take their period and ON time from a
# SequenceConfig, so these are the only refusals of a bad chop rate or duty.
@pytest.mark.parametrize("field,value,message", [
    ("chop_rate_hz", 0.0, "chop rate must be positive and finite, got 0.0"),
    ("ionization_duty", 0.0, "ionization duty must lie in (0, 1], got 0.0"),
    ("ionization_duty", 2.0, "ionization duty must lie in (0, 1], got 2.0"),
])
def test_config_owns_the_chop_rate_and_duty_ranges(field, value, message):
    with pytest.raises(SchemeError, match=f"^{re.escape(message)}$"):
        config(**{field: value})


@pytest.mark.parametrize("field", [
    "rate_per_s", "max_time_s", "chop_rate_hz", "ionization_duty", "failure_prob",
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(SchemeError, match="got"):
        config(**{field: value})


# None of these is an integer >= 0.
BAD_SEEDS = [1.5, -0.0, 1e300, -1, np.int64(-2)]


def seed_refusal(seed):
    return f"^rng seed must be an integer >= 0, got {re.escape(str(seed))}$"


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_config_refuses_a_seed_that_is_no_integer_at_least_zero(seed):
    with pytest.raises(SchemeError, match=seed_refusal(seed)):
        config(rng_seed=seed)


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_verification_refuses_a_seed_that_is_no_integer_at_least_zero(seed):
    trap = TrapAxis(nu1_hz=474e3, eta=2.135)
    with pytest.raises(SchemeError, match=seed_refusal(seed)):
        synthesize_verification(trap, ChargePair(q2=2.0), REPORTED_NOISE, seed=seed)


@pytest.mark.parametrize("seed", [None, [3, 4], (5,), np.array([3, 4])])
def test_verification_refuses_entropy_and_sequence_seeds(seed):
    trap = TrapAxis(nu1_hz=474e3, eta=2.135)
    with pytest.raises(SchemeError, match=seed_refusal(seed)):
        synthesize_verification(trap, ChargePair(q2=2.0), REPORTED_NOISE, seed=seed)
    with pytest.raises(SchemeError, match=seed_refusal(seed)):
        config(rng_seed=seed)


def test_config_and_verification_take_numpy_integer_seeds():
    assert_same_runs(simulate_ionization_times(config(rng_seed=np.int64(7)), 50),
                     simulate_ionization_times(config(rng_seed=7), 50))
    trap = TrapAxis(nu1_hz=474e3, eta=2.135)
    charges = ChargePair(q2=2.0)
    assert (synthesize_verification(trap, charges, REPORTED_NOISE, seed=np.uint64(9))
            == synthesize_verification(trap, charges, REPORTED_NOISE, seed=9))


def test_config_rejects_unresolvable_horizons():
    with pytest.raises(SchemeError, match="rng seed"):
        config(rng_seed=-1)
    with pytest.raises(SchemeError, match="2\\*\\*53 chop cycles"):
        config(max_time_s=1e300)
    with pytest.raises(SchemeError, match="ON time"):
        config(ionization_duty=5e-324)


@pytest.mark.parametrize("sigmas", [(math.nan, 0.005), (0.02, math.inf)])
def test_noise_rejects_non_finite(sigmas):
    with pytest.raises(SchemeError, match="finite"):
        VerificationNoise(*sigmas)


def test_runs_export_format():
    runs = simulate_ionization_times(config(rate_per_s=0.2, max_time_s=1.0), 6)
    text = runs_to_text(runs)
    lines = text.splitlines()
    assert lines[0] == "trial\tevent_time_s\tattempt_windows"
    assert len(lines) == 7
    for i, line in enumerate(lines[1:]):
        cols = line.split("\t")
        assert cols[0] == str(i)
        assert cols[1] == "NA" or float(cols[1]) >= 0.0
        assert int(cols[2]) >= 0
    assert any(line.split("\t")[1] == "NA" for line in lines[1:])
    for line, t, k in zip(lines[1:], runs.event_time_s, runs.attempt_windows):
        cols = line.split("\t")
        assert cols[1] == ("NA" if np.isnan(t) else repr(float(t)))
        assert cols[2] == str(k)


@pytest.mark.parametrize("overrides,trials,digest", [
    # the README run
    (dict(rng_seed=1), 100_000,
     "90c35a3664797671c6e546a63bc0d350335febbc818f55682f783c871cff03da"),
    # failures and horizon misses across two block boundaries
    (dict(rate_per_s=0.3, rng_seed=7, failure_prob=0.02), 2 * BLOCK_TRIALS + 5,
     "3608f0e56adb2f49848cafd2fff98e9c9be9a868c6e0acd31f1f4c90e8007da2"),
])
def test_runs_export_bytes_are_pinned(overrides, trials, digest):
    text = runs_to_text(simulate_ionization_times(config(**overrides), trials))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def repr_rows(event_time_s, attempt_windows):
    """The export rows as repr and an f-string write them, the reference
    the numpy row kernel must match byte for byte."""
    times = ("NA" if math.isnan(t) else repr(t) for t in event_time_s.tolist())
    return "".join(f"{i}\t{t}\t{k}\n"
                   for i, (t, k) in enumerate(zip(times, attempt_windows.tolist())))


def kernel_doubles(rng):
    """Over 10**6 doubles for the row kernel, by kind."""
    def floats(bits):
        return bits.view(np.float64)

    def kernel_binades(n):
        # random bit patterns whose binade lies in or next to [1e-4, 1e16)
        exponent = rng.integers(1009, 1078, n, dtype=np.uint64) << np.uint64(52)
        mantissa = rng.integers(0, 2**53, n, dtype=np.uint64)  # top bit: sign
        return floats(exponent | (mantissa & np.uint64(2**52 - 1))
                      | ((mantissa >> np.uint64(52)) << np.uint64(63)))

    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    edges = np.array([1e-4, 1e16, 5e-324, -0.0, 0.0, math.nan])
    near = np.concatenate([powers, edges[:2]])
    ties = rng.integers(10**15, 2**50, 10_000)  # 16 integer digits, ulp 1/8
    return {
        "random bit patterns, every binade": floats(
            rng.integers(0, 2**64, 20_000, dtype=np.uint64)),
        "random bit patterns, kernel binades": kernel_binades(370_000),
        "event-like exponentials": (rng.standard_exponential(200_000)
                                    * 10.0 ** rng.uniform(-3, 3, 200_000)),
        "integers up to 2**53": (rng.integers(0, 2**53, 250_000)
                                 >> rng.integers(0, 53, 250_000)).astype(float),
        "short decimals": (rng.integers(0, 10**6, 150_000)
                           / 10.0 ** rng.integers(0, 10, 150_000)),
        "powers of two and the range edges, one ulp either side": np.concatenate(
            [near, np.nextafter(near, -np.inf), np.nextafter(near, np.inf), edges]),
        "exact digit ties": np.concatenate([ties + 0.25, ties + 0.75]),
    }


def test_row_kernel_text_equals_repr_on_a_million_doubles():
    values = np.concatenate(list(kernel_doubles(np.random.default_rng(29)).values()))
    n = len(values)
    assert n >= 10**6
    runs = SequenceRuns(seed=1, event_time_s=values,
                        attempt_windows=np.zeros(n, dtype=np.int64),
                        initial_phase_s=np.zeros(n), failed=np.zeros(n, dtype=bool))
    # header "trial\tevent_time_s\tattempt_windows\n", then "i\tT\tk\n" per row
    times = runs_to_text(runs).split("\t")[3::2]
    expected = list(map(repr, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        expected[i] = "NA"
    if times != expected:
        mismatches = [i for i, (got, want) in enumerate(zip(times, expected))
                      if got != want]
        pytest.fail(f"{len(mismatches)} mismatches, first: "
                    f"{[(values[i], times[i], expected[i]) for i in mismatches[:5]]}")


def test_row_kernel_rows_equal_the_fstring_rows():
    # whole rows across three blocks: trial indices, NA and fallback rows,
    # and window counts up to 2**53 (and the int64 extremes)
    rng = np.random.default_rng(30)
    n = 2 * BLOCK_TRIALS + 77
    times = rng.standard_exponential(n) * 10.0 ** rng.uniform(-6, 17, n)
    times[rng.random(n) < 0.3] = np.nan
    times[:6] = [1e-4, np.nextafter(1e-4, 0), 1e16, np.nextafter(1e16, 0), 0.0, -0.0]
    windows = rng.integers(0, 2**53 + 1, n) >> rng.integers(0, 54, n)
    windows[:8] = [0, 2**53, 2**53 - 1, 10**13, 10**13 - 1, -1, -2**63, 2**63 - 1]
    # compared line by line: a failing == on the whole text would have
    # pytest diff two 8270-line strings
    got = runs_to_text(make_runs(times.tolist(), windows)).splitlines()
    want = ["trial\tevent_time_s\tattempt_windows"] + repr_rows(times, windows).splitlines()
    assert len(got) == len(want)
    assert [(g, w) for g, w in zip(got, want) if g != w][:5] == []


def test_row_kernel_calls_repr_only_for_fallback_rows(monkeypatch):
    from ybion import _reprtext

    printed = []

    def counting_repr(value):
        printed.append(value)
        return repr(value)

    monkeypatch.setattr(_reprtext, "repr", counting_repr, raising=False)
    runs = simulate_ionization_times(config(rng_seed=1), 100_000)
    runs_to_text(runs)
    times = events(runs)
    outside = times[(times < 1e-4) | (times >= 1e16)]
    assert len(outside) > 0
    assert sorted(printed) == sorted(outside.tolist())


def test_row_kernel_prints_exact_digit_ties_itself(monkeypatch):
    # 16 integer digits and ulp 1/8: x.25 and x.75 lie exactly halfway
    # between two 17-digit decimals that both round back, and repr takes
    # the one with the even last digit
    from ybion import _reprtext

    printed = []

    def counting_repr(value):
        printed.append(value)
        return repr(value)

    monkeypatch.setattr(_reprtext, "repr", counting_repr, raising=False)
    ties = np.random.default_rng(31).integers(10**15, 2**50, 2_000)
    times = np.concatenate([ties + 0.25, ties + 0.75, -(ties + 0.25)])
    windows = np.arange(len(times))
    got = _reprtext.rows(0, times, windows).splitlines()
    want = repr_rows(times, windows).splitlines()
    assert printed == []
    assert len(got) == len(want)
    assert [(g, w) for g, w in zip(got, want) if g != w][:5] == []


def test_rng_is_documented():
    description = rng_description()
    assert "PCG64" in description
    assert np.__version__ in description


# -- command-line boundary ----------------------------------------------------------


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_verify_roundtrip_rng_line_regenerates_first_record(tmp_path):
    out = tmp_path / "vr.tsv"
    code, _, _ = run_cli([
        "verify-roundtrip", "--eta", "2.135", "--q2", "2.0", "--seeds", "1",
        "--seed-base", "17", "--out", str(out),
    ])
    assert code == 0
    manifest = (tmp_path / "vr.tsv.manifest").read_text().splitlines()
    (rng_line,) = [line for line in manifest if line.startswith("rng: ")]
    # record i comes from default_rng(seed_base + i): four standard
    # normals, applied to the quantities in the stated order
    assert "default_rng(seed_base + i)" in rng_line
    assert "4 standard normals" in rng_line
    order = rng_line.split("in the order ")[1].split(", ")
    assert sorted(order) == ["nu1", "nu_bre", "nu_com", "ratio"]
    draws = dict(zip(order, np.random.default_rng(17).standard_normal(4).tolist()))
    trap = TrapAxis(nu1_hz=474e3, eta=2.135)
    nu_com, nu_bre = normal_mode_frequencies(trap)
    exact = {"ratio": displacement_ratio(2.135, 2.0), "nu1": 474e3,
             "nu_com": nu_com, "nu_bre": nu_bre}
    sigma = {"ratio": 0.02, "nu1": 0.005, "nu_com": 0.005, "nu_bre": 0.005}
    measured = {k: exact[k] * (1.0 + sigma[k] * draws[k]) for k in exact}
    inference = infer_from_verification(VerificationRecord(
        displacement_ratio_measured=measured["ratio"],
        nu1_measured_hz=measured["nu1"],
        nu_com_measured_hz=measured["nu_com"],
        nu_bre_measured_hz=measured["nu_bre"],
    ))
    rows = dict(line.split("\t")[:2] for line in out.read_text().splitlines())
    assert rows["q2_mean"] == repr(inference.q2)
    assert rows["eta_mean"] == repr(inference.eta_mean)
