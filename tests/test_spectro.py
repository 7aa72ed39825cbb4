"""Scan simulation, Lorentzian fitting, and linewidth-to-lifetime tests."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ybion import spectro
from ybion.errors import SchemeError, SolverError
from ybion.rates import build_rate_matrix, natural_fwhm_hz, steady_state
from ybion.scheme import (
    DecayChannel,
    LaserDrive,
    Level,
    LevelScheme,
    load_bundled_scheme,
)
from ybion.spectro import (
    MIN_FIT_POINTS,
    LorentzianFit,
    ScanCurve,
    curve_to_text,
    fit_lorentzian,
    lifetime_from_linewidth,
    load_curve,
    lorentzian,
    simulate_scan,
)

PROBE = ("7p12", "5d32")
PROBED_LIFETIME_S = 13.5e-9
NATURAL_FWHM_HZ = 11789255.0438441


@pytest.fixture(scope="module")
def reference_scheme():
    return load_bundled_scheme("linewidth_reference")


def synthetic_curve(center=1.5e6, fwhm=12e6, amplitude=1.0, offset=0.1,
                    n=200, span=72e6, noise_sigma=None, seed=None):
    grid = np.linspace(-span / 2.0, span / 2.0, n)
    y = lorentzian(grid, center, fwhm, amplitude, offset)
    if noise_sigma:
        rng = np.random.default_rng(seed)
        y = np.clip(y + rng.normal(0.0, noise_sigma, size=y.shape), 0.0, None)
    return ScanCurve(tuple(grid), tuple(float(v) for v in y),
                     noise_sigma=noise_sigma)


# -- scan simulation ---------------------------------------------------------------


def test_resonance_is_the_maximum(reference_scheme):
    grid = np.linspace(-40e6, 40e6, 41)
    curve = simulate_scan(reference_scheme, *PROBE, grid)
    assert int(np.argmax(curve.fluorescence)) == 20
    assert curve.detunings_hz[20] == 0.0


def test_scan_symmetric_under_sign_flip(reference_scheme):
    grid = np.linspace(-50e6, 50e6, 51)
    curve = simulate_scan(reference_scheme, *PROBE, grid)
    y = np.asarray(curve.fluorescence)
    assert np.allclose(y, y[::-1], rtol=1e-9, atol=0.0)


def test_far_tail_is_small(reference_scheme):
    # samples at +-10 natural widths must sit within 2% of the peak height
    # above the fitted baseline
    tail = 10.0 * NATURAL_FWHM_HZ
    grid = np.linspace(-1.3 * tail, 1.3 * tail, 261)
    curve = simulate_scan(reference_scheme, *PROBE, grid)
    fit = fit_lorentzian(curve)
    assert fit.converged
    y = np.asarray(curve.fluorescence)
    d = np.asarray(curve.detunings_hz)
    for sign in (-1.0, 1.0):
        idx = int(np.argmin(np.abs(d - sign * tail)))
        assert y[idx] - fit.offset <= 0.02 * fit.amplitude


def test_bundled_scheme_scan_is_a_single_natural_width_peak(yb_scheme):
    # The production scheme refills its shelf through a slow branch, which
    # distorts the line away from a Lorentzian; the curve still has to be a
    # single symmetric peak with a width of natural order. Quantitative
    # lifetime recovery is exercised on the reference scheme instead.
    grid = np.linspace(-150e6, 150e6, 151)
    curve = simulate_scan(yb_scheme, *PROBE, grid)
    y = np.asarray(curve.fluorescence)
    assert int(np.argmax(y)) == 75
    rising = np.diff(y[:76])
    falling = np.diff(y[75:])
    assert np.all(rising > 0)
    assert np.all(falling < 0)
    fit = fit_lorentzian(curve)
    assert fit.converged
    assert 0.3 * NATURAL_FWHM_HZ < fit.fwhm_hz < 3.0 * NATURAL_FWHM_HZ


def test_scan_noise_is_seeded_and_clamped(reference_scheme):
    grid = np.linspace(-30e6, 30e6, 31)
    a = simulate_scan(reference_scheme, *PROBE, grid, noise_sigma=0.05, seed=4)
    b = simulate_scan(reference_scheme, *PROBE, grid, noise_sigma=0.05, seed=4)
    c = simulate_scan(reference_scheme, *PROBE, grid, noise_sigma=0.05, seed=5)
    np.testing.assert_array_equal(a.fluorescence, b.fluorescence, strict=True)
    assert not np.array_equal(a.fluorescence, c.fluorescence)
    assert a.fluorescence.min() >= 0.0
    assert a.noise_sigma == 0.05


@pytest.mark.parametrize("seed", [1.5, -0.0, 1e300, -1])
def test_noisy_scan_refuses_a_seed_that_is_no_integer_at_least_zero(reference_scheme,
                                                                   seed):
    grid = np.linspace(-30e6, 30e6, 31)
    refusal = f"rng seed must be an integer >= 0, got {seed}"
    with pytest.raises(SchemeError, match=f"^{re.escape(refusal)}$"):
        simulate_scan(reference_scheme, *PROBE, grid, noise_sigma=0.05, seed=seed)


@pytest.mark.parametrize("seed", [[3, 4], (5,)])
def test_noisy_scan_refuses_a_sequence_seed(reference_scheme, seed):
    grid = np.linspace(-30e6, 30e6, 31)
    refusal = f"rng seed must be an integer >= 0, got {seed}"
    with pytest.raises(SchemeError, match=f"^{re.escape(refusal)}$"):
        simulate_scan(reference_scheme, *PROBE, grid, noise_sigma=0.05, seed=seed)


def test_noisy_scan_without_a_seed_draws_from_os_entropy(reference_scheme):
    grid = np.linspace(-30e6, 30e6, 31)
    a, b = (simulate_scan(reference_scheme, *PROBE, grid, noise_sigma=0.05).fluorescence
            for _ in range(2))
    assert not np.array_equal(a, b)


def per_point_signal(scheme, pair, detuning_hz, monitor=("6p12", "6s12")):
    """Monitored fluorescence of one detuning from a full steady_state."""
    branch = next(c for c in scheme.decays_from(monitor[0]) if c.lower == monitor[1])
    einstein_a = branch.branching_ratio / scheme.lifetime(monitor[0])
    matrix = build_rate_matrix(scheme.with_drive(*pair, detuning_hz=detuning_hz))
    return steady_state(matrix)[monitor[0]] * einstein_a


# Far enough out, (2 detuning / width)^2 overflows and W is exactly 0; at
# +-1e150 Hz it is a tiny nonzero rate.
FAR_DETUNINGS_HZ = [-1.7e308, -1e300, -1e160, -1e150]


@pytest.mark.parametrize("name", ["linewidth_reference", "yb174_plus"])
def test_batched_scan_equals_per_point_solves(name):
    scheme = load_bundled_scheme(name)
    far = np.array(FAR_DETUNINGS_HZ)
    grid = np.concatenate([far, np.linspace(-80e6, 80e6, 33), -far[::-1]])
    # the probe pair leaves the level kept last (6s12) outside the pair,
    # the cooling pair contains it
    for pair in (PROBE, ("6p12", "6s12")):
        curve = simulate_scan(scheme, *pair, grid)
        expected = [per_point_signal(scheme, pair, float(d)) for d in grid]
        np.testing.assert_allclose(curve.fluorescence, expected, rtol=1e-13, atol=0.0)


def transient_ground_schemes():
    """Two schemes whose ground level g ends up empty, each with its
    scanned pair and monitored decay.

    In the first, g <-> e is driven and e decays only into the stable x,
    so where the scanned g <-> e rate is 0 both g and x are closed. In the
    second, g leaks through e into the closed class {y, p, s, u}, whose
    last level y lies outside the scanned pair s <-> u.
    """
    def level(label, energy, lifetime=None):
        return Level(label, "c", 0.5, energy, lifetime)

    def drive(upper, lower, gap_cm1, saturation):
        return LaserDrive(upper, lower, wavelength_nm=1e7 / gap_cm1,
                          saturation=saturation)

    three = LevelScheme(
        levels=(level("g", 0.0), level("x", 10000.0), level("e", 20000.0, 1e-8)),
        decays=(DecayChannel("e", "x", 1.0),),
        drives=(drive("e", "g", 20000.0, 1.0),),
    )
    six = LevelScheme(
        levels=(level("g", 0.0), level("y", 5000.0), level("s", 15000.0, 1e-3),
                level("p", 25000.0, 1e-8), level("e", 30000.0, 1e-8),
                level("u", 40000.0, 2e-8)),
        decays=(DecayChannel("s", "y", 1.0), DecayChannel("p", "y", 0.9),
                DecayChannel("p", "s", 0.1), DecayChannel("e", "y", 1.0),
                DecayChannel("u", "y", 1.0)),
        drives=(drive("e", "g", 30000.0, 1.0), drive("p", "y", 20000.0, 1.0),
                drive("u", "s", 25000.0, 0.5)),
    )
    return [(three, ("e", "g"), ("e", "x")), (six, ("u", "s"), ("p", "y"))]


@pytest.mark.parametrize("grid, message", [
    ([0.0, math.nan], "detunings and fluorescence must be finite"),
    ([math.inf], "detunings and fluorescence must be finite"),
    ([-math.inf, 0.0], "detunings and fluorescence must be finite"),
    ([1.0, 0.0], "detunings must be strictly increasing"),
    ([0.0, 0.0], "detunings must be strictly increasing"),
], ids=["nan", "inf", "minus-inf", "decreasing", "repeated"])
def test_scan_refuses_a_grid_scan_curve_refuses_before_any_matrix(
        yb_scheme, monkeypatch, grid, message):
    # a NaN detuning used to end at a NaN pivot, whose refusal named no input
    def built(*args, **kwargs):
        raise AssertionError("a rate matrix was built")

    monkeypatch.setattr(spectro, "build_rate_matrix", built)
    with pytest.raises(SchemeError) as caught:
        simulate_scan(yb_scheme, *PROBE, grid)
    assert str(caught.value) == message
    with pytest.raises(SchemeError) as caught:
        ScanCurve(grid, [1.0] * len(grid))
    assert str(caught.value) == message


@pytest.mark.parametrize("scheme,pair,monitor", transient_ground_schemes())
def test_scan_with_transient_ground_fails_exactly_where_steady_state_does(
        scheme, pair, monitor):
    grid = np.array(FAR_DETUNINGS_HZ + [-3e7, 0.0, 2e6] + [1e300])
    outcomes = []
    for d in grid:
        try:
            expected = per_point_signal(scheme, pair, float(d), monitor)
        except SolverError:
            with pytest.raises(SolverError):
                simulate_scan(scheme, *pair, [d], monitor=monitor)
            outcomes.append(None)
            continue
        curve = simulate_scan(scheme, *pair, [d], monitor=monitor)
        np.testing.assert_allclose(curve.fluorescence, [expected], rtol=1e-13, atol=0.0)
        outcomes.append(expected)
    solved = np.array([v is not None for v in outcomes])
    assert solved[4:7].all()  # the near-resonant points always solve
    if solved.all():
        curve = simulate_scan(scheme, *pair, grid, monitor=monitor)
        np.testing.assert_allclose(curve.fluorescence, outcomes, rtol=1e-13, atol=0.0)
    else:
        with pytest.raises(SolverError):
            simulate_scan(scheme, *pair, grid, monitor=monitor)
        near = grid[solved]
        curve = simulate_scan(scheme, *pair, near, monitor=monitor)
        np.testing.assert_allclose(
            curve.fluorescence, [v for v in outcomes if v is not None],
            rtol=1e-13, atol=0.0)


# sha256 of the float64 bytes of simulate_scan's fluorescence on a grid
# with far detunings at both ends, per scheme, scanned pair and saturation
# of every drive. They pin the rounding of the scan solve: a change that
# moves any point by one ulp fails here. The bytes are those of numpy 2.4
# on OpenBLAS 0.3.31 (x86-64, little-endian); a BLAS that sums its dot
# products in another order rounds differently, and the pins then need
# recording anew.
SCAN_PINS = {
    "yb174_plus": {
        ("7p12", "5d32"): (
            "5a4b1f037710f6149262263ab9063ac95535f479a8c998cfdb77e0a3b36bc64e",
            "8607baf3dd927bcbe9db9855868730bc7760c125113df51e787d31b7a2941435",
            "c5d914f957adc67f852a733636453afa6c82067f26f247837d907b617a0e5f6c",
        ),
        ("6p12", "6s12"): (
            "512c811187d0f9bbaedb1069fe1902bf74cd95603f0331007e5d6f49a6062ace",
            "50da47ffd0cf8592d52cf9d31623c390a833db17f76d1105591eb29c45964b3e",
            "65d26dcbff1cded6a25873ffb6f237926ccf1ecf9436f1dedbe3b2915bcc880c",
        ),
    },
    "linewidth_reference": {
        ("7p12", "5d32"): (
            "5b8452cec944a01e0da90f7e137a63d1837232580b960d24c8ad35ad02e000a8",
            "5b372ad8d31d37b54f1d2c2b5476ba2c55be472fa259548f14f9d204ba058ac2",
            "66b6b5056ce9b8804d64fbb4f8005baef70ad3b5fc6a567a1d4f632e9dd36b91",
        ),
        ("6p12", "6s12"): (
            "77464375938a1adaea5f8cae7104703e944facd921bf3d45449f704043cbbef4",
            "abf1fc494d5ea374565608fa5b0a1df12deaee01ee42c41f6efbebf8cab8bd6d",
            "9c6a1321641ac52607a31a76e71255867349f8e6213ee0925173d26e60f95644",
        ),
    },
}
PINNED_SATURATIONS = (1e-2, 1.0, 1e4)


@pytest.mark.parametrize("pair", [PROBE, ("6p12", "6s12")], ids=["probe", "cooling"])
@pytest.mark.parametrize("name", sorted(SCAN_PINS))
def test_scan_bits_are_pinned(name, pair):
    grid = np.concatenate([[-1.7e308, -1e150], np.linspace(-80e6, 80e6, 241),
                           [1e150, 1.7e308]])
    digests = []
    for saturation in PINNED_SATURATIONS:
        scheme = load_bundled_scheme(name).with_all_drives_saturated(saturation)
        curve = simulate_scan(scheme, *pair, grid)
        digests.append(hashlib.sha256(curve.fluorescence.tobytes()).hexdigest())
    assert tuple(digests) == SCAN_PINS[name][pair]


def test_full_size_scan_memory_stays_bounded(yb_scheme):
    # the (points, n, n) stacks of the old solve peaked near 250 MB here
    from ybion.cli import MAX_SCAN_POINTS

    grid = np.linspace(-1e9, 1e9, MAX_SCAN_POINTS)
    tracemalloc.start()
    try:
        curve = simulate_scan(yb_scheme, *PROBE, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(curve) == MAX_SCAN_POINTS
    assert peak < 64e6


def test_scan_preconditions(reference_scheme):
    with pytest.raises(SchemeError, match="no drive"):
        simulate_scan(reference_scheme, "7p12", "6s12", [0.0])
    with pytest.raises(SchemeError, match="grid is empty"):
        simulate_scan(reference_scheme, *PROBE, [])
    with pytest.raises(SchemeError, match="no decay channel"):
        simulate_scan(reference_scheme, *PROBE, [0.0], monitor=("6p12", "5d52"))
    unmonitored = reference_scheme.with_level("6p12", lifetime_s=None)
    with pytest.raises(SchemeError, match="^monitor level 6p12 has no lifetime$"):
        simulate_scan(unmonitored, *PROBE, [0.0])


def test_scan_rejects_repump_on_scanned_level():
    scheme = load_bundled_scheme("linewidth_reference")
    from ybion.scheme import LaserDrive
    import dataclasses

    extra = LaserDrive(upper="6p12", lower="5d32", wavelength_nm=1428.5714,
                       saturation=1.0, detuning_hz=0.0, chopped=False)
    spiked = dataclasses.replace(scheme, drives=scheme.drives + (extra,))
    with pytest.raises(SchemeError, match="switch it off"):
        simulate_scan(spiked, *PROBE, [0.0])


# -- Lorentzian fitting ------------------------------------------------------------


def test_fit_inverts_noiseless_generator():
    curve = synthetic_curve()
    fit = fit_lorentzian(curve)
    assert fit.converged
    assert fit.center_hz == pytest.approx(1.5e6, rel=1e-6, abs=1.0)
    assert fit.fwhm_hz == pytest.approx(12e6, rel=1e-6)
    assert fit.amplitude == pytest.approx(1.0, rel=1e-6)
    assert fit.offset == pytest.approx(0.1, rel=1e-6)


def test_fit_residuals_tiny_on_noiseless_input():
    curve = synthetic_curve()
    fit = fit_lorentzian(curve)
    model = lorentzian(np.asarray(curve.detunings_hz), fit.center_hz,
                       fit.fwhm_hz, fit.amplitude, fit.offset)
    worst = np.abs(model - np.asarray(curve.fluorescence)).max()
    assert worst <= 1e-8 * fit.amplitude


def test_fit_width_within_three_percent_under_one_percent_noise():
    # the 3% band holds across 100 noise realizations, not just a lucky one
    for seed in range(100):
        curve = synthetic_curve(noise_sigma=0.01, seed=seed)
        fit = fit_lorentzian(curve)
        assert fit.converged
        assert fit.fwhm_hz == pytest.approx(12e6, rel=3e-2), f"seed {seed}"


def test_fit_covariance_shape_and_scale():
    curve = synthetic_curve(noise_sigma=0.01, seed=3)
    fit = fit_lorentzian(curve)
    cov = np.asarray(fit.covariance)
    assert cov.shape == (4, 4)
    assert np.allclose(cov, cov.T, rtol=1e-10)
    assert np.all(np.diag(cov) > 0)
    # one-sigma width uncertainty should be of order the observed 1% spread
    sigma_w = math.sqrt(cov[1, 1])
    assert 0.001 * 12e6 < sigma_w < 0.05 * 12e6


def test_fit_standard_errors_match_the_spread_over_seeds(reference_scheme):
    # z = (fit - noiseless fit) / standard error over N seeds has unit
    # spread and zero mean if the errors are calibrated; the bounds are four
    # sampling standard deviations of std(z) and of mean(z). (At 5% noise the
    # clamp at 0 lifts the wings and the width's z has mean about -1.1.)
    n = 400
    grid = np.linspace(-60e6, 60e6, 241)
    clean = simulate_scan(reference_scheme, *PROBE, grid)
    truth = fit_lorentzian(clean)
    noise = 0.01 * max(clean.fluorescence)
    z = []
    for seed in range(n):
        fit = fit_lorentzian(simulate_scan(reference_scheme, *PROBE, grid,
                                           noise_sigma=noise, seed=seed))
        assert fit.converged, seed
        z.append([(fit.center_hz - truth.center_hz) / math.sqrt(fit.covariance[0][0]),
                  (fit.fwhm_hz - truth.fwhm_hz) / math.sqrt(fit.covariance[1][1])])
    z = np.asarray(z)
    assert np.all(np.abs(z.std(axis=0, ddof=1) - 1.0) <= 4.0 / math.sqrt(2 * (n - 1)))
    assert np.all(np.abs(z.mean(axis=0)) <= 4.0 / math.sqrt(n))


# At 0.4 the amplitude estimate is 0. At 5e-324 the halved edge median
# rounds to an offset of 0, so the amplitude estimate is 5e-324 > 0: only
# the zero peak-to-peak spread refuses that curve.
@pytest.mark.parametrize("level", [0.4, 5e-324])
def test_flat_curve_does_not_converge(level):
    grid = tuple(np.linspace(-1e6, 1e6, 20))
    flat = ScanCurve(grid, tuple([level] * 20))
    fit = fit_lorentzian(flat)
    assert not fit.converged
    assert fit.message == "degenerate initialization: no peak above the baseline"


def test_zero_width_estimate_does_not_converge():
    # One ulp of peak over an offset with an odd last bit: the half maximum
    # rounds up to the peak, so the two peak samples are the only ones at it
    # and both crossings sit on them. The left one is interpolated across
    # nu[2] - nu[1] = 1e10 + 1.5e-6, which rounds to 1e10 + 2**-19, so it
    # lands on nu[3] = 2**-19, where the right one sits too.
    offset = 1.0 + 2.0**-52
    peak = math.nextafter(offset, 2.0)
    curve = ScanCurve((-2e10, -1e10, 1.5e-6, 2.0**-19, 1e10, 2e10, 3e10, 4e10),
                      (offset, offset, peak, peak, offset, offset, offset, offset))
    assert spectro._initial_guess(curve.detunings_hz, curve.fluorescence)[1] == 0.0
    fit = fit_lorentzian(curve)
    assert not fit.converged and fit.iterations == 0
    assert fit.message == "degenerate initialization: zero width estimate"


def test_fit_needs_eight_points():
    grid = tuple(np.linspace(-1e6, 1e6, 7))
    with pytest.raises(SolverError, match="need >= 8 points"):
        fit_lorentzian(ScanCurve(grid, tuple(range(7))))


def fitted_fwhm_past_the_span(fit) -> float:
    """The width a fit refused for lying past the scanned span."""
    assert not fit.converged
    words = fit.message.split()
    assert words[:2] == ["fitted", "fwhm"]
    assert " Hz exceeds the scanned span " in fit.message
    return float(words[2])


def test_fit_handles_centered_peak_without_half_crossings():
    # peak wider than the window: initialization falls back to span / 4; the
    # fit finds the width but refuses it, since it lies past the span
    curve = synthetic_curve(center=0.0, fwhm=500e6, span=50e6, offset=0.0)
    fit = fit_lorentzian(curve)
    assert fitted_fwhm_past_the_span(fit) == pytest.approx(500e6, rel=1e-3)
    assert fit.message.endswith("exceeds the scanned span 5e+07 Hz")


# Finite samples with ties, signed zeros and values near the float maximum,
# whose pair sums overflow unless halved first.
MEDIAN_SAMPLES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.7e308, -1.7e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(y=st.lists(MEDIAN_SAMPLES, min_size=MIN_FIT_POINTS, max_size=60))
@settings(max_examples=500, deadline=None)
def test_initial_offset_has_the_bits_of_the_numpy_median(y):
    # the offset selects the middle pair in place; np.median of the halved
    # edge samples is the reference it must match bit for bit
    y = np.array(y)
    k = max(2, len(y) // 10)
    expected = 2.0 * float(np.median(np.concatenate([y[:k], y[-k:]]) / 2.0))
    with np.errstate(all="ignore"):
        offset = spectro._initial_guess(np.arange(float(len(y))), y)[3]
    assert offset.hex() == expected.hex()


def test_fit_refuses_the_power_broadened_line_wider_than_the_scan():
    # the 7p12<->5d32 line at saturation 1e4 is far wider than +-60 MHz; with
    # the last few ulps of the curve the fit either hits the iteration cap or
    # extrapolates a width of about 4.95 GHz, 40 spans, and never converges
    sch = load_bundled_scheme("yb174_plus").with_drive("7p12", "5d32", saturation=1e4)
    curve = simulate_scan(sch, "7p12", "5d32", np.linspace(-60e6, 60e6, 241))
    y = np.asarray(curve.fluorescence)
    rng = np.random.default_rng(0)
    widths = []
    for _ in range(8):
        ulps = rng.integers(-4, 5, y.size) * np.finfo(float).eps
        fit = fit_lorentzian(ScanCurve(curve.detunings_hz, tuple(y * (1.0 + ulps))))
        if fit.message != "no convergence within 100 iterations":
            widths.append(fitted_fwhm_past_the_span(fit))
    assert widths and all(w == pytest.approx(4.95e9, rel=1e-2) for w in widths)


def fit_kernel(nu, params):
    """The model and the transposed Jacobian (4, points) at params, from the
    kernels fit_lorentzian calls, on buffers laid out as the fit lays out
    its own: one (4, points) array whose last row holds the ones."""
    jac = np.empty((4, len(nu)))
    jac[3] = 1.0
    rows = tuple(jac)
    model = spectro._model(nu, params, rows, np.empty(len(nu)))
    spectro._jacobian(params, rows, np.empty(len(nu)))
    return model, jac


def test_lorentzian_is_the_fit_model_to_the_bit():
    rng = np.random.default_rng(4343)
    for _ in range(200):
        center = rng.normal(0.0, 1e7)
        fwhm, amplitude = 10.0 ** rng.uniform([5.0, -3.0], [9.0, 3.0])
        offset = amplitude * rng.uniform(0.0, 5.0)
        nu = np.sort(rng.uniform(-1e8, 1e8, 500))
        params = np.array([center, fwhm, amplitude, offset])
        model, _ = fit_kernel(nu, params)
        assert lorentzian(nu, center, fwhm, amplitude, offset).tobytes() == model.tobytes()


def test_analytic_jacobian_matches_central_difference():
    rng = np.random.default_rng(7)
    nu = np.linspace(-60e6, 60e6, 97)
    for _ in range(20):
        params = np.array([rng.uniform(-20e6, 20e6), rng.uniform(2e6, 80e6),
                           10 ** rng.uniform(-3, 6), rng.uniform(0.0, 5.0)])
        _, jac_t = fit_kernel(nu, params)
        for k in range(4):
            h = 1e-5 * params[k] if params[k] else 1e-5
            up, down = params.copy(), params.copy()
            up[k] += h
            down[k] -= h
            fd = (lorentzian(nu, *up) - lorentzian(nu, *down)) / (2.0 * h)
            np.testing.assert_allclose(jac_t[k], fd, rtol=1e-6,
                                       atol=1e-6 * np.abs(fd).max())


@given(
    points=st.integers(min_value=8, max_value=400),
    center_frac=st.floats(min_value=-0.45, max_value=0.45),
    log_fwhm_frac=st.floats(min_value=-2.5, max_value=0.7),
    log_amplitude=st.floats(min_value=-6.0, max_value=9.0),
    offset_frac=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=100, deadline=None)
def test_fit_inverts_any_resolved_noiseless_line(points, center_frac, log_fwhm_frac,
                                                 log_amplitude, offset_frac):
    # A line at least two grid steps wide is recovered to 1e-8; center and
    # offset errors are measured in units of the width and the amplitude.
    # Past the span the recovered width is refused.
    span = 100e6
    fwhm = span * 10.0 ** log_fwhm_frac
    assume(fwhm >= 2.0 * span / (points - 1))
    center, amplitude = center_frac * span, 10.0 ** log_amplitude
    offset = offset_frac * amplitude
    grid = np.linspace(-span / 2.0, span / 2.0, points)
    y = lorentzian(grid, center, fwhm, amplitude, offset)
    fit = fit_lorentzian(ScanCurve(tuple(grid), tuple(y.tolist())))
    if fwhm >= span * (1.0 - 1e-8) and not fit.converged:
        # a line wider than the window is recovered too, and then refused
        assert fitted_fwhm_past_the_span(fit) == pytest.approx(fwhm, rel=1e-5)
        return
    assert fit.converged, fit.message
    assert abs(fit.center_hz - center) <= 1e-8 * fwhm
    assert fit.fwhm_hz == pytest.approx(fwhm, rel=1e-8)
    assert fit.amplitude == pytest.approx(amplitude, rel=1e-8)
    assert abs(fit.offset - offset) <= 1e-8 * amplitude


def test_fit_cost_never_above_trust_region_oracle():
    # scipy's trust-region least squares from the same start and scaling is
    # the reference optimizer; the fit must reach a cost at least as low.
    from scipy.optimize import least_squares

    for seed in range(100):
        curve = synthetic_curve(noise_sigma=0.01, seed=seed)
        nu = np.asarray(curve.detunings_hz)
        y = np.asarray(curve.fluorescence)
        c0, w0, a0, o0 = spectro._initial_guess(nu, y)
        oracle = least_squares(
            lambda p: lorentzian(nu, *p) - y,
            x0=[c0, w0, a0, o0],
            xtol=1e-12, ftol=1e-12, gtol=1e-12,
            x_scale=[max(abs(c0), w0), w0, a0, max(a0, abs(o0))],
            max_nfev=2000,
        )
        fit = fit_lorentzian(curve)
        assert fit.converged, f"seed {seed}"
        assert fit.cost <= oracle.cost * (1.0 + 1e-9), f"seed {seed}"
        assert fit.fwhm_hz == pytest.approx(abs(oracle.x[1]), rel=1e-6), f"seed {seed}"


def test_fit_reports_stopping_rule_iterations_and_cost():
    curve = synthetic_curve(noise_sigma=0.01, seed=3)
    fit = fit_lorentzian(curve)
    assert fit.message in ("converged: relative cost change <= 1e-12",
                           "converged: scaled step <= 1e-12")
    assert 1 <= fit.iterations < spectro.MAX_FIT_ITERATIONS
    resid = lorentzian(np.asarray(curve.detunings_hz), fit.center_hz, fit.fwhm_hz,
                       fit.amplitude, fit.offset) - np.asarray(curve.fluorescence)
    assert fit.cost == pytest.approx(0.5 * float(resid @ resid), rel=1e-12)


def test_fit_stops_unconverged_at_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(spectro, "MAX_FIT_ITERATIONS", 2)
    fit = fit_lorentzian(synthetic_curve(noise_sigma=0.01, seed=3))
    assert not fit.converged
    assert fit.iterations == 2
    assert fit.message == "no convergence within 2 iterations"
    assert math.isnan(fit.cost)


# Eight-point curves on detunings 0, 1, ..., 7 Hz that reach the two gates
# no other test reaches deterministically.
NONPOSITIVE_SOLUTION = [0.5, 0.1, 1.0, 0.6, 0.0, 0.8, 1.0, 0.6]
SINGULAR_SOLUTION = [0.7, 0.5, 0.6, 0.0, 0.2, 1.0, 0.1, 0.1]


def test_fit_evaluates_the_model_per_trial_and_the_jacobian_per_accepted_step(monkeypatch):
    # One model evaluation at the start and one per trial step; one Jacobian
    # at the start and one per accepted step. Acceptance is re-derived here
    # from the evaluated costs: a trial is accepted when its cost does not
    # exceed the last accepted one.
    y = np.array(SINGULAR_SOLUTION)
    costs, jacobians = [], []
    model, jacobian = spectro._model, spectro._jacobian

    def counting_model(nu, params, rows, out):
        values = model(nu, params, rows, out)
        costs.append(0.5 * float((values - y) @ (values - y)))
        return values

    def counting_jacobian(params, rows, g):
        jacobians.append(params.copy())
        jacobian(params, rows, g)

    monkeypatch.setattr(spectro, "_model", counting_model)
    monkeypatch.setattr(spectro, "_jacobian", counting_jacobian)
    fit = fit_lorentzian(ScanCurve(np.arange(8.0), SINGULAR_SOLUTION))
    accepted, cost = 0, costs[0]
    for trial_cost in costs[1:]:
        if trial_cost <= cost:
            accepted, cost = accepted + 1, trial_cost
    assert fit.converged and fit.cost == cost
    assert len(costs) == 1 + fit.iterations
    assert len(jacobians) == 1 + accepted
    assert 1 <= accepted < fit.iterations  # at least one trial was rejected


def test_fit_refuses_a_solution_with_nonpositive_width_or_amplitude():
    fit = fit_lorentzian(ScanCurve(np.arange(8.0), NONPOSITIVE_SOLUTION))
    assert not fit.converged
    assert fit.message == "optimizer converged to a nonpositive width or amplitude"
    assert fit.iterations >= 1
    assert math.isnan(fit.cost)
    assert fit.covariance == tuple(tuple(0.0 for _ in range(4)) for _ in range(4))


def test_fit_with_a_singular_normal_matrix_reports_a_nan_covariance(monkeypatch):
    raised = []
    inv = np.linalg.inv

    def recording_inv(a):
        try:
            return inv(a)
        except np.linalg.LinAlgError:
            raised.append(a)
            raise

    monkeypatch.setattr(np.linalg, "inv", recording_inv)
    fit = fit_lorentzian(ScanCurve(np.arange(8.0), SINGULAR_SOLUTION))
    assert len(raised) == 1
    assert fit.converged
    assert fit.message == "converged: relative cost change <= 1e-12"
    assert fit.fwhm_hz == pytest.approx(1.03e-6, rel=0.01)
    assert all(math.isnan(v) for row in fit.covariance for v in row)


def test_converged_fit_type_invariants():
    with pytest.raises(SolverError):
        LorentzianFit(center_hz=0.0, fwhm_hz=-1.0, amplitude=1.0, offset=0.0,
                      covariance=tuple(tuple(0.0 for _ in range(4))
                                       for _ in range(4)),
                      converged=True)


# -- lifetime extraction ------------------------------------------------------------


def test_lifetime_reference_point():
    tau = lifetime_from_linewidth(11.789e6, 0.0)
    assert tau == pytest.approx(13.5e-9, abs=0.01e-9)
    assert lifetime_from_linewidth(NATURAL_FWHM_HZ, 0.0) == pytest.approx(
        13.5e-9, rel=1e-12)


def test_power_broadening_factor():
    broadened = NATURAL_FWHM_HZ * math.sqrt(1.02)
    assert broadened / NATURAL_FWHM_HZ == pytest.approx(1.00995, abs=1e-5)
    assert lifetime_from_linewidth(broadened, 0.02) == pytest.approx(
        13.5e-9, rel=1e-12)


def test_lifetime_reciprocal_scaling():
    tau = lifetime_from_linewidth(NATURAL_FWHM_HZ, 0.0)
    assert lifetime_from_linewidth(2.0 * NATURAL_FWHM_HZ, 0.0) == pytest.approx(
        tau / 2.0, rel=1e-12)


def test_lifetime_preconditions():
    with pytest.raises(SolverError):
        lifetime_from_linewidth(0.0, 0.0)
    with pytest.raises(SolverError):
        lifetime_from_linewidth(1e6, -0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(SolverError, match="saturation"):
            lifetime_from_linewidth(1e6, bad)


@pytest.mark.parametrize("fwhm_hz,saturation", [(1e-299, 1e300), (1e308, 0.0)])
def test_lifetime_outside_the_float_range_is_refused(fwhm_hz, saturation):
    # sqrt(1 + S) / (2 pi fwhm) overflows to inf, or its divisor does and it is 0
    with pytest.raises(SolverError, match=re.escape(
            "lifetime sqrt(1 + S) / (2 pi fwhm) lies outside the floating-point range "
            f"for fwhm_hz = {fwhm_hz}, saturation = {saturation}")):
        lifetime_from_linewidth(fwhm_hz, saturation)


@pytest.mark.parametrize("saturation", [0.005, 0.02, 0.05])
def test_pipeline_recovers_probed_lifetime(reference_scheme, saturation):
    # scan -> fit -> deconvolve must return the lifetime the scheme encodes
    scheme = reference_scheme.with_drive(*PROBE, saturation=saturation)
    grid = np.linspace(-60e6, 60e6, 241)
    curve = simulate_scan(scheme, *PROBE, grid)
    fit = fit_lorentzian(curve)
    assert fit.converged
    tau = lifetime_from_linewidth(fit.fwhm_hz, saturation)
    assert tau == pytest.approx(PROBED_LIFETIME_S, rel=2e-2)


def test_pipeline_reference_numbers(reference_scheme):
    # frozen regression point for the operating saturation
    grid = np.linspace(-60e6, 60e6, 241)
    curve = simulate_scan(reference_scheme, *PROBE, grid)
    fit = fit_lorentzian(curve)
    assert fit.fwhm_hz == pytest.approx(11975544.94782171, rel=1e-9)
    tau = lifetime_from_linewidth(fit.fwhm_hz, 0.02)
    assert tau == pytest.approx(1.342223790837767e-08, rel=1e-9)


# -- curve input/output -------------------------------------------------------------


def test_curve_text_round_trip(tmp_path):
    curve = synthetic_curve(n=20)
    path = tmp_path / "curve.tsv"
    path.write_text(curve_to_text(curve))
    back = load_curve(str(path))
    np.testing.assert_array_equal(back.detunings_hz, curve.detunings_hz, strict=True)
    np.testing.assert_array_equal(back.fluorescence, curve.fluorescence, strict=True)
    assert back.noise_sigma is None


def test_curve_header_may_follow_comment_lines(tmp_path):
    curve = synthetic_curve(n=20)
    path = tmp_path / "curve.tsv"
    path.write_text("# a note on the scan\n\n" + curve_to_text(curve))
    back = load_curve(str(path))
    np.testing.assert_array_equal(back.fluorescence, curve.fluorescence, strict=True)


def test_curve_round_trip_with_sigma(tmp_path):
    curve = synthetic_curve(n=20, noise_sigma=0.01, seed=1)
    path = tmp_path / "noisy.tsv"
    path.write_text(curve_to_text(curve))
    back = load_curve(str(path))
    np.testing.assert_array_equal(back.detunings_hz, curve.detunings_hz, strict=True)
    np.testing.assert_array_equal(back.fluorescence, curve.fluorescence, strict=True)
    assert back.noise_sigma == 0.01


def test_curve_text_header():
    assert curve_to_text(synthetic_curve(n=9)).splitlines()[0] == (
        "detuning_hz\tsignal")
    assert curve_to_text(synthetic_curve(n=9, noise_sigma=0.01,
                                         seed=0)).splitlines()[0] == (
        "detuning_hz\tsignal\tsigma")


def test_load_curve_errors(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("0.0\t1.0\n1.0\t2.0\t0.1\t9\n", encoding="utf-8")
    with pytest.raises(SchemeError, match="line 2"):
        load_curve(str(bad))
    nan = tmp_path / "nan.tsv"
    nan.write_text("0.0\tone\n", encoding="utf-8")
    with pytest.raises(SchemeError, match="line 1"):
        load_curve(str(nan))
    partial = tmp_path / "partial.tsv"
    partial.write_text("0.0\t1.0\t0.1\n1.0\t2.0\n", encoding="utf-8")
    with pytest.raises(SchemeError, match="only some rows"):
        load_curve(str(partial))
    unsorted = tmp_path / "unsorted.tsv"
    unsorted.write_text("1.0\t1.0\n0.0\t2.0\n", encoding="utf-8")
    with pytest.raises(SchemeError, match="strictly increasing"):
        load_curve(str(unsorted))


@pytest.mark.parametrize("text,message", [
    ("0.0\t1.0\n1.0\t2.0\t0.1\t9\n",
     "line 2: expected 2 or 3 tab-separated columns"),
    ("# a note\n\n0.0\tone\n", "line 3: signal must be finite, got 'one'"),
    ("0.0\t1.0\t0.1\n1.0\t2.0\tx\n", "line 2: sigma must be finite, got 'x'"),
    # the fit takes one noise sigma for the whole curve
    ("0.0\t1.0\t0.1\n1.0\t2.0\t0.5\n2.0\t1.0\t9.0\n",
     "sigma column must hold one value, got 0.1 and 0.5"),
], ids=["column-count", "signal-number", "sigma-number", "varying-sigma"])
def test_load_curve_refusals_keep_their_wording(tmp_path, text, message):
    path = tmp_path / "curve.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemeError) as caught:
        load_curve(str(path))
    assert str(caught.value) == message


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_curve_with_non_finite_values_is_rejected(tmp_path, bad):
    for row in (f"{bad}\t1.0\n", f"2.0\t{bad}\n"):
        path = tmp_path / "curve.tsv"
        path.write_text("0.0\t1.0\n1.0\t2.0\n" + row, encoding="utf-8")
        with pytest.raises(SchemeError, match="must be finite"):
            load_curve(str(path))


def test_scan_curve_invariants():
    with pytest.raises(SchemeError, match="lengths differ"):
        ScanCurve((0.0, 1.0), (1.0,))
    with pytest.raises(SchemeError, match="empty"):
        ScanCurve((), ())
    with pytest.raises(SchemeError, match="strictly increasing"):
        ScanCurve((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(SchemeError, match=">= 0"):
        ScanCurve((0.0, 1.0), (1.0, -0.5))


@pytest.mark.parametrize("detunings,fluorescence", [
    ([[0.0, 1.0]], [1.0, 2.0]),
    ([0.0, 1.0], [[1.0], [2.0]]),
    (0.0, 1.0),
])
def test_scan_curve_refuses_columns_that_are_not_one_dimensional(detunings, fluorescence):
    with pytest.raises(SchemeError) as caught:
        ScanCurve(detunings, fluorescence)
    assert str(caught.value) == "detunings and fluorescence must be one-dimensional"


@pytest.mark.parametrize("detunings,fluorescence", [
    ((0.0, math.nan), (1.0, 2.0)),
    ((0.0, 1.0), (1.0, math.inf)),
    ((-math.inf, 1.0), (1.0, 2.0)),
])
def test_scan_curve_refuses_values_that_are_not_finite(detunings, fluorescence):
    with pytest.raises(SchemeError) as caught:
        ScanCurve(detunings, fluorescence)
    assert str(caught.value) == "detunings and fluorescence must be finite"
