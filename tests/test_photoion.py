"""Beam flux, ionization rate, and quantum-defect cross-section tests."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybion.constants import (
    MEGABARN_M2,
    RYDBERG_EV,
    RYDBERG_YB174_CM1,
    photon_energy_ev,
    photon_energy_j,
)
from ybion.errors import SchemeError, SolverError
from ybion.photoion import (
    COEFFICIENT_TABLES,
    SIGMA_KRAMERS_M2,
    CrossSection,
    GaussianBeam,
    RydbergSeries,
    bundled_series_path,
    cross_section,
    effective_quantum_number,
    fit_quantum_defect,
    ionization_rate,
    load_series_file,
    photon_flux,
    rate_coefficient,
)

# Reference operating point: the ionizing beam and the populations it acts on.
BEAM = GaussianBeam(power_w=100e-6, waist_m=10e-6, wavelength_nm=245.426)
P7P = 9.5e-3
SERIES_LIMIT_CM1 = 98207.0
SEVEN_P_CM1 = 63706.28

positive_powers = st.floats(min_value=1e-9, max_value=10.0)
waists = st.floats(min_value=1e-7, max_value=1e-2)
wavelengths = st.floats(min_value=100.0, max_value=2000.0)
probabilities = st.floats(min_value=0.0, max_value=1.0)
sigmas_mb = st.floats(min_value=1e-3, max_value=1e3)


# -- beam geometry and photon flux ------------------------------------------------


def test_zero_power_zero_flux():
    beam = GaussianBeam(power_w=0.0, waist_m=10e-6, wavelength_nm=245.426)
    assert photon_flux(beam) == 0.0


# Each row's id is spelled out as pytest first derived it from the row's
# values, so rewording a refusal or inserting a row renames no test.
@pytest.mark.parametrize("wavelength_nm,message", [
    pytest.param(
        0.0, "wavelength must be positive and finite, got 0.0 nm",
        id="0.0-wavelength must be positive and finite, got 0.0 nm"),
    pytest.param(
        -245.0, "wavelength must be positive and finite, got -245.0 nm",
        id="-245.0-wavelength must be positive and finite, got -245.0 nm"),
    pytest.param(
        math.nan, "wavelength must be positive and finite, got nan nm",
        id="nan-wavelength must be positive and finite, got nan nm"),
    pytest.param(
        5e-324, "photon energy lies outside the floating-point range for "
                "wavelength_nm = 5e-324",
        id=("5e-324-photon energy lies outside the floating-point range for "
            "wavelength_nm = 5e-324")),
    pytest.param(
        1.7e308, "photon energy lies outside the floating-point range for "
                 "wavelength_nm = 1.7e+308",
        id=("1.7e+308-photon energy lies outside the floating-point range for "
            "wavelength_nm = 1.7e+308")),
])
def test_photon_energy_refuses_bad_wavelengths(wavelength_nm, message):
    with pytest.raises(SchemeError) as caught:
        photon_energy_j(wavelength_nm)
    assert str(caught.value) == message


def test_reference_beam_numbers():
    # 100 uW into a 10 um waist: peak intensity 2P/(pi w0^2).
    assert BEAM.peak_intensity_w_m2 == pytest.approx(6.366e5, rel=1e-4)
    assert photon_energy_j(245.426) == pytest.approx(8.094e-19, rel=1e-4)
    assert photon_flux(BEAM) == pytest.approx(7.87e23, rel=1e-3)
    assert photon_flux(BEAM) == pytest.approx(7.86545697637769e23, rel=1e-12)


def test_doubling_waist_quarters_flux():
    wide = GaussianBeam(power_w=BEAM.power_w, waist_m=2 * BEAM.waist_m,
                        wavelength_nm=BEAM.wavelength_nm)
    assert photon_flux(wide) == pytest.approx(photon_flux(BEAM) / 4.0, rel=1e-14)


@given(power=positive_powers, waist=waists, wavelength=wavelengths)
@settings(max_examples=80)
def test_flux_definition_round_trip(power, waist, wavelength):
    # F * (pi w0^2 / 2) * E_ph recovers the beam power.
    beam = GaussianBeam(power_w=power, waist_m=waist, wavelength_nm=wavelength)
    back = (
        photon_flux(beam)
        * math.pi * waist**2 / 2.0
        * photon_energy_j(wavelength)
    )
    assert back == pytest.approx(power, rel=1e-12)


def test_beam_invariants():
    with pytest.raises(SchemeError):
        GaussianBeam(power_w=-1e-6, waist_m=1e-5, wavelength_nm=245.426)
    with pytest.raises(SchemeError):
        GaussianBeam(power_w=1e-6, waist_m=0.0, wavelength_nm=245.426)
    with pytest.raises(SchemeError):
        GaussianBeam(power_w=1e-6, waist_m=1e-5, wavelength_nm=-245.426)


@pytest.mark.parametrize("field,value", [
    ("power_w", math.nan), ("power_w", math.inf),
    ("waist_m", math.nan), ("waist_m", math.inf),
    ("wavelength_nm", math.nan), ("wavelength_nm", math.inf),
])
def test_beam_rejects_non_finite_values(field, value):
    fields = {"power_w": 1e-4, "waist_m": 1e-5, "wavelength_nm": 245.426}
    fields[field] = value
    with pytest.raises(SchemeError, match=f"got {value}"):
        GaussianBeam(**fields)


@pytest.mark.parametrize("power,waist", [(1e-4, 1e-200), (0.0, 1e-200),
                                         (1e-4, 1e200), (1e300, 1e-100)])
def test_beam_rejects_intensity_outside_float_range(power, waist):
    with pytest.raises(SchemeError) as caught:
        GaussianBeam(power_w=power, waist_m=waist, wavelength_nm=245.426)
    assert str(caught.value) == (
        "peak intensity 2 power_w / (pi waist_m^2) lies outside the floating-point "
        f"range for power_w = {power}, waist_m = {waist}")


@given(power=st.floats(min_value=0.0, max_value=1e308),
       waist=st.floats(min_value=5e-324, max_value=1e308))
@settings(max_examples=200)
def test_beam_intensity_finite_or_rejected(power, waist):
    try:
        beam = GaussianBeam(power_w=power, waist_m=waist, wavelength_nm=245.426)
    except SchemeError as exc:
        assert "waist_m" in str(exc)
        return
    intensity = beam.peak_intensity_w_m2
    assert 0.0 <= intensity < math.inf
    assert (intensity > 0.0) == (power > 0.0)


@pytest.mark.parametrize("value_mb", [math.nan, math.inf, -math.inf])
def test_cross_section_rejects_non_finite_values(value_mb):
    with pytest.raises(SchemeError, match="cross section must be >= 0 and finite"):
        CrossSection.from_megabarn(value_mb)


# -- ionization rate and the rate-per-power coefficient ---------------------------


def test_reference_ionization_rate():
    sigma = CrossSection.from_megabarn(5.5)
    rate = ionization_rate(P7P, sigma, photon_flux(BEAM))
    assert rate == pytest.approx(4.1, rel=2e-2)
    assert rate == pytest.approx(4.109701270157343, rel=1e-12)


def test_rate_scales_to_larger_cross_section():
    sigma = CrossSection.from_megabarn(7.2)
    rate = ionization_rate(P7P, sigma, photon_flux(BEAM))
    assert rate == pytest.approx(5.4, rel=2e-2)
    assert rate == pytest.approx(5.37997257184234, rel=1e-12)


def test_zero_population_zero_rate():
    sigma = CrossSection.from_megabarn(5.5)
    assert ionization_rate(0.0, sigma, photon_flux(BEAM)) == 0.0
    assert rate_coefficient(0.0, sigma, 245.426) == 0.0


def test_reference_rate_coefficient():
    sigma = CrossSection.from_megabarn(5.5)
    coeff = rate_coefficient(P7P, sigma, 245.426)
    assert coeff == pytest.approx(4.1e-6, rel=2e-2)
    assert coeff == pytest.approx(4.1097012701573435e-06, rel=1e-12)


def test_coefficient_linear_in_cross_section():
    single = rate_coefficient(P7P, CrossSection.from_megabarn(5.5), 245.426)
    double = rate_coefficient(P7P, CrossSection.from_megabarn(11.0), 245.426)
    assert double == pytest.approx(2.0 * single, rel=1e-14)


@given(p=probabilities, sigma_mb=sigmas_mb, scale=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=80)
def test_rate_linearity(p, sigma_mb, scale):
    sigma = CrossSection.from_megabarn(sigma_mb)
    flux = 1e22
    base = ionization_rate(p, sigma, flux)
    for scaled in (ionization_rate(p, sigma, scale * flux),
                   ionization_rate(p, CrossSection.from_megabarn(scale * sigma_mb), flux)):
        # abs=0 where both sides are normal: approx's default absolute
        # tolerance of 1e-12 would accept any two small rates. Subnormal
        # rates hold too few digits for rel=1e-12;
        # test_rate_and_coefficient_survive_a_partial_underflow covers them.
        if min(scaled, scale * base) >= sys.float_info.min:
            assert scaled == pytest.approx(scale * base, rel=1e-12, abs=0)


@given(power=positive_powers, waist=waists)
@settings(max_examples=80)
def test_rate_and_coefficient_agree(power, waist):
    # c * P / w0^2 must equal p * sigma * F for the same beam.
    sigma = CrossSection.from_megabarn(5.5)
    beam = GaussianBeam(power_w=power, waist_m=waist, wavelength_nm=245.426)
    via_flux = ionization_rate(P7P, sigma, photon_flux(beam))
    via_coeff = rate_coefficient(P7P, sigma, 245.426) * power / waist**2
    assert via_coeff == pytest.approx(via_flux, rel=1e-12)


def test_rate_and_coefficient_survive_a_partial_underflow():
    # p * sigma (1e-325 m^2) lies below the float range, the products do not
    sigma = CrossSection.from_megabarn(1e-3)
    assert 1e-300 * sigma.value_m2 == 0.0
    # abs=0: approx's default absolute tolerance of 1e-12 would accept 0.0
    assert ionization_rate(1e-300, sigma, 1e22) == pytest.approx(1e-303, rel=1e-15, abs=0)
    per_p = rate_coefficient(1.0, sigma, 245.426)
    assert rate_coefficient(1e-300, sigma, 245.426) == pytest.approx(
        1e-300 * per_p, rel=1e-15, abs=0)
    # a product whose true value leaves the float range is still 0.0
    assert ionization_rate(5e-324, sigma, 1e22) == 0.0
    assert rate_coefficient(5e-324, sigma, 245.426) == 0.0


def test_rate_and_coefficient_keep_their_digits_past_a_subnormal_partial_product():
    # p * sigma (2e-312 m^2) is subnormal and keeps only about 9 digits,
    # while the rate and the coefficient themselves are normal
    sigma = CrossSection.from_megabarn(2.0)
    assert 1e-290 * sigma.value_m2 < sys.float_info.min
    divisor = math.pi * photon_energy_j(245.426)
    for value, factors, over in (
            (ionization_rate(1e-290, sigma, 1e22), (1e-290, sigma.value_m2, 1e22), 1.0),
            (rate_coefficient(1e-290, sigma, 245.426), (1e-290, sigma.value_m2, 2.0), divisor)):
        exact = math.prod(map(Fraction, factors)) / Fraction(over)
        assert abs(Fraction(value) - exact) <= 3 * Fraction(math.ulp(float(exact)))


def test_normal_rates_keep_the_bits_of_the_plain_product():
    sigma = CrossSection.from_megabarn(5.5)
    flux = photon_flux(BEAM)
    assert ionization_rate(P7P, sigma, flux) == P7P * sigma.value_m2 * flux
    assert rate_coefficient(P7P, sigma, 245.426) == (
        P7P * sigma.value_m2 * 2.0 / (math.pi * photon_energy_j(245.426)))


def test_rate_preconditions():
    sigma = CrossSection.from_megabarn(5.5)
    with pytest.raises(SchemeError):
        ionization_rate(1.5, sigma, 1e22)
    with pytest.raises(SchemeError):
        ionization_rate(0.5, sigma, -1e22)
    with pytest.raises(SchemeError):
        rate_coefficient(-0.1, sigma, 245.426)


# -- effective quantum number ------------------------------------------------------


def test_nstar_trivial_gaps():
    limit = 98207.0
    assert effective_quantum_number(limit - RYDBERG_YB174_CM1, limit) == 1.0
    assert effective_quantum_number(limit - RYDBERG_YB174_CM1 / 4.0, limit) == 2.0


def test_nstar_of_ionizing_level():
    nstar = effective_quantum_number(SEVEN_P_CM1, SERIES_LIMIT_CM1)
    assert nstar == pytest.approx(1.7834560120675202, rel=1e-12)
    # threshold photon energy R/n*^2 must sit below the 245.426 nm photon
    assert RYDBERG_EV / nstar**2 < photon_energy_ev(245.426)


def test_nstar_requires_bound_level():
    with pytest.raises(SolverError):
        effective_quantum_number(98207.0, 98207.0)
    with pytest.raises(SolverError):
        effective_quantum_number(99000.0, 98207.0)


# -- quantum-defect fits -----------------------------------------------------------


def synthetic_series(mu, ns, limit=80000.0, core_charge=1):
    z2r = core_charge**2 * RYDBERG_YB174_CM1
    members = tuple((n, limit - z2r / (n - mu) ** 2) for n in ns)
    return RydbergSeries(members=members, ionization_limit_cm1=limit,
                         ell=1, core_charge=core_charge)


def test_fit_recovers_zero_defect():
    series = synthetic_series(0.0, range(2, 7))
    mu, residual = fit_quantum_defect(series)
    assert abs(mu) < 1e-10
    assert residual <= 1e-8


def test_fit_recovers_half_defect():
    series = synthetic_series(0.5, range(3, 9))
    mu, residual = fit_quantum_defect(series)
    assert mu == pytest.approx(0.5, abs=1e-8)
    assert residual <= 1e-8


def test_fit_recovers_defect_with_doubly_charged_core():
    series = synthetic_series(0.37, range(4, 9), core_charge=2)
    mu, residual = fit_quantum_defect(series)
    assert mu == pytest.approx(0.37, abs=1e-8)
    assert residual <= 1e-8


@given(mu=st.floats(min_value=0.0, max_value=0.9))
@settings(max_examples=40)
def test_fit_inverts_its_generator(mu):
    series = synthetic_series(mu, range(3, 10))
    fitted, residual = fit_quantum_defect(series)
    assert fitted == pytest.approx(mu, abs=1e-7)
    assert residual <= 1e-6


def test_fit_needs_two_members():
    lone = RydbergSeries(members=((6, 27061.82),), ionization_limit_cm1=98207.0,
                         ell=1, core_charge=2)
    with pytest.raises(SolverError, match="at least two"):
        fit_quantum_defect(lone)


def test_bundled_series_fit_has_documented_large_residual():
    # Two core-penetrating members are only approximately a one-defect series;
    # the residual must be reported large, not hidden.
    series = load_series_file(bundled_series_path(), SERIES_LIMIT_CM1, ell=1,
                              core_charge=2)
    assert series.members == ((6, 27061.82), (7, 63706.28))
    mu, residual = fit_quantum_defect(series)
    assert mu == pytest.approx(3.5067205896659464, rel=1e-6)
    assert 100.0 < residual < 2000.0


def test_bundled_series_defect_is_the_least_squares_minimum():
    series = load_series_file(bundled_series_path(), SERIES_LIMIT_CM1, ell=1,
                              core_charge=2)
    mu, _ = fit_quantum_defect(series)
    ns = np.array([n for n, _ in series.members], dtype=float)
    energies = np.array([e for _, e in series.members])

    def sum_sq(m):
        pred = SERIES_LIMIT_CM1 - 4.0 * RYDBERG_YB174_CM1 / (ns - m) ** 2
        return float(((pred - energies) ** 2).sum())

    assert mu == pytest.approx(3.506720580952538, rel=1e-12)
    assert sum_sq(mu) < min(sum_sq(mu - 1e-8), sum_sq(mu + 1e-8))


def test_bundled_series_fit_bits_are_pinned():
    series = load_series_file(bundled_series_path(), SERIES_LIMIT_CM1, ell=1,
                              core_charge=2)
    assert fit_quantum_defect(series) == (3.506720580952538, 1469.7658471196191)


@st.composite
def noisy_series(draw):
    """A series of 2 to 8 members of one defect in [0, 3.5) and core charge 1
    or 2, each binding energy scaled by up to 5 % of noise."""
    mu = draw(st.floats(0.0, 3.5, exclude_max=True))
    core_charge = draw(st.sampled_from([1, 2]))
    first = draw(st.integers(int(mu) + 2, int(mu) + 6))
    ns = range(first, first + draw(st.integers(2, 8)))
    noise = draw(st.lists(st.floats(-0.05, 0.05), min_size=len(ns), max_size=len(ns)))
    z2r = core_charge**2 * RYDBERG_YB174_CM1
    members = tuple((n, 80000.0 - z2r / (n - mu) ** 2 * (1.0 + eps))
                    for n, eps in zip(ns, noise))
    return RydbergSeries(members=members, ionization_limit_cm1=80000.0, ell=1,
                         core_charge=core_charge)


@given(series=noisy_series())
@settings(max_examples=60, deadline=None)
def test_noisy_series_defect_is_a_least_squares_minimum(series):
    mu, residual = fit_quantum_defect(series)
    ns = np.array([n for n, _ in series.members], dtype=float)
    energies = np.array([e for _, e in series.members])
    z2r = series.core_charge**2 * RYDBERG_YB174_CM1

    def sum_sq(m):
        """Sum of squared misfits, one column per value of m."""
        m = np.atleast_1d(m)
        pred = 80000.0 - z2r / (ns[:, None] - m) ** 2
        return ((pred - energies[:, None]) ** 2).sum(axis=0)

    n_min = ns[0]
    assert 0.0 <= mu < n_min
    assert residual == pytest.approx(np.abs(80000.0 - z2r / (ns - mu) ** 2 - energies).max(),
                                     rel=1e-12)
    # a local minimum: no neighbour 1e-5 away inside [0, n_min) lies lower
    neighbours = [m for m in (mu - 1e-5, mu + 1e-5) if 0.0 <= m < n_min]
    assert sum_sq(mu)[0] <= sum_sq(np.array(neighbours)).min(initial=np.inf)
    # and no point of an independent dense grid over [0, n_min) lies lower,
    # up to the rounding of the sums themselves
    dense = np.linspace(0.0, n_min, 100_000, endpoint=False)
    assert sum_sq(mu)[0] <= sum_sq(dense).min() * (1.0 + 1e-12)


def test_fit_of_a_series_whose_grid_reaches_n_min():
    # above about 1.7e7, n_min - 1e-9 rounds to n_min: the grid's last point
    # gives n - mu = 0, which must predict -inf rather than divide by zero
    series = RydbergSeries(members=((20000000, 1.0), (20000001, 2.0)),
                           ionization_limit_cm1=3.0, ell=1, core_charge=2)
    mu, residual = fit_quantum_defect(series)
    assert mu == pytest.approx(19999459.793223467, rel=1e-12)
    assert residual == pytest.approx(0.4986026717900125, rel=1e-9)


def test_fit_rejects_defect_pushed_into_the_n_min_bound():
    # The n = 2 member is bound so deeply that only mu within 1e-6 of 2 fits it.
    series = RydbergSeries(members=((2, 80000.0 - 4e17), (3, 80000.0 - 1e5)),
                           ionization_limit_cm1=80000.0, ell=1)
    with pytest.raises(SolverError, match="ran into the n_min bound"):
        fit_quantum_defect(series)


# -- cross-section models ----------------------------------------------------------


def test_hydrogenic_threshold_value_in_sanity_window():
    nstar = effective_quantum_number(SEVEN_P_CM1, SERIES_LIMIT_CM1)
    at_threshold = cross_section(nstar, 1, RYDBERG_EV / nstar**2,
                                 model="hydrogenic")
    assert 1.0 <= at_threshold.megabarn <= 100.0
    assert at_threshold.megabarn == pytest.approx(
        SIGMA_KRAMERS_M2 / MEGABARN_M2 * nstar, rel=1e-12)


def test_hydrogenic_at_operating_photon_energy():
    nstar = effective_quantum_number(SEVEN_P_CM1, SERIES_LIMIT_CM1)
    sigma = cross_section(nstar, 1, photon_energy_ev(245.426), model="hydrogenic")
    assert 1.0 <= sigma.megabarn <= 100.0
    assert sigma.megabarn == pytest.approx(8.561074053112144, rel=1e-10)


def test_table_models_near_published_values():
    nstar = effective_quantum_number(SEVEN_P_CM1, SERIES_LIMIT_CM1)
    eph = photon_energy_ev(245.426)
    burgess = cross_section(nstar, 1, eph, model="burgess")
    peach = cross_section(nstar, 1, eph, model="peach")
    assert burgess.megabarn == pytest.approx(5.5, rel=0.2)
    assert peach.megabarn == pytest.approx(7.2, rel=0.2)
    assert burgess.model == "burgess"
    assert peach.model == "peach"


def test_below_threshold_photon_rejected():
    nstar = effective_quantum_number(SEVEN_P_CM1, SERIES_LIMIT_CM1)
    with pytest.raises(SolverError, match="below ionization threshold"):
        cross_section(nstar, 1, 0.5 * RYDBERG_EV / nstar**2, model="hydrogenic")


def test_table_lookup_requires_covering_row():
    with pytest.raises(SolverError, match="no burgess coefficient row"):
        cross_section(3.0, 1, 5.0, model="burgess")
    with pytest.raises(SolverError, match="no peach coefficient row"):
        cross_section(1.78, 0, 5.0, model="peach")


def test_user_model_is_not_computable():
    with pytest.raises(SolverError, match="user"):
        cross_section(1.78, 1, 5.1, model="user")
    with pytest.raises(SolverError, match="unknown cross-section model"):
        cross_section(1.78, 1, 5.1, model="kramers")


def test_cross_section_type_invariants():
    with pytest.raises(SchemeError):
        CrossSection(value_m2=-1e-22, model="user")
    with pytest.raises(SchemeError):
        CrossSection(value_m2=1e-22, model="guess")
    assert CrossSection.from_megabarn(5.5).megabarn == pytest.approx(5.5, rel=1e-15)
    assert CrossSection.from_megabarn(5.5).value_m2 == pytest.approx(5.5e-22, rel=1e-15)


# -- series construction and file ingest -------------------------------------------


def test_series_invariants():
    with pytest.raises(SchemeError, match="must exceed ell"):
        RydbergSeries(members=((1, 100.0),), ionization_limit_cm1=1000.0, ell=1)
    with pytest.raises(SchemeError, match="strictly increasing"):
        RydbergSeries(members=((3, 100.0), (3, 200.0)),
                      ionization_limit_cm1=1000.0, ell=1)
    with pytest.raises(SchemeError, match="above the ionization limit"):
        RydbergSeries(members=((3, 1000.0),), ionization_limit_cm1=1000.0, ell=1)
    with pytest.raises(SchemeError, match="core charge"):
        RydbergSeries(members=((3, 100.0),), ionization_limit_cm1=1000.0,
                      ell=1, core_charge=0)


@pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
def test_series_refuses_a_non_finite_member_energy(energy):
    with pytest.raises(SchemeError) as err:
        RydbergSeries(members=((6, energy), (7, 0.0)), ionization_limit_cm1=1.0, ell=1)
    assert str(err.value) == f"series member n=6 energy must be finite, got {energy}"


def test_series_file_round_trip(tmp_path):
    path = tmp_path / "series.tsv"
    path.write_text("# comment\n\n5\t1000.5\n6 2000.25\n", encoding="utf-8")
    series = load_series_file(str(path), ionization_limit_cm1=5000.0, ell=1)
    assert series.members == ((5, 1000.5), (6, 2000.25))
    assert series.core_charge == 1


def test_series_file_errors(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("5 1000.5\n6 2000.25 extra\n", encoding="utf-8")
    with pytest.raises(SchemeError, match="line 2"):
        load_series_file(str(bad), 5000.0, 1)
    nan = tmp_path / "nan.tsv"
    nan.write_text("five 1000.5\n", encoding="utf-8")
    with pytest.raises(SchemeError, match="line 1"):
        load_series_file(str(nan), 5000.0, 1)
    empty = tmp_path / "empty.tsv"
    empty.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(SchemeError, match="no data rows"):
        load_series_file(str(empty), 5000.0, 1)


@pytest.mark.parametrize("text,message", [
    ("5 1000.5\n6 2000.25 extra\n",
     "line 2: expected 'n energy_cm1', got '6 2000.25 extra'"),
    ("five 1000.5\n",
     "line 1: n must be an integer in the floating-point range, got 'five'"),
    ("# a note\n\n5 1000.5\n6 2000.x\n", "line 4: energy must be finite, got '2000.x'"),
], ids=["column-count", "n-number", "energy-number"])
def test_series_file_refusals_keep_their_wording(tmp_path, text, message):
    path = tmp_path / "series.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemeError) as caught:
        load_series_file(str(path), 5000.0, 1)
    assert str(caught.value) == message


def test_bundled_table_files_carry_provenance_headers():
    # The shipped series table and coefficient rows must say where their
    # numbers come from; a bare number table is not reviewable.
    from importlib import resources

    text = resources.files("ybion").joinpath("data", "yb2_p_series.tsv").read_text("utf-8")
    header = [ln for ln in text.splitlines() if ln.startswith("#")]
    assert any("source:" in ln or "NIST" in ln or "pinned" in ln for ln in header)
    for model, citation in (("burgess", "Burgess & Seaton"), ("peach", "Peach")):
        assert citation in COEFFICIENT_TABLES[model][-1], model
