"""Two-ion crystal mechanics against independent numerical oracles."""

import math
import re

import numpy as np
import pytest
import scipy.constants as sc
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from ybion.constants import YB174_MASS_KG
from ybion.crystal import (
    ChargePair,
    CrystalState,
    TrapAxis,
    crystal_state,
    displacement_ratio,
    equilibrium_positions,
    infer_charge,
    infer_eta,
    normal_mode_frequencies,
)
from ybion.errors import SchemeError, SolverError

NU1_HZ = 474e3

etas = st.floats(min_value=1.0, max_value=5.0)
charges_q2 = st.floats(min_value=1.0, max_value=5.0)


def brute_force_positions(trap, charges):
    """Minimize the axial two-ion potential directly.

    Works in units of (Q / (M w1^2))^(1/3) so the optimizer sees O(1)
    numbers, then polishes derivative-free so nothing but the potential
    itself defines the answer. Constants come from scipy, not the package.
    """
    q_si = charges.q2 * sc.e**2 / (4.0 * math.pi * sc.epsilon_0)
    scale = (q_si / (YB174_MASS_KG * trap.omega1**2)) ** (1.0 / 3.0)
    eta2 = trap.eta**2

    def potential(y):
        y1, y2 = y
        if y1 - y2 < 1e-9:
            return 1e12 * (1.0 + y2 - y1)
        return 0.5 * y1**2 + 0.5 * eta2 * y2**2 + 1.0 / (y1 - y2)

    def gradient(y):
        y1, y2 = y
        inv_d2 = 1.0 / (y1 - y2) ** 2
        return np.array([y1 - inv_d2, eta2 * y2 + inv_d2])

    def hessian(y):
        y1, y2 = y
        curvature = 2.0 / (y1 - y2) ** 3
        return np.array([[1.0 + curvature, -curvature],
                         [-curvature, eta2 + curvature]])

    rough = minimize(potential, x0=np.array([1.0, -0.5]), jac=gradient,
                     method="BFGS", options={"gtol": 1e-13, "maxiter": 500})
    y = rough.x
    for _ in range(8):
        step = np.linalg.solve(hessian(y), gradient(y))
        y = y - step
        if float(np.abs(step).max()) < 1e-15:
            break
    y1, y2 = y
    return float(y1 * scale), float(y2 * scale)


def stiffness_matrix(trap, charges):
    """Analytic second-derivative matrix of the potential at equilibrium."""
    q_si = charges.q2 * sc.e**2 / (4.0 * math.pi * sc.epsilon_0)
    x1, x2 = equilibrium_positions(trap, charges)
    d3 = (x1 - x2) ** 3
    m = YB174_MASS_KG
    w1 = trap.omega1
    w2 = trap.eta * w1
    coupling = 2.0 * q_si / d3
    return np.array([
        [m * w1**2 + coupling, -coupling],
        [-coupling, m * w2**2 + coupling],
    ])


# -- equilibrium positions ----------------------------------------------------------


def test_positions_match_direct_minimization_sample():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(60):
        trap = TrapAxis(nu1_hz=rng.uniform(1e5, 2e6), eta=rng.uniform(1.0, 5.0))
        charges = ChargePair(q2=rng.uniform(0.5, 4.0))
        x1, x2 = equilibrium_positions(trap, charges)
        b1, b2 = brute_force_positions(trap, charges)
        worst = max(worst, abs(x1 - b1) / abs(b1), abs(x2 - b2) / abs(b2))
    assert worst <= 1e-10


def test_equal_ions_sit_symmetrically():
    trap = TrapAxis(nu1_hz=NU1_HZ, eta=1.0)
    x1, x2 = equilibrium_positions(trap, ChargePair(q2=1.0))
    assert x1 == pytest.approx(-x2, rel=1e-14)
    b1, b2 = brute_force_positions(trap, ChargePair(q2=1.0))
    assert x1 == pytest.approx(b1, rel=1e-10)
    assert x2 == pytest.approx(b2, rel=1e-10)


def test_doubly_charged_companion_at_eta_two():
    trap = TrapAxis(nu1_hz=NU1_HZ, eta=2.0)
    x1, x2 = equilibrium_positions(trap, ChargePair(q2=2.0))
    assert x2 == pytest.approx(-x1 / 4.0, rel=1e-14)


def test_charge_doubling_scales_x1_by_cube_root_of_two():
    trap = TrapAxis(nu1_hz=NU1_HZ, eta=1.7)
    x1_single, _ = equilibrium_positions(trap, ChargePair(q2=1.3))
    x1_double, _ = equilibrium_positions(trap, ChargePair(q2=2.6))
    assert x1_double == pytest.approx(x1_single * 2.0 ** (1.0 / 3.0), rel=1e-13)


# -- displacement ratio and charge inference ----------------------------------------


def test_ratio_identity_point():
    assert displacement_ratio(1.0, 1.0) == 1.0


def test_ratio_doubled_charge_doubled_eta():
    ratio = displacement_ratio(2.0, 2.0)
    assert ratio == pytest.approx(1.7235, abs=1e-4)
    assert ratio == pytest.approx(1.723547752025507, rel=1e-12)


def test_ratio_at_inferred_eta():
    assert displacement_ratio(2.07, 2.0) == pytest.approx(1.739, abs=1e-3)


def test_ratio_consistent_with_positions():
    # the closed form must reproduce the ratio of actual equilibria
    trap_ref = TrapAxis(nu1_hz=NU1_HZ, eta=1.0)
    x1_ref, _ = equilibrium_positions(trap_ref, ChargePair(q2=1.0))
    trap = TrapAxis(nu1_hz=NU1_HZ, eta=2.4)
    x1, _ = equilibrium_positions(trap, ChargePair(q2=1.9))
    assert displacement_ratio(2.4, 1.9) == pytest.approx(x1 / x1_ref, rel=1e-12)


def test_infer_charge_reference_point():
    q2 = infer_charge(1.74, 2.135)
    assert q2 == pytest.approx(1.96, abs=0.01)
    assert q2 == pytest.approx(1.95825156650153, rel=1e-10)


def test_infer_charge_identity():
    assert infer_charge(1.0, 1.0) == 1.0


def test_infer_charge_inverts_ratio_example():
    ratio = displacement_ratio(2.0, 2.0)
    assert infer_charge(ratio, 2.0) == pytest.approx(2.0, abs=1e-6)
    # the rounded headline ratio lands close but not exactly on 2
    assert infer_charge(1.7235, 2.0) == pytest.approx(2.0, abs=5e-4)


@given(eta=etas, q2=charges_q2)
@settings(max_examples=120)
def test_charge_round_trip(eta, q2):
    assert infer_charge(displacement_ratio(eta, q2), eta) == pytest.approx(
        q2, rel=1e-9)


# -- normal modes -------------------------------------------------------------------


def test_equal_ion_mode_frequencies():
    trap = TrapAxis(nu1_hz=NU1_HZ, eta=1.0)
    nu_com, nu_bre = normal_mode_frequencies(trap)
    assert nu_com == NU1_HZ
    assert nu_bre == pytest.approx(math.sqrt(3.0) * NU1_HZ, rel=1e-14)


def test_reference_mode_frequencies():
    trap = TrapAxis(nu1_hz=NU1_HZ, eta=2.13)
    nu_com, nu_bre = normal_mode_frequencies(trap)
    assert nu_com == pytest.approx(669.7e3, rel=1e-3)
    assert nu_bre == pytest.approx(1237.7e3, rel=1e-3)
    assert nu_com == pytest.approx(669702.236241193, rel=1e-12)
    assert nu_bre == pytest.approx(1237699.356174078, rel=1e-12)


def test_modes_match_stiffness_eigenvalues_sample():
    rng = np.random.default_rng(11)
    for _ in range(40):
        trap = TrapAxis(nu1_hz=rng.uniform(1e5, 2e6), eta=rng.uniform(1.0, 5.0))
        charges = ChargePair(q2=rng.uniform(0.5, 4.0))
        nu_com, nu_bre = normal_mode_frequencies(trap)
        eigs = np.linalg.eigvalsh(stiffness_matrix(trap, charges))
        expected = YB174_MASS_KG * (2.0 * np.pi) ** 2 * np.array(
            [nu_com**2, nu_bre**2])
        assert np.allclose(eigs, expected, rtol=1e-9, atol=0.0)


@given(eta=st.floats(min_value=0.05, max_value=10.0))
@settings(max_examples=100)
def test_mode_ordering(eta):
    nu_com, nu_bre = normal_mode_frequencies(TrapAxis(nu1_hz=NU1_HZ, eta=eta))
    assert nu_bre > nu_com > 0


@given(eta_pair=st.tuples(st.floats(min_value=1.0, max_value=10.0),
                          st.floats(min_value=1.0, max_value=10.0)))
@settings(max_examples=80)
def test_modes_monotone_in_eta(eta_pair):
    lo, hi = sorted(eta_pair)
    if hi - lo < 1e-9:
        return
    com_lo, bre_lo = normal_mode_frequencies(TrapAxis(nu1_hz=NU1_HZ, eta=lo))
    com_hi, bre_hi = normal_mode_frequencies(TrapAxis(nu1_hz=NU1_HZ, eta=hi))
    assert com_hi > com_lo
    assert bre_hi > bre_lo


# -- eta inference ------------------------------------------------------------------


def test_infer_eta_trivial_endpoints():
    assert infer_eta(NU1_HZ, NU1_HZ, "com") == 1.0
    assert infer_eta(math.sqrt(3.0) * NU1_HZ, NU1_HZ, "bre") == 1.0


def test_infer_eta_reference_measurement():
    eta = infer_eta(669.7e3, NU1_HZ, "com")
    assert eta == pytest.approx(2.13, abs=0.01)


@given(eta=etas)
@settings(max_examples=80)
def test_eta_round_trip_both_modes(eta):
    trap = TrapAxis(nu1_hz=NU1_HZ, eta=eta)
    nu_com, nu_bre = normal_mode_frequencies(trap)
    assert infer_eta(nu_com, NU1_HZ, "com") == pytest.approx(eta, abs=1e-6)
    assert infer_eta(nu_bre, NU1_HZ, "bre") == pytest.approx(eta, abs=1e-6)


def test_eta_round_trip_to_1e12():
    # closed-form inverse: both modes over [1, 10), with points close to
    # both ends of the range
    etas_grid = np.concatenate([np.linspace(1.0, 10.0, 2000, endpoint=False),
                                1.0 + np.logspace(-12, -1, 50),
                                10.0 - np.logspace(-10, -1, 50)])
    for eta in etas_grid.tolist():
        nu_com, nu_bre = normal_mode_frequencies(TrapAxis(nu1_hz=NU1_HZ, eta=eta))
        assert infer_eta(nu_com, NU1_HZ, "com") == pytest.approx(eta, rel=1e-12)
        assert infer_eta(nu_bre, NU1_HZ, "bre") == pytest.approx(eta, rel=1e-12)


def test_infer_eta_upper_endpoint():
    nu_com, nu_bre = normal_mode_frequencies(TrapAxis(nu1_hz=NU1_HZ, eta=10.0))
    assert infer_eta(nu_com, NU1_HZ, "com") == 10.0
    assert infer_eta(nu_bre, NU1_HZ, "bre") == 10.0


def test_infer_eta_out_of_range():
    with pytest.raises(SolverError, match="below the eta = 1 value"):
        infer_eta(0.5 * NU1_HZ, NU1_HZ, "com")
    with pytest.raises(SolverError, match="exceeds the eta = 10 value"):
        infer_eta(50 * NU1_HZ, NU1_HZ, "com")
    with pytest.raises(SolverError, match="mode must be"):
        infer_eta(NU1_HZ, NU1_HZ, "stretch")
    with pytest.raises(SolverError, match="positive"):
        infer_eta(-NU1_HZ, NU1_HZ, "com")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_infer_eta_rejects_non_finite(bad):
    with pytest.raises(SolverError, match="finite"):
        infer_eta(bad, NU1_HZ, "bre")
    with pytest.raises(SolverError, match="finite"):
        infer_eta(NU1_HZ, bad, "com")


# -- bundled state and type invariants ----------------------------------------------


def test_crystal_state_bundles_consistently():
    trap = TrapAxis(nu1_hz=NU1_HZ, eta=2.13)
    charges = ChargePair(q2=2.0)
    state = crystal_state(trap, charges)
    assert (state.x1_m, state.x2_m) == equilibrium_positions(trap, charges)
    assert (state.nu_com_hz, state.nu_bre_hz) == normal_mode_frequencies(trap)


def test_type_invariants():
    with pytest.raises(SchemeError):
        TrapAxis(nu1_hz=0.0, eta=1.0)
    with pytest.raises(SchemeError):
        TrapAxis(nu1_hz=NU1_HZ, eta=-2.0)
    with pytest.raises(SchemeError):
        ChargePair(q2=0.0)
    with pytest.raises(SchemeError):
        CrystalState(x1_m=-1e-6, x2_m=-2e-6, nu_com_hz=1e5, nu_bre_hz=2e5)
    with pytest.raises(SchemeError):
        CrystalState(x1_m=1e-6, x2_m=-2e-6, nu_com_hz=2e5, nu_bre_hz=1e5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_types_reject_non_finite(bad):
    with pytest.raises(SchemeError, match="finite"):
        TrapAxis(nu1_hz=bad, eta=1.0)
    with pytest.raises(SchemeError, match="finite"):
        TrapAxis(nu1_hz=NU1_HZ, eta=bad)
    with pytest.raises(SchemeError, match="finite"):
        ChargePair(q2=bad)


def test_extreme_inputs_do_not_raise_arithmetic_errors():
    # far outside any real trap, the forward forms saturate or refuse a
    # result that underflows to 0 instead of raising OverflowError or
    # ZeroDivisionError
    for eta in (1e-200, 1e100):
        nu_com, nu_bre = normal_mode_frequencies(TrapAxis(nu1_hz=NU1_HZ, eta=eta))
        assert 0.0 <= nu_com < nu_bre < math.inf
    assert infer_charge(1.7, 1e200) == pytest.approx(1.7**3 / 4.0)
    with pytest.raises(SchemeError, match=re.escape(
            "displacement ratio lies outside the floating-point range for "
            "eta = 1e-200, q2 = 2.0")):
        displacement_ratio(1e-200, 2.0)
    with pytest.raises(SchemeError, match=re.escape(
            "equilibrium position X1 lies outside the floating-point range for "
            "nu1_hz = 1e+300, eta = 2.0, q2 = 2.0")):
        equilibrium_positions(TrapAxis(nu1_hz=1e300, eta=2.0), ChargePair(q2=2.0))


def test_overflowing_results_are_domain_errors():
    # finite inputs whose result leaves the floating-point range
    with pytest.raises(SchemeError, match=re.escape(
            "equilibrium position X1 lies outside the floating-point range for "
            "nu1_hz = 1e-300, eta = 2.0, q2 = 1e+200")):
        equilibrium_positions(TrapAxis(nu1_hz=1e-300, eta=2.0), ChargePair(q2=1e200))
    with pytest.raises(SchemeError, match=re.escape(
            "displacement ratio lies outside the floating-point range for "
            "eta = 1.0, q2 = 1e+308")):
        displacement_ratio(1.0, 1e308)
    with pytest.raises(SchemeError, match=re.escape(
            "inferred q2 lies outside the floating-point range for "
            "ratio = 1e+300, eta = 2.0")):
        infer_charge(1e300, 2.0)


def test_ratio_and_charge_preconditions():
    with pytest.raises(SchemeError):
        displacement_ratio(0.0, 1.0)
    with pytest.raises(SchemeError):
        displacement_ratio(2.0, -1.0)
    with pytest.raises(SchemeError):
        infer_charge(-1.0, 2.0)


def test_infer_charge_refuses_a_bad_eta():
    with pytest.raises(SchemeError) as caught:
        infer_charge(1.74, -2.0)
    assert str(caught.value) == "eta must be positive and finite, got -2.0"


def outcome(f, *args):
    """f(*args) with its type, or the type and text of its refusal."""
    try:
        value = f(*args)
        return type(value), value
    except (SchemeError, SolverError) as exc:
        return type(exc), str(exc)


INVERSE_CALLS = [
    (infer_charge, (1e300, 2.0)),
    (infer_charge, (1e-300, 2.0)),
    (infer_charge, (1.74, 2.135)),
    (infer_charge, (math.nan, 2.0)),
    (displacement_ratio, (1e-200, 2.0)),
    (displacement_ratio, (2.0, 1e308)),
    (displacement_ratio, (2.135, 2.0)),
    (displacement_ratio, (math.inf, 2.0)),
    (infer_eta, (1e300, 1e-300, "com")),
    (infer_eta, (1e-300, 1e300, "bre")),
    (infer_eta, (669.7e3, NU1_HZ, "com")),
    (infer_eta, (0.0, NU1_HZ, "com")),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [np.float64, np.float32])
@pytest.mark.parametrize("f,args", INVERSE_CALLS)
def test_crystal_inverses_treat_numpy_scalars_as_python_floats(f, args, kind):
    # each number as a NumPy scalar (a float32 cast may round to 0 or inf),
    # and as the Python float that scalar holds
    with np.errstate(over="ignore"):
        scalars = [kind(a) if isinstance(a, float) else a for a in args]
    floats = [float(a) if isinstance(a, kind) else a for a in scalars]
    assert outcome(f, *scalars) == outcome(f, *floats)
