"""Two-ion mixed-charge crystal: positions, modes, and inverse problems.

A singly charged bright ion (index 1) shares a linear trap axis with a
companion of unknown charge q2 (index 2). Both ions have the 174Yb mass M.
The trap is characterized not by its voltages but by two measurables: the
axial secular frequency nu1 a single singly charged ion would have, and the
ratio eta = nu2/nu1 of the companion's single-particle frequency to it.
eta is an input, never derived from q2: static stray fields shift it away
from the pure-RF expectation, and those fields are not modeled here.

Closed forms used throughout (Q = q2 e^2 / (4 pi eps0), the Coulomb
constant of charges 1 and q2; w1 = 2 pi nu1):

    X1^3 = Q / ((1 + eta^-2)^2 M w1^2)        X2 = -eta^-2 X1

    u_pm = (eta^4 + 6 eta^2 + 1 +- sqrt(eta^8 + 14 eta^4 + 1))
           / (2 eta^2 + 2)

    nu_com = nu1 sqrt(u_minus)      nu_bre = nu1 sqrt(u_plus)

u_pm are the normal-mode eigenvalues in units of w1^2, so the mode
frequencies carry a square root. That placement is confirmed against an
independent stiffness-matrix eigenvalue computation in the test suite: at
eta = 1 the breathing mode must come out at sqrt(3) nu1, not 3 nu1.

The two inverse problems mirror the verification protocol: infer_eta
recovers eta from one measured mode frequency, and infer_charge recovers
q2 from the normalized displacement of the bright ion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import ELEMENTARY_CHARGE_C, VACUUM_PERMITTIVITY_F_M, YB174_MASS_KG
from .errors import SolverError, check, representable

__all__ = [
    "TrapAxis",
    "ChargePair",
    "equilibrium_positions",
    "displacement_ratio",
    "normal_mode_frequencies",
    "infer_eta",
    "infer_charge",
]

ETA_BRACKET = (1.0, 10.0)


@dataclass(frozen=True)
class TrapAxis:
    """Axial trap seen by the ion pair.

    nu1_hz is the secular frequency of a single singly charged 174Yb ion;
    eta scales it to the companion's single-particle frequency.
    """

    nu1_hz: float
    eta: float

    def __post_init__(self):
        check("nu1_hz", self.nu1_hz, "(0, inf)")
        check("eta", self.eta, "(0, inf)")

    @property
    def omega1(self) -> float:
        return 2.0 * math.pi * self.nu1_hz


@dataclass(frozen=True)
class ChargePair:
    """Charge q2 of the companion in units of e; ion 1 is the bright singly
    charged reference."""

    q2: float

    def __post_init__(self):
        check("q2", self.q2, "(0, inf)")


def _inv_square(value: float) -> float:
    """1 / value^2 that saturates to inf or 0 instead of raising."""
    inv = 1.0 / value
    return inv * inv


def equilibrium_positions(trap: TrapAxis, charges: ChargePair) -> tuple[float, float]:
    """Equilibrium positions (X1, X2) in meters, X1 > 0 > X2."""
    q = charges.q2 * ELEMENTARY_CHARGE_C**2 / (4.0 * math.pi * VACUUM_PERMITTIVITY_F_M)
    inv_eta2 = _inv_square(trap.eta)
    scale = 1.0 + inv_eta2
    stiffness = scale * scale * YB174_MASS_KG * trap.omega1 * trap.omega1
    inputs = dict(nu1_hz=trap.nu1_hz, eta=trap.eta, q2=charges.q2)
    # stiffness underflows to 0 for nu1 below about 1e-150 Hz
    x1 = representable("equilibrium position X1",
                       lambda: (q / stiffness) ** (1.0 / 3.0), "(0, inf)", **inputs)
    x2 = representable("equilibrium position |X2|", inv_eta2 * x1, "(0, inf)", **inputs)
    return float(x1), -float(x2)


def displacement_ratio(eta: float, q2: float) -> float:
    """X1(eta, q2) normalized to the equal-charge equal-frequency crystal,
    positive.

    Closed form (4 q2 / (1 + eta^-2)^2)^(1/3); the cube root makes this a
    weak function of q2, which is why inverting it amplifies measurement
    noise threefold (see infer_charge).
    """
    eta, q2 = float(eta), float(q2)  # a NumPy scalar acts as its Python float
    if not (0.0 < eta < math.inf and 0.0 < q2 < math.inf):
        check("eta", eta, "(0, inf)")
        check("q2", q2, "(0, inf)")
    scale = 1.0 + _inv_square(eta)
    ratio = (4.0 * q2 / (scale * scale)) ** (1.0 / 3.0)
    if not 0.0 < ratio < math.inf:
        representable("displacement ratio", ratio, "(0, inf)", eta=eta, q2=q2)
    return ratio


def _mode_eigenvalues(eta: float) -> tuple[float, float]:
    """(u_minus, u_plus): squared mode frequencies in units of omega1^2.

    The closed form above, rearranged with x = eta^2: u_plus + u_minus =
    x + 5 - 4/(x + 1), u_plus - u_minus = hypot(x - 1, 4 x/(x + 1)) and
    u_plus u_minus = 3x. Taking u_minus = 3x / u_plus avoids the
    cancellation of base - root, and no intermediate overflows before
    u_plus itself does.
    """
    x = eta * eta
    w = x / (x + 1.0)
    u_plus = 0.5 * (x + 5.0 - 4.0 / (x + 1.0) + math.hypot(x - 1.0, 4.0 * w))
    return 3.0 * x / u_plus, u_plus


# mode -> ((eta, u, 4 ulps of u) at ETA_BRACKET[0], the same at ETA_BRACKET[1]),
# computed once for infer_eta's endpoint snaps and range checks.
_ENDPOINTS = {
    mode: tuple((eta, u, 4.0 * math.ulp(u)) for eta, u in zip(ETA_BRACKET, us))
    for mode, us in zip(("com", "bre"), zip(*map(_mode_eigenvalues, ETA_BRACKET)))
}


def normal_mode_frequencies(trap: TrapAxis) -> tuple[float, float]:
    """(nu_com, nu_bre) in Hz for the two axial modes, nu_com <= nu_bre.

    A frequency that overflows is refused; nu_com, about sqrt(3) eta nu1
    at small eta, may underflow to 0 and is returned as it is. nu_com <
    nu_bre wherever nu_bre is a normal float; two subnormals may round to
    the same float, as TrapAxis(5e-324, 0.5) gives (5e-324, 5e-324).
    """
    u_minus, u_plus = _mode_eigenvalues(trap.eta)
    # Python floats: an overflowing product is inf, without a numpy warning.
    nu1 = float(trap.nu1_hz)
    nu_com, nu_bre = nu1 * math.sqrt(u_minus), nu1 * math.sqrt(u_plus)
    if not (0.0 <= nu_com < math.inf and 0.0 <= nu_bre < math.inf):
        for what, nu in (("nu_com", nu_com), ("nu_bre", nu_bre)):
            representable(f"mode frequency {what}", nu, nu1_hz=trap.nu1_hz, eta=trap.eta)
    return nu_com, nu_bre


def infer_eta(nu_measured_hz: float, nu1_hz: float, mode: str) -> float:
    """Invert one measured mode frequency to eta on the range [1, 10].

    With x = eta^2, the mode eigenvalues satisfy u_plus u_minus = 3 x and
    u_plus + u_minus = (x^2 + 6 x + 1) / (x + 1), so one measured
    u = (nu / nu1)^2 of either mode solves

        (3 - u) x^2 + (u^2 - 6 u + 3) x + u (u - 1) = 0,

    whose discriminant is ((u - 1)(u - 3))^2 + (2 u)^2. Both eigenvalues
    are strictly increasing in eta, so exactly one root has x >= 1: the
    larger root for "com" (u < 3) and the positive one for "bre" (u >= 3).
    It is taken from the cancellation-free pair q / a, c / q. Measurements
    below the eta = 1 endpoint (nu1 for "com", sqrt(3) nu1 for "bre") or
    beyond the eta = 10 endpoint are rejected. A u within 4 ulps of an
    endpoint eigenvalue returns that endpoint, so endpoint inputs that
    land a rounding error off still give exactly 1 or 10.
    """
    endpoints = _ENDPOINTS.get(mode)
    if endpoints is None:
        raise SolverError(f"mode must be 'com' or 'bre', got {mode!r}")
    # as in displacement_ratio
    nu_measured_hz, nu1_hz = float(nu_measured_hz), float(nu1_hz)
    if not (0.0 < nu_measured_hz < math.inf and 0.0 < nu1_hz < math.inf):
        check("nu_measured_hz", nu_measured_hz, "(0, inf)", error=SolverError)
        check("nu1_hz", nu1_hz, "(0, inf)", error=SolverError)
    ratio = nu_measured_hz / nu1_hz
    u = ratio * ratio
    (lo, u_lo, tol_lo), (hi, u_hi, tol_hi) = endpoints
    if abs(u - u_lo) <= tol_lo:
        return lo
    if abs(u - u_hi) <= tol_hi:
        return hi
    if u < u_lo:
        raise SolverError(
            f"measured {mode} frequency {nu_measured_hz} Hz lies below the "
            f"eta = 1 value {nu1_hz * math.sqrt(u_lo)} Hz"
        )
    if u > u_hi:
        raise SolverError(
            f"measured {mode} frequency {nu_measured_hz} Hz exceeds the "
            f"eta = {hi:.0f} value {nu1_hz * math.sqrt(u_hi)} Hz"
        )
    a = 3.0 - u
    b = u * u - 6.0 * u + 3.0
    c = u * (u - 1.0)
    q = -0.5 * (b + math.copysign(math.hypot((u - 1.0) * (u - 3.0), 2.0 * u), b))
    # a = 3 - u is nonzero here: u = 3 is the "bre" eta = 1 endpoint.
    return math.sqrt(max(c / q, q / a))


def infer_charge(ratio: float, eta: float) -> float:
    """q2 in units of e, positive, from the measured displacement ratio at
    known eta.

    Exact inverse of displacement_ratio: q2 = ratio^3 (1 + eta^-2)^2 / 4.
    The cube propagates a relative error in the ratio threefold into q2.
    """
    ratio, eta = float(ratio), float(eta)  # as in displacement_ratio
    if not (0.0 < ratio < math.inf and 0.0 < eta < math.inf):
        check("ratio", ratio, "(0, inf)")
        check("eta", eta, "(0, inf)")
    scale = 1.0 + _inv_square(eta)
    q2 = ratio * ratio * ratio * scale * scale / 4.0
    if not 0.0 < q2 < math.inf:
        representable("inferred q2", q2, "(0, inf)", ratio=ratio, eta=eta)
    return q2
