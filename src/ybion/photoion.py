"""Photoionization step: beam flux, ionization rate, and cross sections.

The ionization rate out of the excited 7p level is the product of three
factors, each measurable on its own:

    R = p_excited * sigma * F

with p_excited the steady-state upper-level population from the rate model,
sigma the one-photon ionization cross section of that level, and F the
photon flux of the ionizing beam. For a Gaussian beam the ion samples the
on-axis peak intensity 2P/(pi w0^2), so for fixed waist the rate per unit
power is a single coefficient

    R / P = p_excited * sigma * 2 / (pi * w0^2 * E_photon)

and rate_coefficient() returns the waist-independent part
p_excited * sigma * 2 / (pi * E_photon) in m^2/J.

Cross sections come in three flavors: a parameter-free hydrogenic (Kramers)
estimate evaluated from the effective quantum number of the ionizing level,
and two coefficient-table parametrizations (model tags "burgess" and
"peach") read from data files shipped with the package. Effective quantum
numbers follow the binding-energy convention n* = sqrt(R / (limit - E)), so
the ionization threshold from a level is R / n*^2 regardless of the core
charge seen by the escaping electron.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .constants import (
    CONSTANTS,
    MEGABARN_M2,
    RYDBERG_EV,
    RYDBERG_YB174_CM1,
    photon_energy_j,
)
from .errors import SchemeError, SolverError

__all__ = [
    "GaussianBeam",
    "CrossSection",
    "RydbergSeries",
    "photon_flux",
    "ionization_rate",
    "rate_coefficient",
    "effective_quantum_number",
    "fit_quantum_defect",
    "cross_section",
    "load_series_file",
    "bundled_series_path",
]

CROSS_SECTION_MODELS = ("hydrogenic", "burgess", "peach", "user")
DEFECT_GRID_POINTS = 2048

# Kramers threshold cross section of hydrogen 1s: 64/(3 sqrt(3)) alpha pi a0^2.
SIGMA_KRAMERS_M2 = (
    64.0 / (3.0 * np.sqrt(3.0))
    * CONSTANTS.fine_structure
    * np.pi
    * CONSTANTS.bohr_radius**2
)


@dataclass(frozen=True)
class GaussianBeam:
    """Focused Gaussian beam: power, 1/e^2 intensity waist radius, color."""

    power_w: float
    waist_m: float
    wavelength_nm: float

    def __post_init__(self):
        if not 0.0 <= self.power_w < math.inf:
            raise SchemeError(
                f"beam power must be >= 0 and finite, got {self.power_w} W")
        if not 0.0 < self.waist_m < math.inf:
            raise SchemeError(
                f"beam waist must be positive and finite, got {self.waist_m} m")
        if not 0.0 < self.wavelength_nm < math.inf:
            raise SchemeError(
                f"beam wavelength must be positive and finite, got {self.wavelength_nm} nm")
        # waist_m**2 underflows to 0 below about 1e-162 m and overflows
        # above about 1e154 m; the quotient can also overflow or underflow.
        try:
            intensity = self.peak_intensity_w_m2
        except (ZeroDivisionError, OverflowError):
            intensity = math.nan
        if not intensity < math.inf or intensity == 0.0 < self.power_w:
            raise SchemeError(
                f"beam waist_m = {self.waist_m} m with power_w = {self.power_w} W "
                "puts the peak intensity 2 power_w / (pi waist_m^2) outside "
                "the floating-point range")

    @property
    def peak_intensity_w_m2(self) -> float:
        """On-axis intensity 2P/(pi w0^2) at the focus."""
        return 2.0 * self.power_w / (np.pi * self.waist_m**2)


@dataclass(frozen=True)
class CrossSection:
    """A photoionization cross section in m^2 with its model tag."""

    value_m2: float
    model: str

    def __post_init__(self):
        # keep a plain float so serialized values round-trip through text
        object.__setattr__(self, "value_m2", float(self.value_m2))
        if not 0.0 <= self.value_m2 < math.inf:
            raise SchemeError(
                f"cross section must be >= 0 and finite, got {self.value_m2} m^2")
        if self.model not in CROSS_SECTION_MODELS:
            raise SchemeError(
                f"unknown cross-section model {self.model!r}; "
                f"expected one of {CROSS_SECTION_MODELS}"
            )

    @property
    def megabarn(self) -> float:
        return self.value_m2 / MEGABARN_M2

    @classmethod
    def from_megabarn(cls, value_mb: float, model: str = "user") -> "CrossSection":
        return cls(value_m2=value_mb * MEGABARN_M2, model=model)


@dataclass(frozen=True)
class RydbergSeries:
    """Bound members (n, energy in cm^-1) converging to an ionization limit.

    core_charge is the net charge of the core seen by the escaping electron
    (1 for a neutral parent, 2 when ionizing a singly charged ion); it only
    enters the quantum-defect fit, where the series energies follow
    E_n = limit - core_charge^2 R / (n - mu)^2.
    """

    members: tuple[tuple[int, float], ...]
    ionization_limit_cm1: float
    ell: int
    core_charge: int = 1

    def __post_init__(self):
        if self.ell < 0:
            raise SchemeError("orbital angular momentum must be >= 0")
        if self.core_charge < 1:
            raise SchemeError("core charge must be >= 1")
        last_n = None
        for n, energy in self.members:
            if n <= self.ell:
                raise SchemeError(f"series member n={n} must exceed ell={self.ell}")
            if last_n is not None and n <= last_n:
                raise SchemeError("series members must have strictly increasing n")
            if energy >= self.ionization_limit_cm1:
                raise SchemeError(
                    f"series member n={n} lies at or above the ionization limit"
                )
            last_n = n


def photon_flux(beam: GaussianBeam) -> float:
    """Peak on-axis photon flux of the beam in photons / (m^2 s)."""
    flux = beam.peak_intensity_w_m2 / photon_energy_j(beam.wavelength_nm)
    if not flux < math.inf:
        raise SchemeError(
            f"beam power_w = {beam.power_w} W on waist_m = {beam.waist_m} m at "
            f"{beam.wavelength_nm} nm puts the photon flux outside the "
            "floating-point range")
    return flux


def ionization_rate(p_excited: float, sigma: CrossSection, flux_m2s: float) -> float:
    """One-photon ionization rate R = p * sigma * F in 1/s."""
    if not 0.0 <= p_excited <= 1.0:
        raise SchemeError("excited-state population must lie in [0, 1]")
    if not 0.0 <= flux_m2s < math.inf:
        raise SchemeError(f"photon flux must be >= 0 and finite, got {flux_m2s}")
    rate = p_excited * sigma.value_m2 * flux_m2s
    if not rate < math.inf:
        raise SchemeError(
            f"ionization rate p_excited * sigma * flux overflows: p_excited = "
            f"{p_excited}, sigma = {sigma.value_m2} m^2, flux = {flux_m2s} m^-2 s^-1")
    return rate


def rate_coefficient(
    p_excited: float, sigma: CrossSection, wavelength_nm: float
) -> float:
    """Waist-independent rate-per-power coefficient in m^2/J.

    Multiply by power in W and divide by waist^2 in m^2 to recover the
    ionization rate for a peak-intensity Gaussian beam geometry.
    """
    if not 0.0 <= p_excited <= 1.0:
        raise SchemeError("excited-state population must lie in [0, 1]")
    return (
        p_excited * sigma.value_m2 * 2.0
        / (np.pi * photon_energy_j(wavelength_nm))
    )


def effective_quantum_number(
    energy_cm1: float,
    ionization_limit_cm1: float,
    rydberg_cm1: float = RYDBERG_YB174_CM1,
) -> float:
    """n* = sqrt(R / (limit - E)) for a bound level.

    The default Rydberg constant is mass-corrected for 174Yb. The returned
    value encodes the binding energy alone; the threshold photon energy for
    ionization out of the level is R / n*^2.
    """
    gap = ionization_limit_cm1 - energy_cm1
    if gap <= 0:
        raise SolverError(
            "level energy must lie below the ionization limit "
            f"(limit - E = {gap!r} cm^-1)"
        )
    return float(np.sqrt(rydberg_cm1 / gap))


def fit_quantum_defect(series: RydbergSeries) -> tuple[float, float]:
    """Least-squares quantum defect of a series.

    Fits E_n = limit - Z^2 R / (n - mu)^2 over the members with a single
    defect mu and returns (mu, max absolute residual in cm^-1). Needs at
    least two members. mu is constrained to [0, n_min); a fit pushing
    against the upper bound is rejected as unphysical. The sum of squares
    is evaluated at DEFECT_GRID_POINTS values of mu whose distances to n_min
    run geometrically from n_min (mu = 0) down to 1e-9, so the grid also
    resolves the steep approach to the bound; Newton steps then polish the
    best grid point.
    """
    if len(series.members) < 2:
        raise SolverError("quantum-defect fit needs at least two series members")
    ns = np.array([n for n, _ in series.members], dtype=float)
    energies = np.array([e for _, e in series.members])
    z2r = series.core_charge**2 * RYDBERG_YB174_CM1
    limit = series.ionization_limit_cm1
    n_min = ns.min()
    upper = n_min - 1e-9

    def sum_sq(mu: float) -> float:
        pred = limit - z2r / (ns - mu) ** 2
        return float(((pred - energies) ** 2).sum())

    grid = n_min - np.geomspace(n_min, 1e-9, DEFECT_GRID_POINTS)
    grid_misfit = limit - z2r / (ns[:, None] - grid) ** 2 - energies[:, None]
    mu = float(grid[np.argmin((grid_misfit * grid_misfit).sum(axis=0))])

    def grad_hess(mu_val: float) -> tuple[float, float]:
        d = ns - mu_val
        misfit = (limit - z2r / d**2) - energies
        dpred = -2.0 * z2r / d**3
        d2pred = -6.0 * z2r / d**4
        g = float((2.0 * misfit * dpred).sum())
        h = float((2.0 * (dpred**2 + misfit * d2pred)).sum())
        return g, h

    for _ in range(6):
        g, h = grad_hess(mu)
        if h <= 0:
            break
        step = g / h
        candidate = min(max(mu - step, 0.0), upper)
        if sum_sq(candidate) > sum_sq(mu):
            break
        moved = abs(candidate - mu)
        mu = candidate
        if moved < 1e-15:
            break
    if upper - mu < 1e-6 and sum_sq(mu) > 1e-12:
        raise SolverError(
            f"quantum defect ran into the n_min bound (mu = {mu:.6f}); "
            "the series is not represented by a single defect"
        )
    residual = float(
        np.abs(limit - z2r / (ns - mu) ** 2 - energies).max()
    )
    return mu, residual


def load_series_file(
    path: str,
    ionization_limit_cm1: float,
    ell: int,
    core_charge: int = 1,
) -> RydbergSeries:
    """Read "n  energy_cm1" rows (with # comments) into a RydbergSeries."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    members: list[tuple[int, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SchemeError(f"line {lineno}: expected 'n energy_cm1', got {raw!r}")
        try:
            members.append((int(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise SchemeError(f"line {lineno}: {exc}") from None
    if not members:
        raise SchemeError(f"series file {path!r} has no data rows")
    return RydbergSeries(
        members=tuple(members),
        ionization_limit_cm1=ionization_limit_cm1,
        ell=ell,
        core_charge=core_charge,
    )


def bundled_series_path() -> str:
    """Filesystem path of the packaged Yb II np series table."""
    return str(resources.files("ybion").joinpath("data", "yb2_p_series.tsv"))


def _load_coefficient_table(model: str) -> list[tuple[int, float, float, float, float]]:
    res = resources.files("ybion").joinpath("data", f"xsec_{model}.tsv")
    try:
        text = res.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise SolverError(f"missing coefficient table for model {model!r}") from None
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise SolverError(f"malformed row in {model} coefficient table: {raw!r}")
        rows.append(
            (int(parts[0]), float(parts[1]), float(parts[2]),
             float(parts[3]), float(parts[4]))
        )
    if not rows:
        raise SolverError(f"coefficient table for model {model!r} is empty")
    return rows


def cross_section(
    n_star: float,
    ell_initial: int,
    photon_energy_ev: float,
    model: str = "hydrogenic",
    rydberg_ev: float = RYDBERG_EV,
) -> CrossSection:
    """One-photon ionization cross section of a level with given n*.

    The threshold is R / n*^2; photon energies below it raise. The
    "hydrogenic" model is the Kramers estimate

        sigma = sigma_K * n* * (E_threshold / E_photon)^3

    with sigma_K the hydrogen threshold constant (7.91e-22 m^2). Models
    "burgess" and "peach" interpolate shipped coefficient tables keyed by
    (ell, n* range): threshold value in Mb and a falloff exponent.
    """
    if n_star <= 0:
        raise SolverError("effective quantum number must be positive")
    threshold_ev = rydberg_ev / n_star**2
    if photon_energy_ev < threshold_ev:
        raise SolverError(
            f"photon energy {photon_energy_ev:.4f} eV below ionization "
            f"threshold {threshold_ev:.4f} eV"
        )
    falloff = threshold_ev / photon_energy_ev

    if model == "hydrogenic":
        value = SIGMA_KRAMERS_M2 * n_star * falloff**3
        return CrossSection(value_m2=value, model="hydrogenic")
    if model in ("burgess", "peach"):
        for ell, lo, hi, sigma_th_mb, exponent in _load_coefficient_table(model):
            if ell == ell_initial and lo <= n_star <= hi:
                value = sigma_th_mb * MEGABARN_M2 * falloff**exponent
                return CrossSection(value_m2=value, model=model)
        raise SolverError(
            f"no {model} coefficient row covers ell={ell_initial}, n*={n_star:.4f}"
        )
    if model == "user":
        raise SolverError(
            "model 'user' marks directly supplied values; construct a "
            "CrossSection instead"
        )
    raise SolverError(
        f"unknown cross-section model {model!r}; expected one of "
        f"{CROSS_SECTION_MODELS[:3]}"
    )
