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
"peach") kept with their sources in COEFFICIENT_TABLES. Effective quantum
numbers follow the binding-energy convention n* = sqrt(R / (limit - E)), so
the ionization threshold from a level is R / n*^2 regardless of the core
charge seen by the escaping electron.

Everything here computes on Python floats and math, the quantum-defect fit
of a Rydberg series included, so this module never loads numpy.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass

from .constants import (
    CONSTANTS,
    MEGABARN_M2,
    RYDBERG_EV,
    RYDBERG_YB174_CM1,
    photon_energy_j,
)
from .errors import SchemeError, SolverError, check, representable
from .scheme import DATA_DIR, parse_number, read_text, walk_lines

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

DEFECT_GRID_POINTS = 2048

# Kramers threshold cross section of hydrogen 1s: 64/(3 sqrt(3)) alpha pi a0^2.
SIGMA_KRAMERS_M2 = (
    64.0 / (3.0 * math.sqrt(3.0))
    * CONSTANTS.fine_structure
    * math.pi
    * CONSTANTS.bohr_radius**2
)


@dataclass(frozen=True)
class GaussianBeam:
    """Focused Gaussian beam: power, 1/e^2 intensity waist radius, color."""

    power_w: float
    waist_m: float
    wavelength_nm: float

    def __post_init__(self):
        check("beam power", self.power_w, "[0, inf)", "W")
        check("beam waist", self.waist_m, "(0, inf)", "m")
        check("beam wavelength", self.wavelength_nm, "(0, inf)", "nm")
        # waist_m**2 underflows to 0 below about 1e-162 m and overflows
        # above about 1e154 m; the quotient can also overflow or underflow.
        representable("peak intensity 2 power_w / (pi waist_m^2)",
                      lambda: self.peak_intensity_w_m2,
                      "(0, inf)" if self.power_w else "[0, inf)",
                      power_w=self.power_w, waist_m=self.waist_m)

    @property
    def peak_intensity_w_m2(self) -> float:
        """On-axis intensity 2P/(pi w0^2) at the focus."""
        return 2.0 * self.power_w / (math.pi * self.waist_m**2)


@dataclass(frozen=True)
class CrossSection:
    """A photoionization cross section in m^2 with its model tag."""

    value_m2: float
    model: str

    def __post_init__(self):
        # keep a plain float so serialized values round-trip through text
        object.__setattr__(self, "value_m2", float(self.value_m2))
        check("cross section", self.value_m2, "[0, inf)", "m^2")
        if self.model not in CROSS_SECTION_MODELS:
            raise SchemeError(
                f"unknown cross-section model {self.model!r}; "
                f"expected one of {CROSS_SECTION_MODELS}"
            )

    @property
    def megabarn(self) -> float:
        return self.value_m2 / MEGABARN_M2

    @classmethod
    def from_megabarn(cls, value_mb: float) -> "CrossSection":
        """A directly supplied value in Mb, tagged model "user"."""
        sigma = cls(value_m2=value_mb * MEGABARN_M2, model="user")
        if value_mb > 0:  # a positive value in Mb may underflow to 0 m^2
            representable("cross section in m^2", sigma.value_m2, "(0, inf)",
                          value_mb=value_mb)
        return sigma


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
        check("ionization_limit_cm1", self.ionization_limit_cm1, "finite")
        if self.core_charge < 1:
            raise SchemeError("core charge must be >= 1")
        # core_charge**2 is an int, which may be too large to convert to float
        representable("core_charge^2 R",
                      lambda: self.core_charge**2 * RYDBERG_YB174_CM1,
                      core_charge=self.core_charge)
        last_n = None
        for n, energy in self.members:
            if n <= self.ell:
                raise SchemeError(f"series member n={n} must exceed ell={self.ell}")
            check(f"series member n={n} energy", energy, "finite")
            if last_n is not None and n <= last_n:
                raise SchemeError("series members must have strictly increasing n")
            if energy >= self.ionization_limit_cm1:
                raise SchemeError(
                    f"series member n={n} lies at or above the ionization limit"
                )
            last_n = n


def photon_flux(beam: GaussianBeam) -> float:
    """Peak on-axis photon flux of the beam in photons / (m^2 s)."""
    return representable(
        "photon flux", beam.peak_intensity_w_m2 / photon_energy_j(beam.wavelength_nm),
        "(0, inf)" if beam.power_w else "[0, inf)",
        power_w=beam.power_w, waist_m=beam.waist_m, wavelength_nm=beam.wavelength_nm)


def _product(factors: tuple[float, ...], divisor: float = 1.0) -> float:
    """The product of factors over divisor, multiplied left to right.

    Where that product underflows part-way (a partial product or the result
    is 0 or subnormal, and every factor is positive), it is recomputed from
    the factors' frexp mantissas and summed exponents, so it neither
    underflows where its true value does not nor loses the digits a
    subnormal partial product drops. A product whose partial products all
    stay normal keeps its bits.
    """
    partials = list(itertools.accumulate(factors, operator.mul))
    plain = partials[-1] / divisor
    if (min(*partials, plain) >= sys.float_info.min
            or not all(f > 0.0 for f in factors)):
        return plain
    mantissa, exponent = 1.0, 0
    for factor in factors:
        m, e = math.frexp(factor)
        mantissa *= m
        exponent += e
    m, e = math.frexp(divisor)
    return math.ldexp(mantissa / m, exponent - e)


def ionization_rate(p_excited: float, sigma: CrossSection, flux_m2s: float) -> float:
    """One-photon ionization rate R = p * sigma * F in 1/s; a product whose
    true value underflows is 0.0, as linearity in each factor asks."""
    check("excited-state population", p_excited, "[0, 1]")
    check("photon flux", flux_m2s, "[0, inf)")
    return representable(
        "ionization rate p_excited * sigma * flux",
        _product((p_excited, sigma.value_m2, flux_m2s)),
        p_excited=p_excited, sigma_m2=sigma.value_m2, flux_m2s=flux_m2s)


def rate_coefficient(
    p_excited: float, sigma: CrossSection, wavelength_nm: float
) -> float:
    """Waist-independent rate-per-power coefficient in m^2/J.

    Multiply by power in W and divide by waist^2 in m^2 to recover the
    ionization rate for a peak-intensity Gaussian beam geometry. A product
    whose true value underflows is 0.0, as in ionization_rate.
    """
    check("excited-state population", p_excited, "[0, 1]")
    return representable(
        "rate-per-power coefficient",
        _product((p_excited, sigma.value_m2, 2.0), math.pi * photon_energy_j(wavelength_nm)),
        p_excited=p_excited, sigma_m2=sigma.value_m2, wavelength_nm=wavelength_nm)


def effective_quantum_number(energy_cm1: float, ionization_limit_cm1: float) -> float:
    """n* = sqrt(R / (limit - E)) for a bound level.

    R is the Rydberg constant mass-corrected for 174Yb. The returned
    value encodes the binding energy alone; the threshold photon energy for
    ionization out of the level is R / n*^2.
    """
    gap = check("ionization limit minus level energy",
                ionization_limit_cm1 - energy_cm1, "(0, inf)", "cm^-1", SolverError)
    return math.sqrt(RYDBERG_YB174_CM1 / gap)


def fit_quantum_defect(series: RydbergSeries) -> tuple[float, float]:
    """Least-squares quantum defect of a series.

    Fits E_n = limit - Z^2 R / (n - mu)^2 over the members with a single
    defect mu and returns (mu, max absolute residual in cm^-1). Needs at
    least two members. mu is constrained to [0, n_min); a fit pushing
    against the upper bound is rejected as unphysical. The sum of squares
    is evaluated at DEFECT_GRID_POINTS values of mu whose distances to n_min
    run geometrically from n_min (mu = 0) down to 1e-9, so the grid also
    resolves the steep approach to the bound; Newton steps then polish the
    best grid point. Python floats overflow to inf under * and /, so an
    extreme series gives inf or NaN sums, which the grid gate and the
    Newton acceptance reject.
    """
    if len(series.members) < 2:
        raise SolverError("quantum-defect fit needs at least two series members")
    ns = [float(n) for n, _ in series.members]
    energies = [e for _, e in series.members]
    z2r = series.core_charge**2 * RYDBERG_YB174_CM1
    limit = series.ionization_limit_cm1
    n_min = min(ns)
    upper = n_min - 1e-9

    def misfit(mu: float) -> list[float]:
        """Predicted minus observed energy of each member; n = mu predicts -inf."""
        return [limit - (z2r / ((n - mu) * (n - mu)) if n != mu else math.inf) - e
                for n, e in zip(ns, energies)]

    def sum_sq(mu: float) -> float:  # in member order: sum() compensates from 3.12 on
        total = 0.0
        for r in misfit(mu):
            total += r * r
        return total

    # n_min minus distances spaced evenly in log10, as np.geomspace spaces them
    log_start, log_stop = math.log10(n_min), math.log10(1e-9)
    step = (log_stop - log_start) / (DEFECT_GRID_POINTS - 1)
    grid = [0.0, *(n_min - math.pow(10.0, i * step + log_start)
                   for i in range(1, DEFECT_GRID_POINTS - 1)), upper]
    grid_sum_sq = [sum_sq(mu) for mu in grid]
    best = min(range(DEFECT_GRID_POINTS), key=grid_sum_sq.__getitem__)
    representable("smallest sum of squared residuals of the quantum-defect fit",
                  grid_sum_sq[best], error=SolverError,
                  limit_cm1=limit, core_charge=series.core_charge)
    mu = grid[best]

    for _ in range(6):
        g = h = 0.0  # gradient and curvature of the sum of squares
        for n, r in zip(ns, misfit(mu)):
            d2 = (n - mu) * (n - mu)
            dpred = -2.0 * z2r / (d2 * (n - mu))
            g += 2.0 * r * dpred
            h += 2.0 * (dpred * dpred + r * (-6.0 * z2r / (d2 * d2)))
        if not h > 0:
            break
        candidate = min(max(mu - g / h, 0.0), upper)
        if not sum_sq(candidate) <= sum_sq(mu):
            break
        moved = abs(candidate - mu)
        mu = candidate
        if moved < 1e-15:
            break
    if upper - mu < 1e-6 and sum_sq(mu) > 1e-12:
        raise SolverError(f"quantum defect ran into the n_min bound (mu = {mu:.6g}); "
                          "the series is not represented by a single defect")
    return mu, max(abs(r) for r in misfit(mu))


def load_series_file(
    path: str,
    ionization_limit_cm1: float,
    ell: int,
    core_charge: int = 1,
) -> RydbergSeries:
    """Read "n  energy_cm1" rows (with # comments) into a RydbergSeries."""
    members: list[tuple[int, float]] = []

    def parse_line(line: str) -> None:
        parts = line.split()
        if len(parts) != 2:
            raise SchemeError(f"expected 'n energy_cm1', got {line!r}")
        members.append((parse_number(parts[0], "n", kind=int),
                        parse_number(parts[1], "energy")))

    walk_lines(read_text(path), parse_line)
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
    return str(DATA_DIR / "yb2_p_series.tsv")


# The one cell the package evaluates, (ell, nstar_min, nstar_max): the
# channel-summed Yb II 4f14 7p (j=1/2) -> continuum channel.
COEFFICIENT_CELL = (1, 1.55, 2.05)
# model -> (sigma_threshold_mb, source): the model's published value at the
# 245.426 nm working wavelength (5.5 Mb burgess, 7.2 Mb peach), carried back
# to threshold with the hydrogenic (Kramers) cubic frequency falloff.
COEFFICIENT_TABLES = {
    "burgess": (9.059670, "general quantum-defect photoionization formula of "
                "Burgess & Seaton, Mon. Not. R. Astron. Soc. 120, 121 (1960)"),
    "peach": (11.859932, "bound-free quantum-defect cross-section tables of "
              "Peach, Mem. R. Astron. Soc. 71, 13 (1967)"),
}
CROSS_SECTION_MODELS = ("hydrogenic", *COEFFICIENT_TABLES, "user")


def cross_section(
    n_star: float,
    ell_initial: int,
    photon_energy_ev: float,
    model: str = "hydrogenic",
) -> CrossSection:
    """One-photon ionization cross section of a level with given n*.

    The threshold is R / n*^2; photon energies below it raise. The
    "hydrogenic" model is the Kramers estimate

        sigma = sigma_K * n* * (E_threshold / E_photon)^3

    with sigma_K the hydrogen threshold constant (7.91e-22 m^2). Models
    "burgess" and "peach" cover the one COEFFICIENT_CELL (ell, n* range)
    and scale their COEFFICIENT_TABLES threshold value in Mb by falloff^3.
    Every factor is positive, so a cross section that underflows to 0 is
    refused.
    """
    check("effective quantum number", n_star, "(0, inf)", error=SolverError)
    threshold_ev = RYDBERG_EV / n_star**2
    if photon_energy_ev < threshold_ev:
        raise SolverError(
            f"photon energy {photon_energy_ev} eV below ionization "
            f"threshold {threshold_ev} eV"
        )
    falloff = threshold_ev / photon_energy_ev

    if model == "hydrogenic":
        at_threshold_m2 = SIGMA_KRAMERS_M2 * n_star
    elif model in COEFFICIENT_TABLES:
        ell, lo, hi = COEFFICIENT_CELL
        if not (ell == ell_initial and lo <= n_star <= hi):
            raise SolverError(
                f"no {model} coefficient row covers ell={ell_initial}, n*={n_star}"
            )
        at_threshold_m2 = COEFFICIENT_TABLES[model][0] * MEGABARN_M2
    else:
        raise SolverError(
            f"unknown cross-section model {model!r}; expected one of "
            f"{CROSS_SECTION_MODELS[:-1]}"
        )
    value = representable("cross section", at_threshold_m2 * falloff**3, "(0, inf)",
                          SolverError, n_star=n_star, photon_energy_ev=photon_energy_ev)
    return CrossSection(value_m2=value, model=model)
