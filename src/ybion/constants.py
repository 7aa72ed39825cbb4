"""Physical constants and unit helpers shared across the package.

The fundamental constants are literal CODATA 2022 values, written out so
that importing the package does not import scipy; a test pins each one to
its scipy.constants counterpart bit for bit. Spectroscopic level energies
are carried in cm^-1 throughout; every conversion to SI lives here so the
conventions cannot drift between modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SchemeError

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "MEGABARN_M2",
    "YB174_MASS_KG",
    "RYDBERG_YB174_CM1",
    "photon_energy_j",
    "photon_energy_ev",
    "vacuum_wavelength_nm",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants in SI, plus the Rydberg constant in cm^-1.

    Frozen so a constructed instance can be shared freely; the module-level
    ``CONSTANTS`` singleton is what the rest of the package uses.
    """

    elementary_charge: float = 1.602176634e-19      # C
    vacuum_permittivity: float = 8.8541878188e-12   # F/m
    planck_constant: float = 6.62607015e-34         # J s
    speed_of_light: float = 299792458.0             # m/s
    rydberg_energy: float = 10973731.568157 / 100.0  # cm^-1, infinite nuclear mass
    atomic_mass_unit: float = 1.66053906892e-27     # kg
    electron_mass: float = 9.1093837139e-31         # kg
    bohr_radius: float = 5.29177210544e-11          # m
    fine_structure: float = 0.0072973525643


CONSTANTS = PhysicalConstants()

# 1 Mb = 1e-18 cm^2; photoionization cross sections are quoted in this unit.
MEGABARN_M2 = 1e-22  # m^2

# Isotope mass of 174Yb (atomic mass evaluation): the ion mass in the trap
# and the core mass of the reduced-mass Rydberg constant in cm^-1.
YB174_MASS_KG = 173.9388664 * CONSTANTS.atomic_mass_unit
RYDBERG_YB174_CM1 = CONSTANTS.rydberg_energy / (
    1.0 + CONSTANTS.electron_mass / YB174_MASS_KG
)

# Rydberg energy in eV, for threshold arithmetic on effective quantum numbers.
RYDBERG_EV = (
    CONSTANTS.rydberg_energy * 100.0 * CONSTANTS.planck_constant
    * CONSTANTS.speed_of_light / CONSTANTS.elementary_charge
)


def photon_energy_j(wavelength_nm: float) -> float:
    """Photon energy h*c/lambda in joules for a vacuum wavelength in nm."""
    if not 0.0 < wavelength_nm < math.inf:
        raise SchemeError(f"wavelength must be positive and finite, got {wavelength_nm} nm")
    wavelength_m = wavelength_nm * 1e-9  # 0.0 for a subnormal wavelength in nm
    energy = (
        CONSTANTS.planck_constant * CONSTANTS.speed_of_light / wavelength_m
        if wavelength_m > 0.0 else math.inf
    )
    if not 0.0 < energy < math.inf:
        raise SchemeError(
            f"photon energy at wavelength {wavelength_nm} nm lies outside the "
            "floating-point range")
    return energy


def photon_energy_ev(wavelength_nm: float) -> float:
    energy = photon_energy_j(wavelength_nm) / CONSTANTS.elementary_charge
    if not energy < math.inf:  # finite in J, but not in eV
        raise SchemeError(
            f"photon energy at wavelength {wavelength_nm} nm lies outside the "
            "floating-point range in eV")
    return energy


def vacuum_wavelength_nm(delta_energy_cm1: float) -> float:
    """Vacuum wavelength in nm of a transition with energy gap in cm^-1."""
    if delta_energy_cm1 <= 0:
        raise ValueError("energy gap must be positive")
    return 1e7 / delta_energy_cm1
