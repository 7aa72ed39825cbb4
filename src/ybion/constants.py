"""Physical constants and unit helpers shared across the package.

The fundamental constants are literal CODATA 2022 values as plain module
floats, each name carrying its unit, written out so that importing the
package does not import scipy; a test pins each one to its scipy.constants
counterpart bit for bit. Spectroscopic level energies are carried in cm^-1
throughout; every conversion to SI lives here so the conventions cannot
drift between modules.
"""

from __future__ import annotations

from .errors import check, representable

__all__ = [
    "ELEMENTARY_CHARGE_C",
    "VACUUM_PERMITTIVITY_F_M",
    "PLANCK_CONSTANT_J_S",
    "SPEED_OF_LIGHT_M_S",
    "RYDBERG_CM1",
    "ATOMIC_MASS_UNIT_KG",
    "ELECTRON_MASS_KG",
    "BOHR_RADIUS_M",
    "FINE_STRUCTURE",
    "MEGABARN_M2",
    "YB174_MASS_KG",
    "RYDBERG_YB174_CM1",
    "photon_energy_j",
    "photon_energy_ev",
    "vacuum_wavelength_nm",
]

ELEMENTARY_CHARGE_C = 1.602176634e-19
VACUUM_PERMITTIVITY_F_M = 8.8541878188e-12
PLANCK_CONSTANT_J_S = 6.62607015e-34
SPEED_OF_LIGHT_M_S = 299792458.0
RYDBERG_CM1 = 10973731.568157 / 100.0  # infinite nuclear mass
ATOMIC_MASS_UNIT_KG = 1.66053906892e-27
ELECTRON_MASS_KG = 9.1093837139e-31
BOHR_RADIUS_M = 5.29177210544e-11
FINE_STRUCTURE = 0.0072973525643

# 1 Mb = 1e-18 cm^2; photoionization cross sections are quoted in this unit.
MEGABARN_M2 = 1e-22  # m^2

# Isotope mass of 174Yb (atomic mass evaluation): the ion mass in the trap
# and the core mass of the reduced-mass Rydberg constant in cm^-1.
YB174_MASS_KG = 173.9388664 * ATOMIC_MASS_UNIT_KG
RYDBERG_YB174_CM1 = RYDBERG_CM1 / (1.0 + ELECTRON_MASS_KG / YB174_MASS_KG)

# Rydberg energy in eV, for threshold arithmetic on effective quantum numbers.
RYDBERG_EV = (
    RYDBERG_CM1 * 100.0 * PLANCK_CONSTANT_J_S * SPEED_OF_LIGHT_M_S / ELEMENTARY_CHARGE_C
)


def photon_energy_j(wavelength_nm: float) -> float:
    """Photon energy h*c/lambda in joules, positive, for a vacuum
    wavelength in nm."""
    # 0.0 in m for a subnormal wavelength in nm
    wavelength_m = check("wavelength", wavelength_nm, "(0, inf)", "nm") * 1e-9
    return representable(
        "photon energy",
        lambda: PLANCK_CONSTANT_J_S * SPEED_OF_LIGHT_M_S / wavelength_m,
        "(0, inf)", wavelength_nm=wavelength_nm)


def photon_energy_ev(wavelength_nm: float) -> float:
    """photon_energy_j in eV, positive."""
    # finite in J, but not always in eV
    return representable(
        "photon energy in eV",
        photon_energy_j(wavelength_nm) / ELEMENTARY_CHARGE_C,
        "(0, inf)", wavelength_nm=wavelength_nm)


def vacuum_wavelength_nm(delta_energy_cm1: float) -> float:
    """Vacuum wavelength in nm, positive, of a transition with energy gap
    in cm^-1."""
    return representable(
        "vacuum wavelength",
        1e7 / check("energy gap", delta_energy_cm1, "(0, inf)", "cm^-1"),
        "(0, inf)", delta_energy_cm1=delta_energy_cm1)
