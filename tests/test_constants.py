"""The literal CODATA constants against scipy.constants, bit for bit."""

import pytest
import scipy.constants as sc

import ybion.constants as constants

SCIPY_VALUES = {
    "ELEMENTARY_CHARGE_C": sc.e,
    "VACUUM_PERMITTIVITY_F_M": sc.epsilon_0,
    "PLANCK_CONSTANT_J_S": sc.h,
    "SPEED_OF_LIGHT_M_S": sc.c,
    "RYDBERG_CM1": sc.Rydberg / 100.0,
    "ATOMIC_MASS_UNIT_KG": sc.u,
    "ELECTRON_MASS_KG": sc.m_e,
    "BOHR_RADIUS_M": sc.physical_constants["Bohr radius"][0],
    "FINE_STRUCTURE": sc.fine_structure,
}

# Module floats that are not CODATA values: a unit, an isotope mass and the
# constants derived from the CODATA ones.
NOT_CODATA = {"MEGABARN_M2", "YB174_MASS_KG", "RYDBERG_YB174_CM1", "RYDBERG_EV"}


def test_every_float_constant_is_pinned_or_classified():
    names = {name for name, value in vars(constants).items()
             if name.isupper() and type(value) is float}
    assert names == set(SCIPY_VALUES) | NOT_CODATA


def test_every_codata_constant_is_exported():
    assert set(SCIPY_VALUES) <= set(constants.__all__)


@pytest.mark.parametrize("name", sorted(SCIPY_VALUES))
def test_constant_equals_scipy_bit_for_bit(name):
    value = getattr(constants, name)
    assert type(value) is float and value == SCIPY_VALUES[name]
