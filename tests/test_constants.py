"""The literal CODATA constants against scipy.constants, bit for bit."""

import dataclasses

import pytest
import scipy.constants as sc

from ybion.constants import CONSTANTS

SCIPY_VALUES = {
    "elementary_charge": sc.e,
    "vacuum_permittivity": sc.epsilon_0,
    "planck_constant": sc.h,
    "speed_of_light": sc.c,
    "rydberg_energy": sc.Rydberg / 100.0,
    "atomic_mass_unit": sc.u,
    "electron_mass": sc.m_e,
    "bohr_radius": sc.physical_constants["Bohr radius"][0],
    "fine_structure": sc.fine_structure,
}


def test_every_constant_has_a_scipy_counterpart():
    names = {f.name for f in dataclasses.fields(CONSTANTS)}
    assert names == set(SCIPY_VALUES)


@pytest.mark.parametrize("name", sorted(SCIPY_VALUES))
def test_constant_equals_scipy_bit_for_bit(name):
    assert getattr(CONSTANTS, name) == SCIPY_VALUES[name]
