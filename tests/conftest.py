"""Fixtures shared by the test modules."""

import pytest

from ybion.scheme import load_bundled_scheme


@pytest.fixture(scope="module")
def yb_scheme():
    """The bundled yb174_plus scheme, loaded once per test module."""
    return load_bundled_scheme("yb174_plus")
