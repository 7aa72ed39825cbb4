"""Every public numeric function over the whole float range.

Each argument is drawn from ±0, subnormals, the smallest normal float,
everyday values, 1e300, the largest float, ±inf and NaN. A call must either
return a result whose every number is finite and that meets its documented
contract, or raise a YbionError, and must emit no warning.
"""

import dataclasses
import inspect
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ybion.constants import photon_energy_ev, photon_energy_j, vacuum_wavelength_nm
from ybion.crystal import (
    ChargePair,
    TrapAxis,
    displacement_ratio,
    equilibrium_positions,
    infer_charge,
    infer_eta,
    normal_mode_frequencies,
)
from ybion.errors import SchemeError, SolverError, YbionError
from ybion.mc import SequenceConfig, exposure_to_wall, wall_to_exposure
from ybion.photoion import (
    CrossSection,
    GaussianBeam,
    cross_section,
    effective_quantum_number,
    ionization_rate,
    photon_flux,
    rate_coefficient,
)
from ybion.rates import natural_fwhm_hz, saturation_from_power
from ybion.spectro import lifetime_from_linewidth

DBL_MIN = sys.float_info.min
DBL_MAX = sys.float_info.max
WHOLE_RANGE = st.sampled_from([
    0.0, -0.0, 5e-324, 2.2e-308, DBL_MIN, 1e-300,
    1e-6, 0.5, 1.0, 2.135, 245.426, 474e3, -1.0,
    1e300, DBL_MAX, math.inf, -math.inf, math.nan,
])


def chopped(chop_rate_hz, duty):
    return SequenceConfig(rate_per_s=1.0, max_time_s=10.0, rng_seed=1,
                          chop_rate_hz=chop_rate_hz, ionization_duty=duty)


# name -> the call, one float per parameter
FUNCTIONS = {
    "photon_energy_j": photon_energy_j,
    "photon_energy_ev": photon_energy_ev,
    "vacuum_wavelength_nm": vacuum_wavelength_nm,
    "natural_fwhm_hz": natural_fwhm_hz,
    "saturation_from_power": saturation_from_power,
    "photon_flux": lambda power, waist, wavelength: photon_flux(
        GaussianBeam(power, waist, wavelength)),
    "ionization_rate": lambda p, sigma_mb, flux: ionization_rate(
        p, CrossSection.from_megabarn(sigma_mb), flux),
    "rate_coefficient": lambda p, sigma_mb, wavelength: rate_coefficient(
        p, CrossSection.from_megabarn(sigma_mb), wavelength),
    "CrossSection.from_megabarn": CrossSection.from_megabarn,
    "effective_quantum_number": effective_quantum_number,
    **{f"cross_section[{model}]": (
        lambda n_star, energy, model=model: cross_section(n_star, 1, energy, model))
       for model in ("hydrogenic", "burgess", "peach")},
    "equilibrium_positions": lambda nu1, eta, q2: equilibrium_positions(
        TrapAxis(nu1, eta), ChargePair(q2)),
    "displacement_ratio": displacement_ratio,
    "normal_mode_frequencies": lambda nu1, eta: normal_mode_frequencies(
        TrapAxis(nu1, eta)),
    **{f"infer_eta[{mode}]": (
        lambda nu, nu1, mode=mode: infer_eta(nu, nu1, mode)) for mode in ("com", "bre")},
    "infer_charge": infer_charge,
    "exposure_to_wall": lambda exposure, phase, chop, duty: exposure_to_wall(
        exposure, phase, chopped(chop, duty)),
    "wall_to_exposure": lambda wall, phase, chop, duty: wall_to_exposure(
        wall, phase, chopped(chop, duty)),
    "lifetime_from_linewidth": lifetime_from_linewidth,
}


def arity(f) -> int:
    """The number of parameters without a default."""
    return sum(p.default is p.empty for p in inspect.signature(f).parameters.values())


CALLS = st.sampled_from(sorted(FUNCTIONS)).flatmap(lambda name: st.tuples(
    st.just(name), st.tuples(*[WHOLE_RANGE] * arity(FUNCTIONS[name]))))


# name -> the contract its docstring states for a finite result, beyond
# finiteness; each name of POSITIVE documents a positive result.
CONTRACTS = {
    "equilibrium_positions": lambda x: x[0] > 0.0 > x[1],
    # both frequencies may be subnormal, and then equal: (5e-324, 5e-324)
    "normal_mode_frequencies": lambda nu: (
        nu[0] < nu[1] if nu[1] >= DBL_MIN else nu[0] <= nu[1]),
    **{f"infer_eta[{mode}]": (lambda eta: 1.0 <= eta <= 10.0) for mode in ("com", "bre")},
}
POSITIVE = {
    "photon_energy_j", "photon_energy_ev", "vacuum_wavelength_nm", "natural_fwhm_hz",
    "effective_quantum_number", "displacement_ratio", "infer_charge",
    "lifetime_from_linewidth",
    *(f"cross_section[{model}]" for model in ("hydrogenic", "burgess", "peach")),
}


def numbers(result):
    """Every number in a result: floats, ints, tuples and dataclasses."""
    if isinstance(result, tuple):
        return [x for item in result for x in numbers(item)]
    if dataclasses.is_dataclass(result):
        return numbers(dataclasses.astuple(result))
    return [result] if isinstance(result, (int, float)) else []


# Each example once returned a non-finite result, warned, or raised an error
# other than YbionError, except the last: the subnormal tie its contract allows.
@settings(max_examples=1500, deadline=None)
@example(call=("exposure_to_wall", (1e20, 0.0, 50.0, 0.5)))
@example(call=("exposure_to_wall", (1e307, 0.0, 50.0, 0.5)))
@example(call=("wall_to_exposure", (1e307, 0.0, 50.0, 0.5)))
@example(call=("vacuum_wavelength_nm", (0.0,)))
@example(call=("vacuum_wavelength_nm", (math.nan,)))
@example(call=("vacuum_wavelength_nm", (5e-324,)))
@example(call=("normal_mode_frequencies", (5e-324, 0.5)))
@given(call=CALLS)
def test_public_numeric_functions_return_finite_or_refuse(call):
    name, args = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = FUNCTIONS[name](*args)
        except YbionError as refusal:
            assert str(refusal) and "\n" not in str(refusal)
            return
    assert all(math.isfinite(x) for x in numbers(result)), (name, args, result)
    assert CONTRACTS.get(name, lambda _: True)(result), (name, args, result)
    if name in POSITIVE:
        assert numbers(result)[0] > 0.0, (name, args, result)


FIFTY_HZ = "chop_rate_hz = 50.0, ionization_duty = 0.5"
OUTSIDE = "lies outside the floating-point range for"


@pytest.mark.parametrize("name, args, message", [
    ("exposure_to_wall", (1e20, 0.0, 50.0, 0.5),
     "exposure spans 2**63 or more ON windows for exposure_s = 1e+20, "
     f"phase_s = 0.0, {FIFTY_HZ}"),
    ("exposure_to_wall", (1e307, 0.0, 50.0, 0.5),
     "exposure spans 2**63 or more ON windows for exposure_s = 1e+307, "
     f"phase_s = 0.0, {FIFTY_HZ}"),
    ("exposure_to_wall", (1e308, 0.0, 1e-300, 0.5),
     f"wall time {OUTSIDE} exposure_s = 1e+308, phase_s = 0.0, "
     "chop_rate_hz = 1e-300, ionization_duty = 0.5"),
    ("wall_to_exposure", (1e307, 0.0, 50.0, 0.5),
     f"ON time {OUTSIDE} wall_s = 1e+307, phase_s = 0.0, {FIFTY_HZ}"),
    ("vacuum_wavelength_nm", (0.0,),
     "energy gap must be positive and finite, got 0.0 cm^-1"),
    ("vacuum_wavelength_nm", (math.nan,),
     "energy gap must be positive and finite, got nan cm^-1"),
    ("vacuum_wavelength_nm", (5e-324,),
     f"vacuum wavelength {OUTSIDE} delta_energy_cm1 = 5e-324"),
], ids=["windows-past-int64", "windows-overflow", "wall-overflows", "on-time-overflows",
        "gap-zero", "gap-nan", "wavelength-overflows"])
def test_extreme_inputs_are_refused_in_one_line_naming_them(name, args, message):
    error = SchemeError if name == "vacuum_wavelength_nm" else SolverError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as caught:
            FUNCTIONS[name](*args)
    assert type(caught.value) is error and str(caught.value) == message


def test_mapped_refusal_names_the_first_entry_outside():
    with pytest.raises(SolverError, match=r"exposure_s = 2e\+20, phase_s = 0\.01, "):
        exposure_to_wall(np.array([1.0, 2e20, 3e20]), np.array([0.0, 0.01, 0.0]),
                         chopped(50.0, 0.5))
    with pytest.raises(SolverError, match=r"wall_s = 1e\+308, phase_s = 0\.005, "):
        wall_to_exposure(np.array([[1.0], [1e308]]), 0.005, chopped(50.0, 0.5))
