"""Rate-matrix assembly, steady states, time evolution, and their oracles."""

import dataclasses
import math

import numpy as np
import pytest

from ybion.errors import SchemeError, SolverError
from ybion.rates import (
    STEADY_RESIDUAL_TOL,
    PopulationVector,
    RateMatrix,
    build_rate_matrix,
    evolve,
    initial_population,
    natural_fwhm_hz,
    saturation_from_power,
    steady_state,
)
from ybion.scheme import (
    DecayChannel,
    LaserDrive,
    Level,
    LevelScheme,
    load_bundled_scheme,
)


def two_level(lifetime_s=1e-7, saturation=1.0, detuning_hz=0.0) -> LevelScheme:
    gap_cm1 = 20000.0
    return LevelScheme(
        levels=(
            Level("g", "ground", 0.5, 0.0, None),
            Level("e", "excited", 0.5, gap_cm1, lifetime_s),
        ),
        decays=(DecayChannel("e", "g", 1.0),),
        drives=(
            LaserDrive(
                upper="e",
                lower="g",
                wavelength_nm=1e7 / gap_cm1,
                saturation=saturation,
                detuning_hz=detuning_hz,
            ),
        ),
    )


@pytest.fixture(scope="module")
def yb_scheme():
    return load_bundled_scheme("yb174_plus")


# -- closed-form two-level checks -------------------------------------------


def test_two_level_pump_equals_decay_third():
    # S = 2 makes the stimulated rate W equal the decay rate A, and the
    # stationary upper population W/(2W + A) becomes exactly 1/3
    m = build_rate_matrix(two_level(saturation=2.0))
    p = steady_state(m)
    assert p["e"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_two_level_s_one_quarter():
    p = steady_state(build_rate_matrix(two_level(saturation=1.0)))
    assert p["e"] == pytest.approx(0.25, abs=1e-12)


def test_two_level_strong_saturation_half():
    p = steady_state(build_rate_matrix(two_level(saturation=1e9)))
    assert p["e"] == pytest.approx(0.5, abs=1e-6)


def test_two_level_detuning_lorentzian():
    lifetime = 1e-7
    width = natural_fwhm_hz(lifetime)
    s = 0.01  # weak drive: excited population tracks the Lorentzian
    p0 = steady_state(build_rate_matrix(two_level(lifetime, s, 0.0)))
    p1 = steady_state(build_rate_matrix(two_level(lifetime, s, width / 2)))
    assert p1["e"] / p0["e"] == pytest.approx(0.5, rel=2e-2)


def test_monotone_in_saturation():
    last = 0.0
    for s in (0.01, 0.1, 1.0, 10.0, 100.0, 1e4):
        pe = steady_state(build_rate_matrix(two_level(saturation=s)))["e"]
        assert pe > last
        last = pe
    assert last < 0.5


# -- matrix structure --------------------------------------------------------


def test_columns_sum_to_zero_even_at_huge_saturation():
    m = build_rate_matrix(two_level(saturation=1e12))
    sums = np.asarray(m.matrix).sum(axis=0)
    assert np.abs(sums).max() <= 1e-12 * np.abs(m.matrix).max()


def test_decay_only_matrix_is_lower_triangular(yb_scheme):
    undriven = dataclasses.replace(yb_scheme, drives=())
    m = build_rate_matrix(undriven)
    a = np.array(m.matrix)
    np.fill_diagonal(a, 0.0)
    assert np.count_nonzero(np.triu(a, 1)) == 0
    assert np.count_nonzero(np.tril(a, -1)) > 0


def test_bundled_matrix_shape_and_sink(yb_scheme):
    m = build_rate_matrix(yb_scheme)
    assert m.n == 9
    ms = build_rate_matrix(yb_scheme, include_ionization=True, ionization_rate=432.0)
    assert ms.n == 10
    assert ms.labels[-1] == "ionized"
    # absorbing sink: nothing leaves it
    col = np.array(ms.matrix)[:, ms.sink_index]
    assert np.all(col == 0.0)
    # the drain leaves 7p12, and every rate between levels is unchanged
    drain = np.zeros((10, 10))
    drain[ms.sink_index, ms.index("7p12")] = 432.0
    off = ~np.eye(10, dtype=bool)
    closed = np.zeros((10, 10))
    closed[:9, :9] = m.matrix
    np.testing.assert_array_equal((ms.matrix - drain)[off], closed[off])


def test_ionization_drain_needs_the_7p12_level():
    with pytest.raises(SchemeError, match="unknown level label: 7p12"):
        build_rate_matrix(two_level(), include_ionization=True, ionization_rate=1.0)


def test_rate_matrix_rejects_negative_offdiagonal():
    bad = np.array([[-1.0, -2.0], [1.0, 2.0]])
    with pytest.raises(SolverError):
        RateMatrix(matrix=bad, labels=("a", "b"), sink_index=None)


def test_rate_matrix_rejects_unbalanced_columns():
    bad = np.array([[-1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(SolverError):
        RateMatrix(matrix=bad, labels=("a", "b"), sink_index=None)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rate_matrix_rejects_non_finite_rates(bad):
    # NaN slips past both the sign and the column-sum checks
    m = np.array([[-bad, 1.0], [bad, -1.0]])
    with pytest.raises(SolverError, match="non-finite"):
        RateMatrix(matrix=m, labels=("a", "b"), sink_index=None)


def test_drive_without_lifetime_rejected():
    scheme = two_level()
    scheme = dataclasses.replace(
        scheme,
        levels=(scheme.levels[0], dataclasses.replace(scheme.levels[1], lifetime_s=None)),
        decays=(),
    )
    with pytest.raises(SchemeError, match="lifetime"):
        build_rate_matrix(scheme)


# -- steady state -------------------------------------------------------------


def test_steady_state_residual_and_sum(yb_scheme):
    m = build_rate_matrix(yb_scheme.with_all_drives_saturated(1e4))
    p = steady_state(m)
    assert p.populations.sum() == pytest.approx(1.0, abs=1e-12)
    residual = np.abs(np.asarray(m.matrix) @ p.populations).max()
    assert residual <= 1e-10 * np.abs(m.matrix).max()


def test_steady_state_rejects_sink(yb_scheme):
    ms = build_rate_matrix(yb_scheme, include_ionization=True, ionization_rate=1.0)
    with pytest.raises(SolverError, match="sink"):
        steady_state(ms)


def test_disconnected_groups_named():
    scheme = LevelScheme(
        levels=(
            Level("g", "c", 0.5, 0.0, None),
            Level("e1", "c", 0.5, 10000.0, 1e-8),
            Level("x", "c", 0.5, 20000.0, None),
            Level("e2", "c", 0.5, 30000.0, 1e-8),
        ),
        decays=(DecayChannel("e1", "g", 1.0), DecayChannel("e2", "x", 1.0)),
        drives=(),
    )
    m = build_rate_matrix(scheme)
    with pytest.raises(SolverError, match="null space dimension 2") as err:
        steady_state(m)
    msg = str(err.value)
    assert "e1" in msg and "e2" in msg and "x" in msg


def test_transient_ground_empties_into_metastable_level():
    # g <-> e is driven and e decays only into x, which has no lifetime, so
    # the ground level is transient and everything ends in x. Keeping the
    # ground level to the end of the reduction would hit a zero pivot.
    scheme = LevelScheme(
        levels=(
            Level("g", "c", 0.5, 0.0, None),
            Level("x", "c", 1.5, 10000.0, None),
            Level("e", "c", 0.5, 20000.0, 1e-8),
        ),
        decays=(DecayChannel("e", "x", 1.0),),
        drives=(LaserDrive("e", "g", wavelength_nm=500.0, saturation=1.0),),
    )
    p = steady_state(build_rate_matrix(scheme))
    assert p["x"] == 1.0
    assert p["g"] == 0.0 and p["e"] == 0.0


def test_two_closed_classes_from_one_level_named():
    # e feeds both g and x, which never exchange population: two closed
    # classes in one connected graph.
    scheme = LevelScheme(
        levels=(
            Level("g", "c", 0.5, 0.0, None),
            Level("x", "c", 1.5, 10000.0, None),
            Level("e", "c", 0.5, 20000.0, 1e-8),
        ),
        decays=(DecayChannel("e", "g", 0.6), DecayChannel("e", "x", 0.4)),
        drives=(),
    )
    with pytest.raises(SolverError, match="null space dimension 2") as err:
        steady_state(build_rate_matrix(scheme))
    msg = str(err.value)
    assert "{g}" in msg and "{x}" in msg


def test_steady_state_at_extreme_saturation(yb_scheme):
    m = build_rate_matrix(yb_scheme.with_all_drives_saturated(1e8))
    p = steady_state(m).populations
    assert (p >= 0.0).all()
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    residual = np.abs(np.asarray(m.matrix) @ p).max()
    assert residual <= STEADY_RESIDUAL_TOL * np.abs(m.matrix).max()


# -- evolution ----------------------------------------------------------------


def test_evolve_t0_identity(yb_scheme):
    m = build_rate_matrix(yb_scheme)
    p0 = initial_population(m, "6s12")
    p = evolve(m, p0, 0.0)
    assert np.array_equal(p.populations, p0.populations)


def test_pure_decay_reaches_1_over_e():
    lifetime = 2.5e-8
    scheme = dataclasses.replace(two_level(lifetime_s=lifetime), drives=())
    m = build_rate_matrix(scheme)
    p0 = initial_population(m, "e")
    p = evolve(m, p0, lifetime)
    assert p["e"] == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_two_level_evolution_matches_steady_state():
    lifetime = 1e-7
    m = build_rate_matrix(two_level(lifetime_s=lifetime, saturation=2.0))
    p0 = initial_population(m, "g")
    p = evolve(m, p0, 20.0 * lifetime)
    ss = steady_state(m)
    assert np.abs(p.populations - ss.populations).max() <= 1e-8


def test_conservation_along_trajectory(yb_scheme):
    m = build_rate_matrix(yb_scheme.with_all_drives_saturated(10.0))
    p0 = initial_population(m, "6s12")
    for t in (1e-9, 1e-7, 1e-5, 1e-3):
        p = evolve(m, p0, t)
        assert abs(p.populations.sum() - 1.0) <= 1e-9
        assert p.populations.min() >= 0.0


def test_sink_accumulates_ionized_probability(yb_scheme):
    drain = 432.0  # 1/s out of the ionizing level
    saturated = yb_scheme.with_all_drives_saturated(1e4)
    closed = build_rate_matrix(saturated)
    ss = steady_state(closed)
    p7p = ss["7p12"]

    ms = build_rate_matrix(
        saturated, include_ionization=True, ionization_rate=drain
    )
    p0 = PopulationVector(
        populations=np.append(ss.populations, 0.0),
        labels=ms.labels,
    )
    t = 0.01
    p = evolve(ms, p0, t)
    expected = 1.0 - math.exp(-p7p * drain * t)
    assert p["ionized"] == pytest.approx(expected, rel=2e-2)


# -- random-scheme oracle ------------------------------------------------------


def random_scheme(rng: np.random.Generator) -> LevelScheme:
    n = int(rng.integers(2, 7))
    energies = np.sort(rng.uniform(5000.0, 90000.0, size=n - 1))
    labels = ["g"] + [f"l{i}" for i in range(1, n)]
    levels = [Level("g", "c", 0.5, 0.0, None)]
    for i, en in enumerate(energies, start=1):
        lifetime = 10.0 ** rng.uniform(-8.0, -4.0)
        levels.append(Level(labels[i], "c", 0.5, float(en), lifetime))
    decays = []
    for i in range(1, n):
        lowers = rng.permutation(i)[: int(rng.integers(1, i + 1))]
        weights = rng.uniform(0.1, 1.0, size=len(lowers))
        total = weights.sum() * rng.uniform(1.0, 1.15)  # sums sometimes < 1
        for j, w in zip(lowers, weights):
            decays.append(
                DecayChannel(labels[i], labels[int(j)], float(w / total))
            )
    drives = []
    for i in range(1, n):
        if rng.uniform() < 0.6:
            j = int(rng.integers(0, i))
            gap = levels[i].energy_cm1 - levels[j].energy_cm1
            drives.append(
                LaserDrive(
                    upper=labels[i],
                    lower=labels[j],
                    wavelength_nm=1e7 / gap,
                    saturation=float(10.0 ** rng.uniform(-2.0, 2.0)),
                    detuning_hz=float(
                        rng.choice([0.0, 1.0])
                        * rng.normal(0.0, natural_fwhm_hz(levels[i].lifetime_s))
                    ),
                )
            )
    return LevelScheme(
        levels=tuple(levels), decays=tuple(decays), drives=tuple(drives)
    )


@pytest.mark.parametrize("policy", ["renormalize", "route_to_ground"])
def test_steady_state_matches_long_evolution(policy):
    rng = np.random.default_rng(174)
    worst = 0.0
    for _ in range(200):
        scheme = random_scheme(rng)
        m = build_rate_matrix(scheme, residual_policy=policy)
        ss = steady_state(m)
        min_rate = min(
            v for v in np.abs(np.asarray(m.matrix)).ravel() if v > 0
        )
        t = 30.0 / min_rate
        p = evolve(m, initial_population(m, "g"), t)
        worst = max(worst, np.abs(p.populations - ss.populations).max())
    assert worst <= 1e-7


def test_residual_policies_agree_on_p7p(yb_scheme):
    saturated = yb_scheme.with_all_drives_saturated(1e4)
    p_renorm = steady_state(build_rate_matrix(saturated, residual_policy="renormalize"))
    p_ground = steady_state(
        build_rate_matrix(saturated, residual_policy="route_to_ground")
    )
    a, b = p_renorm["7p12"], p_ground["7p12"]
    assert abs(a - b) / a < 0.01


# -- population vector ----------------------------------------------------------


def test_population_vector_lookup_and_clamp():
    p = PopulationVector(
        populations=np.array([0.7, 0.3 + 1e-13, -1e-13]),
        labels=("a", "b", "c"),
    )
    assert p["c"] == 0.0  # tiny negative clamped
    with pytest.raises(SolverError):
        PopulationVector(
            populations=np.array([0.5, 0.5, -1e-9]),
            labels=("a", "b", "c"),
        )
    with pytest.raises(SolverError):
        PopulationVector(
            populations=np.array([0.7, 0.2]), labels=("a", "b")
        )


def test_excitation_probability_trivial(yb_scheme):
    m = build_rate_matrix(yb_scheme)
    p0 = initial_population(m, "6s12")
    assert p0["6s12"] == 1.0
    uniform = PopulationVector(populations=np.full(9, 1.0 / 9.0), labels=m.labels)
    assert uniform["7s12"] == pytest.approx(1.0 / 9.0)
    with pytest.raises(SchemeError):
        p0["nope"]


# -- helper formulas -------------------------------------------------------------


def test_natural_fwhm():
    assert natural_fwhm_hz(13.5e-9) == pytest.approx(11.789e6, rel=1e-3)


def test_saturation_from_power_matches_isat():
    # 369.524 nm cooling line of the bundled scheme: saturation intensity
    # pi h c / (3 lambda^3 tau) evaluates to about 511 W/m^2
    lam_nm, tau = 369.524, 8.07e-9
    waist = 10e-6
    i_sat = 510.8  # W/m^2
    power = i_sat * math.pi * waist**2 / 2.0
    s = saturation_from_power(power, waist, lam_nm, tau)
    assert s == pytest.approx(1.0, rel=1e-3)
