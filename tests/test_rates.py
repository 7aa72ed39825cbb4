"""Rate-matrix assembly, steady states, time evolution, and their oracles."""

import ast
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ybion
from ybion import rates
from ybion.errors import SchemeError, SolverError
from ybion.rates import (
    STEADY_RESIDUAL_TOL,
    PopulationVector,
    RateMatrix,
    _propagate,
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
    validate_scheme,
)
from ybion.spectro import simulate_scan


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


@pytest.mark.parametrize("detuning_hz", [
    -11326905.156984247, 12713140.585600419, -5899053.491079579,
    1e150, -1e150, 1.7e308, -1.7e308,
])
def test_drive_rate_of_a_float_equals_its_array_entry_bit_for_bit(yb_scheme,
                                                                  detuning_hz):
    # At the first three, C's pow and a product round the square apart; the
    # last two overflow the square, where W is 0 on both paths.
    drive = yb_scheme.drive("7p12", "5d32")
    w = rates.drive_rate(yb_scheme, drive, detuning_hz)
    entry = rates.drive_rate(yb_scheme, drive, np.array([detuning_hz]))[0]
    assert type(w) is float
    assert w.hex() == float(entry).hex()


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


def test_decay_rates_divide_by_the_branching_total_validate_scheme_reports(
        monkeypatch):
    # 0.3 + 0.3 + 0.3 + 0.1 is 0.9999999999999999 added left to right and 1.0
    # compensated, as the builtin sum() adds floats from CPython 3.12 on;
    # fsum stands in for that sum on any interpreter.
    monkeypatch.setattr(rates, "sum", math.fsum, raising=False)
    ratios = {"g": 0.3, "a": 0.3, "b": 0.3, "c": 0.1}
    lifetime_s = 1e-8
    scheme = LevelScheme(
        levels=(Level("g", "ground", 0.5, 0.0, None),
                *(Level(label, label, 0.5, energy, None)
                  for label, energy in (("a", 1000.0), ("b", 2000.0), ("c", 3000.0))),
                Level("e", "excited", 0.5, 20000.0, lifetime_s)),
        decays=tuple(DecayChannel("e", lower, b) for lower, b in ratios.items()),
    )
    total = 0.0
    for b in ratios.values():
        total += b
    assert total != math.fsum(ratios.values())
    assert validate_scheme(scheme) == (
        f"level e: branching sum {total:.6f}, residual {1.0 - total:.6f} "
        "unmodeled decay",)
    m = build_rate_matrix(scheme)
    e = m.labels.index("e")
    for lower, b in ratios.items():
        assert m.matrix[m.labels.index(lower), e] == b / total / lifetime_s


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


@pytest.mark.parametrize("rate", [5.0, -1.0, math.inf, math.nan, 5e-324])
def test_a_drain_without_its_sink_is_refused_by_value(yb_scheme, rate):
    with pytest.raises(SchemeError) as info:
        build_rate_matrix(yb_scheme, ionization_rate=rate)
    assert str(info.value) == (f"ionization rate {rate!r} 1/s needs "
                               "include_ionization=True, which adds its sink")


@pytest.mark.parametrize("rate", [0.0, -0.0])
def test_a_zero_drain_without_the_sink_builds_the_closed_matrix(yb_scheme, rate):
    m = build_rate_matrix(yb_scheme, ionization_rate=rate)
    assert m.sink_index is None
    np.testing.assert_array_equal(m.matrix, build_rate_matrix(yb_scheme).matrix)


def test_rate_matrix_rejects_negative_offdiagonal():
    bad = np.array([[-1.0, -2.0], [1.0, 2.0]])
    with pytest.raises(SolverError):
        RateMatrix(matrix=bad, labels=("a", "b"), sink_index=None)


def test_rate_matrix_rejects_unbalanced_columns():
    bad = np.array([[-1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(SolverError):
        RateMatrix(matrix=bad, labels=("a", "b"), sink_index=None)


@pytest.mark.parametrize("matrix, labels, message", [
    pytest.param(np.zeros((2, 3)), ("a", "b"), "rate matrix must be square",
                 id="not-square"),
    pytest.param(np.zeros((2, 2)), ("a",),
                 "rate matrix size does not match label count", id="label-count"),
    pytest.param(np.zeros((0, 0)), (), "rate matrix is empty: it has no levels",
                 id="empty"),
])
def test_rate_matrix_refuses_a_bad_shape(matrix, labels, message):
    with pytest.raises(SolverError) as err:
        RateMatrix(matrix=matrix, labels=labels)
    assert str(err.value) == message


def test_unknown_labels_are_refused():
    m = build_rate_matrix(two_level())
    with pytest.raises(SchemeError) as err:
        m.index("x")
    assert str(err.value) == "unknown level label: x"
    p0 = PopulationVector(populations=[1.0, 0.0], labels=("g", "e"))
    with pytest.raises(SolverError) as err:
        evolve(m, p0, 1.0)
    assert str(err.value) == "population vector labels do not match matrix"


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


def test_scan_refuses_a_sink_as_steady_state_does(yb_scheme):
    ms = build_rate_matrix(yb_scheme, include_ionization=True, ionization_rate=1.0)
    with pytest.raises(SolverError) as steady:
        steady_state(ms)
    with pytest.raises(SolverError) as scan:
        rates.steady_state_scan(ms, "7p12", "5d32", [1.0, 0.0])
    assert str(scan.value) == str(steady.value)


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


def transient_ground_scheme() -> LevelScheme:
    # g <-> e is driven and e decays only into x, which has no lifetime, so
    # the ground level is transient and everything ends in x. Keeping the
    # ground level to the end of the reduction would hit a zero pivot.
    return LevelScheme(
        levels=(
            Level("g", "c", 0.5, 0.0, None),
            Level("x", "c", 1.5, 10000.0, None),
            Level("e", "c", 0.5, 20000.0, 1e-8),
        ),
        decays=(DecayChannel("e", "x", 1.0),),
        drives=(LaserDrive("e", "g", wavelength_nm=500.0, saturation=1.0),),
    )


def test_transient_ground_empties_into_metastable_level():
    p = steady_state(build_rate_matrix(transient_ground_scheme()))
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


@pytest.mark.parametrize("length", [*range(1, 21), 127, 128, 129, 300, 1000])
def test_kernel_sum_keeps_numpy_reduce_order(length):
    # The GTH kernel sums Python floats in numpy's order so that the sha256
    # pins hold; a numpy release that sums in another order fails here.
    rng = np.random.default_rng(length)
    for _ in range(200):
        # mixed signs and magnitudes, so that another order rounds otherwise
        v = rng.standard_normal(length) * 10.0 ** rng.integers(-8, 8, length)
        kind = rng.integers(0, 5, length)
        v[kind == 1] = -0.0
        v[kind == 2] = 5e-324 * rng.integers(-1000, 1000, length)[kind == 2]
        for values in (v, -np.abs(v) * 0.0, np.abs(v)):
            expected = np.add.reduce(values)
            assert np.float64(rates._sum(values.tolist())).tobytes() == expected.tobytes()


PIVOT_REFUSAL = ("steady-state pivot is zero or NaN: a NaN rate, or a level that "
                 "cannot reach the level kept last")


def test_underflowing_pivot_keeps_its_refusal():
    # b leaves only for a; once a is eliminated, the path b -> a -> c is
    # 1e-200 * (1e-200 / 1e200), which underflows, so b's pivot is zero
    a = np.zeros((3, 3))
    a[1, 0], a[2, 0], a[0, 1], a[0, 2] = 1e200, 1e-200, 1e-200, 1.0
    a.flat[::4] = -a.sum(axis=0)
    with pytest.raises(SolverError) as err:
        steady_state(RateMatrix(matrix=a, labels=("a", "b", "c")))
    assert str(err.value) == PIVOT_REFUSAL


def zero_pivot_scan_matrix() -> RateMatrix:
    # a leaves only through the scanned rate a <-> b, so its pivot is w,
    # zero at a point with w = 0, where a alone is the closed class
    a = np.zeros((3, 3))
    a[0, 2], a[1, 2], a[2, 1] = 1.0, 1.0, 1.0
    a.flat[::4] = -a.sum(axis=0)
    return RateMatrix(matrix=a, labels=("a", "b", "c"))


def test_scan_solves_a_point_whose_pivot_is_zero():
    # each row is the steady state of that point's matrix: w = 1 joins a
    # to the class, and at w = 0 a, which nothing leaves, holds everything
    m = zero_pivot_scan_matrix()
    w = [1.0, 0.0]
    rows = rates.steady_state_scan(m, "a", "b", w)
    for row, rate in zip(rows, w):
        point = np.array(m.matrix)
        point[[1, 0], [0, 1]] += rate
        point[[0, 1], [0, 1]] -= rate
        alone = steady_state(RateMatrix(matrix=point, labels=m.labels)).populations
        np.testing.assert_allclose(row, alone, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(rows, [[0.5, 1 / 3, 1 / 6], [1.0, 0.0, 0.0]],
                               rtol=1e-13, atol=0.0)


@pytest.fixture
def kept_last(monkeypatch):
    """The level that each rates._solve call keeps last, in call order."""
    levels = []
    solve = rates._solve

    def recorded(m, pair, w, last):
        levels.append(last)
        return solve(m, pair, w, last)

    monkeypatch.setattr(rates, "_solve", recorded)
    return levels


def test_a_failed_solve_is_never_repeated(kept_last):
    # _gth retries with another level kept last, never with the one whose
    # solve just failed, which would fail again
    calls = [lambda: rates.steady_state_scan(zero_pivot_scan_matrix(), "a", "b", [1.0, 0.0]),
             lambda: steady_state(build_rate_matrix(transient_ground_scheme()))]
    for call in calls:
        kept_last.clear()
        call()
        assert len(kept_last) == 2
        assert kept_last[0] != kept_last[1]


def test_a_scan_pivot_that_underflowed_keeps_its_refusal(kept_last):
    # With c kept last, m is eliminated first: a's rate into m over m's
    # pivot, 1e-122 / 1e265, underflows, so a's pivot is zero at w = 0,
    # though a reaches c through m. Keeping a last would pass every pivot
    # and give a everything, where the point's steady state is about
    # (1e-78, 0, 1), so the refusal stands after one solve.
    a = np.zeros((3, 3))
    a[1, 0], a[2, 1], a[0, 1], a[0, 2] = 1e-122, 1e265, 1e37, 1e-200
    a.flat[::4] = -a.sum(axis=0)
    m = RateMatrix(matrix=a, labels=("a", "m", "c"))
    with pytest.raises(SolverError) as err:
        rates.steady_state_scan(m, "a", "c", [0.0, 1.0])
    assert str(err.value) == PIVOT_REFUSAL
    assert kept_last == [2]
    assert steady_state(m).populations.tolist() == pytest.approx([1e-78, 0.0, 1.0],
                                                                 rel=1e-12, abs=0.0)


def test_a_retry_that_overflows_is_refused_as_steady_state_refuses_its_point(kept_last):
    # a leaves only through the scanned rate, so its pivot is zero at w = 0
    # with c kept last. Kept last instead, a is solved, but c -> b at 1e200
    # against b's 2e-200 way out overflows to NaN, which the scan refuses
    # as steady_state refuses the w = 0 point, the matrix itself.
    a = np.zeros((3, 3))
    a[0, 1], a[1, 2], a[2, 1] = 1e-200, 1e200, 1e-200
    a.flat[::4] = -a.sum(axis=0)
    m = RateMatrix(matrix=a, labels=("a", "b", "c"))
    with pytest.raises(SolverError) as err:
        rates.steady_state_scan(m, "a", "c", [0.0, 1.0])
    assert str(err.value) == "population outside [0, 1]: min nan, max nan"
    assert kept_last == [2, 0]
    with pytest.raises(SolverError) as alone:
        steady_state(m)
    assert str(alone.value) == str(err.value)


def test_a_nan_pivot_keeps_its_refusal_after_one_solve(kept_last):
    # Once a is eliminated, b's pivot is 1e-158; the rates from c and d into
    # b overflow when divided by it, and 0 * inf makes c's pivot NaN. All
    # four levels form the one closed class, so the level to keep last is
    # d, kept last already, and the refusal stands without a second solve.
    a = np.array([[0.0, 1e8, 1e238, 1e132], [1e214, 0.0, 0.0, 1e229],
                  [1e48, 0.0, 0.0, 0.0], [0.0, 0.0, 1e200, 0.0]])
    a.flat[::5] = -a.sum(axis=0)
    with pytest.raises(SolverError) as err:
        steady_state(RateMatrix(matrix=a, labels=("a", "b", "c", "d")))
    assert str(err.value) == PIVOT_REFUSAL
    assert kept_last == [3]


def test_bundled_solves_never_search_the_level_graph(monkeypatch):
    # every level of the bundled schemes reaches the ground level, kept last,
    # so the pivots pass and the level-graph search is never needed
    def searched(*args):
        raise AssertionError("the level graph was searched")

    monkeypatch.setattr(rates, "_kept_last", searched)
    for name in ("yb174_plus", "linewidth_reference"):
        scheme = load_bundled_scheme(name)
        for edited in (scheme, scheme.with_all_drives_saturated(1e-2),
                       scheme.with_all_drives_saturated(1e4)):
            steady_state(build_rate_matrix(edited))
        simulate_scan(scheme, "7p12", "5d32", np.linspace(-3e8, 3e8, 241))


def random_scan(rng):
    """A rate matrix of 2 to 6 levels, its rates present with one drawn
    probability at 10^U(-6, 6) 1/s, a random pair and 4 scanned rates,
    one of them 0."""
    n = int(rng.integers(2, 7))
    present = rng.random((n, n)) < rng.uniform(0.2, 0.9)
    a = np.where(present, 10.0 ** rng.uniform(-6.0, 6.0, (n, n)), 0.0)
    a.flat[::n + 1] = 0.0
    a.flat[::n + 1] = -a.sum(axis=0)
    pair = tuple(int(k) for k in rng.choice(n, 2, replace=False))
    w = 10.0 ** rng.uniform(-6.0, 6.0, 4)
    w[rng.integers(4)] = 0.0
    return RateMatrix(matrix=a, labels=tuple("abcdef"[:n])), pair, w


def test_a_scan_is_refused_as_steady_state_refuses_its_w0_point(monkeypatch):
    # One retry rule: each row is its point's steady state where every
    # point solves alone, and where the w = 0 point has several closed
    # classes, the scan carries that point's refusal. The level graph is
    # searched at most once per scan.
    searches = []
    search = rates._kept_last

    def counted(m, links):
        searches.append(links)
        return search(m, links)

    monkeypatch.setattr(rates, "_kept_last", counted)
    rng = np.random.default_rng(11)
    for _ in range(3000):
        m, (i, j), w = random_scan(rng)
        alone = []
        for rate in w:
            point = np.array(m.matrix)
            point[[j, i], [i, j]] += rate
            point[[i, j], [i, j]] -= rate
            try:
                alone.append(steady_state(RateMatrix(matrix=point, labels=m.labels)))
            except SolverError as err:
                alone.append(str(err))
        searches.clear()
        if all(isinstance(p, PopulationVector) for p in alone):
            rows = rates.steady_state_scan(m, m.labels[i], m.labels[j], w)
            for row, p in zip(rows, alone):
                np.testing.assert_allclose(row, p.populations, rtol=1e-13, atol=0.0)
        else:
            refusal = alone[int(np.flatnonzero(w == 0.0)[0])]
            assert refusal.startswith("null space dimension ")
            with pytest.raises(SolverError) as err:
                rates.steady_state_scan(m, m.labels[i], m.labels[j], w)
            assert str(err.value) == refusal
        assert len(searches) <= 1


@pytest.mark.parametrize("w, shown", [
    ([-1e3], "-1000.0"), ([math.nan], "nan"), ([math.inf], "inf"), ([1.0, -0.5], "-0.5"),
], ids=["negative", "nan", "inf", "second-point"])
def test_scan_refuses_a_rate_outside_its_range_by_value(yb_scheme, w, shown):
    # each used to end at a zero or NaN pivot, whose refusal named no input
    dark = build_rate_matrix(yb_scheme.with_drive("7p12", "5d32", saturation=0.0))
    with pytest.raises(SolverError) as err:
        rates.steady_state_scan(dark, "7p12", "5d32", w)
    assert str(err.value) == f"scanned rate must be >= 0 and finite, got {shown} 1/s"


def test_scan_refuses_a_self_pair_naming_the_level(yb_scheme):
    # a rate from a level to itself moves no population; this used to end
    # at a zero pivot, whose refusal named neither the pair nor the cause
    m = build_rate_matrix(yb_scheme)
    with pytest.raises(SchemeError) as err:
        rates.steady_state_scan(m, "7p12", "7p12", [1.0, 2.0])
    assert str(err.value) == "scanned pair 7p12<->7p12: levels must differ"


def test_scan_refuses_overflowing_populations_as_steady_state_does():
    # the back-substitution products overflow, so every population is NaN
    a = np.array([[-1e-300, 1e300, 1e200], [1e-300, -1e300, 1e-200],
                  [0.0, 1.0, -1e200]])
    pumped = a + np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
    message = "population outside [0, 1]: min nan, max nan"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError) as err:
            steady_state(RateMatrix(matrix=pumped, labels=("a", "b", "c")))
        assert str(err.value) == message
        m = RateMatrix(matrix=a, labels=("a", "b", "c"))
        with pytest.raises(SolverError) as err:
            rates.steady_state_scan(m, "a", "b", [1.0])
        assert str(err.value) == message


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


def mp_evolve(m, p0, t_s, dps=50):
    """exp(M t_s) p0 at dps digits for the float off-diagonal rates of m,
    with the diagonal their exact negative column sums."""
    with mpmath.workdps(dps):
        a = mpmath.matrix(m.matrix.tolist())
        for j in range(m.n):
            a[j, j] = -mpmath.fsum(a[i, j] for i in range(m.n) if i != j)
        v = mpmath.expm(a * t_s) * mpmath.matrix(p0.populations.tolist())
        return np.array([float(x) for x in v])


# The dynamics benchmark's extremes of saturation, each with a drain out of
# 7p12; without the sink the same scheme is solved sink-free, with no drain.
@pytest.mark.parametrize("t_s", [0.1, 1.0, 10.0], ids=["0.1s", "1s", "10s"])
@pytest.mark.parametrize("sink", [True, False], ids=["sink", "no-sink"])
@pytest.mark.parametrize("saturation,drain", [(1e4, 50.0), (1e-2, 1e3)],
                         ids=["S1e4", "S1e-2"])
def test_evolve_matches_a_50_digit_exponential(yb_scheme, saturation, drain, sink,
                                               t_s):
    m = build_rate_matrix(yb_scheme.with_all_drives_saturated(saturation),
                          include_ionization=sink,
                          ionization_rate=drain if sink else 0.0)
    p0 = initial_population(m, "6s12")
    exact = mp_evolve(m, p0, t_s)
    p = evolve(m, p0, t_s).populations
    assert exact.min() > 0.0
    assert np.abs(p / exact - 1.0).max() <= 1e-12


# sha256 of the float64 bytes of evolve's populations at the dynamics
# benchmark's 16 times, with a 50 1/s drain into the sink, and of the
# sink-free steady state, per saturation. They pin the rounding of the
# kernel and the checks around it: a change that moves any population by
# one ulp fails here. The bytes are those of numpy 2.4 on OpenBLAS 0.3.31
# (x86-64, little-endian); a BLAS that sums its dot products in another
# order rounds differently, and the pins then need recording anew.
PINNED = {
    1e-2: ("9293c95365a115036b464bfd79dc7eafddc44ccdd94c957f53ea2cbaae897e0e",
           "4994c88df7be6c9e5c96a5b95e193870415a38bc8b275c99d6127c9c22c0c5d7"),
    1.0: ("4ee91940733bf46e015ff0faa607ca4359500c3f69c316adf2d6efdd26cc8374",
          "b3b453291241e6d06034de5793e02669b31f849e13539850e09a8c7f743237ca"),
    1e4: ("43efd1960259e84fa3c9fb68bfe4c65b67d6c0082a51913605d8222746abf3f8",
          "09cda1b0b1cc3c90909d53a5b7e2023a04cfe407580fe56e58c639e854355a4c"),
}


@pytest.mark.parametrize("saturation", sorted(PINNED), ids=["S1e-2", "S1", "S1e4"])
def test_evolve_and_steady_state_bits_are_pinned(yb_scheme, saturation):
    sat = yb_scheme.with_all_drives_saturated(saturation)
    m = build_rate_matrix(sat, include_ionization=True, ionization_rate=50.0)
    p0 = initial_population(m, "6s12")
    digest = hashlib.sha256()
    for t in np.logspace(-6, 1, 16):
        digest.update(evolve(m, p0, float(t)).populations.tobytes())
    steady = steady_state(build_rate_matrix(sat)).populations.tobytes()
    assert (digest.hexdigest(), hashlib.sha256(steady).hexdigest()) == PINNED[saturation]


def drawn_rate_matrix(seed, n):
    """A random n-level rate matrix: about 70 % of the rates nonzero, each a
    uniform mantissa times 2^-40 to 2^40. ldexp is exact, so the rates have
    the same bits on every platform."""
    rng = np.random.default_rng(seed)
    a = np.ldexp(rng.random((n, n)), rng.integers(-40, 41, (n, n)))
    a[rng.random((n, n)) < 0.3] = 0.0
    a.flat[::n + 1] = 0.0
    a.flat[::n + 1] = -a.sum(axis=0)
    return RateMatrix(matrix=a, labels=tuple(f"l{i}" for i in range(n)))


# sha256 of the float64 bytes of steady_state on drawn_rate_matrix(n, n).
# Here the first n - 8 back-substituted levels sum 8 terms or more, by
# numpy's add.reduce, so these pin the order of _sum's numpy branch, which
# the bundled schemes' nine levels reach with their first level alone;
# summing the back-substitution left to right changes every digest.
DRAWN_PINNED = {
    11: "6c14c65145596ae3147e585f5b1acf4262e80a9b5527c49f16b0256ca16816eb",
    13: "6b2adf3ad1c23d9e70193ac47660fa6463b70ac6627fb2c4a1e124d23fbd2bd8",
    15: "0cd23296706899831766f29ea6489bb88c9f17116e6ec4c51f0b9f4c171abb17",
}


@pytest.mark.parametrize("n", sorted(DRAWN_PINNED))
def test_steady_state_bits_are_pinned_on_drawn_matrices(n):
    steady = steady_state(drawn_rate_matrix(n, n)).populations
    assert hashlib.sha256(steady.tobytes()).hexdigest() == DRAWN_PINNED[n]


def log_uniform(lowest, highest):
    return st.floats(math.log10(lowest), math.log10(highest)).map(lambda e: 10.0**e)


@st.composite
def drawn_schemes(draw):
    """yb174_plus with every lifetime and every drive's saturation drawn."""
    yb = load_bundled_scheme("yb174_plus")
    levels = tuple(
        lv if lv.lifetime_s is None
        else dataclasses.replace(lv, lifetime_s=draw(log_uniform(1e-10, 1e9)))
        for lv in yb.levels)
    drives = tuple(dataclasses.replace(d, saturation=draw(log_uniform(1e-8, 1e10)))
                   for d in yb.drives)
    return dataclasses.replace(yb, levels=levels, drives=drives)


def agree(a, b, rtol):
    """Entrywise |a - b| <= rtol max(a, b), for entries above 1e-290: a
    number below that lies near the subnormal range, where floats lose
    significant bits."""
    return bool((np.abs(a - b) <= rtol * np.maximum(a, b) + 1e-290).all())


EPS = np.finfo(float).eps


@given(scheme=drawn_schemes(),
       drain=st.one_of(st.just(0.0), log_uniform(1e-3, 1e9)),
       t1=st.floats(0.0, 10.0), t2=st.floats(0.0, 10.0))
@settings(max_examples=150, deadline=None)
def test_evolve_properties_on_drawn_schemes(scheme, drain, t1, t2):
    m = build_rate_matrix(scheme, include_ionization=True, ionization_rate=drain)
    p0 = initial_population(m, "6s12")
    first = evolve(m, p0, t1)
    then = evolve(m, first, t2)
    direct = evolve(m, p0, t1 + t2)
    for p in (first, then, direct):
        assert abs(p.populations.sum() - 1.0) <= m.n * EPS
    # nonnegative before PopulationVector clamps anything
    assert _propagate(m, p0.populations, t1 + t2).min() >= 0.0
    # the sink only gains; dividing by the sum may move it by a few ulps
    sink = m.sink_index
    assert then.populations[sink] >= first.populations[sink] * (1.0 - m.n * EPS)
    assert agree(then.populations, direct.populations, 1e-11)
    # 1e300 s outlasts every relaxation time these rates can make
    closed = build_rate_matrix(scheme)
    limit = evolve(closed, initial_population(closed, "6s12"), 1e300)
    assert agree(limit.populations, steady_state(closed).populations, 1e-11)


def mp_null_vector(m, dps=120):
    """Stationary populations of m from a dps-digit LU solve: the diagonal
    is recomputed from the off-diagonal rates and the last equation is
    replaced by sum(p) = 1. The rates of drawn schemes span about 40
    decades, so the solve carries 120 digits."""
    n = m.n
    with mpmath.workdps(dps):
        a = mpmath.matrix(m.matrix.tolist())
        for j in range(n):
            a[j, j] = -mpmath.fsum(a[i, j] for i in range(n) if i != j)
        for j in range(n):
            a[n - 1, j] = 1
        p = mpmath.lu_solve(a, mpmath.matrix([0] * (n - 1) + [1]))
        return np.array([float(x) for x in p])


def with_pair_rate(m, upper, lower, w):
    """m with the rate w (1/s) added both ways between upper and lower."""
    a = m.matrix.copy()
    u, l = m.index(upper), m.index(lower)
    a[u, l] += w
    a[l, u] += w
    a[u, u] -= w
    a[l, l] -= w
    return RateMatrix(matrix=a, labels=m.labels)


# Worst entrywise relative errors seen over 3000 drawn schemes, with four
# scanned rates each: 4.0 EPS between steady_state and the 120-digit null
# vector, 4.2 EPS between a steady_state_scan row and the steady_state of
# its matrix. The bound leaves a factor of four above both.
GTH_RTOL = 16 * EPS


@given(scheme=drawn_schemes(), drive=st.integers(0, 3),
       w=st.lists(st.one_of(st.just(0.0), log_uniform(1e-8, 1e20)),
                  min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_steady_states_match_oracles_on_drawn_schemes(scheme, drive, w):
    m = build_rate_matrix(scheme)
    assert agree(steady_state(m).populations, mp_null_vector(m), GTH_RTOL)
    # each scan row is the steady state with its rate added, as spectro
    # scans: from the matrix with the scanned drive dark
    d = scheme.drives[drive]
    dark = build_rate_matrix(
        scheme.with_drive(d.upper, d.lower, saturation=0.0, power_w=None, waist_m=None))
    rows = rates.steady_state_scan(dark, d.upper, d.lower, w)
    for rate, row in zip(w, rows):
        expected = steady_state(with_pair_rate(dark, d.upper, d.lower, rate))
        assert agree(row, expected.populations, GTH_RTOL)


# -- results built without re-checks ---------------------------------------------


def replaced_drives(scheme, edit):
    """scheme with edit(drive) applied to every drive, through
    dataclasses.replace, which runs every check of LaserDrive and
    LevelScheme."""
    return dataclasses.replace(
        scheme, drives=tuple(dataclasses.replace(d, **edit(d)) for d in scheme.drives))


@pytest.mark.parametrize("name", ["linewidth_reference", "yb174_plus"])
@pytest.mark.parametrize("saturation", [1e-2, 1.0, 1e4])
@pytest.mark.parametrize("detuning_hz", [0.0, 3e6])
def test_unchecked_results_equal_the_checked_construction(name, saturation, detuning_hz):
    base = load_bundled_scheme(name)
    scheme = base.with_all_drives_saturated(saturation)
    strength = {"saturation": saturation, "power_w": None, "waist_m": None}
    assert scheme == replaced_drives(base, lambda d: strength)
    first = scheme.drives[0]
    edited = scheme.with_drive(first.upper, first.lower, detuning_hz=detuning_hz)
    assert edited == replaced_drives(
        scheme, lambda d: {"detuning_hz": detuning_hz} if d is first else {})
    assert type(scheme) is type(edited) is LevelScheme
    ground = min(base.levels, key=lambda lv: lv.energy_cm1).label
    for sink in (False, True):
        m = build_rate_matrix(edited, include_ionization=sink,
                              ionization_rate=1e3 if sink else 0.0)
        checked = RateMatrix(m.matrix, m.labels, m.sink_index)
        for array in ("matrix", "shifted"):
            fast, full = getattr(m, array), getattr(checked, array)
            assert fast.tobytes() == full.tobytes() and fast.shape == full.shape
            assert not fast.flags.writeable
        assert (m.shift, m.labels, m.sink_index) == (
            checked.shift, checked.labels, checked.sink_index)
        p0 = initial_population(m, ground)
        for t_s in (1e-6, 1e-3, 10.0):
            result = evolve(m, p0, t_s)
            p = _propagate(m, p0.populations, t_s)
            expected = PopulationVector(p / p.sum(), m.labels)
            assert result.populations.tobytes() == expected.populations.tobytes()
            assert result.labels == m.labels
            assert not result.populations.flags.writeable
            assert (evolve(checked, p0, t_s).populations.tobytes()
                    == result.populations.tobytes())


def test_evolve_over_no_time_returns_the_start_itself(yb_scheme):
    m = build_rate_matrix(yb_scheme, include_ionization=True, ionization_rate=1e3)
    p0 = evolve(m, initial_population(m, "6s12"), 1e-3)
    assert evolve(m, p0, 0.0) is p0


@pytest.mark.parametrize("sink", [False, True])
def test_initial_population_is_the_checked_unit_vector(yb_scheme, sink):
    m = build_rate_matrix(yb_scheme, include_ionization=sink)
    for i, label in enumerate(m.labels):
        p = initial_population(m, label)
        unit = np.zeros(m.n)
        unit[i] = 1.0
        checked = PopulationVector(unit, m.labels)
        assert p.populations.tobytes() == checked.populations.tobytes()
        assert p.populations.shape == (m.n,) and p.labels == m.labels
        assert not p.populations.flags.writeable
        assert p[label] == 1.0


# -- scipy stays out of the runtime -----------------------------------------------


PACKAGE = Path(ybion.__file__).parent


def scipy_imports(root):
    """(file name, line) of each import of scipy in the .py files under root."""
    found = []
    for path in sorted(Path(root).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in modules):
                found.append((path.name, node.lineno))
    return found


def test_no_module_imports_scipy(tmp_path):
    assert scipy_imports(PACKAGE) == []
    # a function-local import is found, a string naming scipy is not
    (tmp_path / "module.py").write_text(
        '"""Once used scipy.linalg."""\n'
        "def f(a):\n"
        "    from scipy.linalg import expm\n"
        "    return expm(a)\n", encoding="utf-8")
    assert scipy_imports(tmp_path) == [("module.py", 3)]


def test_evolve_runs_without_loading_scipy(tmp_path):
    script = (
        "import sys\n"
        "from ybion import rates, scheme\n"
        "yb = scheme.load_bundled_scheme('yb174_plus')\n"
        "m = rates.build_rate_matrix(yb, include_ionization=True, ionization_rate=50.0)\n"
        "rates.evolve(m, rates.initial_population(m, '6s12'), 1.0)\n"
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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


# build_rate_matrix renormalizes branching sums below 1, its one residual
# policy; the parameter keeps this case's name.
@pytest.mark.parametrize("policy", ["renormalize"])
def test_steady_state_matches_long_evolution(policy):
    rng = np.random.default_rng(174)
    worst = 0.0
    for _ in range(200):
        scheme = random_scheme(rng)
        m = build_rate_matrix(scheme)
        ss = steady_state(m)
        min_rate = min(
            v for v in np.abs(np.asarray(m.matrix)).ravel() if v > 0
        )
        t = 30.0 / min_rate
        p = evolve(m, initial_population(m, "g"), t)
        worst = max(worst, np.abs(p.populations - ss.populations).max())
    assert worst <= 1e-7


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


def test_population_vector_copies_clamps_and_freezes():
    given_array = np.array([0.5, 0.5 + 1e-13, -1e-13])
    p = PopulationVector(populations=given_array, labels=("a", "b", "c"))
    assert math.copysign(1.0, p.populations[2]) == 1.0 and p["c"] == 0.0
    assert p.populations[:2].tobytes() == given_array[:2].tobytes()
    # the caller's array is copied, untouched and still writable
    assert given_array[2] == -1e-13 and given_array.flags.writeable
    given_array[0] = 0.25
    assert p["a"] == 0.5
    assert not p.populations.flags.writeable
    with pytest.raises(ValueError):
        p.populations[0] = 0.0
    # no clamp without a negative entry: -0.0 keeps its sign, as before
    kept = PopulationVector(populations=np.array([1.0, -0.0]), labels=("a", "b"))
    assert math.copysign(1.0, kept.populations[1]) == -1.0


@pytest.mark.parametrize("values,message", [
    ([1.0, -1e-9], "population outside [0, 1]: min -1.000e-09, max 1.000e+00"),
    ([1.5, -0.5], "population outside [0, 1]: min -5.000e-01, max 1.500e+00"),
    ([0.7, 0.2], "populations sum to 0.8999999999999999, not 1"),
    ([[0.5, 0.5]], "population vector size does not match labels"),
    ([1.0], "population vector size does not match labels"),
], ids=["negative", "outside-both-ends", "sum", "two-dimensional", "size"])
def test_population_vector_refusals_keep_their_wording(values, message):
    with pytest.raises(SolverError) as caught:
        PopulationVector(populations=np.array(values), labels=("a", "b"))
    assert str(caught.value) == message


def test_an_empty_population_vector_is_refused_by_name():
    with pytest.raises(SolverError) as caught:
        PopulationVector(populations=np.zeros(0), labels=())
    assert str(caught.value) == "population vector is empty: it has no levels"


@pytest.mark.parametrize("values", [
    [math.nan, 0.5, 0.5], [0.5, math.nan, 0.5], [0.5, 0.5, math.nan],
    [math.inf, 0.5, 0.5], [0.5, 0.5, -math.inf], [math.nan] * 3,
], ids=["nan-first", "nan-middle", "nan-last", "inf", "minus-inf", "all-nan"])
def test_population_vector_refuses_non_finite_entries(values):
    # every comparison with NaN is False; the range and sum tests must fail
    # on it wherever it stands
    with pytest.raises(SolverError):
        PopulationVector(populations=np.array(values), labels=("a", "b", "c"))


def test_evolve_refuses_a_nan_total(yb_scheme, monkeypatch):
    m = build_rate_matrix(yb_scheme)
    p0 = initial_population(m, "6s12")
    monkeypatch.setattr(rates, "_propagate", lambda m, p0, t_s: np.full(m.n, math.nan))
    with pytest.raises(SolverError,
                       match=r"^propagator lost conservation: populations sum to .*nan"):
        evolve(m, p0, 1.0)


def test_rate_matrix_keeps_the_shifted_matrix(yb_scheme):
    m = build_rate_matrix(yb_scheme.with_all_drives_saturated(1e4),
                          include_ionization=True, ionization_rate=50.0)
    off = np.array(m.matrix)
    np.fill_diagonal(off, 0.0)
    out_rates = off.sum(axis=0)
    assert m.shift == out_rates.max() and type(m.shift) is float
    shifted = off.copy()
    np.fill_diagonal(shifted, m.shift - out_rates)
    assert np.array_equal(m.shifted, shifted) and (m.shifted >= 0.0).all()
    for array in (m.matrix, m.shifted):
        assert not array.flags.writeable


def test_rate_matrix_copies_the_callers_array():
    given_array = np.array([[-1.0, 2.0], [1.0, -2.0]])
    m = RateMatrix(matrix=given_array, labels=("a", "b"))
    assert given_array.flags.writeable
    given_array[0, 0] = 5.0
    assert m.matrix[0, 0] == -1.0 and not m.matrix.flags.writeable


def test_rate_matrix_and_population_vector_compare_and_hash_by_identity():
    m = RateMatrix(matrix=np.array([[-1.0, 2.0], [1.0, -2.0]]), labels=("a", "b"))
    p = PopulationVector(populations=[0.25, 0.75], labels=("a", "b"))
    for value, twin in ((m, RateMatrix(matrix=m.matrix, labels=m.labels)),
                        (p, PopulationVector(populations=p.populations,
                                             labels=p.labels))):
        assert value == value and value != twin
        assert hash(value) == hash(value)
        assert len({value, twin}) == 2


@pytest.mark.parametrize("matrix,sink_index", [
    (np.zeros((2, 2)), 7),
    (np.zeros((2, 2)), -1),
    (np.array([[-1.0, 1.0], [1.0, -1.0]]), 0),
], ids=["beyond", "negative", "leaking"])
def test_rate_matrix_refuses_a_sink_index_that_is_no_sink(matrix, sink_index):
    with pytest.raises(SolverError) as err:
        RateMatrix(matrix=matrix, labels=("a", "b"), sink_index=sink_index)
    assert str(err.value) == ("sink_index must index a level with no out-rate (a sink "
                              f"absorbs), one of 0 to 1, got {sink_index}")
    # b absorbs what leaves a
    drain = np.array([[-1.0, 0.0], [1.0, 0.0]])
    assert RateMatrix(matrix=drain, labels=("a", "b"), sink_index=1).sink_index == 1


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
