"""Multi-level rate-equation model: matrix build, steady state, evolution.

Populations live in a vector p ordered by decreasing level energy (ground
state last); the rate matrix M collects all transfer rates so that
dp/dt = M p. Column j holds the rates out of level j: off-diagonal entry
(i, j) is the rate j -> i in 1/s and the diagonal entry is minus the column
sum, so every column sums to zero and the total population is conserved.
With this ordering a decay-only matrix is strictly lower triangular off the
diagonal, since spontaneous emission only moves population downward in
energy.

Spontaneous decay enters as A = (branching_ratio / total) / lifetime(upper),
total being the upper level's sum in scheme.branching_sums, so the
listed channels carry its whole 1/lifetime; a total below 1 (0.997 for 7p12
of yb174_plus) scales them up rather than leaving an unmodeled loss. The
scheme forms each total once, when it is built, and has refused any level
that decays or is driven without a lifetime. A resonant drive with
saturation parameter S adds a stimulated rate

    W = (S / (2 * lifetime(upper))) / (1 + (2 * detuning / width)**2)

applied symmetrically to absorption and stimulated emission, where width is
the natural FWHM of the upper level in Hz, 1 / (2 pi lifetime). For an
isolated two-level pair this reproduces the standard saturation behavior:
upper population S/(2(S+1)) on resonance and a fitted linewidth growing as
sqrt(1 + S). The detuning is the laser offset from line center in Hz.
drive_rate squares 2 * detuning / width as one product, x * x, for a float
detuning and for an array alike, so a scan point and a steady state at the
same detuning use the same W to the bit.

Steady states come from the Grassmann-Taksar-Heyman (GTH) state reduction
(Grassmann, Taksar & Heyman, Operations Research 33, 1985), which reads only
the off-diagonal rates, never subtracts, and so returns nonnegative
populations accurate entry by entry even at saturation parameters of 1e8.
A unique steady state exists exactly when the level graph has one closed
class (a set of mutually reachable levels with no way out). The last,
ground level is kept to the end of the reduction first; its pivots are
positive when every level reaches it (O'Cinneide, Numer. Math. 65, 1993).
After a failed pivot, the closed class is found from the nonzero pattern
and its highest-index member is kept last instead, which also serves a
transient ground level, or in a scan the member without the pair where
a point has w = 0; n - 1 again means an underflowed or NaN pivot, which
is refused. Several closed classes raise SolverError naming the groups.

steady_state and steady_state_scan share one driver, _gth. A scan changes
only the two rates of the scanned pair, so the pair and the level kept
last end the elimination order and every other level is eliminated once,
in index order, on the n x n matrix itself, with no points axis. What is
left is the stochastic complement on those (at most three) trailing
levels (Meyer, SIAM Review 31, 1989), identical at every detuning; the
scanned rate is added to it and only that block is solved per point. A
steady state is the same solve with no pair, a plain GTH solve whose
trailing block is the level kept last alone. The kernel, _eliminate and
_back_substitute, works on Python floats in lists: on ten levels or
fewer, one numpy call per pivot costs more than its arithmetic. A rate
of the trailing block that depends on the point is a numpy array over
the points, and the kernel does the same operations, in the same order,
on it. The steady-state and scan bits are pinned by sha256 in the tests,
so numpy's own reductions give them: a sum of 8 terms or more is numpy's
add.reduce, and a shorter one runs left to right from 0.0, as add.reduce
does (_sum). build_rate_matrix accumulates on Python floats, converts to
an array once and closes its columns with one numpy sum. It and evolve,
alone of the package, skip the copies and re-checks of RateMatrix and
PopulationVector (_trusted): all their rates and terms are >= 0, and each
sum was formed or tested just now.
evolve over t_s = 0 returns p0 itself, read-only and labelled as m.

Time evolution is subtraction-free too: evolve exponentiates the matrix
shifted by its largest out-rate, which is nonnegative, by a Taylor sum and
repeated squaring (Xue & Ye, Math. Comp. 82, 2013), so small populations
keep their relative accuracy beside rates of 1e11 1/s.

Coherences are deliberately absent: all drives are treated as broadband rate
couplings, which is the regime the chopped multi-laser experiment operates
in. Optional ionization is a one-way drain from the ionizing level 7p12
into an absorbing sink row, whose population reads out the cumulative
ionization probability. A matrix built without it is the sink-free matrix
that steady states need.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

from ._numpy import np
from .constants import PLANCK_CONSTANT_J_S, SPEED_OF_LIGHT_M_S
from .errors import SchemeError, SolverError, check, check_array, representable
from .scheme import LevelScheme

__all__ = [
    "RateMatrix",
    "PopulationVector",
    "build_rate_matrix",
    "saturation_from_power",
    "drive_rate",
    "steady_state",
    "steady_state_scan",
    "evolve",
    "initial_population",
]

SINK_LABEL = "ionized"

# The level the ionizing beam drains into the sink.
IONIZED_FROM = "7p12"

# Residual of M p that steady states are tested to, relative to the largest
# matrix entry. The GTH solve is accurate by construction and does not gate
# on it.
STEADY_RESIDUAL_TOL = 1e-10

# Most negative population tolerated before clamping to zero.
NEGATIVE_POP_TOL = 1e-12

POPULATION_SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class RateMatrix:
    """Rate matrix with its level ordering.

    matrix[i, j] is the rate from level j into level i (1/s) for i != j;
    diagonal entries close each column to zero sum. When an ionization sink
    is present it occupies the last row/column under the label "ionized";
    sink_index, when given, must index a level with no out-rate.
    matrix is a read-only float copy of the array given, which stays the
    caller's own. shift is lam, the largest out-rate (the largest column
    sum of the off-diagonal rates), and shifted is the nonnegative B = M +
    lam I: the off-diagonal rates with lam minus each level's out-rate on
    the diagonal; _close computes them once, for evolve. build_rate_matrix
    (_trusted) skips __post_init__'s copy, re-sum and checks: its rates are
    finite and >= 0 by construction, and _close gets the sums it closed.
    """

    matrix: np.ndarray
    labels: tuple[str, ...]
    sink_index: int | None = None
    shift: float = field(init=False, repr=False)
    shifted: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SolverError("rate matrix must be square")
        n = m.shape[0]
        if n != len(self.labels):
            raise SolverError("rate matrix size does not match label count")
        if not n:
            raise SolverError("rate matrix is empty: it has no levels")
        # max propagates NaN, so one reduction finds every non-finite rate
        scale = float(np.abs(m).max())
        if not math.isfinite(scale):
            raise SolverError("non-finite rate in rate matrix")
        shifted = m.copy()
        shifted.flat[::n + 1] = 0.0
        if shifted.min() < 0.0:
            raise SolverError("negative transfer rate in rate matrix")
        out_rates = shifted.sum(axis=0)
        if np.abs(out_rates + m.diagonal()).max() > 1e-12 * (scale or 1.0):
            raise SolverError("rate-matrix columns do not sum to zero")
        sink = self.sink_index
        if sink is not None and not (isinstance(sink, int) and 0 <= sink < n
                                     and out_rates[sink] == 0.0):
            raise SolverError(f"sink_index must index a level with no out-rate (a sink "
                              f"absorbs), one of 0 to {n - 1}, got {sink}")
        self._close(m, shifted, out_rates)

    def _close(self, m: np.ndarray, shifted: np.ndarray, out_rates) -> "RateMatrix":
        """Set m, shift and shifted (m's copy) from out_rates, m's off-diagonal sums."""
        shift = float(out_rates.max())
        shifted.flat[::len(out_rates) + 1] = shift - out_rates
        m.flags.writeable = shifted.flags.writeable = False
        vars(self).update(matrix=m, shift=shift, shifted=shifted)
        return self

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise SchemeError(f"unknown level label: {label}") from None


@dataclass(frozen=True, eq=False)
class PopulationVector:
    """Level populations in the ordering of an accompanying RateMatrix, in
    [0, 1] and summing to 1. evolve (_trusted) alone skips the copy and
    checks, which its terms, >= 0 and normalized, pass."""

    populations: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        p = np.array(self.populations, dtype=float)
        if p.ndim != 1 or p.size != len(self.labels):
            raise SolverError("population vector size does not match labels")
        if not p.size:
            raise SolverError("population vector is empty: it has no levels")
        # Python floats: on ten entries each builtin beats a numpy call. The
        # tests are negated so that NaN fails them; a NaN entry that min and
        # max step over still makes the sum NaN.
        values = p.tolist()
        lo, hi = min(values), max(values)
        if not (lo >= -NEGATIVE_POP_TOL and hi <= 1.0 + POPULATION_SUM_TOL):
            raise SolverError(f"population outside [0, 1]: min {lo:.3e}, max {hi:.3e}")
        if not abs(sum(values) - 1.0) <= POPULATION_SUM_TOL:
            raise SolverError(f"populations sum to {float(p.sum())}, not 1")
        if lo < 0.0:
            np.maximum(p, 0.0, out=p)
        p.setflags(write=False)
        object.__setattr__(self, "populations", p)

    def __getitem__(self, label: str) -> float:
        return float(self.populations[RateMatrix.index(self, label)])


def _trusted(cls, **fields):
    """A cls instance holding fields already checked, its __post_init__ not run."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def natural_fwhm_hz(lifetime_s: float) -> float:
    """Natural linewidth (FWHM, Hz), positive, of a level with the given
    lifetime."""
    check("lifetime", lifetime_s, "(0, inf)", "s")
    return representable("natural linewidth", 1.0 / (2.0 * math.pi * lifetime_s),
                         "(0, inf)", lifetime_s=lifetime_s)


def saturation_from_power(
    power_w: float, waist_m: float, wavelength_nm: float, lifetime_s: float
) -> float:
    """Saturation parameter of a Gaussian beam on a two-level transition.

    Uses the on-axis peak intensity 2P/(pi w0^2) against the two-level
    saturation intensity pi h c / (3 lambda^3 lifetime). A result no float
    holds raises SchemeError naming power and waist.
    """
    lam = wavelength_nm * 1e-9

    def saturation() -> float:
        peak = 2.0 * power_w / (math.pi * waist_m**2)
        i_sat = (
            math.pi * PLANCK_CONSTANT_J_S * SPEED_OF_LIGHT_M_S
            / (3.0 * lam**3 * lifetime_s)
        )
        return peak / i_sat

    return representable("saturation parameter", saturation,
                         power_w=power_w, waist_m=waist_m)


def drive_rate(scheme: LevelScheme, drive, detuning_hz):
    """Stimulated rate W (1/s) of a drive at the given detuning(s) in Hz.

    W = (S / (2 tau)) / (1 + (2 detuning / width)^2) with tau the upper
    level lifetime and width its natural FWHM; detuning_hz may be an array.
    A detuning so far off resonance that (2 detuning / width)^2 exceeds the
    floating-point range gives W = 0. drive is one of scheme.drives, whose
    upper levels the scheme has checked to have a lifetime.
    """
    name = drive.name
    lifetime = scheme.lifetime(drive.upper)
    s = drive.saturation
    if s is None:
        s = saturation_from_power(
            drive.power_w, drive.waist_m, drive.wavelength_nm, lifetime
        )
    peak = representable(f"{name} peak rate S / (2 lifetime)", s / (2.0 * lifetime),
                         saturation=s, lifetime_s=lifetime)
    try:
        width = natural_fwhm_hz(lifetime)
    except SchemeError as refusal:
        raise SchemeError(f"{name} {refusal}") from None
    # One product, x * x, squares a float and an array alike, so a scan
    # point and a steady state at the same detuning share W to the bit.
    # Where it overflows, to inf, W is 0: a float product does so without
    # raising, and the array's warning is silenced. The float path skips
    # numpy's per-call cost in build_rate_matrix.
    if type(detuning_hz) is float:
        x = 2.0 * detuning_hz / width
        return peak / (1.0 + x * x)
    with np.errstate(over="ignore"):
        x = 2.0 * np.asarray(detuning_hz, dtype=float) / width
        return peak / (1.0 + x * x)


def build_rate_matrix(
    scheme: LevelScheme,
    include_ionization: bool = False,
    ionization_rate: float = 0.0,
) -> RateMatrix:
    """Assemble the rate matrix for a level scheme.

    Levels are ordered by decreasing energy (ground state last), so a
    decay-only matrix is strictly lower triangular off the diagonal:
    spontaneous emission moves population from a column to a row further
    down. Branching-ratio sums below 1 leave an unmodeled residual; the
    listed channels are scaled so the level's full 1/lifetime leaves
    through them, and the total decay rate of a level equals 1/lifetime.
    Each total is the scheme's own, scheme.branching_sums.

    With include_ionization=True, a one-way drain at ionization_rate (1/s)
    is added from IONIZED_FROM into an absorbing sink row appended after
    the levels; without it, a nonzero ionization_rate is refused rather
    than dropped. A level whose out-rates sum past the floating-point range
    is refused, naming the level and its lifetime.
    """
    if not include_ionization and ionization_rate != 0:
        raise SchemeError(f"ionization rate {ionization_rate!r} 1/s needs "
                          "include_ionization=True, which adds its sink")
    order = sorted(scheme.levels, key=lambda lv: -lv.energy_cm1)
    labels = [lv.label for lv in order]
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    size = n + 1 if include_ionization else n
    m = [[0.0] * size for _ in range(size)]

    sums = dict(scheme.branching_sums)
    for ch in scheme.decays:
        up = index[ch.upper]
        m[index[ch.lower]][up] += ch.branching_ratio / sums[ch.upper] / order[up].lifetime_s

    for drive in scheme.drives:
        w = drive_rate(scheme, drive, drive.detuning_hz)
        up, lo = index[drive.upper], index[drive.lower]
        m[up][lo] += w
        m[lo][up] += w

    sink_index = None
    if include_ionization:
        check("ionization rate", ionization_rate, "[0, inf)")
        scheme.level(IONIZED_FROM)
        sink_index = n
        labels.append(SINK_LABEL)
        m[sink_index][index[IONIZED_FROM]] += ionization_rate

    # Each diagonal entry closes its column. Nonnegative rates below
    # DBL_MAX / size cannot sum past the float range, so only a larger one
    # pays for the test of each column's sum.
    m = np.array(m)
    if m.max() >= sys.float_info.max / size:
        with np.errstate(over="ignore"):
            out_rates = m.sum(axis=0).tolist()
        for lv, out_rate in zip(order, out_rates):
            representable(f"level {lv.label} out-rate", out_rate,
                          lifetime_s=lv.lifetime_s)
    out_rates = m.sum(axis=0)
    m.flat[::size + 1] = -out_rates
    matrix = _trusted(RateMatrix, labels=tuple(labels), sink_index=sink_index)
    return matrix._close(m, m.copy(), out_rates)


def _sum(values: list) -> float:
    """values summed as numpy's add.reduce sums a 1-D float64 array: by
    add.reduce itself from 8 terms on, and below 8 terms, where a numpy
    call costs more than its arithmetic, left to right from 0.0, which is
    numpy's order there. Only this loop sums arrays over scan points: the
    scan's trailing block has at most three levels."""
    if len(values) < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    return float(np.add.reduce(np.array(values)))


def _eliminate(cols: list, count: int) -> tuple[list, list]:
    """Fold the first `count` levels into the levels after them, in index
    order, on the columns of an n x n rate matrix: cols[j][i] is the rate
    j -> i, and the diagonal is never read. A rate is a Python float or,
    in a scan's trailing block, a numpy array with one entry per scan
    point, which goes through the same operations entry by entry.

    Level k's pivot is its out-rate to the levels after it. Its row of
    rates from those levels is divided by the pivot, and the rates between
    later levels gain the paths through k, as in a censored chain. The
    updates add products of nonnegative numbers, so no subtraction occurs
    (O'Cinneide, Numer. Math. 65, 1993). A pivot is positive when every
    level can reach the last one; an array pivot must be positive at every
    point. Returns (reduced, rest): reduced[k] is level k's divided row
    over the levels after it, and rest the columns of the block of levels
    left. A column whose rate into k is zero is only shortened when the
    pivot is a finite float: adding the finite products times zero would
    change at most the sign of a zero rate, which no later sum keeps.
    """
    reduced = []
    for _ in range(count):
        first, *cols = cols
        below = first[1:]
        pivot = _sum(below)
        scalar = isinstance(pivot, float)
        if not (pivot > 0.0 if scalar else (pivot > 0.0).all()):
            raise SolverError(
                "steady-state pivot is zero or NaN: a NaN rate, or a level "
                "that cannot reach the level kept last"
            )
        row = [col[0] / pivot for col in cols]
        reduced.append(row)
        finite = scalar and pivot < math.inf
        cols = [
            [x + c * r for x, c in zip(col[1:], below)] if not finite or r else col[1:]
            for col, r in zip(cols, row)
        ]
    return reduced, cols


def _back_substitute(reduced: list, p: list) -> None:
    """Fill p[:len(reduced)] from the levels after them, last level first,
    in place: eliminated level k holds the populations of the later levels
    weighted by reduced[k], summed by _sum. p is a list of floats or an
    array whose rows run over scan points."""
    for k in range(len(reduced) - 1, -1, -1):
        p[k] = _sum([r * q for r, q in zip(reduced[k], p[k + 1:])])


def _kept_last(m: RateMatrix, links) -> int:
    """The level to keep last after a failed pivot: the highest-index
    member of the unique closed class of the level graph, in which
    population flows j -> i where m.matrix[i, j] != 0 and for each (i, j)
    of links. Raises SolverError for several closed classes, naming the
    level groups."""
    # reach[j]: the levels j can reach
    reach = [{j} | {i for i, rate in enumerate(col) if rate != 0.0}
             for j, col in enumerate(m.matrix.T.tolist())]
    for i, j in links:
        reach[j].add(i)
    # transitive closure (Warshall): after round k, paths through 0..k count
    for k in range(m.n):
        for r in reach:
            if k in r:
                r |= reach[k]
    # A closed class is the reach of each of its members, which all reach
    # back; it is listed once, at its first member.
    classes = [r for j, r in enumerate(reach)
               if min(r) == j and all(j in reach[i] for i in r)]
    if len(classes) > 1:
        recurrent = set().union(*classes)
        named = "; ".join("{" + ", ".join(label for label, r in zip(m.labels, reach)
                                          if r & recurrent <= c) + "}" for c in classes)
        raise SolverError(f"null space dimension {len(classes)}: no population flows "
                          f"between level groups {named}")
    return max(classes[0])


def _gth(m: RateMatrix, pair: tuple = (), w=0.0) -> np.ndarray:
    """Stationary populations of m with the rate w (1/s) added both ways
    between the two levels of pair, shape (n, points) for the points of w.

    The last level, n - 1, is kept last first: when all its pivots pass,
    every level reaches it, so it is the highest-index member of the
    unique closed class. After a failed pivot, one rule: _kept_last finds
    that member of the sparsest point's graph, the pair's links counted
    only when every point has w != 0 (every level reaching it without
    them reaches it with them too), and the solve runs once more with it
    kept last. Several closed classes there are refused by name, as
    steady_state refuses that point; n - 1 again means the pivot
    underflowed or was NaN, and its refusal stands.
    """
    if m.sink_index is not None:
        raise SolverError("steady_state needs a sink-free matrix; build it "
                          "without include_ionization")
    w = np.asarray(w, dtype=float).reshape(-1)
    try:
        return _solve(m, pair, w, m.n - 1)
    except SolverError as err:
        refusal = err
    links = (pair, pair[::-1]) if pair and w.size and w.all() else ()
    last = _kept_last(m, links)
    if last == m.n - 1:
        raise refusal
    return _solve(m, pair, w, last)


def _solve(m: RateMatrix, pair: tuple, w: np.ndarray, last: int) -> np.ndarray:
    """_gth's solve with level `last` kept to the end of the reduction.

    The t <= 3 trailing levels, the pair and then `last`, end the
    elimination order. w is added to the pair's two rates in their
    stochastic complement, and the same kernel eliminates that block for
    every point at once. Back-substitution gives the trailing populations
    per point and, once per trailing level, each leading level as a fixed
    combination of the trailing ones, so one (n, t) @ (t, points) product
    yields every population. An overflow or 0 * inf ends as a non-finite
    population, which the callers refuse.
    """
    n = m.n
    cols = m.matrix.T.tolist()
    trailing = [i for i in pair if i != last] + [last]
    order = [i for i in range(n) if i not in trailing] + trailing
    t = len(trailing)
    lead = n - t
    if order != list(range(n)):  # most steady states keep index order
        cols = [[col[i] for i in order] for col in (cols[j] for j in order)]
    reduced, rest = _eliminate(cols, lead)
    with np.errstate(all="ignore"):
        for i, j in zip(pair, pair[::-1]):
            rest[trailing.index(j)][trailing.index(i)] += w
        reduced_trailing, _ = _eliminate(rest, t - 1)
        # row k: trailing level k at each point, relative to `last` at 1
        p_trailing = np.empty((t, len(w)))  # np.ones costs a Python-level call
        p_trailing.fill(1.0)
        _back_substitute(reduced_trailing, p_trailing)
        # column c: each level, in elimination order, for trailing level c at 1
        columns = [[0.0] * lead + [float(k == c) for k in range(t)] for c in range(t)]
        for column in columns:
            _back_substitute(reduced, column)
        # row i: level i as a combination of the trailing populations
        position = sorted(range(n), key=order.__getitem__)
        basis = np.array([column[k] for k in position for column in columns])
        p = basis.reshape(n, t) @ p_trailing
        # numpy sums one point's levels pairwise, in _sum's order, and the
        # levels of several points row after row; the sha256 pins hold both
        p /= p.sum(axis=0)
    return p


def steady_state_scan(m: RateMatrix, upper: str, lower: str, w) -> np.ndarray:
    """Stationary populations of m with the rate w (1/s) added both ways
    between upper and lower, shape (points, n) for the points of w.

    One GTH solve serves every point: only the block of the pair and the
    level kept last is solved per point (_gth). Row i equals steady_state
    of m with w[i] added to its two entries, to a few rounding errors;
    levels outside the closed class come out exactly zero. A pivot that
    underflows, or is NaN, in the scan's elimination order but not in
    steady_state's refuses the scan, though every point solves alone. A
    scan with a w = 0 point is refused as steady_state refuses that point,
    several closed classes named. Needs a sink-free matrix. upper and lower
    must be two levels: a rate from a level to itself moves no population.
    A w below 0, NaN or infinite is refused, naming its value. A point
    whose populations overflow to NaN or inf is refused with
    steady_state's wording.
    """
    if upper == lower:
        raise SchemeError(f"scanned pair {upper}<->{lower}: levels must differ")
    w = check_array("scanned rate", np.asarray(w, dtype=float), "[0, inf)", "1/s",
                    SolverError)
    p = _gth(m, (m.index(upper), m.index(lower)), w)
    finite = np.isfinite(p).all(axis=0)
    if not finite.all():
        PopulationVector(p[:, ~finite][:, 0], m.labels)  # refuses as steady_state does
    return p.T


def steady_state(m: RateMatrix) -> PopulationVector:
    """Stationary populations: the normalized null vector of the matrix.

    Requires a sink-free matrix (built without include_ionization); a drain
    would make the only stationary state the fully ionized one. The solve
    is the subtraction-free GTH state reduction on the n x n matrix alone:
    every level but the last, the ground level, is eliminated in index
    order and back-substituted; after a failed pivot, _gth keeps another
    level last. Populations are nonnegative and entrywise accurate even
    when stimulated rates dwarf the slow spontaneous channels by many
    orders of magnitude; there is no residual gate. A unique steady state
    needs a unique closed class of levels (levels outside it end up empty);
    otherwise the error names the separate level groups.
    """
    return PopulationVector(populations=_gth(m)[:, 0], labels=m.labels)


@functools.cache
def _taylor_blocks() -> np.ndarray:
    """exp(A) to degree 20 in Paterson-Stockmeyer blocks: row i holds the
    Taylor coefficients 1/k! of I, A, A^2, A^3 (and of A^4 in the last row)
    that multiply (A^4)^i. Built on first use, as no module touches numpy
    at import."""
    taylor = [1.0 / math.factorial(k) for k in range(21)]
    blocks = np.zeros((5, 5))
    blocks[:, :4] = np.reshape(taylor[:20], (5, 4))
    blocks[4, 4] = taylor[20]
    blocks.flags.writeable = False  # one array serves every call
    return blocks


def _propagate(m: RateMatrix, p0: np.ndarray, t_s: float) -> np.ndarray:
    """exp(M t_s) p0 from the off-diagonal rates alone, adding only
    nonnegative terms; evolve states the method. Every product is
    ndarray.dot, and every sum and division a ufunc, into preallocated
    arrays, which skips most of numpy's per-call cost on matrices this
    small."""
    n = m.n
    lam = m.shift
    # lam h <= 1 for h = t_s / 2^s, without forming lam t_s, which may overflow
    s = max(math.frexp(lam)[1] + math.frexp(t_s)[1], 0)
    h = math.ldexp(t_s, -s)
    work = np.zeros((11, n, n))
    powers, blocks, tmp = work[:5], work[5:10], work[10]
    powers[0].flat[::n + 1] = 1.0
    a = powers[1]
    np.multiply(m.shifted, h, out=a)
    a.dot(a, out=powers[2])
    powers[2].dot(a, out=powers[3])
    powers[2].dot(powers[2], out=powers[4])
    _taylor_blocks().dot(powers.reshape(5, n * n), out=blocks.reshape(5, n * n))
    e = blocks[4]
    for i in (3, 2, 1, 0):
        powers[4].dot(e, out=tmp)
        e = blocks[i]
        np.add(e, tmp, out=e)
    ones = np.empty(n)  # np.ones costs a Python-level call
    ones.fill(1.0)
    np.divide(e, ones.dot(e), out=e)
    for k in range(1, s):
        e.dot(e, out=tmp)
        e, tmp = tmp, e
        if k % 4 == 0:
            np.divide(e, ones.dot(e), out=e)
    p = e.dot(p0)
    return e.dot(p) if s else p


def evolve(m: RateMatrix, p0: PopulationVector, t_s: float) -> PopulationVector:
    """Propagate dp/dt = M p from p0 for a time t_s.

    The matrix is constant, so p(t) = exp(M t) p0, computed from the
    off-diagonal rates alone and without subtraction, after Xue & Ye
    (Math. Comp. 82, 2013) with the scaling and squaring of Higham (SIAM J.
    Matrix Anal. Appl. 26, 2005). With lam the largest out-rate, B = M +
    lam I is nonnegative. For h = t_s / 2^s with lam h <= 1, a degree-20
    Taylor sum of exp(B h) in Paterson-Stockmeyer form adds nonnegative
    terms only; dividing each column by its sum stands in for exp(-lam h)
    and leaves exp(M h). Squaring s times gives exp(M t_s): columns are
    rescaled to sum 1 after every fourth squaring, and the last squaring
    is applied to the vector, p = E (E p0). The one subtraction, lam minus
    an out-rate on the diagonal of B, is off by at most eps lam, which
    moves exp(B h) by a factor within exp(+-eps lam h) entry by entry.
    Degree 20 rather than 16 keeps populations that only a path of eight or
    more transitions reaches accurate too: at degree 16 and lam h near 1
    they were off by up to 4e-10 relative. Every population matches a
    50-digit exponential of the same rates to about 1e-14 relative on
    yb174_plus (saturations 1e-2 and 1e4, t_s from 1e-6 to 10 s, with the
    sink), and to about 2e-13 on schemes whose rates span 37 decades. The
    cost is one n x n product per squaring, with s <= log2(lam t_s) + 1;
    lam and B are read from m, which computed them once. On the 10 levels
    of yb174_plus with the sink (S = 1e-2 to 1e4, t_s = 1e-6 to 10 s), s
    runs from 9 to 44 and is 24 on average. The flow conserves
    the sum exactly, so the result is projected back onto the sum = 1
    manifold; a drift above 1e-6 is treated as a propagator failure
    instead of being silently projected away. With an ionization sink the
    sink entry accumulates the ionized probability.
    """
    check("evolution time", t_s, "[0, inf)", "s", SolverError)
    if p0.labels != m.labels:
        raise SolverError("population vector labels do not match matrix")
    if t_s == 0.0:
        return p0

    p = _propagate(m, p0.populations, t_s)
    total = np.add.reduce(p)  # what p.sum() calls
    if not abs(total - 1.0) <= 1e-6:
        raise SolverError(
            f"propagator lost conservation: populations sum to {float(total)}"
        )
    p /= total
    p.setflags(write=False)
    return _trusted(PopulationVector, populations=p, labels=m.labels)


def initial_population(m: RateMatrix, label: str) -> PopulationVector:
    """Unit population vector with everything in one level of the matrix."""
    p = np.zeros(m.n)
    p[m.index(label)] = 1.0
    return PopulationVector(p, m.labels)

