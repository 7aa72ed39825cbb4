"""Multi-level rate-equation model: matrix build, steady state, evolution.

Populations live in a vector p ordered by decreasing level energy (ground
state last); the rate matrix M collects all transfer rates so that
dp/dt = M p. Column j holds the rates out of level j: off-diagonal entry
(i, j) is the rate j -> i in 1/s and the diagonal entry is minus the column
sum, so every column sums to zero and the total population is conserved.
With this ordering a decay-only matrix is strictly lower triangular off the
diagonal, since spontaneous emission only moves population downward in
energy.

Spontaneous decay enters as A = branching_ratio / lifetime(upper). A resonant
drive with saturation parameter S adds a stimulated rate

    W = (S / (2 * lifetime(upper))) / (1 + (2 * detuning / width)**2)

applied symmetrically to absorption and stimulated emission, where width is
the natural FWHM of the upper level in Hz, 1 / (2 pi lifetime). For an
isolated two-level pair this reproduces the standard saturation behavior:
upper population S/(2(S+1)) on resonance and a fitted linewidth growing as
sqrt(1 + S). The detuning is the laser offset from line center in Hz.

Steady states come from the Grassmann-Taksar-Heyman (GTH) state reduction
(Grassmann, Taksar & Heyman, Operations Research 33, 1985), which reads only
the off-diagonal rates, never subtracts, and so returns nonnegative
populations accurate entry by entry even at saturation parameters of 1e8.
A unique steady state exists exactly when the level graph has one closed
class (a set of mutually reachable levels with no way out); that class is
found from the nonzero pattern and supplies the level kept to the end of
the reduction, which keeps every pivot positive even when the ground level
is transient. Several closed classes raise SolverError naming the groups.

One elimination routine serves a single matrix and a whole detuning scan.
A scan changes only the two rates of the scanned pair, so steady_state_scan
puts the pair and the level kept last at the end of the elimination order
and eliminates every other level once, on the one n x n matrix. What is
left is the stochastic complement on those (at most three) trailing levels
(Meyer, SIAM Review 31, 1989), identical at every detuning; the scanned
rate is added to it and only that block is solved per point, as a stack
of 3 x 3 blocks, before the eliminated levels are back-substituted.
steady_state is the same routine with no scanned pair, so its elimination
order, and with it every digit, is that of a plain GTH solve.

Coherences are deliberately absent: all drives are treated as broadband rate
couplings, which is the regime the chopped multi-laser experiment operates
in. Optional ionization is a one-way drain from the ionizing level 7p12
into an absorbing sink row, whose population reads out the cumulative
ionization probability. A matrix built without it is the sink-free matrix
that steady states need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .errors import SchemeError, SolverError
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


@dataclass(frozen=True)
class RateMatrix:
    """Rate matrix with its level ordering.

    matrix[i, j] is the rate from level j into level i (1/s) for i != j;
    diagonal entries close each column to zero sum. When an ionization sink
    is present it occupies the last row/column under the label "ionized".
    """

    matrix: np.ndarray
    labels: tuple[str, ...]
    sink_index: int | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SolverError("rate matrix must be square")
        if m.shape[0] != len(self.labels):
            raise SolverError("rate matrix size does not match label count")
        if not np.isfinite(m).all():
            raise SolverError("non-finite rate in rate matrix")
        off = m - np.diag(np.diag(m))
        if (off < 0).any():
            raise SolverError("negative transfer rate in rate matrix")
        scale = np.abs(m).max() or 1.0
        if np.abs(m.sum(axis=0)).max() > 1e-12 * scale:
            raise SolverError("rate-matrix columns do not sum to zero")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise SchemeError(f"unknown level label: {label}") from None


@dataclass(frozen=True)
class PopulationVector:
    """Level populations in the ordering of an accompanying RateMatrix."""

    populations: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        p = np.asarray(self.populations, dtype=float)
        if p.ndim != 1 or p.size != len(self.labels):
            raise SolverError("population vector size does not match labels")
        if p.min() < -NEGATIVE_POP_TOL or p.max() > 1.0 + POPULATION_SUM_TOL:
            raise SolverError(
                f"population outside [0, 1]: min {p.min():.3e}, max {p.max():.3e}"
            )
        if abs(p.sum() - 1.0) > POPULATION_SUM_TOL:
            raise SolverError(f"populations sum to {p.sum()!r}, not 1")
        p = np.where(p < 0.0, 0.0, p)
        p.setflags(write=False)
        object.__setattr__(self, "populations", p)

    def __getitem__(self, label: str) -> float:
        try:
            return float(self.populations[self.labels.index(label)])
        except ValueError:
            raise SchemeError(f"unknown level label: {label}") from None


def natural_fwhm_hz(lifetime_s: float) -> float:
    """Natural linewidth (FWHM, Hz) of a level with the given lifetime."""
    return 1.0 / (2.0 * np.pi * lifetime_s)


def saturation_from_power(
    power_w: float, waist_m: float, wavelength_nm: float, lifetime_s: float
) -> float:
    """Saturation parameter of a Gaussian beam on a two-level transition.

    Uses the on-axis peak intensity 2P/(pi w0^2) against the two-level
    saturation intensity pi h c / (3 lambda^3 lifetime). A result outside
    the floating-point range raises SchemeError naming power and waist.
    """
    lam = wavelength_nm * 1e-9
    try:
        peak = 2.0 * power_w / (np.pi * waist_m**2)
        i_sat = (
            np.pi * CONSTANTS.planck_constant * CONSTANTS.speed_of_light
            / (3.0 * lam**3 * lifetime_s)
        )
        s = peak / i_sat
    except (ZeroDivisionError, OverflowError):  # Python floats raise here
        s = math.nan
    if not 0.0 <= s < math.inf:
        raise SchemeError(
            f"power_w = {power_w} W on waist_m = {waist_m} m puts the saturation "
            "parameter outside the floating-point range")
    return s


def drive_rate(scheme: LevelScheme, drive, detuning_hz):
    """Stimulated rate W (1/s) of a drive at the given detuning(s) in Hz.

    W = (S / (2 tau)) / (1 + (2 detuning / width)^2) with tau the upper
    level lifetime and width its natural FWHM; detuning_hz may be an array.
    A detuning so far off resonance that (2 detuning / width)^2 exceeds the
    floating-point range gives W = 0.
    """
    lifetime = scheme.lifetime(drive.upper)
    if lifetime is None:
        raise SchemeError(
            f"drive {drive.upper}<->{drive.lower}: upper level has no lifetime"
        )
    s = drive.saturation
    if s is None:
        s = saturation_from_power(
            drive.power_w, drive.waist_m, drive.wavelength_nm, lifetime
        )
    width = natural_fwhm_hz(lifetime)
    peak = s / (2.0 * lifetime)
    if not peak < math.inf or width == 0.0:
        raise SchemeError(
            f"drive {drive.upper}<->{drive.lower}: saturation {s} with upper level "
            f"lifetime {lifetime} s puts the rate W or the natural linewidth "
            "outside the floating-point range")
    # Where (2 detuning / width)^2 overflows, W is 0. A Python float raises
    # OverflowError there and numpy warns, so each is caught its own way;
    # the float path also skips numpy's per-call cost in build_rate_matrix.
    # Finite squares keep their bits: numpy scalars square with C's pow, as
    # Python floats do, and arrays multiply.
    if type(detuning_hz) is float:
        try:
            return peak / (1.0 + (2.0 * detuning_hz / width) ** 2)
        except OverflowError:
            return 0.0
    with np.errstate(over="ignore"):
        x = 2.0 * np.asarray(detuning_hz, dtype=float) / width
        return peak / (1.0 + x**2)


def build_rate_matrix(
    scheme: LevelScheme,
    include_ionization: bool = False,
    ionization_rate: float = 0.0,
    residual_policy: str = "renormalize",
) -> RateMatrix:
    """Assemble the rate matrix for a level scheme.

    Levels are ordered by decreasing energy (ground state last), so a
    decay-only matrix is strictly lower triangular off the diagonal:
    spontaneous emission moves population from a column to a row further
    down. Branching-ratio sums below 1
    leave an unmodeled residual; the policy decides where that probability
    goes. "renormalize" scales the listed channels so the level's full
    1/lifetime leaves through them; "route_to_ground" adds the residual as
    an extra channel to the lowest level. Either way the total decay rate
    of a level equals 1/lifetime exactly.

    With include_ionization=True, a one-way drain at ionization_rate (1/s)
    is added from IONIZED_FROM into an absorbing sink row appended after
    the levels.
    """
    if residual_policy not in ("renormalize", "route_to_ground"):
        raise SchemeError(f"unknown residual policy: {residual_policy!r}")
    order = sorted(scheme.levels, key=lambda lv: -lv.energy_cm1)
    labels = [lv.label for lv in order]
    index = {lab: i for i, lab in enumerate(labels)}
    ground = labels[-1]
    n = len(labels)
    size = n + 1 if include_ionization else n
    m = np.zeros((size, size))

    for lv in order:
        channels = scheme.decays_from(lv.label)
        if not channels:
            continue
        if lv.lifetime_s is None:
            raise SchemeError(
                f"level {lv.label} has decay channels but no lifetime"
            )
        total = sum(c.branching_ratio for c in channels)
        for ch in channels:
            ratio = ch.branching_ratio
            if residual_policy == "renormalize":
                ratio /= total
            m[index[ch.lower], index[ch.upper]] += ratio / lv.lifetime_s
        if residual_policy == "route_to_ground" and total < 1.0:
            if lv.label != ground:
                m[index[ground], index[lv.label]] += (1.0 - total) / lv.lifetime_s

    for drive in scheme.drives:
        w = drive_rate(scheme, drive, drive.detuning_hz)
        up, lo = index[drive.upper], index[drive.lower]
        m[up, lo] += w
        m[lo, up] += w

    sink_index = None
    if include_ionization:
        if ionization_rate < 0:
            raise SchemeError("ionization rate must be >= 0")
        scheme.level(IONIZED_FROM)
        sink_index = n
        labels.append(SINK_LABEL)
        m[sink_index, index[IONIZED_FROM]] += ionization_rate

    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, -m.sum(axis=0))
    return RateMatrix(matrix=m, labels=tuple(labels), sink_index=sink_index)


def _closed_classes(pattern: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed classes of the level graph and the reachability behind them.

    pattern[i, j] is True where population flows j -> i. Returns (reach,
    classes): reach[j, i] says level j can reach level i (every level
    reaches itself), and each row of the boolean array classes marks one
    closed class, a set of mutually reachable levels with no way out.
    """
    n = pattern.shape[0]
    reach = pattern.T | np.eye(n, dtype=bool)
    # transitive closure by boolean squaring: after s squarings reach
    # covers every path of up to 2**s steps, and 2**s > n
    for _ in range(n.bit_length()):
        reach = reach @ reach
    closed = (reach <= reach.T).all(axis=1)
    # a closed level's reach is its class; keep the class's first level
    first = closed & (reach.argmax(axis=1) == np.arange(n))
    return reach, reach[first]


def _eliminate(a: np.ndarray, count: int) -> None:
    """Fold the first `count` levels of a[n, n, ...] into the levels after
    them, in place and in index order; trailing axes of a are a batch.

    a[i, j] is the rate j -> i; the diagonal is never read. Level k's
    pivot is its out-rate to the levels after it; row k is divided by it
    and the rates between later levels gain the paths through k, as in a
    censored chain. The updates add products of nonnegative numbers, so no
    subtraction occurs (O'Cinneide, Numer. Math. 65, 1993). A pivot is
    positive when every level can reach the last one.
    """
    for k in range(count):
        pivot = a[k + 1:, k].sum(axis=0)
        if not (pivot > 0).all():
            raise SolverError(
                "steady-state pivot is zero or NaN: a NaN rate, or a level "
                "that cannot reach the level kept last"
            )
        a[k, k + 1:] /= pivot
        a[k + 1:, k + 1:] += a[k + 1:, k, None] * a[k, None, k + 1:]


def _back_substitute(a: np.ndarray, p: np.ndarray, count: int) -> None:
    """Fill p[:count] from the levels after them, last level first, in
    place: eliminated level k holds the populations of the later levels
    weighted by row k of the reduced rates a[n, n, ...]."""
    for k in range(count - 1, -1, -1):
        p[k] = (a[k, k + 1:] * p[k + 1:]).sum(axis=0)


def _gth(m: RateMatrix, pair: tuple[int, ...], w: np.ndarray) -> np.ndarray:
    """Stationary populations of m with the rate w[i] added both ways
    between the two levels of pair, one row per entry of w; pair = ()
    solves m itself.

    Grassmann-Taksar-Heyman state reduction. The level kept last, L, is the
    highest-index member of the unique closed class of the combined nonzero
    pattern, so every pivot stays positive even when the ground level is
    transient. The pair and L end the elimination order; every other level
    keeps its index order ahead of them. Since w enters only the rates
    among those t <= 3 trailing levels, the leading levels are eliminated
    once, on the n x n matrix with a batch axis of one, leaving their
    stochastic complement on the trailing levels (Meyer, SIAM Review 31,
    1989). That block is repeated along the batch axis, w is added, and the
    same code eliminates it for every point at once. Back-substitution
    gives the trailing populations per point and, once, each leading level
    as a fixed combination of the trailing ones, so one (n, t) @ (t,
    points) product yields every population.
    """
    if m.sink_index is not None:
        raise SolverError(
            "steady_state needs a sink-free matrix; build it without "
            "include_ionization"
        )
    n = m.n
    pattern = m.matrix != 0
    if (w != 0).any():
        pattern[pair, pair[::-1]] = True
    reach, classes = _closed_classes(pattern)
    if len(classes) > 1:
        recurrent = classes.any(axis=0)
        groups = [~(reach & recurrent & ~c).any(axis=1) for c in classes]
        named = "; ".join(
            "{" + ", ".join(m.labels[i] for i in np.flatnonzero(g)) + "}"
            for g in groups
        )
        raise SolverError(
            f"null space dimension {len(classes)}: no population flows "
            f"between level groups {named}"
        )
    last = int(np.flatnonzero(classes[0])[-1])
    trailing = [i for i in pair if i != last] + [last]
    order = [i for i in range(n) if i not in trailing] + trailing
    t = len(trailing)
    lead = n - t
    a = m.matrix[np.ix_(order, order)][..., None]
    _eliminate(a, lead)
    block = np.repeat(a[lead:, lead:], len(w), axis=-1)
    for i, j in zip(pair, pair[::-1]):
        block[trailing.index(i), trailing.index(j)] += w
    _eliminate(block, t - 1)
    p_trailing = np.empty((t, len(w)))
    p_trailing[-1] = 1.0
    _back_substitute(block, p_trailing, t - 1)
    basis = np.zeros((n, t))
    basis[lead:] = np.eye(t)
    _back_substitute(a, basis, lead)
    p = basis[np.argsort(order)] @ p_trailing
    p /= p.sum(axis=0)
    return p.T


def steady_state_scan(m: RateMatrix, upper: str, lower: str, w) -> np.ndarray:
    """Stationary populations of m with the rate w (1/s) added both ways
    between upper and lower, shape (points, n) for the points of w.

    One GTH solve serves every point: the levels other than the pair and
    the level kept last are eliminated once, and only the trailing block
    of at most 3 x 3 rates is solved per point. Row i equals
    steady_state of m with w[i] added to its two entries, to a few
    rounding errors; levels outside the closed class come out exactly
    zero. Needs a sink-free matrix.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    return _gth(m, (m.index(upper), m.index(lower)), w)


def steady_state(m: RateMatrix) -> PopulationVector:
    """Stationary populations: the normalized null vector of the matrix.

    Requires a sink-free matrix (built without include_ionization); a drain
    would make
    the only stationary state the fully ionized one. The solve is the
    subtraction-free GTH state reduction of steady_state_scan with no
    scanned pair, so populations are nonnegative and entrywise accurate
    even when stimulated rates dwarf the slow spontaneous channels by many
    orders of magnitude; there is no residual gate. A unique steady state
    needs a unique closed class of levels (levels outside it end up
    empty); otherwise the error names the separate level groups.
    """
    p = _gth(m, (), np.zeros(1))[0]
    return PopulationVector(populations=p, labels=m.labels)


def evolve(m: RateMatrix, p0: PopulationVector, t_s: float) -> PopulationVector:
    """Propagate dp/dt = M p from p0 for a time t_s.

    The matrix is constant, so the solution is the exact matrix exponential
    p(t) = expm(M t) p0 rather than an adaptive integration. Scaling and
    squaring is benign here: every squaring stage multiplies nonnegative
    column-stochastic matrices, so there is no cancellation, only a slow
    rounding drift of the conserved sum when the rates span many decades.
    The true flow conserves the sum exactly, so the result is projected
    back onto the sum = 1 manifold; a drift above 1e-6 is treated as a
    propagator failure instead of being silently projected away. With an
    ionization sink the sink entry accumulates the ionized probability.
    """
    from scipy.linalg import expm  # function-local: keeps scipy off the CLI import path

    if t_s < 0:
        raise SolverError("evolution time must be >= 0")
    if p0.labels != m.labels:
        raise SolverError("population vector labels do not match matrix")
    if t_s == 0.0:
        return PopulationVector(p0.populations.copy(), m.labels)

    propagator = expm(m.matrix * t_s)
    p = propagator @ p0.populations
    total = p.sum()
    if abs(total - 1.0) > 1e-6:
        raise SolverError(
            f"propagator lost conservation: populations sum to {total!r}"
        )
    return PopulationVector(populations=p / total, labels=m.labels)


def initial_population(m: RateMatrix, label: str) -> PopulationVector:
    """Unit population vector with everything in one level of the matrix."""
    p = np.zeros(m.n)
    p[m.index(label)] = 1.0
    return PopulationVector(populations=p, labels=m.labels)

