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
It works on a stack of matrices, so a whole detuning scan is one call. A
unique steady state exists exactly when the level graph has one closed
class (a set of mutually reachable levels with no way out); that class is
found from the nonzero pattern and supplies the level kept to the end of
the reduction, which keeps every pivot positive even when the ground level
is transient. Several closed classes raise SolverError naming the groups.

Coherences are deliberately absent: all drives are treated as broadband rate
couplings, which is the regime the chopped multi-laser experiment operates
in. Optional ionization is a one-way drain from a chosen level into an
absorbing sink row, whose population reads out the cumulative ionization
probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    "steady_state_stack",
    "evolve",
    "initial_population",
    "excitation_probability",
]

SINK_LABEL = "ionized"

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

    def drop_sink(self) -> "RateMatrix":
        """The matrix restricted to real levels, with the drain removed.

        The result conserves population among the levels themselves, which
        is the quasi-steady-state convention: solve the internal dynamics
        with ionization off, then apply the loss rate perturbatively.
        """
        if self.sink_index is None:
            return self
        keep = [i for i in range(self.n) if i != self.sink_index]
        m = self.matrix[np.ix_(keep, keep)].copy()
        np.fill_diagonal(m, 0.0)
        np.fill_diagonal(m, -m.sum(axis=0))
        return RateMatrix(
            matrix=m,
            labels=tuple(self.labels[i] for i in keep),
            sink_index=None,
        )

    def to_csv(self) -> str:
        """Matrix as CSV text with labeled rows/columns, for debugging."""
        lines = ["," + ",".join(self.labels)]
        for i, row_label in enumerate(self.labels):
            row = ",".join(repr(v) for v in self.matrix[i])
            lines.append(f"{row_label},{row}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PopulationVector:
    """Level populations in the ordering of an accompanying RateMatrix."""

    populations: np.ndarray
    labels: tuple[str, ...]
    time_s: float | None = None

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
    saturation intensity pi h c / (3 lambda^3 lifetime).
    """
    lam = wavelength_nm * 1e-9
    peak = 2.0 * power_w / (np.pi * waist_m**2)
    i_sat = (
        np.pi * CONSTANTS.planck_constant * CONSTANTS.speed_of_light
        / (3.0 * lam**3 * lifetime_s)
    )
    return peak / i_sat


def drive_rate(scheme: LevelScheme, drive, detuning_hz):
    """Stimulated rate W (1/s) of a drive at the given detuning(s) in Hz.

    W = (S / (2 tau)) / (1 + (2 detuning / width)^2) with tau the upper
    level lifetime and width its natural FWHM; detuning_hz may be an array.
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
    return (s / (2.0 * lifetime)) / (1.0 + (2.0 * detuning_hz / width) ** 2)


def build_rate_matrix(
    scheme: LevelScheme,
    include_ionization: bool = False,
    ionization_rate: float = 0.0,
    ionized_from: str = "7p12",
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
    is added from ionized_from into an absorbing sink row appended after
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
        sink_index = n
        labels.append(SINK_LABEL)
        m[sink_index, index[_known(scheme, ionized_from)]] += ionization_rate

    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, -m.sum(axis=0))
    return RateMatrix(matrix=m, labels=tuple(labels), sink_index=sink_index)


def _known(scheme: LevelScheme, label: str) -> str:
    scheme.level(label)
    return label


def _closed_classes(pattern: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed classes of the level graph and the reachability behind them.

    pattern[i, j] is True where population flows j -> i. Returns (reach,
    classes): reach[j, i] says level j can reach level i (every level
    reaches itself), and each row of the boolean array classes marks one
    closed class, a set of mutually reachable levels with no way out.
    """
    n = pattern.shape[0]
    reach = pattern.T | np.eye(n, dtype=bool)
    for k in range(n):  # Warshall transitive closure
        reach |= reach[:, k, None] & reach[None, k, :]
    closed = (reach <= reach.T).all(axis=1)
    # a closed level's reach is its class; keep the class's first level
    first = closed & (reach.argmax(axis=1) == np.arange(n))
    return reach, reach[first]


def _gth(rates: np.ndarray) -> np.ndarray:
    """Grassmann-Taksar-Heyman state reduction on a stack of rate matrices.

    rates[..., i, j] is the rate j -> i; the diagonal is never read. Levels
    are eliminated in index order, each folded into the levels after it as
    in a censored chain, so the last level is kept to the end. The pivots
    are out-rates and the updates add products of nonnegative numbers, so
    no subtraction occurs and every population is accurate to a few
    rounding errors relative to itself (O'Cinneide, Numer. Math. 65, 1993).
    A pivot is positive when every level can reach the last one.
    """
    a = rates.copy()
    n = a.shape[-1]
    for k in range(n - 1):
        pivot = a[..., k + 1:, k].sum(axis=-1)
        if not (pivot > 0).all():
            raise SolverError(
                "steady-state pivot is zero or NaN: a NaN rate, or a level "
                "that cannot reach the level kept last"
            )
        a[..., k, k + 1:] /= pivot[..., None]
        a[..., k + 1:, k + 1:] += a[..., k + 1:, k, None] * a[..., k, None, k + 1:]
    p = np.zeros(a.shape[:-1])
    p[..., n - 1] = 1.0
    for k in range(n - 2, -1, -1):
        p[..., k] = (a[..., k, k + 1:] * p[..., k + 1:]).sum(axis=-1)
    return p / p.sum(axis=-1, keepdims=True)


def steady_state_stack(matrices: np.ndarray, labels: tuple[str, ...]) -> np.ndarray:
    """Stationary populations of a stack of rate matrices, shape (..., n, n).

    Only the off-diagonal rates are read. The matrices must share one
    unique closed class (checked on their combined nonzero pattern): the
    level kept to the end of the GTH reduction is taken from it, which
    keeps every pivot positive even when the ground level is transient.
    Levels outside the class come out exactly zero. With several closed
    classes the null space is degenerate and the error names, for each
    class, the levels that can only end up in it.
    """
    matrices = np.asarray(matrices, dtype=float)
    n = matrices.shape[-1]
    pattern = (matrices != 0).reshape(-1, n, n).any(axis=0)
    reach, classes = _closed_classes(pattern)
    if len(classes) > 1:
        recurrent = classes.any(axis=0)
        groups = [~(reach & recurrent & ~c).any(axis=1) for c in classes]
        named = "; ".join(
            "{" + ", ".join(labels[i] for i in np.flatnonzero(g)) + "}"
            for g in groups
        )
        raise SolverError(
            f"null space dimension {len(classes)}: no population flows "
            f"between level groups {named}"
        )
    last = np.flatnonzero(classes[0])[-1]
    order = np.r_[np.delete(np.arange(n), last), last]
    p = _gth(matrices[..., order[:, None], order])
    out = np.empty_like(p)
    out[..., order] = p
    return out


def steady_state(m: RateMatrix) -> PopulationVector:
    """Stationary populations: the normalized null vector of the matrix.

    Requires a sink-free matrix (use drop_sink() first); a drain would make
    the only stationary state the fully ionized one. The solve is the
    subtraction-free GTH state reduction of steady_state_stack on a stack
    of one, so populations are nonnegative and entrywise accurate even when
    stimulated rates dwarf the slow spontaneous channels by many orders of
    magnitude; there is no residual gate. A unique steady state needs a
    unique closed class of levels (levels outside it end up empty);
    otherwise the error names the separate level groups.
    """
    if m.sink_index is not None:
        raise SolverError(
            "steady_state needs a sink-free matrix; call drop_sink() first"
        )
    p = steady_state_stack(m.matrix[None], m.labels)[0]
    return PopulationVector(populations=p, labels=m.labels, time_s=None)


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
        return PopulationVector(p0.populations.copy(), m.labels, time_s=0.0)

    propagator = expm(m.matrix * t_s)
    p = propagator @ p0.populations
    total = p.sum()
    if abs(total - 1.0) > 1e-6:
        raise SolverError(
            f"propagator lost conservation: populations sum to {total!r}"
        )
    return PopulationVector(populations=p / total, labels=m.labels, time_s=t_s)


def initial_population(m: RateMatrix, label: str) -> PopulationVector:
    """Unit population vector with everything in one level of the matrix."""
    p = np.zeros(m.n)
    p[m.index(label)] = 1.0
    return PopulationVector(populations=p, labels=m.labels, time_s=0.0)


def excitation_probability(p: PopulationVector, label: str) -> float:
    """Population of one level, looked up by label."""
    return p[label]
