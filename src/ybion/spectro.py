"""Frequency-scan simulation, Lorentzian fitting, lifetime extraction.

A scan steps the detuning of one laser drive across resonance while every
other drive stays fixed, and records the steady-state fluorescence on a
monitor transition (by default the strong cooling line, whose scattered
rate is p(6p12) * A(6p12 -> 6s12)). The resulting curve is fit with a
four-parameter Lorentzian, and the fitted width is converted to an upper
level lifetime after deconvolving two-level power broadening:

    fwhm_natural = fwhm_measured / sqrt(1 + S)
    tau = 1 / (2 pi fwhm_natural)

Caveats the caller owns:

  * The width is attributed entirely to the scanned drive's upper level;
    the lower level is assumed metastable (negligible width). True for a
    scan out of a d state, wrong for a scan between two short-lived levels.
  * sqrt(1 + S) removes two-level saturation broadening only. Scans of a
    multi-level scheme can be further broadened by optical pumping through
    other levels, in which case the extracted lifetime is systematically
    low no matter the S correction. The bundled nine-level ytterbium
    scheme shows this at the tens-of-percent level; the packaged
    linewidth_reference scheme (fast closed refill path) is the
    configuration on which the linewidth -> lifetime pipeline is faithful.
  * Laser linewidth is taken as zero.

A scan is one call into rates.steady_state_scan: the rate matrix is built
once with the scanned drive dark, the levels the scan never touches are
eliminated once, and the same GTH kernel then solves the block of the
scanned pair and the level kept last for every detuning at once, its two
scanned rates being arrays over the detunings. The curve comes back as a ScanCurve of two
read-only float64 columns, validated in whole-array operations; the fit
reads those columns directly, so no step loops over points in Python.

Curves serialize to tab-separated text (detuning_hz, signal[, sigma]) and
read back losslessly, so fits can run on stored scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import np
from ._rng import standard_normals
from .errors import SchemeError, SolverError, _seed, check, representable
# bench/tracing.py wraps spectro.steady_state, so the name stays importable
# here although scans solve through steady_state_scan.
from .rates import (  # noqa: F401
    build_rate_matrix,
    drive_rate,
    steady_state,
    steady_state_scan,
)
from .scheme import LevelScheme, parse_number, read_text, walk_lines

__all__ = [
    "ScanCurve",
    "LorentzianFit",
    "simulate_scan",
    "noise_rng_description",
    "fit_lorentzian",
    "lifetime_from_linewidth",
    "curve_to_text",
    "load_curve",
]

DEFAULT_MONITOR = ("6p12", "6s12")
MIN_FIT_POINTS = 8
MAX_FIT_ITERATIONS = 100
FTOL = 1e-12  # relative cost change that ends the fit
XTOL = 1e-12  # scaled step that ends the fit


@dataclass(frozen=True, eq=False)
class ScanCurve:
    """Fluorescence vs detuning of the scanned drive, as two read-only
    float64 columns of equal length.

    detunings_hz must be strictly increasing; fluorescence is nonnegative
    (noise draws are clamped at zero). noise_sigma, when present, is the
    per-point Gaussian sigma in the same units as the signal. The columns
    are copied on construction, so the caller's arrays stay writable.
    """

    detunings_hz: np.ndarray
    fluorescence: np.ndarray
    noise_sigma: float | None = None

    def __post_init__(self):
        if self.noise_sigma is not None:
            sigma = check("noise sigma", float(self.noise_sigma), "[0, inf)")
            object.__setattr__(self, "noise_sigma", sigma)
        d = np.array(self.detunings_hz, dtype=float)
        y = np.array(self.fluorescence, dtype=float)
        if d.ndim != 1 or y.ndim != 1:
            raise SchemeError("detunings and fluorescence must be one-dimensional")
        if len(d) != len(y):
            raise SchemeError("detuning and fluorescence lengths differ")
        if len(d) == 0:
            raise SchemeError("scan curve is empty")
        _check_grid(d, y)
        if (y < 0).any():
            raise SchemeError("fluorescence must be >= 0")
        for name, column in (("detunings_hz", d), ("fluorescence", y)):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.detunings_hz)


def _check_grid(detunings: np.ndarray, *columns: np.ndarray) -> None:
    """ScanCurve's rule for its grid: the detunings and the columns beside
    them are finite, and the detunings strictly increase."""
    if not all(np.isfinite(c).all() for c in (detunings, *columns)):
        raise SchemeError("detunings and fluorescence must be finite")
    if not (detunings[1:] > detunings[:-1]).all():
        raise SchemeError("detunings must be strictly increasing")


@dataclass(frozen=True)
class LorentzianFit:
    """Result of a four-parameter Lorentzian fit.

    Model: offset + amplitude / (1 + (2 (nu - center) / fwhm)^2).
    covariance rows/cols are ordered (center, fwhm, amplitude, offset).
    When converged is False the parameter fields hold the initialization
    and message says what went wrong; they must not be used for physics.
    When converged is True, message names the stopping rule that fired.
    iterations counts the trial steps taken and cost is 0.5 * (sum of
    squared residuals) at the solution (NaN when the fit did not converge).
    """

    center_hz: float
    fwhm_hz: float
    amplitude: float
    offset: float
    covariance: tuple[tuple[float, ...], ...]
    converged: bool
    message: str = ""
    iterations: int = 0
    cost: float = math.nan

    def __post_init__(self):
        if self.converged:
            check("fit fwhm", self.fwhm_hz, "(0, inf)", "Hz", SolverError)
            check("fit amplitude", self.amplitude, "(0, inf)", error=SolverError)


def lorentzian(nu, center, fwhm, amplitude, offset):
    """The fit model itself, offset + amplitude / (1 + x^2) with
    x = 2 (nu - center) / fwhm, computed by the one kernel _model that
    fit_lorentzian evaluates at every trial step, so its values are the
    fit's to the bit. For residual checks and plotting."""
    nu = np.asarray(nu, dtype=float)
    params = np.array([center, fwhm, amplitude, offset], dtype=float)
    rows = [np.empty(nu.shape) for _ in range(3)]
    return _model(nu, params, rows, np.empty(nu.shape))[()]


def simulate_scan(
    scheme: LevelScheme,
    upper: str,
    lower: str,
    detunings_hz,
    monitor: tuple[str, str] = DEFAULT_MONITOR,
    noise_sigma: float | None = None,
    seed: int | None = None,
) -> ScanCurve:
    """Steady-state fluorescence at each detuning of the (upper, lower) drive.

    The rate matrix is built once with the scanned drive dark, and
    rates.steady_state_scan adds W(detuning) to its two entries: the other
    levels are eliminated once, and only the block of the pair and the
    level kept last is solved per point. The result equals a per-detuning
    steady_state of the rebuilt scheme to a few rounding errors. The
    monitored signal is p(monitor_upper) * A(monitor_upper ->
    monitor_lower) in photons/s per ion, with A the listed branching ratio
    over the lifetime, unscaled. The matrix divides each ratio by its
    level's sum first; the two agree for the default monitor on both
    bundled schemes, whose 6p12 ratios sum to exactly 1.0 (0.995 + 0.005,
    0.5 + 0.5). With noise_sigma > 0 the noise is drawn as
    noise_rng_description() states, from seed, an integer >= 0 or None for
    OS entropy; any other seed, a sequence too, raises a SchemeError naming
    it. The normals are default_rng(seed)'s bits, drawn by ybion._rng on
    one reused PCG64 set to that generator's state. Preconditions: the
    scanned drive exists, no other drive shares its lower level (a repump
    on the same level would distort the line, so it must be switched off
    first), and the monitor transition is a decay channel of the scheme,
    whose upper level therefore has a lifetime.
    A grid that ScanCurve would refuse is refused, in its words, before
    any matrix is built.
    """
    detunings = np.array(detunings_hz, dtype=float)
    if detunings.size == 0:
        raise SchemeError("detuning grid is empty")
    scanned = scheme.drive(upper, lower)
    for dr in scheme.drives:
        if dr.lower == lower and dr.upper != upper:
            raise SchemeError(
                f"{dr.name} also addresses the scanned "
                f"lower level {lower}; switch it off before scanning"
            )
    mon_upper, mon_lower = monitor
    mon_branch = None
    for ch in scheme.decays_from(mon_upper):
        if ch.lower == mon_lower:
            mon_branch = ch.branching_ratio
    if mon_branch is None:
        raise SchemeError(f"no decay channel {mon_upper} -> {mon_lower} to monitor")
    einstein_a = mon_branch / scheme.lifetime(mon_upper)
    if detunings.ndim == 1:  # ScanCurve words any other shape itself
        _check_grid(detunings)  # a grid ScanCurve refuses builds no matrix

    # Build the matrix once with the scanned drive switched off (W = 0 adds
    # nothing, so every entry matches a per-detuning build).
    dark = build_rate_matrix(
        scheme.with_drive(upper, lower, saturation=0.0)
    )
    w = drive_rate(scheme, scanned, detunings)
    pops = steady_state_scan(dark, upper, lower, w)
    signal = pops[:, dark.index(mon_upper)] * einstein_a

    # ScanCurve refuses a sigma that is not finite, so only finite ones draw
    if noise_sigma is not None and 0 < noise_sigma < math.inf:
        seed = seed if seed is None else _seed(seed)
        # an overflowing draw is inf, which representable refuses below
        with np.errstate(over="ignore"):
            signal += noise_sigma * standard_normals(seed, signal.shape)
        np.clip(signal, 0.0, None, out=signal)
        representable("noisy signal", signal.max(), noise_sigma=noise_sigma)

    return ScanCurve(detunings, signal, noise_sigma=noise_sigma)


def noise_rng_description() -> str:
    """Stream layout of simulate_scan's noise draws for run manifests."""
    return (
        f"numpy default_rng (PCG64), numpy {np.__version__}, "
        "default_rng(seed) drawing one normal(0, noise_sigma) per grid point "
        "in grid order, each added to its point's signal, then clamped at 0"
    )


def _initial_guess(nu: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Documented initialization: offset from the edge medians, amplitude
    from peak minus offset, center at the peak sample, fwhm from the
    outermost half-maximum crossings (grid span / 4 if the peak never
    drops below half maximum inside the window)."""
    k = max(2, len(y) // 10)
    # The median of the 2k edge samples averages the two middle ones, whose
    # sum overflows near the float limit; halving first keeps the bits
    # otherwise. Selecting them in place gives np.median's bits: its mean
    # sums from +0.0, which only turns a -0.0 sum into +0.0.
    edges = np.concatenate([y[:k], y[-k:]]) / 2.0
    edges.partition([k - 1, k])
    offset = 2.0 * ((0.0 + float(edges[k - 1]) + float(edges[k])) / 2.0)
    peak_idx = int(np.argmax(y))
    amplitude = float(y[peak_idx] - offset)
    center = float(nu[peak_idx])
    half = offset + amplitude / 2.0
    above = y >= half
    idx = np.flatnonzero(above)
    if amplitude > 0 and idx.size >= 2 and (idx[0] > 0 or idx[-1] < len(y) - 1):
        lo = idx[0]
        hi = idx[-1]

        # y[lo - 1] < half <= y[lo] and y[hi + 1] < half <= y[hi], so y1 != y0
        def crossing(i0: int, i1: int) -> float:
            y0, y1 = y[i0], y[i1]
            t = (half - y0) / (y1 - y0)
            return float(nu[i0] + t * (nu[i1] - nu[i0]))

        left = crossing(lo - 1, lo) if lo > 0 else float(nu[0])
        right = crossing(hi, hi + 1) if hi < len(y) - 1 else float(nu[-1])
        fwhm = right - left
    else:
        fwhm = float(nu[-1] - nu[0]) / 4.0
    return center, abs(fwhm), amplitude, offset


def _model(nu: np.ndarray, params: np.ndarray, rows, out: np.ndarray) -> np.ndarray:
    """The Lorentzian at params = (center, fwhm, amplitude, offset), written
    into out, which is returned. rows[0], rows[1] and rows[2] receive
    x = 2 (nu - c) / w, x^2 and q = 1 / (1 + x^2), from which _jacobian
    builds the Jacobian without evaluating the model again. The width
    divides as a NumPy scalar, so under the caller's errstate a zero width
    gives inf or NaN and never raises."""
    c, _, a, o = params.tolist()
    x, xx, q = rows[0], rows[1], rows[2]
    np.multiply(2.0 / params[1], np.subtract(nu, c, out=x), out=x)
    np.multiply(x, x, out=xx)
    np.divide(1.0, np.add(1.0, xx, out=q), out=q)
    return np.add(o, np.multiply(a, q, out=out), out=out)


def _jacobian(params: np.ndarray, rows, g: np.ndarray) -> None:
    """Turns the rows _model wrote at params into the transposed analytic
    Jacobian (4, points), in place: with g = 2 a q^2 / w, rows[0] becomes
    d/dc = 2 x g = 4 a x q^2 / w and rows[1] d/dw = x^2 g = 2 a x^2 q^2 / w,
    rows[2] stays d/da = q, and rows[3] must already hold d/do = 1. g is
    scratch space of one row; the width divides as in _model."""
    x, xx, q = rows[0], rows[1], rows[2]
    np.multiply(2.0 * params[2] / params[1], np.multiply(q, q, out=g), out=g)
    np.multiply(np.multiply(2.0, x, out=x), g, out=x)
    np.multiply(xx, g, out=xx)


def fit_lorentzian(curve: ScanCurve) -> LorentzianFit:
    """Nonlinear least-squares Lorentzian fit of a scan curve.

    Levenberg-Marquardt (Marquardt 1963; More 1978) on the analytic
    Jacobian of offset + amplitude / (1 + x^2), x = 2 (nu - center) / fwhm,
    started from _initial_guess. Parameters are measured in units of
    x_scale = (max(|center|, fwhm), fwhm, amplitude, max(amplitude,
    |offset|)) of the initial guess. Each trial step solves
    (J^T J + lambda D) dz = -J^T r, with D the running maximum of
    diag(J^T J) (More's scaling), and is accepted only if it does not
    raise the cost 0.5 |r|^2: while the cost is finite, a trial whose cost
    is not finite is rejected. lambda shrinks tenfold after an accepted
    step and grows tenfold after a rejected one. The fit converges when an
    accepted step lowers the cost by at most 1e-12 of it, or when a trial
    step is at most 1e-12 (1e-12 + |z|) in scaled units; message names the
    rule that fired. After MAX_FIT_ITERATIONS trial steps it stops with
    converged=False.

    The work per step: a trial evaluates only the model, through _model,
    the one kernel lorentzian() also calls, which leaves x, x^2 and q in
    its buffers; only an accepted step builds its analytic Jacobian from
    them (_jacobian), and only then are J^T J, J^T r and the scaled
    parameter norm recomputed. A fit thus evaluates the model once at the
    start and once per trial step, and the Jacobian once at the start and
    once per accepted step. Its arrays are allocated once per fit; in the
    loop only np.linalg.solve allocates, for its result.

    Needs at least eight points. Returns converged=False (never raises)
    for degenerate data: flat signal, nonpositive initial amplitude, a
    zero initial width, the iteration cap, a solution with nonpositive
    width or amplitude, or a width larger than the scanned span. No gate
    refuses a width below the grid's point spacing: the eight-point curve
    (0.7, 0.5, 0.6, 0.0, 0.2, 1.0, 0.1, 0.1) on detunings 0..7 Hz converges
    to fwhm about 1.03e-6 Hz, where the normal matrix is singular and the
    covariance all NaN.
    The covariance is the Gauss-Newton (J^T J)^-1 from the analytic J at
    the solution, scaled by the residual variance 2 cost / (points - 4).
    """
    # Floating-point overflow, or a trial width of zero, only produces inf or
    # NaN values, which the step acceptance and the gates below reject.
    with np.errstate(all="ignore"):
        nu = np.asarray(curve.detunings_hz, dtype=float)
        y = np.asarray(curve.fluorescence, dtype=float)
        if len(nu) < MIN_FIT_POINTS:
            raise SolverError(
                f"need >= {MIN_FIT_POINTS} points for a 4-parameter fit, got {len(nu)}"
            )
        center0, fwhm0, amp0, off0 = _initial_guess(nu, y)

        def failed(msg: str, iterations: int = 0) -> LorentzianFit:
            zeros = tuple(tuple(0.0 for _ in range(4)) for _ in range(4))
            return LorentzianFit(
                center_hz=center0,
                fwhm_hz=fwhm0,
                amplitude=amp0,
                offset=off0,
                covariance=zeros,
                converged=False,
                message=msg,
                iterations=iterations,
            )

        if amp0 <= 0 or np.ptp(y) == 0:
            return failed("degenerate initialization: no peak above the baseline")
        if fwhm0 <= 0:
            return failed("degenerate initialization: zero width estimate")

        # Every array the loop writes is allocated here, once per fit. jac
        # holds the current point's (4, points) Jacobian; a trial writes x,
        # x^2 and q into the rows of trial_jac, and only an accepted trial
        # turns them into its Jacobian, after which the two buffers swap, as
        # do the parameter and residual vectors.
        n = len(nu)
        scale = np.array([max(abs(center0), fwhm0), fwhm0, amp0, max(amp0, abs(off0))])
        column_scale = scale[:, None]
        params, trial = np.array([center0, fwhm0, amp0, off0]), np.empty(4)
        jac, trial_jac, js = np.empty((4, n)), np.empty((4, n)), np.empty((4, n))
        jac[3] = trial_jac[3] = 1.0
        rows, trial_rows = tuple(jac), tuple(trial_jac)
        resid, trial_resid, g = np.empty(n), np.empty(n), np.empty(n)
        jtj, damped, damping_matrix = np.empty((4, 4)), np.empty((4, 4)), np.zeros((4, 4))
        rhs, scaled_params = np.empty(4), np.empty(4)
        damping_diagonal = damping_matrix.reshape(16)[::5]

        np.subtract(_model(nu, params, rows, resid), y, out=resid)
        _jacobian(params, rows, g)
        cost = 0.5 * float(resid @ resid)
        damping = 1e-3
        diag = np.zeros(4)
        moved = True
        for iterations in range(1, MAX_FIT_ITERATIONS + 1):
            if moved:  # J, r and params change only with an accepted step
                np.multiply(jac, column_scale, out=js)
                np.matmul(js, js.T, out=jtj)
                np.maximum(diag, jtj.diagonal(), out=diag)
                np.negative(np.matmul(js, resid, out=rhs), out=rhs)
                np.divide(params, scale, out=scaled_params)
                params_norm = math.sqrt(scaled_params @ scaled_params)
                moved = False
            np.multiply(damping, diag, out=damping_diagonal)
            try:
                step = np.linalg.solve(np.add(jtj, damping_matrix, out=damped), rhs)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            np.add(params, np.multiply(step, scale, out=trial), out=trial)
            np.subtract(_model(nu, trial, trial_rows, trial_resid), y, out=trial_resid)
            trial_cost = 0.5 * float(trial_resid @ trial_resid)
            if trial_cost <= cost:
                small_change = cost - trial_cost <= FTOL * cost
                _jacobian(trial, trial_rows, g)
                params, trial = trial, params
                jac, trial_jac = trial_jac, jac
                rows, trial_rows = trial_rows, rows
                resid, trial_resid = trial_resid, resid
                cost = trial_cost
                moved = True
                damping /= 10.0
                if small_change:
                    message = f"converged: relative cost change <= {FTOL:g}"
                    break
            else:
                damping *= 10.0
            if math.sqrt(step @ step) <= XTOL * (XTOL + params_norm):
                message = f"converged: scaled step <= {XTOL:g}"
                break
        else:
            return failed(
                f"no convergence within {MAX_FIT_ITERATIONS} iterations", iterations
            )

        c, w, a, o = params
        w = abs(w)
        if w <= 0 or a <= 0:
            return failed(
                "optimizer converged to a nonpositive width or amplitude", iterations
            )
        # A width is measured only where the scan reaches the half-maximum
        # points; beyond the span it is extrapolated from the last bit of
        # curvature (a power-broadened yb174_plus line scanned over +-60 MHz
        # fits 4.95 GHz).
        span = float(nu.max() - nu.min())
        if w > span:
            return failed(
                f"fitted fwhm {w:.6g} Hz exceeds the scanned span {span:.6g} Hz",
                iterations,
            )

        # Gauss-Newton covariance: (J^T J)^-1 scaled by the residual variance.
        dof = n - 4
        try:
            jtj_inv = np.linalg.inv(jac @ jac.T)
            jtj_inv = (jtj_inv + jtj_inv.T) / 2.0
            cov = jtj_inv * (2.0 * cost / dof)
        except np.linalg.LinAlgError:
            cov = np.full((4, 4), np.nan)
        return LorentzianFit(
            center_hz=float(c),
            fwhm_hz=float(w),
            amplitude=float(a),
            offset=float(o),
            covariance=tuple(map(tuple, cov.tolist())),
            converged=True,
            message=message,
            iterations=iterations,
            cost=cost,
        )


def lifetime_from_linewidth(fwhm_hz: float, saturation: float) -> float:
    """Upper-level lifetime from a measured FWHM after power-broadening
    deconvolution: tau = sqrt(1 + S) / (2 pi fwhm). A lifetime that
    overflows (a large S over a tiny fwhm) or underflows to 0 is refused."""
    check("fwhm", fwhm_hz, "(0, inf)", "Hz", SolverError)
    check("saturation", saturation, "[0, inf)", error=SolverError)
    return representable("lifetime sqrt(1 + S) / (2 pi fwhm)",
                         math.sqrt(1.0 + saturation) / (2.0 * math.pi * fwhm_hz),
                         "(0, inf)", SolverError, fwhm_hz=fwhm_hz, saturation=saturation)


def curve_to_text(curve: ScanCurve) -> str:
    """The curve as tab-separated text with a header row; floats are
    written with repr, so load_curve reads back the same bits."""
    sigma = "" if curve.noise_sigma is None else f"\t{curve.noise_sigma!r}"
    header = "detuning_hz\tsignal" + ("\tsigma" if sigma else "")
    rows = (
        f"{d!r}\t{y!r}{sigma}"
        for d, y in zip(curve.detunings_hz.tolist(), curve.fluorescence.tolist())
    )
    return "\n".join([header, *rows]) + "\n"


def load_curve(path: str) -> ScanCurve:
    """Read a curve written by curve_to_text; comments and the header are
    optional. A sigma column must fill every row with one value."""
    detunings: list[float] = []
    signal: list[float] = []
    sigmas: list[float] = []

    def parse_line(line: str) -> None:
        parts = line.split("\t")
        if not detunings and parts[0] == "detuning_hz":
            return
        if len(parts) not in (2, 3):
            raise SchemeError("expected 2 or 3 tab-separated columns")
        detunings.append(parse_number(parts[0], "detuning_hz"))
        signal.append(parse_number(parts[1], "signal"))
        if len(parts) == 3:
            sigmas.append(parse_number(parts[2], "sigma"))

    walk_lines(read_text(path), parse_line)
    if sigmas and len(sigmas) != len(detunings):
        raise SchemeError("sigma column present on only some rows")
    curve = ScanCurve(detunings, signal, noise_sigma=sigmas[0] if sigmas else None)
    for sigma in sigmas:
        if sigma != curve.noise_sigma:
            raise SchemeError("sigma column must hold one value, got "
                              f"{curve.noise_sigma!r} and {sigma!r}")
    return curve
