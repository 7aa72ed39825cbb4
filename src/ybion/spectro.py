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

import numpy as np

from .errors import SchemeError, SolverError, check, representable
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
        if not (np.isfinite(d).all() and np.isfinite(y).all()):
            raise SchemeError("detunings and fluorescence must be finite")
        if not (d[1:] > d[:-1]).all():
            raise SchemeError("detunings must be strictly increasing")
        if (y < 0).any():
            raise SchemeError("fluorescence must be >= 0")
        for name, column in (("detunings_hz", d), ("fluorescence", y)):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.detunings_hz)


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
    """The fit model itself, exposed for residual checks and plotting."""
    x = 2.0 * (np.asarray(nu, dtype=float) - center) / fwhm
    return offset + amplitude / (1.0 + x * x)


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
    monitor_lower) in photons/s per ion. With noise_sigma > 0 the noise is
    drawn as noise_rng_description() states. Preconditions: the scanned
    drive exists, no other drive shares its lower level (a repump on the
    same level would distort the line, so it must be switched off first),
    and the monitor transition is a decay channel of the scheme.
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
    mon_lifetime = scheme.lifetime(mon_upper)
    if mon_lifetime is None:
        raise SchemeError(f"monitor level {mon_upper} has no lifetime")
    einstein_a = mon_branch / mon_lifetime

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
        rng = np.random.default_rng(seed)
        signal += rng.normal(0.0, noise_sigma, size=signal.shape)
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


def _model_and_jacobian(nu: np.ndarray, params: np.ndarray):
    """Model values and the transposed analytic Jacobian (4, points) of the
    Lorentzian at params = (center, fwhm, amplitude, offset). With
    x = 2 (nu - c) / w and q = 1 / (1 + x^2): d/dc = 4 a x q^2 / w,
    d/dw = 2 a x^2 q^2 / w, d/da = q and d/do = 1. On NumPy scalars, under
    the caller's errstate, a zero width gives inf or NaN and never raises."""
    c, w, a, o = params
    x = (2.0 / w) * (nu - c)
    q = 1.0 / (1.0 + x * x)
    g = (2.0 * a / w) * (q * q)
    return o + a * q, np.array([2.0 * x * g, x * x * g, q, np.ones_like(q)])


# Floating-point overflow, or a trial width of zero, only produces inf or
# NaN values, which the step acceptance and the gates below reject.
@np.errstate(all="ignore")
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

    Needs at least eight points. Returns converged=False (never raises)
    for degenerate data: flat signal, nonpositive initial amplitude, a
    zero initial width, the iteration cap, a solution with nonpositive
    width or amplitude, or a width larger than the scanned span.
    The covariance is the Gauss-Newton (J^T J)^-1 from the analytic J at
    the solution, scaled by the residual variance 2 cost / (points - 4).
    """
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

    scale = np.array([max(abs(center0), fwhm0), fwhm0, amp0, max(amp0, abs(off0))])
    params = np.array([center0, fwhm0, amp0, off0])
    model, jac_t = _model_and_jacobian(nu, params)
    resid = model - y
    cost = 0.5 * float(resid @ resid)
    damping = 1e-3
    diag = np.zeros(4)
    for iterations in range(1, MAX_FIT_ITERATIONS + 1):
        js = jac_t * scale[:, None]
        jtj = js @ js.T
        diag = np.maximum(diag, jtj.diagonal())
        try:
            step = np.linalg.solve(jtj + np.diag(damping * diag), -(js @ resid))
        except np.linalg.LinAlgError:
            damping *= 10.0
            continue
        trial = params + step * scale
        trial_model, trial_jac_t = _model_and_jacobian(nu, trial)
        trial_resid = trial_model - y
        trial_cost = 0.5 * float(trial_resid @ trial_resid)
        small_step = math.sqrt(step @ step) <= XTOL * (
            XTOL + math.sqrt((params / scale) @ (params / scale)))
        if trial_cost <= cost:
            small_change = cost - trial_cost <= FTOL * cost
            params, jac_t, resid, cost = trial, trial_jac_t, trial_resid, trial_cost
            damping /= 10.0
            if small_change:
                message = f"converged: relative cost change <= {FTOL:g}"
                break
        else:
            damping *= 10.0
        if small_step:
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
            f"fitted fwhm {w:.6g} Hz exceeds the scanned span {span:.6g} Hz", iterations
        )

    # Gauss-Newton covariance: (J^T J)^-1 scaled by the residual variance.
    dof = max(len(nu) - 4, 1)
    try:
        jtj_inv = np.linalg.inv(jac_t @ jac_t.T)
        jtj_inv = (jtj_inv + jtj_inv.T) / 2.0
        cov = jtj_inv * (2.0 * cost / dof)
    except np.linalg.LinAlgError:
        cov = np.full((4, 4), np.nan)
    return LorentzianFit(
        center_hz=float(c),
        fwhm_hz=float(w),
        amplitude=float(a),
        offset=float(o),
        covariance=tuple(tuple(float(v) for v in row) for row in cov),
        converged=True,
        message=message,
        iterations=iterations,
        cost=cost,
    )


def lifetime_from_linewidth(fwhm_hz: float, saturation: float) -> float:
    """Upper-level lifetime from a measured FWHM after power-broadening
    deconvolution: tau = sqrt(1 + S) / (2 pi fwhm)."""
    check("fwhm", fwhm_hz, "(0, inf)", "Hz", SolverError)
    check("saturation", saturation, "[0, inf)", error=SolverError)
    return float(np.sqrt(1.0 + saturation) / (2.0 * np.pi * fwhm_hz))


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
