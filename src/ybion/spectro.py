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

Curves serialize to tab-separated text (detuning_hz, signal[, sigma]) and
read back losslessly, so fits can run on stored scans.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .errors import SchemeError, SolverError
# bench/tracing.py wraps spectro.steady_state, so the name stays importable
# here although scans solve through steady_state_stack.
from .rates import (  # noqa: F401
    build_rate_matrix,
    drive_rate,
    steady_state,
    steady_state_stack,
)
from .scheme import LevelScheme

__all__ = [
    "ScanCurve",
    "LorentzianFit",
    "simulate_scan",
    "fit_lorentzian",
    "lifetime_from_linewidth",
    "save_curve",
    "load_curve",
]

DEFAULT_MONITOR = ("6p12", "6s12")
MIN_FIT_POINTS = 8


@dataclass(frozen=True)
class ScanCurve:
    """Fluorescence vs detuning of the scanned drive.

    detunings_hz must be strictly increasing; fluorescence is nonnegative
    (noise draws are clamped at zero). noise_sigma, when present, is the
    per-point Gaussian sigma in the same units as the signal.
    """

    detunings_hz: tuple[float, ...]
    fluorescence: tuple[float, ...]
    noise_sigma: float | None = None

    def __post_init__(self):
        # coerce numpy scalars so serialization emits plain float reprs
        object.__setattr__(
            self, "detunings_hz", tuple(float(v) for v in self.detunings_hz))
        object.__setattr__(
            self, "fluorescence", tuple(float(v) for v in self.fluorescence))
        if self.noise_sigma is not None:
            object.__setattr__(self, "noise_sigma", float(self.noise_sigma))
        if len(self.detunings_hz) != len(self.fluorescence):
            raise SchemeError("detuning and fluorescence lengths differ")
        if len(self.detunings_hz) == 0:
            raise SchemeError("scan curve is empty")
        d = np.asarray(self.detunings_hz)
        if not np.all(np.diff(d) > 0):
            raise SchemeError("detunings must be strictly increasing")
        if min(self.fluorescence) < 0:
            raise SchemeError("fluorescence must be >= 0")
        if self.noise_sigma is not None and self.noise_sigma < 0:
            raise SchemeError("noise sigma must be >= 0")

    def __len__(self) -> int:
        return len(self.detunings_hz)


@dataclass(frozen=True)
class LorentzianFit:
    """Result of a four-parameter Lorentzian fit.

    Model: offset + amplitude / (1 + (2 (nu - center) / fwhm)^2).
    covariance rows/cols are ordered (center, fwhm, amplitude, offset).
    When converged is False the parameter fields hold the last iterate (or
    the initialization) and message says what went wrong; they must not be
    used for physics.
    """

    center_hz: float
    fwhm_hz: float
    amplitude: float
    offset: float
    covariance: tuple[tuple[float, ...], ...]
    converged: bool
    message: str = ""

    def __post_init__(self):
        if self.converged:
            if self.fwhm_hz <= 0:
                raise SolverError("converged fit must have positive fwhm")
            if self.amplitude <= 0:
                raise SolverError("converged fit must have positive amplitude")


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

    The rate matrix is built once; the scanned drive's rate W(detuning)
    enters its two entries in a (points, n, n) stack, which one batched GTH
    solve (rates.steady_state_stack) turns into all the populations. The
    result equals a per-detuning steady_state of the rebuilt scheme. The
    monitored signal is p(monitor_upper) * A(monitor_upper ->
    monitor_lower) in photons/s per ion. Preconditions: the scanned drive
    exists, no other drive shares its lower level (a repump on the same
    level would distort the line, so it must be switched off first), and
    the monitor transition is a decay channel of the scheme.
    """
    detunings = [float(d) for d in detunings_hz]
    if not detunings:
        raise SchemeError("detuning grid is empty")
    scanned = scheme.drive(upper, lower)
    for dr in scheme.drives:
        if dr.lower == lower and dr.upper != upper:
            raise SchemeError(
                f"drive {dr.upper}<->{dr.lower} also addresses the scanned "
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
    # nothing, so every entry matches a per-detuning build), add W(delta)
    # to its two entries in a stack and solve the stack in one call.
    dark = build_rate_matrix(
        scheme.with_drive(upper, lower, saturation=0.0, power_w=None, waist_m=None)
    )
    w = drive_rate(scheme, scanned, np.asarray(detunings))
    up, lo = dark.index(upper), dark.index(lower)
    stack = np.repeat(dark.matrix[None], len(detunings), axis=0)
    stack[:, up, lo] += w
    stack[:, lo, up] += w
    pops = steady_state_stack(stack, dark.labels)
    signal = pops[:, dark.index(mon_upper)] * einstein_a

    if noise_sigma is not None and noise_sigma > 0:
        rng = np.random.default_rng(seed)
        signal = signal + rng.normal(0.0, noise_sigma, size=signal.shape)
        np.clip(signal, 0.0, None, out=signal)

    return ScanCurve(
        detunings_hz=tuple(detunings),
        fluorescence=tuple(float(s) for s in signal),
        noise_sigma=noise_sigma,
    )


def _initial_guess(nu: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Documented initialization: offset from the edge medians, amplitude
    from peak minus offset, center at the peak sample, fwhm from the
    outermost half-maximum crossings (grid span / 4 if the peak never
    drops below half maximum inside the window)."""
    k = max(2, len(y) // 10)
    offset = float(np.median(np.concatenate([y[:k], y[-k:]])))
    peak_idx = int(np.argmax(y))
    amplitude = float(y[peak_idx] - offset)
    center = float(nu[peak_idx])
    half = offset + amplitude / 2.0
    above = y >= half
    idx = np.flatnonzero(above)
    if amplitude > 0 and idx.size >= 2 and (idx[0] > 0 or idx[-1] < len(y) - 1):
        lo = idx[0]
        hi = idx[-1]

        def crossing(i0: int, i1: int) -> float:
            y0, y1 = y[i0], y[i1]
            if y1 == y0:
                return float(nu[i0])
            t = (half - y0) / (y1 - y0)
            return float(nu[i0] + t * (nu[i1] - nu[i0]))

        left = crossing(lo - 1, lo) if lo > 0 else float(nu[0])
        right = crossing(hi, hi + 1) if hi < len(y) - 1 else float(nu[-1])
        fwhm = right - left
    else:
        fwhm = float(nu[-1] - nu[0]) / 4.0
    return center, abs(fwhm), amplitude, offset


def fit_lorentzian(curve: ScanCurve) -> LorentzianFit:
    """Nonlinear least-squares Lorentzian fit of a scan curve.

    Needs at least eight points. Returns converged=False (never raises)
    for degenerate data: flat signal, nonpositive initial amplitude, or
    optimizer failure. Convergence tolerances are 1e-12 relative on
    parameters and cost.
    """
    nu = np.asarray(curve.detunings_hz, dtype=float)
    y = np.asarray(curve.fluorescence, dtype=float)
    if len(nu) < MIN_FIT_POINTS:
        raise SolverError(
            f"need >= {MIN_FIT_POINTS} points for a 4-parameter fit, got {len(nu)}"
        )
    center0, fwhm0, amp0, off0 = _initial_guess(nu, y)

    def failed(msg: str) -> LorentzianFit:
        zeros = tuple(tuple(0.0 for _ in range(4)) for _ in range(4))
        return LorentzianFit(
            center_hz=center0,
            fwhm_hz=fwhm0,
            amplitude=amp0,
            offset=off0,
            covariance=zeros,
            converged=False,
            message=msg,
        )

    if amp0 <= 0 or np.ptp(y) == 0:
        return failed("degenerate initialization: no peak above the baseline")
    if fwhm0 <= 0:
        return failed("degenerate initialization: zero width estimate")

    def residual(params):
        c, w, a, o = params
        return lorentzian(nu, c, w, a, o) - y

    scale = np.array([max(abs(center0), fwhm0), fwhm0, amp0, max(amp0, abs(off0))])
    result = least_squares(
        residual,
        x0=[center0, fwhm0, amp0, off0],
        xtol=1e-12,
        ftol=1e-12,
        gtol=1e-12,
        x_scale=scale,
        max_nfev=2000,
    )
    if not result.success:
        return failed(f"optimizer did not converge: {result.message}")
    c, w, a, o = result.x
    w = abs(w)
    if w <= 0 or a <= 0:
        return failed("optimizer converged to a nonpositive width or amplitude")

    # Gauss-Newton covariance: (J^T J)^-1 scaled by the residual variance.
    dof = max(len(nu) - 4, 1)
    jac = result.jac
    try:
        jtj_inv = np.linalg.inv(jac.T @ jac)
        jtj_inv = (jtj_inv + jtj_inv.T) / 2.0
        cov = jtj_inv * (2.0 * result.cost / dof)
    except np.linalg.LinAlgError:
        cov = np.full((4, 4), np.nan)
    return LorentzianFit(
        center_hz=float(c),
        fwhm_hz=float(w),
        amplitude=float(a),
        offset=float(o),
        covariance=tuple(tuple(float(v) for v in row) for row in cov),
        converged=True,
        message=result.message,
    )


def lifetime_from_linewidth(fwhm_hz: float, saturation: float) -> float:
    """Upper-level lifetime from a measured FWHM after power-broadening
    deconvolution: tau = sqrt(1 + S) / (2 pi fwhm)."""
    if fwhm_hz <= 0:
        raise SolverError("fwhm must be positive")
    if saturation < 0:
        raise SolverError("saturation must be >= 0")
    return float(np.sqrt(1.0 + saturation) / (2.0 * np.pi * fwhm_hz))


def save_curve(curve: ScanCurve, path: str) -> None:
    """Write a curve as tab-separated text, re-readable by load_curve."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(curve_to_text(curve))


def curve_to_text(curve: ScanCurve) -> str:
    buf = io.StringIO()
    has_sigma = curve.noise_sigma is not None
    header = "detuning_hz\tsignal" + ("\tsigma" if has_sigma else "")
    buf.write(header + "\n")
    for d, s in zip(curve.detunings_hz, curve.fluorescence):
        row = f"{d!r}\t{s!r}"
        if has_sigma:
            row += f"\t{curve.noise_sigma!r}"
        buf.write(row + "\n")
    return buf.getvalue()


def load_curve(path: str) -> ScanCurve:
    """Read a tab-separated curve written by save_curve (header optional)."""
    detunings: list[float] = []
    signal: list[float] = []
    sigmas: list[float] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if lineno == 1 and parts[0] == "detuning_hz":
                continue
            if len(parts) not in (2, 3):
                raise SchemeError(
                    f"line {lineno}: expected 2 or 3 tab-separated columns"
                )
            try:
                detunings.append(float(parts[0]))
                signal.append(float(parts[1]))
                if len(parts) == 3:
                    sigmas.append(float(parts[2]))
            except ValueError as exc:
                raise SchemeError(f"line {lineno}: {exc}") from None
    if sigmas and len(sigmas) != len(detunings):
        raise SchemeError("sigma column present on only some rows")
    noise_sigma = sigmas[0] if sigmas else None
    return ScanCurve(
        detunings_hz=tuple(detunings),
        fluorescence=tuple(signal),
        noise_sigma=noise_sigma,
    )
