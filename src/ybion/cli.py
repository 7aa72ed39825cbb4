"""Command-line front end: reproducible runs of every toolkit stage.

Subcommands (see --help of each for flags, units, defaults):

    steady-state     level populations of a scheme at fixed drives
    ionize-rate      beam flux, ionization rate, rate-per-power coefficient
    xsec             photoionization cross section from a Rydberg series
    crystal          two-ion positions, modes, and the inverse problems
    scan             simulate a frequency scan of one drive
    fit-scan         Lorentzian fit + lifetime from a stored scan curve
    simulate         chopped-sequence Monte Carlo event times
    verify-roundtrip charge-inference statistics under synthetic noise

Conventions: units are encoded in flag names or stated in the flag help;
primary output is tab-separated text with a header row, written to --out
when given, else stdout. Every run also emits a manifest (key: value
lines: tool version, one param.<dest> line per parsed flag, input
digests, seeds, solver diagnostics as diag.* lines, timestamp) to
<out>.manifest, or to stderr when printing to stdout. A flag's argparse
dest is its manifest key, so each flag is declared once, in build_parser.
Primary outputs are byte-identical across reruns with equal inputs and
seeds; the manifest's timestamp line is the only thing that changes.

Exit codes: 0 success, 1 usage error, 2 domain error (the originating
module's message, verbatim, on stderr) or unreadable/unwritable file.

Scheme arguments are resolved in order: literal filesystem path, then
$YBION_SCHEME_PATH directory, then the package's bundled schemes by stem
name (e.g. "yb174_plus").
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from collections.abc import Iterable
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .constants import photon_energy_ev
from .crystal import (
    ETA_BRACKET,
    ChargePair,
    TrapAxis,
    crystal_state,
    displacement_ratio,
    infer_charge,
    infer_eta,
)
from .errors import SchemeError, YbionError, check, representable
# runs_to_text is not called here: simulate writes runs_text_blocks one
# block at a time, but the benchmark tracer wraps the name cli.runs_to_text.
from .mc import (
    BLOCK_TRIALS,
    REPORTED_NOISE,
    SequenceConfig,
    VerificationNoise,
    infer_from_verification,
    rng_description,
    runs_text_blocks,
    runs_to_text,
    scaled_std,
    simulate_ionization_times,
    summarize_times,
    synthesize_verification,
    verification_rng_description,
)
from .photoion import (
    COEFFICIENT_TABLES,
    CrossSection,
    GaussianBeam,
    bundled_series_path,
    cross_section,
    effective_quantum_number,
    fit_quantum_defect,
    ionization_rate,
    load_series_file,
    photon_flux,
    rate_coefficient,
)
from .rates import build_rate_matrix, steady_state
from .scheme import bundled_scheme_path, load_scheme_file
from .spectro import (
    curve_to_text,
    fit_lorentzian,
    lifetime_from_linewidth,
    load_curve,
    noise_rng_description,
    simulate_scan,
)

__all__ = ["main"]

SCHEME_ENV_VAR = "YBION_SCHEME_PATH"


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1 instead of argparse's 2, and
    with scientific-notation negatives (-80e6) accepted as values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+$|^-\d*\.?\d+([eE][-+]?\d+)?$"
        )

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    return check("value", float(text), "finite", error=ValueError)


def _int_in_range(lowest: int, highest: float):
    """argparse type: an integer in [lowest, highest], highest an int or
    math.inf; failures exit 1 naming the flag and the range."""
    what = (f"an integer >= {lowest}" if highest == math.inf
            else f"an integer from {lowest} to {highest}")

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not lowest <= value <= highest:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return convert


# simulate writes its table a block at a time, so at its peak it holds the
# 25-byte-per-trial columns and the summary's working copies of the event
# times: its peak RSS grows by about 46 bytes per trial, to about 500 MB at
# this cap (83 MB at 1e6 trials, 495 MB at 1e7).
MAX_TRIALS = 10**7

# A scan holds a few (levels, points) float64 arrays, about 170 bytes per
# point on the 9-level scheme, so about 17 MB at this cap.
MAX_SCAN_POINTS = 10**5

# A seed costs about 36 us and 100 bytes, so about 36 s and 100 MB at this cap.
MAX_SEEDS = 10**6

_nonnegative_int = _int_in_range(0, math.inf)
_trial_count = _int_in_range(1, MAX_TRIALS)
_seed_count = _int_in_range(1, MAX_SEEDS)


class _FieldsAction(argparse.Action):
    """A multi-value flag stored as one namespace entry, and so one manifest
    key, per value: the names in `fields`. The flag's own dest stays unset;
    defaults go to the subparser's set_defaults."""

    fields: tuple[str, ...] = ()

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, default=argparse.SUPPRESS, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        for field, value in zip(self.fields, values):
            setattr(namespace, field, value)


class _NoiseAction(_FieldsAction):
    fields = ("noise_ratio_rel", "noise_freq_rel")


class _GridAction(_FieldsAction):
    """--grid START_HZ STOP_HZ POINTS: finite START_HZ < STOP_HZ with a
    finite span, and an integer POINTS from 2 to MAX_SCAN_POINTS."""

    fields = ("grid_start_hz", "grid_stop_hz", "grid_points")

    def __call__(self, parser, namespace, values, option_string=None):
        start, stop, points = values
        try:
            grid = (_finite_float(start), _finite_float(stop), int(points))
        except ValueError:
            grid = None
        if grid is None or not (
            grid[0] < grid[1]
            and grid[1] - grid[0] < math.inf
            and 2 <= grid[2] <= MAX_SCAN_POINTS
        ):
            raise argparse.ArgumentError(
                self,
                "expected finite START_HZ < STOP_HZ with a finite span and an "
                f"integer POINTS from 2 to {MAX_SCAN_POINTS}, "
                f"got {start} {stop} {points}",
            )
        super().__call__(parser, namespace, grid, option_string)


class _ModeAction(argparse.Action):
    """--invert-from-mode FREQ_HZ MODE as a finite float and com or bre."""

    def __call__(self, parser, namespace, values, option_string=None):
        freq, mode = values
        try:
            freq_hz = _finite_float(freq)
        except ValueError:
            freq_hz = None
        if freq_hz is None or mode not in ("com", "bre"):
            raise argparse.ArgumentError(
                self,
                "expected a finite FREQ_HZ and MODE com or bre, "
                f"got {freq} {mode}",
            )
        setattr(namespace, self.dest, (freq_hz, mode))


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        # numpy scalars subclass float but repr as np.float64(...); collapse
        # them so primary outputs stay parseable plain text
        return repr(float(value))
    if isinstance(value, list):  # repeated --drive-overrides
        return ";".join(",".join(item) for item in value)
    if isinstance(value, tuple):  # --invert-from-mode FREQ_HZ MODE
        return " ".join(map(_fmt, value))
    return str(value)


def _table(header: list[str], rows: list[list]) -> str:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _sha256(path: str | Path) -> str:
    # Imported here so that only runs that hash an input load OpenSSL;
    # simulate and verify-roundtrip load it anyway, through numpy.random's
    # import of secrets.
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class _Run(NamedTuple):
    """A handler's output. primary is the table, as one string or as its
    successive chunks; summary is simulate's statistics table."""

    primary: str | Iterable[str]
    inputs: tuple = ()
    rng_note: str | None = None
    diag: dict | None = None
    summary: str = ""


def _manifest(args, run: _Run) -> str:
    lines = [
        "tool: ybion",
        f"version: {__version__}",
        f"subcommand: {args.subcommand}",
        f"timestamp: {datetime.now(timezone.utc).isoformat()}",
    ]
    params = vars(args)
    for key in sorted(params.keys() - {"handler", "subcommand", "out"}):
        lines.append(f"param.{key}: {_fmt(params[key])}")
    for path in run.inputs:
        lines.append(f"input.{Path(path).name}.sha256: {_sha256(path)}")
    if run.rng_note:
        lines.append(f"rng: {run.rng_note}")
    for key in sorted(run.diag or {}):
        lines.append(f"diag.{key}: {_fmt(run.diag[key])}")
    return "\n".join(lines) + "\n"


def _emit(primary: str | Iterable[str], manifest: str, out: str | None) -> None:
    """Write the primary output chunk by chunk, then the manifest."""
    chunks = [primary] if isinstance(primary, str) else primary
    if out:
        with open(out, "w", encoding="utf-8") as stream:
            stream.writelines(chunks)
        Path(out + ".manifest").write_text(manifest, encoding="utf-8")
    else:
        sys.stdout.writelines(chunks)
        sys.stderr.write(manifest)


def _resolve_scheme(arg: str) -> Path:
    candidate = Path(arg)
    if candidate.is_file():
        return candidate
    tried = [str(candidate)]
    env_dir = os.environ.get(SCHEME_ENV_VAR)
    if env_dir:
        env_candidate = Path(env_dir) / arg
        if env_candidate.is_file():
            return env_candidate
        tried.append(str(env_candidate))
    stem = arg[:-7] if arg.endswith(".scheme") else arg
    try:
        return bundled_scheme_path(stem)
    except SchemeError:
        tried.append(f"bundled scheme {stem!r}")
        raise SchemeError(f"cannot resolve scheme {arg!r}; tried: "
                          + ", ".join(tried)) from None


_DRIVE_FIELDS = ("saturation", "power_w", "waist_m", "detuning_hz")


def _apply_drive_overrides(scheme, overrides, saturate_all):
    if saturate_all is not None:
        scheme = scheme.with_all_drives_saturated(saturate_all)
    if not overrides:
        return scheme
    merged: dict[tuple[str, str], dict] = {}
    for upper, lower, field, value in overrides:
        merged.setdefault((upper, lower), {})[field] = value
    for (upper, lower), fields in merged.items():
        changes: dict = {}
        for field, text in fields.items():
            if field not in _DRIVE_FIELDS:
                raise SchemeError(
                    f"unknown drive field {field!r}; expected saturation, "
                    "power_w, waist_m or detuning_hz"
                )
            try:
                changes[field] = float(text)
            except ValueError:
                raise SchemeError(
                    f"drive {upper}->{lower} field {field}: expected a number, "
                    f"got {text!r}"
                ) from None
        if ("power_w" in fields) != ("waist_m" in fields):
            raise SchemeError(
                "power_w and waist_m must be overridden together"
            )
        scheme = scheme.with_drive(upper, lower, **changes)
    return scheme


# -- subcommand handlers ---------------------------------------------------
# Each returns a _Run; main writes the table and the manifest. A handler
# that resolves a flag's value rebinds it on args, so the manifest records
# the resolved value.


def _cmd_steady_state(args) -> _Run:
    args.scheme = _resolve_scheme(args.scheme)
    scheme = load_scheme_file(args.scheme)
    scheme = _apply_drive_overrides(
        scheme, args.drive_overrides, args.saturate_all
    )
    matrix = build_rate_matrix(scheme)
    pops = steady_state(matrix)
    rows = [[label, pops[label]] for label in matrix.labels]
    # max|M p| / max|M|: how far the printed populations are from stationary
    m = matrix.matrix
    residual = np.abs(m @ pops.populations).max() / np.abs(m).max()
    return _Run(_table(["label", "population"], rows), inputs=(args.scheme,),
                diag={"steady_residual": float(residual)})


def _cmd_ionize_rate(args) -> _Run:
    beam = GaussianBeam(
        power_w=args.power_w,
        waist_m=args.waist_m,
        wavelength_nm=args.wavelength_nm,
    )
    sigma = CrossSection.from_megabarn(args.sigma_mb)
    flux = photon_flux(beam)
    rate = ionization_rate(args.p7p, sigma, flux)
    coeff = rate_coefficient(args.p7p, sigma, args.wavelength_nm)
    rows = [
        ["peak_intensity", beam.peak_intensity_w_m2, "W m^-2"],
        ["photon_flux", flux, "m^-2 s^-1"],
        ["ionization_rate", rate, "s^-1"],
        ["rate_per_power_coefficient", coeff, "m^2 J^-1"],
    ]
    return _Run(_table(["quantity", "value", "unit"], rows))


def _cmd_xsec(args) -> _Run:
    args.series = args.series or bundled_series_path()
    photon_ev = photon_energy_ev(args.wavelength_nm)
    series = load_series_file(
        args.series,
        ionization_limit_cm1=args.limit_cm1,
        ell=args.ell,
        core_charge=args.core_charge,
    )
    top_n, top_energy = series.members[-1]
    nstar = effective_quantum_number(top_energy, args.limit_cm1)
    sigma = cross_section(nstar, args.ell, photon_ev, model=args.model)
    mu, residual = fit_quantum_defect(series)
    rows = [
        ["series_top_n", top_n, "principal quantum number"],
        ["nstar", nstar, "dimensionless"],
        ["quantum_defect_mu", mu, "dimensionless"],
        ["defect_fit_residual", residual, "cm^-1"],
        ["photon_energy", photon_ev, "eV"],
        ["sigma", sigma.megabarn, "Mb"],
        ["model", sigma.model, "-"],
    ]
    return _Run(_table(["quantity", "value", "unit"], rows), inputs=(args.series,))


def _cmd_crystal(args) -> _Run:
    rows: list[list] = []
    eta_for_ratio = args.eta
    if args.invert_from_mode:
        freq, mode = args.invert_from_mode
        eta_inferred = infer_eta(freq, args.nu1_hz, mode)
        rows.append(["eta_inferred", eta_inferred, "dimensionless"])
        eta_for_ratio = eta_inferred
    trap = TrapAxis(nu1_hz=args.nu1_hz, eta=args.eta)
    charges = ChargePair(q2=args.q2)
    state = crystal_state(trap, charges)
    rows += [
        ["x1", state.x1_m, "m"],
        ["x2", state.x2_m, "m"],
        ["displacement_ratio", displacement_ratio(args.eta, args.q2), "dimensionless"],
        ["nu_com", state.nu_com_hz, "Hz"],
        ["nu_bre", state.nu_bre_hz, "Hz"],
    ]
    if args.invert_from_ratio is not None:
        q2_inferred = infer_charge(args.invert_from_ratio, eta_for_ratio)
        rows.append(["q2_inferred", q2_inferred, "units of e"])
        rows.append(["eta_used_for_inversion", eta_for_ratio, "dimensionless"])
    return _Run(_table(["quantity", "value", "unit"], rows))


def _cmd_scan(args) -> _Run:
    args.scheme = _resolve_scheme(args.scheme)
    scheme = load_scheme_file(args.scheme)
    # the last point's offset may overflow; linspace then pins that point to stop
    with np.errstate(over="ignore"):
        detunings = np.linspace(args.grid_start_hz, args.grid_stop_hz, args.grid_points)
    drawn = args.noise_sigma is not None and args.noise_sigma > 0
    if drawn and args.seed is None:
        # draw the seed here, so that the manifest records it and
        # --seed SEED repeats the run
        args.seed = np.random.SeedSequence().entropy
    curve = simulate_scan(
        scheme,
        args.upper,
        args.lower,
        detunings,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    return _Run(
        curve_to_text(curve),
        inputs=(args.scheme,),
        rng_note=noise_rng_description() if drawn else None,
    )


def _cmd_fit_scan(args) -> _Run:
    curve = load_curve(args.data)
    fit = fit_lorentzian(curve)
    tau = center_se = fwhm_se = tau_se = None
    if fit.converged:
        tau = lifetime_from_linewidth(fit.fwhm_hz, args.saturation)
        # Standard errors from the covariance diagonal, NaN for a variance
        # that is NaN or negative. tau is proportional to 1 / fwhm, so its
        # relative error is fwhm's.
        center_se, fwhm_se = (
            math.sqrt(v) if v >= 0.0 else math.nan
            for v in (fit.covariance[0][0], fit.covariance[1][1])
        )
        tau_se = tau * (fwhm_se / fit.fwhm_hz)
    rows = [
        ["converged", fit.converged, "-"],
        ["center", fit.center_hz, "Hz"],
        ["fwhm", fit.fwhm_hz, "Hz"],
        ["amplitude", fit.amplitude, "signal units"],
        ["offset", fit.offset, "signal units"],
        ["saturation_assumed", args.saturation, "dimensionless"],
        ["lifetime", tau, "s"],
        ["message", fit.message or "-", "-"],
    ]
    return _Run(
        _table(["quantity", "value", "unit"], rows),
        inputs=(args.data,),
        diag={"fit_iterations": fit.iterations, "fit_cost": fit.cost,
              "fit_center_se_hz": center_se, "fit_fwhm_se_hz": fwhm_se,
              "lifetime_se_s": tau_se},
    )


def _cmd_simulate(args) -> _Run:
    config = SequenceConfig(
        rate_per_s=args.rate_per_s,
        max_time_s=args.max_time_s,
        rng_seed=args.seed,
        chop_rate_hz=args.chop_hz,
        ionization_duty=args.duty,
        failure_prob=args.failure_prob,
    )
    runs = simulate_ionization_times(config, args.trials)
    summary = summarize_times(runs)
    summary_rows = [
        ["n_runs", summary.n_runs],
        ["n_events", summary.n_events],
        ["success_fraction", summary.success_fraction],
        ["mean_s", summary.mean_s],
        ["median_s", summary.median_s],
        ["ci95_low_s", summary.ci95_s[0] if summary.ci95_s else None],
        ["ci95_high_s", summary.ci95_s[1] if summary.ci95_s else None],
    ]
    for name, value in summary_rows[3:]:  # mean_s, median_s and the ci95 bounds
        if value is not None:
            representable(name, value, "finite", rate_per_s=config.rate_per_s,
                          ionization_duty=config.ionization_duty,
                          chop_rate_hz=config.chop_rate_hz, max_time_s=config.max_time_s)
    return _Run(
        runs_text_blocks(runs),
        rng_note=rng_description(),
        diag={"blocks": -(-args.trials // BLOCK_TRIALS),
              "failed_trials": int(runs.failed.sum())},
        summary=_table(["statistic", "value"], summary_rows),
    )


def _cmd_verify_roundtrip(args) -> _Run:
    lo, hi = ETA_BRACKET
    if not lo <= args.eta <= hi:
        raise SchemeError(
            f"eta must lie in the inference range [{lo:g}, {hi:g}], got {args.eta}"
        )
    check("tolerance", args.tolerance, "[0, inf)")
    noise = VerificationNoise(
        ratio_rel=args.noise_ratio_rel, freq_rel=args.noise_freq_rel
    )
    trap = TrapAxis(nu1_hz=args.nu1_hz, eta=args.eta)
    charges = ChargePair(q2=args.q2)
    q2_list: list[float] = []
    eta_list: list[float] = []
    hits = 0
    for i in range(args.seeds):
        record = synthesize_verification(trap, charges, noise, seed=args.seed_base + i)
        try:
            inference = infer_from_verification(record)
        except YbionError:
            # a seed whose noisy record cannot be inverted is a miss
            continue
        q2_list.append(inference.q2)
        eta_list.append(inference.eta_mean)
        if abs(inference.q2 - args.q2) <= args.tolerance:
            hits += 1
    q2_mean = q2_std = q2_bias = eta_mean = None
    if q2_list:
        # Statistics about the first value: identical inferences (zero
        # noise) then give exactly zero spread and their common value as
        # the mean.
        q2_values = np.array(q2_list)
        q2_offsets = q2_values - q2_values[0]
        q2_mean = float(q2_values[0] + q2_offsets.mean())
        q2_bias = q2_mean - args.q2
        eta_mean = float(np.array(eta_list).mean())
        if len(q2_list) > 1:
            q2_std = scaled_std(q2_offsets)
    rows = [
        ["n_seeds", args.seeds, "count"],
        ["tolerance", args.tolerance, "units of e"],
        ["success_fraction", hits / args.seeds, "dimensionless"],
        ["q2_true", args.q2, "units of e"],
        ["q2_mean", q2_mean, "units of e"],
        ["q2_std", q2_std, "units of e"],
        ["q2_bias", q2_bias, "units of e"],
        ["eta_mean", eta_mean, "dimensionless"],
    ]
    return _Run(
        _table(["quantity", "value", "unit"], rows),
        rng_note=verification_rng_description(),
        diag={"inference_failures": args.seeds - len(q2_list)},
    )


# -- parser ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="ybion",
        description=__doc__.splitlines()[0],
        epilog=(
            "Scheme names resolve against the filesystem, then "
            f"${SCHEME_ENV_VAR}, then the bundled data files."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"ybion {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    def add_out(p, handler):
        """Last flag of every subcommand, which then runs handler."""
        p.add_argument(
            "--out",
            help="output file path (tab-separated text); manifest goes to "
            "OUT.manifest. Default: stdout, manifest on stderr.",
        )
        p.set_defaults(handler=handler)

    p = sub.add_parser(
        "steady-state",
        help="level populations of a scheme at fixed drives",
        description="Solve the closed rate model for its steady state.",
    )
    p.add_argument(
        "--scheme",
        default="yb174_plus",
        help="scheme file path or bundled name (energies in cm^-1, "
        "lifetimes in s inside the file). Default: yb174_plus.",
    )
    p.add_argument(
        "--drive-overrides",
        nargs=4,
        action="append",
        metavar=("UPPER", "LOWER", "FIELD", "VALUE"),
        help="override one field of one drive; FIELD is saturation "
        "(dimensionless; clears power/waist), power_w (W), waist_m (m) or "
        "detuning_hz (Hz). Repeatable.",
    )
    p.add_argument(
        "--saturate-all",
        type=float,
        help="force every drive to this saturation parameter "
        "(dimensionless) before applying per-drive overrides.",
    )
    add_out(p, _cmd_steady_state)

    p = sub.add_parser(
        "ionize-rate",
        help="flux, ionization rate, and rate-per-power coefficient",
        description="Evaluate the ionization rate of a driven level for a "
        "peak-intensity Gaussian beam.",
    )
    p.add_argument(
        "--p7p",
        type=float,
        required=True,
        help="excited-level population (dimensionless probability, 0..1).",
    )
    p.add_argument(
        "--sigma-mb",
        type=float,
        required=True,
        help="photoionization cross section in Mb (1 Mb = 1e-22 m^2).",
    )
    p.add_argument(
        "--power-w", type=float, required=True, help="beam power in W."
    )
    p.add_argument(
        "--waist-m",
        type=float,
        required=True,
        help="Gaussian beam waist (1/e^2 intensity radius) in m.",
    )
    p.add_argument(
        "--wavelength-nm",
        type=float,
        required=True,
        help="ionizing beam vacuum wavelength in nm.",
    )
    add_out(p, _cmd_ionize_rate)

    p = sub.add_parser(
        "xsec",
        help="cross section of the top series member at a given wavelength",
        description="Quantum-defect cross-section estimate: reads a Rydberg "
        "series file, takes its highest member as the ionizing level, and "
        "evaluates the requested model.",
    )
    p.add_argument(
        "--model",
        choices=["hydrogenic", *COEFFICIENT_TABLES],
        required=True,
        help="cross-section model (dimensionless tag; result is in Mb).",
    )
    p.add_argument(
        "--series",
        help="series file path: rows of 'n energy_cm1' (energies in cm^-1)."
        " Default: the bundled Yb II np series.",
    )
    p.add_argument(
        "--limit",
        dest="limit_cm1",
        type=float,
        required=True,
        help="ionization limit of the series in cm^-1.",
    )
    p.add_argument(
        "--ell",
        type=int,
        default=1,
        help="orbital angular momentum quantum number of the series "
        "(dimensionless). Default 1 (p series).",
    )
    p.add_argument(
        "--core-charge",
        type=int,
        default=2,
        help="net core charge seen by the escaping electron (units of e); "
        "2 for ionizing a singly charged ion. Default 2.",
    )
    p.add_argument(
        "--wavelength-nm",
        type=float,
        default=245.426,
        help="ionizing photon vacuum wavelength in nm. Default 245.426.",
    )
    add_out(p, _cmd_xsec)

    p = sub.add_parser(
        "crystal",
        help="two-ion crystal positions, modes, and inversions",
        description="Forward crystal observables for (nu1, eta, q2), plus "
        "optional inversion of a measured mode frequency or displacement "
        "ratio.",
    )
    p.add_argument(
        "--nu1",
        dest="nu1_hz",
        type=float,
        required=True,
        help="single-ion secular frequency of the bright ion in Hz.",
    )
    p.add_argument(
        "--eta",
        type=float,
        default=1.0,
        help="secular-frequency ratio nu2/nu1 (dimensionless). Default 1.",
    )
    p.add_argument(
        "--q2",
        type=float,
        default=1.0,
        help="companion ion charge in units of e. Default 1.",
    )
    p.add_argument(
        "--invert-from-mode",
        nargs=2,
        action=_ModeAction,
        metavar=("FREQ_HZ", "MODE"),
        help="infer eta from a measured mode frequency in Hz; MODE is "
        "'com' or 'bre'.",
    )
    p.add_argument(
        "--invert-from-ratio",
        type=float,
        help="infer q2 (units of e) from a measured displacement ratio "
        "(dimensionless), using the inferred eta when --invert-from-mode "
        "is also given, else --eta.",
    )
    add_out(p, _cmd_crystal)

    p = sub.add_parser(
        "scan",
        help="simulate a frequency scan of one drive",
        description="Steady-state fluorescence versus detuning of the "
        "scanned drive; optionally adds Gaussian noise.",
    )
    p.add_argument(
        "--scheme",
        default="yb174_plus",
        help="scheme file path or bundled name. Default: yb174_plus.",
    )
    p.add_argument(
        "--upper",
        default="7p12",
        help="upper level label of the scanned drive. Default 7p12.",
    )
    p.add_argument(
        "--lower",
        default="5d32",
        help="lower level label of the scanned drive. Default 5d32.",
    )
    p.add_argument(
        "--grid",
        nargs=3,
        action=_GridAction,
        required=True,
        metavar=("START_HZ", "STOP_HZ", "POINTS"),
        help="detuning grid in Hz: start < stop, and the point count "
        f"(2 to {MAX_SCAN_POINTS}).",
    )
    p.add_argument(
        "--noise-sigma",
        type=float,
        help="per-point Gaussian noise sigma in signal units "
        "(photons/s per ion).",
    )
    p.add_argument(
        "--seed",
        type=_nonnegative_int,
        help="RNG seed (integer >= 0) for the noise draws. Default: one "
        "drawn from OS entropy and written to the manifest.",
    )
    add_out(p, _cmd_scan)

    p = sub.add_parser(
        "fit-scan",
        help="Lorentzian fit and lifetime from a stored curve",
        description="Fit offset + amplitude/(1 + (2(nu-center)/fwhm)^2) to "
        "a stored scan and convert the width to an upper-level lifetime.",
    )
    p.add_argument(
        "--data",
        required=True,
        help="scan curve file (tab-separated detuning_hz/signal columns).",
    )
    p.add_argument(
        "--saturation",
        type=float,
        default=0.0,
        help="saturation parameter S (dimensionless) assumed for the "
        "power-broadening correction sqrt(1+S). Default 0.",
    )
    add_out(p, _cmd_fit_scan)

    p = sub.add_parser(
        "simulate",
        help="chopped-sequence Monte Carlo event times",
        description="Per-trial ionization wall-clock times for a Poisson "
        "process gated by the chop windows.",
    )
    p.add_argument(
        "--rate",
        dest="rate_per_s",
        type=float,
        required=True,
        help="ionization rate during ON windows in s^-1.",
    )
    p.add_argument(
        "--duty",
        type=float,
        default=0.5,
        help="ON fraction of each chop cycle (dimensionless, 0 < duty <= 1)."
        " Default 0.5.",
    )
    p.add_argument(
        "--chop-hz",
        type=float,
        default=50.0,
        help="chop rate in Hz. Default 50.",
    )
    p.add_argument(
        "--trials",
        type=_trial_count,
        required=True,
        help=f"number of independent trials (count, 1 to {MAX_TRIALS}).",
    )
    p.add_argument(
        "--seed",
        type=_nonnegative_int,
        required=True,
        help="base RNG seed (integer >= 0).",
    )
    p.add_argument(
        "--max-time-s",
        type=float,
        default=10.0,
        help="per-trial time budget in s. Default 10.",
    )
    p.add_argument(
        "--failure-prob",
        type=float,
        default=0.0,
        help="per-window abort probability (dimensionless). Default 0.",
    )
    add_out(p, _cmd_simulate)

    p = sub.add_parser(
        "verify-roundtrip",
        help="charge-inference statistics under synthetic noise",
        description="Repeatedly synthesize noisy verification measurements "
        "at a known (eta, q2) and report how often the inferred charge "
        "lands within the tolerance.",
    )
    p.add_argument(
        "--eta",
        type=float,
        required=True,
        help="true secular-frequency ratio (dimensionless).",
    )
    p.add_argument(
        "--q2",
        type=float,
        required=True,
        help="true companion charge in units of e.",
    )
    p.add_argument(
        "--nu1",
        dest="nu1_hz",
        type=float,
        default=474e3,
        help="bright-ion secular frequency in Hz. Default 474000.",
    )
    p.add_argument(
        "--noise",
        nargs=2,
        type=float,
        action=_NoiseAction,
        metavar=("RATIO_REL", "FREQ_REL"),
        help="relative Gaussian sigmas (dimensionless): displacement "
        f"ratio, frequencies. Default {REPORTED_NOISE.ratio_rel} "
        f"{REPORTED_NOISE.freq_rel}.",
    )
    p.set_defaults(noise_ratio_rel=REPORTED_NOISE.ratio_rel,
                   noise_freq_rel=REPORTED_NOISE.freq_rel)
    p.add_argument(
        "--seeds",
        type=_seed_count,
        default=1000,
        help=f"number of independent synthetic records (count, 1 to {MAX_SEEDS})."
        " Default 1000.",
    )
    p.add_argument(
        "--seed-base",
        type=_nonnegative_int,
        default=0,
        help="first RNG seed (integer >= 0); record i uses seed_base + i. "
        "Default 0.",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.14,
        help="success band |q2_inferred - q2_true| in units of e. "
        "Default 0.14.",
    )
    add_out(p, _cmd_verify_roundtrip)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        run = args.handler(args)
        _emit(run.primary, _manifest(args, run), args.out)
    except (YbionError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    (sys.stdout if args.out else sys.stderr).write(run.summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
