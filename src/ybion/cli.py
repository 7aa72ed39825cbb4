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
lines: tool version, resolved parameters, input digests, seeds,
timestamp) to <out>.manifest, or to stderr when printing to stdout.
Primary outputs are byte-identical across reruns with equal inputs and
seeds; the manifest's timestamp line is the only thing that changes.

Exit codes: 0 success, 1 usage error, 2 domain error (the originating
module's message, verbatim, on stderr).

Scheme arguments are resolved in order: literal filesystem path, then
$YBION_SCHEME_PATH directory, then the package's bundled schemes by stem
name (e.g. "yb174_plus").
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .constants import MEGABARN_M2, photon_energy_ev
from .crystal import (
    ChargePair,
    TrapAxis,
    crystal_state,
    displacement_ratio,
    infer_charge,
    infer_eta,
)
from .errors import SchemeError, YbionError
from .mc import (
    SequenceConfig,
    VerificationNoise,
    infer_from_verification,
    rng_description,
    runs_to_text,
    simulate_ionization_times,
    summarize_times,
    synthesize_verification,
)
from .photoion import (
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
from .rates import build_rate_matrix, excitation_probability, steady_state
from .scheme import bundled_scheme_path, load_scheme_file
from .spectro import (
    curve_to_text,
    fit_lorentzian,
    lifetime_from_linewidth,
    load_curve,
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
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


class _GridAction(argparse.Action):
    """--grid START_HZ STOP_HZ POINTS as two finite floats and an integer."""

    def __call__(self, parser, namespace, values, option_string=None):
        start, stop, points = values
        try:
            grid = (_finite_float(start), _finite_float(stop), int(points))
        except ValueError:
            raise argparse.ArgumentError(
                self,
                "expected finite START_HZ and STOP_HZ and an integer POINTS, "
                f"got {start} {stop} {points}",
            ) from None
        setattr(namespace, self.dest, grid)


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        # numpy scalars subclass float but repr as np.float64(...); collapse
        # them so primary outputs stay parseable plain text
        return repr(float(value))
    return str(value)


def _table(header: list[str], rows: list[list]) -> str:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _manifest(
    subcommand: str,
    params: dict,
    inputs: list[str | Path] | None = None,
    rng_note: str | None = None,
) -> str:
    lines = [
        "tool: ybion",
        f"version: {__version__}",
        f"subcommand: {subcommand}",
        f"timestamp: {datetime.now(timezone.utc).isoformat()}",
    ]
    for key in sorted(params):
        lines.append(f"param.{key}: {_fmt(params[key])}")
    for path in inputs or []:
        lines.append(f"input.{Path(path).name}.sha256: {_sha256(path)}")
    if rng_note:
        lines.append(f"rng: {rng_note}")
    return "\n".join(lines) + "\n"


def _emit(primary: str, manifest: str, out: str | None) -> None:
    if out:
        Path(out).write_text(primary, encoding="utf-8")
        Path(out + ".manifest").write_text(manifest, encoding="utf-8")
    else:
        sys.stdout.write(primary)
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
        raise SchemeError(
            "cannot resolve scheme "
            + repr(arg)
            + "; tried: "
            + ", ".join(tried)
        ) from None


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
        for field, value in fields.items():
            if field == "saturation":
                changes.update(
                    saturation=float(value), power_w=None, waist_m=None
                )
            elif field in ("power_w", "waist_m"):
                changes[field] = float(value)
            elif field == "detuning_hz":
                changes["detuning_hz"] = float(value)
            elif field == "chopped":
                changes["chopped"] = value.strip().lower() in ("1", "true", "yes")
            else:
                raise SchemeError(
                    f"unknown drive field {field!r}; expected saturation, "
                    "power_w, waist_m, detuning_hz, or chopped"
                )
        if ("power_w" in fields) != ("waist_m" in fields):
            raise SchemeError(
                "power_w and waist_m must be overridden together"
            )
        if "power_w" in fields:
            changes["saturation"] = None
        scheme = scheme.with_drive(upper, lower, **changes)
    return scheme


# -- subcommand handlers ---------------------------------------------------


def _cmd_steady_state(args) -> int:
    path = _resolve_scheme(args.scheme)
    scheme = load_scheme_file(path)
    scheme = _apply_drive_overrides(
        scheme, args.drive_overrides, args.saturate_all
    )
    matrix = build_rate_matrix(scheme)
    pops = steady_state(matrix)
    rows = [[label, pops[label]] for label in matrix.labels]
    params = {
        "scheme": str(path),
        "saturate_all": args.saturate_all,
        "drive_overrides": (
            ";".join(",".join(o) for o in args.drive_overrides)
            if args.drive_overrides
            else None
        ),
    }
    _emit(
        _table(["label", "population"], rows),
        _manifest("steady-state", params, inputs=[path]),
        args.out,
    )
    return 0


def _cmd_ionize_rate(args) -> int:
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
    params = {
        "p7p": args.p7p,
        "sigma_mb": args.sigma_mb,
        "power_w": args.power_w,
        "waist_m": args.waist_m,
        "wavelength_nm": args.wavelength_nm,
    }
    _emit(
        _table(["quantity", "value", "unit"], rows),
        _manifest("ionize-rate", params),
        args.out,
    )
    return 0


def _cmd_xsec(args) -> int:
    series_path = args.series or bundled_series_path()
    series = load_series_file(
        series_path,
        ionization_limit_cm1=args.limit,
        ell=args.ell,
        core_charge=args.core_charge,
    )
    top_n, top_energy = series.members[-1]
    nstar = effective_quantum_number(top_energy, args.limit)
    photon_ev = photon_energy_ev(args.wavelength_nm)
    sigma = cross_section(nstar, args.ell, photon_ev, model=args.model)
    mu, residual = fit_quantum_defect(series)
    rows = [
        ["series_top_n", top_n, "principal quantum number"],
        ["nstar", nstar, "dimensionless"],
        ["quantum_defect_mu", mu, "dimensionless"],
        ["defect_fit_residual", residual, "cm^-1"],
        ["photon_energy", photon_ev, "eV"],
        ["sigma", sigma.value_m2 / MEGABARN_M2, "Mb"],
        ["model", sigma.model, "-"],
    ]
    params = {
        "model": args.model,
        "series": str(series_path),
        "limit_cm1": args.limit,
        "ell": args.ell,
        "core_charge": args.core_charge,
        "wavelength_nm": args.wavelength_nm,
    }
    _emit(
        _table(["quantity", "value", "unit"], rows),
        _manifest("xsec", params, inputs=[series_path]),
        args.out,
    )
    return 0


def _cmd_crystal(args) -> int:
    rows: list[list] = []
    eta_for_ratio = args.eta
    if args.invert_from_mode:
        freq, mode = args.invert_from_mode
        eta_inferred = infer_eta(float(freq), args.nu1, mode)
        rows.append(["eta_inferred", eta_inferred, "dimensionless"])
        eta_for_ratio = eta_inferred
    trap = TrapAxis(nu1_hz=args.nu1, eta=args.eta)
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
    params = {
        "nu1_hz": args.nu1,
        "eta": args.eta,
        "q2": args.q2,
        "invert_from_mode": (
            " ".join(args.invert_from_mode) if args.invert_from_mode else None
        ),
        "invert_from_ratio": args.invert_from_ratio,
    }
    _emit(
        _table(["quantity", "value", "unit"], rows),
        _manifest("crystal", params),
        args.out,
    )
    return 0


def _cmd_scan(args) -> int:
    path = _resolve_scheme(args.scheme)
    scheme = load_scheme_file(path)
    start, stop, count = args.grid
    if count < 2:
        raise SchemeError("grid needs at least 2 points")
    detunings = np.linspace(start, stop, count)
    curve = simulate_scan(
        scheme,
        args.upper,
        args.lower,
        detunings,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    params = {
        "scheme": str(path),
        "upper": args.upper,
        "lower": args.lower,
        "grid_start_hz": start,
        "grid_stop_hz": stop,
        "grid_points": count,
        "noise_sigma": args.noise_sigma,
        "seed": args.seed,
    }
    _emit(
        curve_to_text(curve),
        _manifest("scan", params, inputs=[path]),
        args.out,
    )
    return 0


def _cmd_fit_scan(args) -> int:
    curve = load_curve(args.data)
    fit = fit_lorentzian(curve)
    tau = (
        lifetime_from_linewidth(fit.fwhm_hz, args.saturation)
        if fit.converged
        else None
    )
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
    params = {"data": args.data, "saturation": args.saturation}
    _emit(
        _table(["quantity", "value", "unit"], rows),
        _manifest("fit-scan", params, inputs=[args.data]),
        args.out,
    )
    return 0


def _cmd_simulate(args) -> int:
    config = SequenceConfig(
        rate_per_s=args.rate,
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
    summary_text = _table(["statistic", "value"], summary_rows)
    params = {
        "rate_per_s": args.rate,
        "duty": args.duty,
        "chop_hz": args.chop_hz,
        "trials": args.trials,
        "seed": args.seed,
        "max_time_s": args.max_time_s,
        "failure_prob": args.failure_prob,
    }
    manifest = _manifest("simulate", params, rng_note=rng_description())
    _emit(runs_to_text(runs), manifest, args.out)
    if args.out:
        sys.stdout.write(summary_text)
    else:
        sys.stderr.write(summary_text)
    return 0


def _cmd_verify_roundtrip(args) -> int:
    ratio_rel, freq_rel = args.noise
    noise = VerificationNoise(ratio_rel=float(ratio_rel), freq_rel=float(freq_rel))
    trap = TrapAxis(nu1_hz=args.nu1, eta=args.eta)
    charges = ChargePair(q2=args.q2)
    q2_values = np.empty(args.seeds)
    eta_values = np.empty(args.seeds)
    hits = 0
    for i in range(args.seeds):
        record = synthesize_verification(trap, charges, noise, seed=args.seed_base + i)
        inference = infer_from_verification(record)
        q2_values[i] = inference.q2
        eta_values[i] = inference.eta_mean
        if abs(inference.q2 - args.q2) <= args.tolerance:
            hits += 1
    rows = [
        ["n_seeds", args.seeds, "count"],
        ["tolerance", args.tolerance, "units of e"],
        ["success_fraction", hits / args.seeds, "dimensionless"],
        ["q2_true", args.q2, "units of e"],
        ["q2_mean", float(q2_values.mean()), "units of e"],
        ["q2_std", float(q2_values.std(ddof=1)) if args.seeds > 1 else None, "units of e"],
        ["q2_bias", float(q2_values.mean()) - args.q2, "units of e"],
        ["eta_mean", float(eta_values.mean()), "dimensionless"],
    ]
    params = {
        "eta": args.eta,
        "q2": args.q2,
        "nu1_hz": args.nu1,
        "noise_ratio_rel": float(ratio_rel),
        "noise_freq_rel": float(freq_rel),
        "seeds": args.seeds,
        "seed_base": args.seed_base,
        "tolerance": args.tolerance,
    }
    manifest = _manifest("verify-roundtrip", params, rng_note=rng_description())
    _emit(_table(["quantity", "value", "unit"], rows), manifest, args.out)
    return 0


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

    def add_out(p):
        p.add_argument(
            "--out",
            help="output file path (tab-separated text); manifest goes to "
            "OUT.manifest. Default: stdout, manifest on stderr.",
        )

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
        "(dimensionless; clears power/waist), power_w (W), waist_m (m), "
        "detuning_hz (Hz), or chopped (1/0). Repeatable.",
    )
    p.add_argument(
        "--saturate-all",
        type=float,
        help="force every drive to this saturation parameter "
        "(dimensionless) before applying per-drive overrides.",
    )
    add_out(p)
    p.set_defaults(handler=_cmd_steady_state)

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
    add_out(p)
    p.set_defaults(handler=_cmd_ionize_rate)

    p = sub.add_parser(
        "xsec",
        help="cross section of the top series member at a given wavelength",
        description="Quantum-defect cross-section estimate: reads a Rydberg "
        "series file, takes its highest member as the ionizing level, and "
        "evaluates the requested model.",
    )
    p.add_argument(
        "--model",
        choices=["hydrogenic", "burgess", "peach"],
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
    add_out(p)
    p.set_defaults(handler=_cmd_xsec)

    p = sub.add_parser(
        "crystal",
        help="two-ion crystal positions, modes, and inversions",
        description="Forward crystal observables for (nu1, eta, q2), plus "
        "optional inversion of a measured mode frequency or displacement "
        "ratio.",
    )
    p.add_argument(
        "--nu1",
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
    add_out(p)
    p.set_defaults(handler=_cmd_crystal)

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
        help="detuning grid in Hz: start, stop, and point count.",
    )
    p.add_argument(
        "--noise-sigma",
        type=float,
        help="per-point Gaussian noise sigma in signal units "
        "(photons/s per ion).",
    )
    p.add_argument(
        "--seed", type=int, help="RNG seed (integer) for the noise draws."
    )
    add_out(p)
    p.set_defaults(handler=_cmd_scan)

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
    add_out(p)
    p.set_defaults(handler=_cmd_fit_scan)

    p = sub.add_parser(
        "simulate",
        help="chopped-sequence Monte Carlo event times",
        description="Per-trial ionization wall-clock times for a Poisson "
        "process gated by the chop windows.",
    )
    p.add_argument(
        "--rate",
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
        type=int,
        required=True,
        help="number of independent trials (count).",
    )
    p.add_argument(
        "--seed", type=int, required=True, help="base RNG seed (integer)."
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
    add_out(p)
    p.set_defaults(handler=_cmd_simulate)

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
        type=float,
        default=474e3,
        help="bright-ion secular frequency in Hz. Default 474000.",
    )
    p.add_argument(
        "--noise",
        nargs=2,
        type=float,
        default=[0.02, 0.005],
        metavar=("RATIO_REL", "FREQ_REL"),
        help="relative Gaussian sigmas (dimensionless): displacement "
        "ratio, frequencies. Default 0.02 0.005.",
    )
    p.add_argument(
        "--seeds",
        type=int,
        default=1000,
        help="number of independent synthetic records (count). Default 1000.",
    )
    p.add_argument(
        "--seed-base",
        type=int,
        default=0,
        help="first RNG seed (integer); record i uses seed_base + i. "
        "Default 0.",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.14,
        help="success band |q2_inferred - q2_true| in units of e. "
        "Default 0.14.",
    )
    add_out(p)
    p.set_defaults(handler=_cmd_verify_roundtrip)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except YbionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
