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

from . import __version__
from ._numpy import np
from ._rng import standard_normals
from .constants import photon_energy_ev
from .crystal import (
    ETA_BRACKET,
    ChargePair,
    TrapAxis,
    displacement_ratio,
    equilibrium_positions,
    infer_charge,
    infer_eta,
    normal_mode_frequencies,
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
    _COMPUTED_MODELS,
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
from .scheme import bundled_scheme_path, load_scheme_file, validate_scheme
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

# A seed costs about 15 us and 110 bytes, so about 15 s and 110 MB at this cap.
MAX_SEEDS = 10**6

_nonnegative_int = _int_in_range(0, math.inf)
_trial_count = _int_in_range(1, MAX_TRIALS)
_seed_count = _int_in_range(1, MAX_SEEDS)


class _ValuesAction(argparse.Action):
    """A multi-value flag checked and stored by one reader: read(values)
    returns the value to store, or None or a ValueError to refuse, and a
    refusal exits 1 with the flag's one error, "expected EXPECTED, got
    VALUES". Without fields the value goes to the flag's dest; with them it
    is spread over those namespace entries, one manifest key per value, the
    dest stays unset and their defaults go to the subparser's set_defaults."""

    def __init__(self, option_strings, dest, read=tuple, expected=None,
                 fields=None, **kwargs):
        if fields:
            kwargs["default"] = argparse.SUPPRESS
        super().__init__(option_strings, dest, **kwargs)
        self.read, self.expected, self.fields = read, expected, fields

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            value = self.read(values)
        except ValueError:
            value = None
        if value is None:
            raise argparse.ArgumentError(
                self, f"expected {self.expected}, got {' '.join(values)}")
        pairs = zip(self.fields, value) if self.fields else [(self.dest, value)]
        for field, item in pairs:
            setattr(namespace, field, item)


def _read_grid(values):
    """--grid START_HZ STOP_HZ POINTS: finite START_HZ < STOP_HZ with a
    finite span, and an integer POINTS from 2 to MAX_SCAN_POINTS."""
    start, stop = map(_finite_float, values[:2])
    points = int(values[2])
    if start < stop and stop - start < math.inf and 2 <= points <= MAX_SCAN_POINTS:
        return start, stop, points
    return None


def _read_mode(values):
    """--invert-from-mode FREQ_HZ MODE as a finite float and com or bre."""
    freq_hz = _finite_float(values[0])
    return (freq_hz, values[1]) if values[1] in ("com", "bre") else None


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


def _quantities(rows: list[list]) -> str:
    return _table(["quantity", "value", "unit"], rows)


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


def _load_scheme(args):
    """Load --scheme, resolved in the order the module docstring gives, and
    rebind args.scheme to the path found, so that the manifest records it."""
    arg = args.scheme
    candidates = [Path(arg)]
    env_dir = os.environ.get(SCHEME_ENV_VAR)
    if env_dir:
        candidates.append(Path(env_dir) / arg)
    path = next((c for c in candidates if c.is_file()), None)
    if path is None:
        stem = arg[:-7] if arg.endswith(".scheme") else arg
        try:
            path = bundled_scheme_path(stem)
        except SchemeError:
            tried = [*map(str, candidates), f"bundled scheme {stem!r}"]
            raise SchemeError(f"cannot resolve scheme {arg!r}; tried: "
                              + ", ".join(tried)) from None
    args.scheme = path
    return load_scheme_file(path)


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
        scheme = scheme.with_drive(upper, lower, **changes)
    return scheme


def _scheme_findings(scheme) -> dict:
    """validate_scheme's findings as diag entries scheme.finding_N, numbered
    from 1 and zero-padded, so that their keys sort in finding order."""
    findings = validate_scheme(scheme)
    width = len(str(len(findings)))
    return {f"scheme.finding_{i:0{width}d}": text for i, text in enumerate(findings, 1)}


# -- subcommand handlers ---------------------------------------------------
# Each returns a _Run; main writes the table and the manifest. A handler
# that resolves a flag's value rebinds it on args, so the manifest records
# the resolved value.


def _cmd_steady_state(args) -> _Run:
    scheme = _apply_drive_overrides(
        _load_scheme(args), args.drive_overrides, args.saturate_all
    )
    matrix = build_rate_matrix(scheme)
    pops = steady_state(matrix)
    rows = [[label, pops[label]] for label in matrix.labels]
    # max|M p| / max|M|: how far the printed populations are from stationary
    m = matrix.matrix
    residual = np.abs(m @ pops.populations).max() / np.abs(m).max()
    return _Run(_table(["label", "population"], rows), inputs=(args.scheme,),
                diag={"steady_residual": float(residual), **_scheme_findings(scheme)})


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
    # The library gives 0.0 where the true value of either product underflows,
    # so that it stays linear down to p_excited = 5e-324; with every factor
    # positive, the command refuses that 0.
    if args.p7p and sigma.value_m2:
        inputs = dict(p_excited=args.p7p, sigma_m2=sigma.value_m2)
        if flux:
            representable("ionization rate p_excited * sigma * flux", rate,
                          "(0, inf)", **inputs, flux_m2s=flux)
        representable("rate-per-power coefficient", coeff, "(0, inf)", **inputs,
                      wavelength_nm=args.wavelength_nm)
    rows = [
        ["peak_intensity", beam.peak_intensity_w_m2, "W m^-2"],
        ["photon_flux", flux, "m^-2 s^-1"],
        ["ionization_rate", rate, "s^-1"],
        ["rate_per_power_coefficient", coeff, "m^2 J^-1"],
    ]
    return _Run(_quantities(rows))


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
    return _Run(_quantities(rows), inputs=(args.series,))


def _cmd_crystal(args) -> _Run:
    rows: list[list] = []
    eta_for_ratio = args.eta
    if args.invert_from_mode:
        freq, mode = args.invert_from_mode
        eta_inferred = infer_eta(freq, args.nu1_hz, mode)
        rows.append(["eta_inferred", eta_inferred, "dimensionless"])
        eta_for_ratio = eta_inferred
    trap = TrapAxis(nu1_hz=args.nu1_hz, eta=args.eta)
    x1, x2 = equilibrium_positions(trap, ChargePair(q2=args.q2))
    nu_com, nu_bre = normal_mode_frequencies(trap)
    representable("mode frequency nu_com", nu_com, "(0, inf)",
                  nu1_hz=args.nu1_hz, eta=args.eta)
    rows += [
        ["x1", x1, "m"],
        ["x2", x2, "m"],
        ["displacement_ratio", displacement_ratio(args.eta, args.q2), "dimensionless"],
        ["nu_com", nu_com, "Hz"],
        ["nu_bre", nu_bre, "Hz"],
    ]
    if args.invert_from_ratio is not None:
        q2_inferred = infer_charge(args.invert_from_ratio, eta_for_ratio)
        rows.append(["q2_inferred", q2_inferred, "units of e"])
        rows.append(["eta_used_for_inversion", eta_for_ratio, "dimensionless"])
    return _Run(_quantities(rows))


def _cmd_scan(args) -> _Run:
    scheme = _load_scheme(args)
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
        diag=_scheme_findings(scheme),
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
        _quantities(rows),
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
    # noise-free observables that no float holds refuse the run, not a seed,
    # and so does a numpy whose PCG64 seeding the normals' first draw refuses
    displacement_ratio(args.eta, args.q2)
    normal_mode_frequencies(trap)
    standard_normals(args.seed_base, 4)
    q2_list: list[float] = []
    eta_list: list[float] = []
    hits = 0
    for i in range(args.seeds):
        try:
            record = synthesize_verification(trap, charges, noise, seed=args.seed_base + i)
            inference = infer_from_verification(record)
        except YbionError:
            # a seed whose noisy record cannot be formed or inverted is a miss
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
        _quantities(rows),
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

    def add_flags(p, flags, defaults, kind=float):
        """One-value flags given as (option, dest, help) triples, converted
        by kind: float, an int converter, or None for text. The one way a
        flag is declared whose help is a sentence that ends by stating the
        default, if there is one. A flag is required unless defaults names
        its dest; a default of None leaves it optional and unset, and its
        help then states no default. The required ones come first."""
        for option, dest, text in sorted(flags, key=lambda flag: flag[1] in defaults):
            default = defaults.get(dest)
            stated = "." if default is None else ". Default %(default)s."
            p.add_argument(option, dest=dest, type=kind, required=dest not in defaults,
                           default=default, help=text + stated)

    def add_scheme(p):
        p.add_argument(
            "--scheme",
            default="yb174_plus",
            help="scheme file path or bundled name (energies in cm^-1, "
            "lifetimes in s inside the file). Default: %(default)s.",
        )

    # the two-ion verification crystal: bright ion at nu1 beside a
    # companion of secular-frequency ratio eta and charge q2
    trap = (
        ("--nu1", "nu1_hz", "single-ion secular frequency of the bright ion in Hz"),
        ("--eta", "eta", "secular-frequency ratio nu2/nu1 (dimensionless)"),
        ("--q2", "q2", "companion ion charge in units of e"),
    )
    wavelength = (
        ("--wavelength-nm", "wavelength_nm", "ionizing photon vacuum wavelength in nm"),
    )

    p = sub.add_parser(
        "steady-state",
        help="level populations of a scheme at fixed drives",
        description="Solve the closed rate model for its steady state.",
    )
    add_scheme(p)
    p.add_argument(
        "--drive-overrides",
        nargs=4,
        action="append",
        metavar=("UPPER", "LOWER", "FIELD", "VALUE"),
        help="override one field of one drive; FIELD is saturation "
        "(dimensionless; clears power/waist), power_w (W), waist_m (m) or "
        "detuning_hz (Hz). Repeatable.",
    )
    add_flags(p, [("--saturate-all", "saturate_all", "force every drive to this "
                   "saturation parameter (dimensionless) before applying "
                   "per-drive overrides")], {"saturate_all": None})
    add_out(p, _cmd_steady_state)

    p = sub.add_parser(
        "ionize-rate",
        help="flux, ionization rate, and rate-per-power coefficient",
        description="Evaluate the ionization rate of a driven level for a "
        "peak-intensity Gaussian beam.",
    )
    add_flags(p, (
        ("--p7p", "p7p", "excited-level population (dimensionless probability, 0..1)"),
        ("--sigma-mb", "sigma_mb",
         "photoionization cross section in Mb (1 Mb = 1e-22 m^2)"),
        ("--power-w", "power_w", "beam power in W"),
        ("--waist-m", "waist_m", "Gaussian beam waist (1/e^2 intensity radius) in m"),
        *wavelength,
    ), {})
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
        choices=_COMPUTED_MODELS,
        required=True,
        help="cross-section model (dimensionless tag; result is in Mb).",
    )
    add_flags(p, [("--series", "series", "series file path: rows of 'n energy_cm1' "
                   "(energies in cm^-1). Default: the bundled Yb II np series")],
              {"series": None}, None)
    add_flags(p, [("--limit", "limit_cm1", "ionization limit of the series in cm^-1")],
              {})
    p.add_argument(
        "--ell",
        type=int,
        default=1,
        help="orbital angular momentum quantum number of the series "
        "(dimensionless). Default %(default)s (p series).",
    )
    add_flags(p, [("--core-charge", "core_charge", "net core charge seen by the "
                   "escaping electron (units of e); 2 for ionizing a singly "
                   "charged ion")], {"core_charge": 2}, int)
    add_flags(p, wavelength, {"wavelength_nm": 245.426})
    add_out(p, _cmd_xsec)

    p = sub.add_parser(
        "crystal",
        help="two-ion crystal positions, modes, and inversions",
        description="Forward crystal observables for (nu1, eta, q2), plus "
        "optional inversion of a measured mode frequency or displacement "
        "ratio.",
    )
    add_flags(p, trap, {"eta": 1.0, "q2": 1.0})
    p.add_argument(
        "--invert-from-mode",
        nargs=2,
        action=_ValuesAction,
        read=_read_mode,
        expected="a finite FREQ_HZ and MODE com or bre",
        metavar=("FREQ_HZ", "MODE"),
        help="infer eta from a measured mode frequency in Hz; MODE is "
        "'com' or 'bre'.",
    )
    add_flags(p, [("--invert-from-ratio", "invert_from_ratio",
                   "infer q2 (units of e) from a measured displacement ratio "
                   "(dimensionless), using the inferred eta when "
                   "--invert-from-mode is also given, else --eta")],
              {"invert_from_ratio": None})
    add_out(p, _cmd_crystal)

    p = sub.add_parser(
        "scan",
        help="simulate a frequency scan of one drive",
        description="Steady-state fluorescence versus detuning of the "
        "scanned drive; optionally adds Gaussian noise.",
    )
    add_scheme(p)
    add_flags(p, (
        ("--upper", "upper", "upper level label of the scanned drive"),
        ("--lower", "lower", "lower level label of the scanned drive"),
    ), {"upper": "7p12", "lower": "5d32"}, None)
    p.add_argument(
        "--grid",
        nargs=3,
        action=_ValuesAction,
        read=_read_grid,
        expected="finite START_HZ < STOP_HZ with a finite span and an integer "
        f"POINTS from 2 to {MAX_SCAN_POINTS}",
        fields=("grid_start_hz", "grid_stop_hz", "grid_points"),
        required=True,
        metavar=("START_HZ", "STOP_HZ", "POINTS"),
        help="detuning grid in Hz: start < stop, and the point count "
        f"(2 to {MAX_SCAN_POINTS}).",
    )
    add_flags(p, [("--noise-sigma", "noise_sigma", "per-point Gaussian noise sigma "
                   "in signal units (photons/s per ion)")], {"noise_sigma": None})
    add_flags(p, [("--seed", "seed", "RNG seed (integer >= 0) for the noise draws. "
                   "Default: one drawn from OS entropy and written to the manifest")],
              {"seed": None}, _nonnegative_int)
    add_out(p, _cmd_scan)

    p = sub.add_parser(
        "fit-scan",
        help="Lorentzian fit and lifetime from a stored curve",
        description="Fit offset + amplitude/(1 + (2(nu-center)/fwhm)^2) to "
        "a stored scan and convert the width to an upper-level lifetime.",
    )
    add_flags(p, [("--data", "data", "scan curve file (tab-separated "
                   "detuning_hz/signal columns)")], {}, None)
    add_flags(p, [("--saturation", "saturation", "saturation parameter S "
                   "(dimensionless) assumed for the power-broadening "
                   "correction sqrt(1+S)")], {"saturation": 0.0})
    add_out(p, _cmd_fit_scan)

    p = sub.add_parser(
        "simulate",
        help="chopped-sequence Monte Carlo event times",
        description="Per-trial ionization wall-clock times for a Poisson "
        "process gated by the chop windows.",
    )
    add_flags(p, (
        ("--rate", "rate_per_s", "ionization rate during ON windows in s^-1"),
        ("--duty", "duty",
         "ON fraction of each chop cycle (dimensionless, 0 < duty <= 1)"),
        ("--chop-hz", "chop_hz", "chop rate in Hz"),
    ), {"duty": 0.5, "chop_hz": 50.0})
    add_flags(p, [("--trials", "trials",
                   f"number of independent trials (count, 1 to {MAX_TRIALS})")],
              {}, _trial_count)
    add_flags(p, [("--seed", "seed", "base RNG seed (integer >= 0)")], {},
              _nonnegative_int)
    add_flags(p, (
        ("--max-time-s", "max_time_s", "per-trial time budget in s"),
        ("--failure-prob", "failure_prob",
         "per-window abort probability (dimensionless)"),
    ), {"max_time_s": 10.0, "failure_prob": 0.0})
    add_out(p, _cmd_simulate)

    p = sub.add_parser(
        "verify-roundtrip",
        help="charge-inference statistics under synthetic noise",
        description="Repeatedly synthesize noisy verification measurements "
        "at a known (eta, q2) and report how often the inferred charge "
        "lands within the tolerance.",
    )
    add_flags(p, trap, {"nu1_hz": 474e3})
    p.add_argument(
        "--noise",
        nargs=2,
        type=float,
        action=_ValuesAction,
        fields=("noise_ratio_rel", "noise_freq_rel"),
        metavar=("RATIO_REL", "FREQ_REL"),
        help="relative Gaussian sigmas (dimensionless): displacement "
        f"ratio, frequencies. Default {REPORTED_NOISE.ratio_rel} "
        f"{REPORTED_NOISE.freq_rel}.",
    )
    p.set_defaults(noise_ratio_rel=REPORTED_NOISE.ratio_rel,
                   noise_freq_rel=REPORTED_NOISE.freq_rel)
    add_flags(p, [("--seeds", "seeds", "number of independent synthetic records "
                   f"(count, 1 to {MAX_SEEDS})")], {"seeds": 1000}, _seed_count)
    add_flags(p, [("--seed-base", "seed_base", "first RNG seed (integer >= 0); "
                   "record i uses seed_base + i")], {"seed_base": 0}, _nonnegative_int)
    add_flags(p, [("--tolerance", "tolerance",
                   "success band |q2_inferred - q2_true| in units of e")],
              {"tolerance": 0.14})
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
