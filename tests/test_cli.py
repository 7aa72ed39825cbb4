"""CLI plumbing: dispatch, exit codes, tables, manifests, scheme resolution.

Every subcommand is driven through main() in-process. Numeric assertions
reuse values the module suites already pin, so a failure here points at
broken plumbing rather than broken physics.
"""

from __future__ import annotations

import argparse
import hashlib
from pathlib import Path

import pytest

from ybion.cli import SCHEME_ENV_VAR, build_parser, main
from ybion.errors import SolverError
from ybion.crystal import infer_eta
from ybion.photoion import bundled_series_path, fit_quantum_defect, load_series_file
from ybion.rates import build_rate_matrix, steady_state
from ybion.scheme import bundled_scheme_path, load_scheme_file

SUBCOMMANDS = (
    "steady-state",
    "ionize-rate",
    "xsec",
    "crystal",
    "scan",
    "fit-scan",
    "simulate",
    "verify-roundtrip",
)

IONIZE = [
    "ionize-rate",
    "--p7p", "9.5e-3",
    "--sigma-mb", "5.5",
    "--power-w", "1e-4",
    "--waist-m", "1e-5",
    "--wavelength-nm", "245.426",
]


def rows_of(text: str):
    lines = text.strip("\n").split("\n")
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:]]


def value_map(text: str) -> dict[str, str]:
    """First column -> second column of a tabular output."""
    _, rows = rows_of(text)
    return {row[0]: row[1] for row in rows}


@pytest.fixture(scope="module")
def curve_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("cliscan") / "curve.tsv"
    code = main([
        "scan", "--scheme", "linewidth_reference",
        "--grid", "-60e6", "60e6", "241", "--out", str(out),
    ])
    assert code == 0
    return out


# -- exit codes --------------------------------------------------------------------


def test_version_flag_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("ybion ")


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_help_exits_zero_and_mentions_out(name, capsys):
    assert main([name, "--help"]) == 0
    assert "--out" in capsys.readouterr().out


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "frobnicate" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["ionize-rate"]) == 1
    assert "--p7p" in capsys.readouterr().err


def test_malformed_number_is_usage_error(capsys):
    assert main(["crystal", "--nu1", "not-a-number"]) == 1


def test_domain_error_exits_two_with_verbatim_module_message(capsys):
    # The CLI must forward the module's message untouched, prefixed once.
    with pytest.raises(SolverError) as caught:
        infer_eta(200e3, 474e3, "com")
    assert main(["crystal", "--nu1", "474e3",
                 "--invert-from-mode", "200e3", "com"]) == 2
    assert capsys.readouterr().err == f"error: {caught.value}\n"


def test_unresolvable_scheme_reports_tried_candidates(capsys):
    assert main(["steady-state", "--scheme", "no_such_scheme"]) == 2
    err = capsys.readouterr().err
    assert "cannot resolve scheme" in err
    assert "tried:" in err


# -- steady-state ------------------------------------------------------------------


def test_steady_state_matches_library_solution(capsys):
    assert main(["steady-state"]) == 0
    header, rows = rows_of(capsys.readouterr().out)
    assert header == ["label", "population"]
    pops = {row[0]: float(row[1]) for row in rows}
    matrix = build_rate_matrix(load_scheme_file(bundled_scheme_path("yb174_plus")))
    expected = steady_state(matrix)
    assert list(pops) == list(matrix.labels)
    for label in matrix.labels:
        assert pops[label] == expected[label]
    assert abs(sum(pops.values()) - 1.0) < 1e-9


def test_saturate_all_override_matches_library(capsys):
    assert main(["steady-state", "--saturate-all", "100.0"]) == 0
    pops = {k: float(v) for k, v in value_map(capsys.readouterr().out).items()}
    scheme = load_scheme_file(bundled_scheme_path("yb174_plus"))
    expected = steady_state(
        build_rate_matrix(scheme.with_all_drives_saturated(100.0))
    )
    for label, value in pops.items():
        assert value == expected[label]


def test_drive_override_detuning_matches_library(capsys):
    assert main([
        "steady-state",
        "--drive-overrides", "6p12", "6s12", "detuning_hz", "1e7",
    ]) == 0
    pops = {k: float(v) for k, v in value_map(capsys.readouterr().out).items()}
    scheme = load_scheme_file(bundled_scheme_path("yb174_plus"))
    expected = steady_state(
        build_rate_matrix(scheme.with_drive("6p12", "6s12", detuning_hz=1e7))
    )
    baseline = steady_state(
        build_rate_matrix(scheme)
    )
    for label, value in pops.items():
        assert value == expected[label]
    assert pops["6p12"] != baseline["6p12"]


def test_drive_override_unknown_field_rejected(capsys):
    assert main([
        "steady-state", "--drive-overrides", "6p12", "6s12", "bogus", "1",
    ]) == 2
    assert "unknown drive field" in capsys.readouterr().err


def test_drive_override_power_requires_waist(capsys):
    assert main([
        "steady-state", "--drive-overrides", "6p12", "6s12", "power_w", "1e-4",
    ]) == 2
    assert "overridden together" in capsys.readouterr().err


# -- ionize-rate -------------------------------------------------------------------


def test_ionize_rate_reference_numbers(capsys):
    assert main(IONIZE) == 0
    vals = value_map(capsys.readouterr().out)
    rate = float(vals["ionization_rate"])
    assert rate == pytest.approx(4.1, rel=2e-2)
    assert rate == pytest.approx(4.109701270157343, rel=1e-12)
    coeff = float(vals["rate_per_power_coefficient"])
    assert coeff == pytest.approx(4.1e-6, rel=2e-2)
    assert float(vals["photon_flux"]) == pytest.approx(7.86545697637769e23, rel=1e-12)


def test_ionize_rate_units_column(capsys):
    assert main(IONIZE) == 0
    header, rows = rows_of(capsys.readouterr().out)
    assert header == ["quantity", "value", "unit"]
    units = {row[0]: row[2] for row in rows}
    assert units["ionization_rate"] == "s^-1"
    assert units["rate_per_power_coefficient"] == "m^2 J^-1"


# -- crystal -----------------------------------------------------------------------


def test_crystal_symmetric_pair_identities(capsys):
    assert main(["crystal", "--nu1", "474e3"]) == 0
    vals = value_map(capsys.readouterr().out)
    assert float(vals["displacement_ratio"]) == 1.0
    assert float(vals["nu_com"]) == 474000.0
    assert float(vals["nu_bre"]) == pytest.approx(474000.0 * 3**0.5, rel=1e-12)
    assert float(vals["x2"]) == pytest.approx(-float(vals["x1"]), rel=1e-12)


def test_crystal_inversion_chain_uses_inferred_eta(capsys):
    # Mode frequency and ratio from the forward (eta=2.13, q2=2) run; the
    # deliberately wrong --eta must be ignored by the ratio inversion.
    assert main([
        "crystal", "--nu1", "474e3", "--eta", "1.0",
        "--invert-from-mode", "669702.236241193", "com",
        "--invert-from-ratio", "1.7512911255801311",
    ]) == 0
    vals = value_map(capsys.readouterr().out)
    assert float(vals["eta_inferred"]) == pytest.approx(2.13, abs=1e-5)
    assert float(vals["q2_inferred"]) == pytest.approx(2.0, abs=1e-3)
    assert vals["eta_used_for_inversion"] == vals["eta_inferred"]


# -- xsec --------------------------------------------------------------------------


def test_xsec_reports_library_fit_and_cross_section(capsys):
    assert main(["xsec", "--model", "peach", "--limit", "98207.0"]) == 0
    vals = value_map(capsys.readouterr().out)
    series = load_series_file(bundled_series_path(), 98207.0, ell=1, core_charge=2)
    mu, residual = fit_quantum_defect(series)
    assert float(vals["quantum_defect_mu"]) == mu
    assert float(vals["defect_fit_residual"]) == residual
    assert residual > 100.0
    assert float(vals["nstar"]) == pytest.approx(1.7834560120675202, rel=1e-12)
    assert float(vals["sigma"]) == pytest.approx(7.2, rel=0.2)
    assert vals["model"] == "peach"


def test_xsec_reads_user_series_file(capsys, tmp_path):
    path = tmp_path / "series.tsv"
    path.write_bytes(Path(bundled_series_path()).read_bytes())
    assert main([
        "xsec", "--model", "hydrogenic", "--series", str(path),
        "--limit", "98207.0",
    ]) == 0
    out, err = capsys.readouterr()
    vals = value_map(out)
    assert float(vals["sigma"]) == pytest.approx(8.561074053112144, rel=1e-9)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert f"input.series.tsv.sha256: {digest}" in err


# -- scan and fit-scan -------------------------------------------------------------


def test_scan_grid_accepts_scientific_negatives(capsys):
    assert main([
        "scan", "--scheme", "linewidth_reference", "--grid", "-80e6", "80e6", "5",
    ]) == 0
    header, rows = rows_of(capsys.readouterr().out)
    assert header == ["detuning_hz", "signal"]
    assert len(rows) == 5
    assert float(rows[0][0]) == -80e6
    assert rows[0][1] == rows[-1][1]


@pytest.mark.parametrize("grid", [
    ["-1e6", "1e6", "2.5"],
    ["a", "1", "5"],
    ["0", "inf", "5"],
    ["nan", "1e6", "5"],
])
def test_scan_grid_rejects_malformed_values(grid, capsys):
    assert main(["scan", "--scheme", "linewidth_reference", "--grid", *grid]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()
    assert "argument --grid" in err and "Traceback" not in err


def test_scan_then_fit_recovers_pinned_linewidth(curve_file, capsys):
    assert main(["fit-scan", "--data", str(curve_file),
                 "--saturation", "0.02"]) == 0
    vals = value_map(capsys.readouterr().out)
    assert vals["converged"] == "1"
    assert float(vals["fwhm"]) == pytest.approx(11975544.94782171, rel=1e-9)
    assert float(vals["lifetime"]) == pytest.approx(1.342223790837767e-08, rel=1e-9)
    assert float(vals["lifetime"]) == pytest.approx(13.5e-9, rel=2e-2)


def test_fit_scan_rejects_short_curve(capsys, tmp_path):
    bad = tmp_path / "short.tsv"
    bad.write_text(
        "detuning_hz\tsignal\n-1000000.0\t1.0\n0.0\t2.0\n1000000.0\t1.0\n"
    )
    assert main(["fit-scan", "--data", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "8 points" in err


# -- simulate ----------------------------------------------------------------------


def test_simulate_zero_rate_gives_eventless_rows(capsys):
    assert main(["simulate", "--rate", "0", "--trials", "10", "--seed", "1"]) == 0
    out, err = capsys.readouterr()
    header, rows = rows_of(out)
    assert header == ["trial", "event_time_s", "attempt_windows"]
    assert len(rows) == 10
    assert all(row[1] == "NA" for row in rows)
    assert "success_fraction\t0.0" in err
    assert "mean_s\tNA" in err


def test_simulate_out_file_sends_summary_to_stdout(capsys, tmp_path):
    out = tmp_path / "runs.tsv"
    assert main([
        "simulate", "--rate", "4.1", "--trials", "20", "--seed", "5",
        "--out", str(out),
    ]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("statistic\tvalue")
    assert "n_runs\t20" in stdout
    _, rows = rows_of(out.read_text())
    assert len(rows) == 20
    assert (tmp_path / "runs.tsv.manifest").exists()


# -- verify-roundtrip --------------------------------------------------------------


def test_verify_roundtrip_reports_inference_statistics(capsys):
    assert main([
        "verify-roundtrip", "--eta", "2.135", "--q2", "2.0", "--seeds", "40",
    ]) == 0
    vals = value_map(capsys.readouterr().out)
    assert vals["n_seeds"] == "40"
    assert float(vals["q2_true"]) == 2.0
    assert 0.0 <= float(vals["success_fraction"]) <= 1.0
    assert float(vals["q2_std"]) > 0.0
    assert float(vals["eta_mean"]) == pytest.approx(2.135, abs=0.05)


def test_verify_roundtrip_zero_noise_is_exact(capsys):
    assert main([
        "verify-roundtrip", "--eta", "2.135", "--q2", "2.0",
        "--seeds", "5", "--noise", "0", "0",
    ]) == 0
    vals = value_map(capsys.readouterr().out)
    assert float(vals["success_fraction"]) == 1.0
    assert float(vals["q2_std"]) == 0.0
    assert abs(float(vals["q2_bias"])) < 1e-4


# -- reruns and manifests ----------------------------------------------------------

RERUN = {
    "steady-state": ["steady-state", "--saturate-all", "100.0"],
    "ionize-rate": IONIZE,
    "xsec": ["xsec", "--model", "burgess", "--limit", "98207.0"],
    "crystal": ["crystal", "--nu1", "474e3", "--eta", "2.13", "--q2", "2.0",
                "--invert-from-ratio", "1.74"],
    "scan": ["scan", "--scheme", "linewidth_reference",
             "--grid", "-30e6", "30e6", "21", "--noise-sigma", "0.4",
             "--seed", "7"],
    "fit-scan": ["fit-scan", "--data", "{curve}", "--saturation", "0.02"],
    "simulate": ["simulate", "--rate", "4.1", "--trials", "200", "--seed", "3"],
    "verify-roundtrip": ["verify-roundtrip", "--eta", "2.135", "--q2", "2.0",
                         "--seeds", "25"],
}


@pytest.mark.parametrize("name", sorted(RERUN))
def test_rerun_primary_output_is_byte_identical(name, curve_file, tmp_path):
    argv = [arg.format(curve=curve_file) for arg in RERUN[name]]
    first = tmp_path / "first.tsv"
    second = tmp_path / "second.tsv"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    payload = first.read_bytes()
    assert payload
    assert b"\t" in payload.split(b"\n", 1)[0]
    assert payload == second.read_bytes()


def test_manifest_structure_and_sorted_params(tmp_path):
    out = tmp_path / "r.tsv"
    assert main(IONIZE + ["--out", str(out)]) == 0
    lines = (tmp_path / "r.tsv.manifest").read_text().splitlines()
    assert lines[0] == "tool: ybion"
    assert lines[1].startswith("version: ")
    assert lines[2] == "subcommand: ionize-rate"
    assert lines[3].startswith("timestamp: ")
    params = [line for line in lines if line.startswith("param.")]
    assert params == sorted(params)
    assert "param.p7p: 0.0095" in params


def test_manifest_digests_input_files(tmp_path):
    out = tmp_path / "pops.tsv"
    assert main(["steady-state", "--out", str(out)]) == 0
    path = bundled_scheme_path("yb174_plus")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest = (tmp_path / "pops.tsv.manifest").read_text()
    assert f"input.yb174_plus.scheme.sha256: {digest}" in manifest


def test_manifest_notes_rng_for_stochastic_subcommands(tmp_path):
    out = tmp_path / "mc.tsv"
    assert main(["simulate", "--rate", "1.0", "--trials", "5", "--seed", "9",
                 "--out", str(out)]) == 0
    assert "rng: " in (tmp_path / "mc.tsv.manifest").read_text()
    out2 = tmp_path / "vr.tsv"
    assert main(["verify-roundtrip", "--eta", "2.0", "--q2", "2.0",
                 "--seeds", "5", "--out", str(out2)]) == 0
    manifest = (tmp_path / "vr.tsv.manifest").read_text()
    assert "rng: " in manifest
    assert "PCG64" in manifest


# -- scheme resolution -------------------------------------------------------------


def test_scheme_resolution_prefers_literal_path(capsys, tmp_path, monkeypatch):
    # Literal file (4 levels) must win over an env-dir file of the same name
    # (9 levels).
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dup.scheme").write_bytes(
        bundled_scheme_path("linewidth_reference").read_bytes()
    )
    envdir = tmp_path / "envdir"
    envdir.mkdir()
    (envdir / "dup.scheme").write_bytes(
        bundled_scheme_path("yb174_plus").read_bytes()
    )
    monkeypatch.setenv(SCHEME_ENV_VAR, str(envdir))
    assert main(["steady-state", "--scheme", "dup.scheme"]) == 0
    _, rows = rows_of(capsys.readouterr().out)
    assert len(rows) == 4


def test_scheme_resolution_env_directory(capsys, tmp_path, monkeypatch):
    (tmp_path / "custom.scheme").write_bytes(
        bundled_scheme_path("linewidth_reference").read_bytes()
    )
    monkeypatch.setenv(SCHEME_ENV_VAR, str(tmp_path))
    assert main(["steady-state", "--scheme", "custom.scheme"]) == 0
    _, rows = rows_of(capsys.readouterr().out)
    assert len(rows) == 4


def test_scheme_resolution_falls_back_to_bundled(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(SCHEME_ENV_VAR, str(tmp_path))
    assert main(["steady-state", "--scheme", "linewidth_reference"]) == 0
    _, rows = rows_of(capsys.readouterr().out)
    assert len(rows) == 4


# -- help text units ---------------------------------------------------------------

UNIT_HINTS = (
    "hz", " nm", " mb", "in w", "in m", "in s", "cm^-1", "dimensionless",
    "units of e", "signal units", "count", "integer", "s^-1",
)


def subparsers():
    parser = build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def test_numeric_flag_help_states_units():
    checked = 0
    missing = []
    for name, sub in subparsers().items():
        for action in sub._actions:
            if action.type not in (float, int):
                continue
            checked += 1
            text = (action.help or "").lower()
            if not any(hint in text for hint in UNIT_HINTS):
                missing.append(f"{name} {action.option_strings}")
    assert not missing, f"flags without a unit in help: {missing}"
    assert checked >= 25


def test_string_numeric_flag_help_states_units():
    def flag_help(sub_name, option):
        for action in subparsers()[sub_name]._actions:
            if option in action.option_strings:
                return (action.help or "").lower()
        raise AssertionError(f"{sub_name} has no {option}")

    assert "hz" in flag_help("scan", "--grid")
    assert "hz" in flag_help("crystal", "--invert-from-mode")
    overrides = flag_help("steady-state", "--drive-overrides")
    for fragment in ("(w)", "(m)", "(hz)"):
        assert fragment in overrides
