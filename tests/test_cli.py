"""CLI plumbing: dispatch, exit codes, tables, manifests, scheme resolution.

Every subcommand is driven through main() in-process. Numeric assertions
reuse values the module suites already pin, so a failure here points at
broken plumbing rather than broken physics.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from test_mc import run_cli

from ybion.cli import (
    MAX_SCAN_POINTS,
    MAX_SEEDS,
    MAX_TRIALS,
    SCHEME_ENV_VAR,
    build_parser,
    main,
)
from ybion.errors import SolverError, YbionError
from ybion.crystal import ChargePair, TrapAxis, infer_eta
from ybion.mc import (
    BLOCK_TRIALS,
    SequenceConfig,
    VerificationNoise,
    infer_from_verification,
    runs_to_text,
    simulate_ionization_times,
    synthesize_verification,
)
from ybion.photoion import bundled_series_path, fit_quantum_defect, load_series_file
from ybion.rates import STEADY_RESIDUAL_TOL, build_rate_matrix, steady_state
from ybion.scheme import bundled_scheme_path, load_scheme_file, serialize, validate_scheme
from ybion.spectro import (
    MIN_FIT_POINTS,
    ScanCurve,
    curve_to_text,
    fit_lorentzian,
    lorentzian,
)

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

# An integer that parses but converts to no float.
BIG_INT = "1" + "0" * 200

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


# chopped is a scheme-file column that no computation reads, so it is not
# an override field.
@pytest.mark.parametrize("field,value", [("chopped", "true"), ("chopped", " NO ")])
def test_drive_override_chopped_is_unknown_field(field, value, capsys):
    assert main(["steady-state", "--drive-overrides", "6p12", "6s12", field, value]) == 2
    assert "unknown drive field 'chopped'" in capsys.readouterr().err


def test_drive_override_power_requires_waist(capsys):
    assert main([
        "steady-state", "--drive-overrides", "6p12", "6s12", "power_w", "1e-4",
    ]) == 2
    assert capsys.readouterr().err == (
        "error: drive 6p12<->6s12: needs saturation or a complete power/waist pair\n")


# A drive that already has power and waist keeps the one not overridden:
# with_drive's rule decides, as for the library call.
@pytest.mark.parametrize("field,value", [("power_w", 2e-3), ("waist_m", 2e-5)])
def test_drive_override_of_one_beam_field_keeps_the_other(field, value, capsys, tmp_path):
    scheme = load_scheme_file(bundled_scheme_path("yb174_plus")).with_drive(
        "6p12", "6s12", power_w=1e-3, waist_m=1e-5)
    path = tmp_path / "powered.scheme"
    path.write_text(serialize(scheme))
    assert main(["steady-state", "--scheme", str(path),
                 "--drive-overrides", "6p12", "6s12", field, repr(value)]) == 0
    pops = {k: float(v) for k, v in value_map(capsys.readouterr().out).items()}
    expected = steady_state(build_rate_matrix(
        scheme.with_drive("6p12", "6s12", **{field: value})))
    assert pops == {label: expected[label] for label in expected.labels}


# A saturation and a power/waist pair for one drive contradict each other
# whatever order they come in: LaserDrive refuses the pair of strengths.
@pytest.mark.parametrize("order", [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
def test_drive_override_saturation_with_power_and_waist_exits_two(order, capsys):
    fields = [("saturation", "5"), ("power_w", "1e-3"), ("waist_m", "1e-5")]
    argv = ["steady-state"]
    for i in order:
        argv += ["--drive-overrides", "6p12", "6s12", *fields[i]]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: drive 6p12<->6s12: give saturation or power/waist, not both\n"


@pytest.mark.parametrize("saturate_all", [None, 3.0])
def test_drive_override_power_and_waist_replace_saturation(saturate_all, capsys):
    # --saturate-all sets every drive first; the pair then replaces one
    argv = ["steady-state", "--drive-overrides", "6p12", "6s12", "power_w", "1e-3",
            "--drive-overrides", "6p12", "6s12", "waist_m", "1e-5"]
    scheme = load_scheme_file(bundled_scheme_path("yb174_plus"))
    if saturate_all is not None:
        argv += ["--saturate-all", str(saturate_all)]
        scheme = scheme.with_all_drives_saturated(saturate_all)
    assert main(argv) == 0
    pops = {k: float(v) for k, v in value_map(capsys.readouterr().out).items()}
    powered = scheme.with_drive("6p12", "6s12", power_w=1e-3, waist_m=1e-5)
    expected = steady_state(build_rate_matrix(powered))
    for label, value in pops.items():
        assert value == expected[label]


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


def test_ionize_rate_prints_products_that_underflow_only_part_way(capsys):
    # p7p * sigma (1e-325 m^2) lies below the float range, but the rate and
    # the coefficient do not, so the run prints them instead of refusing 0
    argv = ["ionize-rate", "--p7p", "1e-300", "--sigma-mb", "1e-3", "--power-w", "1e-4",
            "--waist-m", "1e-4", "--wavelength-nm", "245.426"]
    assert main(argv) == 0
    vals = value_map(capsys.readouterr().out)
    # abs=0: approx's default absolute tolerance of 1e-12 would accept 0.0
    assert float(vals["ionization_rate"]) == pytest.approx(
        1e-300 * (1e-25 * float(vals["photon_flux"])), rel=1e-14, abs=0)
    assert float(vals["rate_per_power_coefficient"]) == pytest.approx(
        7.865456976377693e-308, rel=1e-14, abs=0)


def test_ionize_rate_keeps_its_digits_past_a_subnormal_partial_product(capsys):
    # p7p * sigma (2e-312 m^2) is subnormal, the rate and the coefficient
    # are not; each prints within 3 ulps of its exact value
    argv = ["ionize-rate", "--p7p", "1e-290", "--sigma-mb", "2", "--power-w", "1e-4",
            "--waist-m", "1e-5", "--wavelength-nm", "245.426"]
    assert main(argv) == 0
    vals = value_map(capsys.readouterr().out)
    for name, exact in (("ionization_rate", 1.5730913952755383e-288),
                        ("rate_per_power_coefficient", 1.5730913952755382e-294)):
        assert abs(float(vals[name]) - exact) <= 3 * math.ulp(exact)


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


@pytest.mark.parametrize("grid", [
    ["-1.7e308", "1.7e308", "3"],  # span overflows
    ["1.7e308", "1e300", "2"],  # START > STOP
    ["5e6", "5e6", "3"],  # START = STOP
    ["-1e6", "1e6", "1"],  # POINTS < 2, an exit 2 in the handler before
])
def test_scan_grid_out_of_range_is_usage_error(grid, capsys, recwarn):
    assert main(["scan", "--scheme", "linewidth_reference", "--grid", *grid]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        "ybion scan: error: argument --grid: expected finite START_HZ < STOP_HZ "
        f"with a finite span and an integer POINTS from 2 to {MAX_SCAN_POINTS}, "
        f"got {' '.join(grid)}"]
    assert "Traceback" not in err
    assert not [str(w.message) for w in recwarn]


def test_scan_grid_points_are_capped_at_parse_time(capsys):
    # parsing only: a count above the cap must never reach the scan
    parser = build_parser()
    base = ["scan", "--grid", "-1e6", "1e6"]
    assert parser.parse_args(base + [str(MAX_SCAN_POINTS)]).grid_points == MAX_SCAN_POINTS
    for text in (str(MAX_SCAN_POINTS + 1), "100000000"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(base + [text])
        assert exc.value.code == 1
        assert "argument --grid:" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        parser.parse_args(["scan", "--help"])
    assert f"2 to {MAX_SCAN_POINTS}" in " ".join(capsys.readouterr().out.split())


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


def test_fit_scan_with_a_varying_sigma_column_exits_two(capsys, tmp_path):
    bad = tmp_path / "sigma.tsv"
    bad.write_text("".join(f"{d}.0\t1.0\t{0.1 if d else 0.2}\n" for d in range(9)),
                   encoding="utf-8")
    assert main(["fit-scan", "--data", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: sigma column must hold one value, got 0.2 and 0.1\n")


# The two fit gates on eight-point curves over detunings 0, 1, ..., 7 Hz: a
# solution with a nonpositive width or amplitude is not converged and has no
# standard errors; a converged fit whose normal matrix is singular has NaN
# ones.
@pytest.mark.parametrize("signal,converged,message,se", [
    ([0.5, 0.1, 1.0, 0.6, 0.0, 0.8, 1.0, 0.6], "0",
     "optimizer converged to a nonpositive width or amplitude", "NA"),
    ([0.7, 0.5, 0.6, 0.0, 0.2, 1.0, 0.1, 0.1], "1",
     "converged: relative cost change <= 1e-12", "nan"),
], ids=["nonpositive", "singular"])
def test_fit_scan_reports_each_fit_gate(signal, converged, message, se, tmp_path):
    data = tmp_path / "gate.tsv"
    data.write_text("".join(f"{d}.0\t{y}\n" for d, y in enumerate(signal)),
                    encoding="utf-8")
    out = tmp_path / "fit.tsv"
    assert main(["fit-scan", "--data", str(data), "--out", str(out)]) == 0
    vals = value_map(out.read_text(encoding="utf-8"))
    assert (vals["converged"], vals["message"]) == (converged, message)
    lines = manifest_lines(out)
    for key in ("fit_center_se_hz", "fit_fwhm_se_hz", "lifetime_se_s"):
        assert f"diag.{key}: {se}" in lines


# A flat curve fails the fit ("degenerate initialization"), so the check of
# lifetime_from_linewidth, which runs only on a converged fit, never sees it.
@pytest.mark.parametrize("saturation, shown", [
    ("nan", "nan"), ("inf", "inf"), ("1e400", "inf"), ("-1", "-1.0"),
])
def test_fit_scan_refuses_a_bad_saturation_whatever_the_fit_does(saturation, shown,
                                                                 tmp_path, capsys):
    flat = tmp_path / "flat.tsv"
    flat.write_text("".join(f"{d}.0\t1.0\n" for d in range(10)), encoding="utf-8")
    assert main(["fit-scan", "--data", str(flat)]) == 0
    assert value_map(capsys.readouterr().out)["message"].startswith("degenerate")
    assert main(["fit-scan", "--data", str(flat), "--saturation", saturation]) == 2
    assert capsys.readouterr() == (
        "", f"error: saturation must be >= 0 and finite, got {shown}\n")


@pytest.mark.parametrize("values", [("abc", "com"), ("nan", "bre"), ("821e3", "xyz")])
def test_crystal_invert_from_mode_rejects_bad_values(values, capsys):
    assert main(["crystal", "--nu1", "474e3", "--invert-from-mode", *values]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"argument --invert-from-mode: expected a finite FREQ_HZ and MODE com " \
           f"or bre, got {values[0]} {values[1]}" in err
    assert "Traceback" not in err


GRID_REFUSAL = ("argument --grid: expected finite START_HZ < STOP_HZ with a finite "
                f"span and an integer POINTS from 2 to {MAX_SCAN_POINTS}, got ")
VERIFY = ["verify-roundtrip", "--eta", "2.135", "--q2", "2.0"]


# The refusals of the three multi-value flags that the tests above do not
# pin to the word: a value count argparse refuses before any check, a value
# --noise's float type refuses, and the --grid values its check refuses.
@pytest.mark.parametrize("argv, error", [
    (["scan", "--grid", "-1e6", "1e6"], "argument --grid: expected 3 arguments"),
    (["scan", "--grid"], "argument --grid: expected 3 arguments"),
    ([*VERIFY, "--noise", "0.02"], "argument --noise: expected 2 arguments"),
    (["crystal", "--nu1", "474e3", "--invert-from-mode", "821e3"],
     "argument --invert-from-mode: expected 2 arguments"),
    ([*VERIFY, "--noise", "abc", "0.005"],
     "argument --noise: invalid float value: 'abc'"),
    ([*VERIFY, "--noise", "0.02", "1e"], "argument --noise: invalid float value: '1e'"),
    (["scan", "--grid", "-1e6", "1e6", "2.5"], GRID_REFUSAL + "-1e6 1e6 2.5"),
    (["scan", "--grid", "-1e6", "1e6", "1e400"], GRID_REFUSAL + "-1e6 1e6 1e400"),
    (["scan", "--grid", "-1e6", "1e6", "9" * 30], GRID_REFUSAL + "-1e6 1e6 " + "9" * 30),
    (["scan", "--grid", "nan", "1e6", "5"], GRID_REFUSAL + "nan 1e6 5"),
    (["scan", "--grid", "0", "nan", "5"], GRID_REFUSAL + "0 nan 5"),
    (["scan", "--grid", "inf", "1e6", "5"], GRID_REFUSAL + "inf 1e6 5"),
    (["scan", "--grid", "0", "inf", "5"], GRID_REFUSAL + "0 inf 5"),
])
def test_multi_value_flag_refusals_are_usage_errors(argv, error, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: ybion {argv[0]} [-h] ")
    assert err.endswith(f"\nybion {argv[0]}: error: {error}\n")
    assert err.count("error:") == 1 and "Traceback" not in err


# An argument is a value, never an option, exactly when float() reads it. Each
# spelling below reaches its flag's own reader or check, as inf, nan, 1_000 and
# 5. do; anything else starting with - is an option. line is the last stderr
# line of a refusal, or a manifest line of a run.
OVERRIDE = ["steady-state", "--drive-overrides", "7p12", "5d32", "detuning_hz"]
NU1_REFUSAL = "error: nu1_hz must be positive and finite, got "


@pytest.mark.parametrize("argv, code, line", [
    (["scan", "--grid", "-inf", "1e6", "5"], 1,
     "ybion scan: error: " + GRID_REFUSAL + "-inf 1e6 5"),
    (["crystal", "--nu1", "474e3", "--invert-from-mode", "-nan", "com"], 1,
     "ybion crystal: error: argument --invert-from-mode: expected a finite FREQ_HZ "
     "and MODE com or bre, got -nan com"),
    ([*OVERRIDE, "-inf"], 2, "error: drive 7p12<->5d32: detuning_hz must be finite, "
     "got -inf"),
    (["crystal", "--nu1", "-1_000"], 2, NU1_REFUSAL + "-1000.0"),
    (["crystal", "--nu1", "-5."], 2, NU1_REFUSAL + "-5.0"),
    (["crystal", "--nu1", "-Infinity"], 2, NU1_REFUSAL + "-inf"),
    (["scan", "--grid", "-1_000", "1e6", "5"], 0, "param.grid_start_hz: -1000.0"),
    ([*OVERRIDE, "-1_000"], 0, "param.drive_overrides: 7p12,5d32,detuning_hz,-1_000"),
    (["crystal", "--nu1", "-x"], 1,
     "ybion crystal: error: argument --nu1: expected one argument"),
])
def test_an_argument_is_a_value_exactly_when_float_reads_it(argv, code, line, capsys):
    assert main(argv) == code
    lines = capsys.readouterr().err.splitlines()
    assert line in lines if code == 0 else lines[-1] == line


@pytest.mark.parametrize("argv", [
    ["fit-scan", "--data", "{missing}"],
    ["xsec", "--model", "peach", "--limit", "98207.0", "--series", "{missing}"],
])
def test_missing_input_file_exits_two_naming_the_path(argv, tmp_path, capsys):
    missing = str(tmp_path / "nonexistent.tsv")
    assert main([arg.format(missing=missing) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert missing in err


NO_LIFETIME_SCHEME = """\
[LEVELS]
g "ground" 0.5 0.0 -
e "excited" 0.5 20000.0 -

[DECAYS]
e g 1.0

[DRIVES]
e g 500.0 - - 1.0 0.0 0
"""


@pytest.mark.parametrize("argv, message", [
    pytest.param(["steady-state", "--scheme", "{scheme}"],
                 "level e has decay channels but no lifetime", id="decay-without-lifetime"),
    pytest.param(["xsec", "--model", "hydrogenic", "--limit", "98207", "--ell", "-1"],
                 "orbital angular momentum must be >= 0", id="negative-ell"),
])
def test_domain_refusals_exit_two_with_one_line(argv, message, tmp_path, capsys):
    scheme = tmp_path / "no_lifetime.scheme"
    scheme.write_text(NO_LIFETIME_SCHEME)
    assert main([arg.replace("{scheme}", str(scheme)) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# A cooling pair that scan's default monitor, 6p12 -> 6s12, can read, plus
# the levels, decays and drives of one lifetime fault.
LIFETIME_SCHEME = """\
[LEVELS]
6s12 "ground" 0.5 0.0 -
g "dark" 0.5 5000.0 -
6p12 "cooling" 0.5 20000.0 1e-8
{levels}
[DECAYS]
6p12 6s12 1.0
{decays}
[DRIVES]
6p12 6s12 {cooling_nm} - - 1.0 0.0 0
{drives}"""
DECAY_FAULT = dict(levels='e "e" 0.5 25000.0 -', decays="e 6s12 1.0")
DRIVE_FAULT = dict(levels='e "e" 0.5 25000.0 -', drives="e g 500.0 - - 1.0 0.0 0")
WAVELENGTH_REFUSAL = ("drive 6p12<->6s12: declared wavelength 503.0 nm differs from "
                      "energy gap (500 nm) by 5.96e-03 (limit 0.001)")


# Each lifetime fault is refused in the same words by steady-state and scan;
# among several, the highest level is named, and a wavelength refusal wins.
@pytest.mark.parametrize("fault, message", [
    pytest.param(DECAY_FAULT, "level e has decay channels but no lifetime",
                 id="decay-without-lifetime"),
    pytest.param(DRIVE_FAULT, "drive e<->g: upper level has no lifetime",
                 id="drive-without-lifetime"),
    pytest.param(dict(levels='e "e" 0.5 25000.0 -\nf "f" 0.5 30000.0 -',
                      decays="e 6s12 1.0\nf 6s12 1.0"),
                 "level f has decay channels but no lifetime", id="highest-named"),
    pytest.param(dict(DECAY_FAULT, cooling_nm="503.0"), WAVELENGTH_REFUSAL,
                 id="decay-fault-and-wavelength"),
    pytest.param(dict(DRIVE_FAULT, cooling_nm="503.0"), WAVELENGTH_REFUSAL,
                 id="drive-fault-and-wavelength"),
])
@pytest.mark.parametrize("argv", [
    ["steady-state"],
    ["scan", "--upper", "6p12", "--lower", "6s12", "--grid", "-1e6", "1e6", "5"],
], ids=["steady-state", "scan"])
def test_lifetime_refusals_of_a_scheme_file_are_one_line(argv, fault, message, tmp_path,
                                                        capsys):
    scheme = tmp_path / "fault.scheme"
    scheme.write_text(LIFETIME_SCHEME.format(
        **{"levels": "", "decays": "", "drives": "", "cooling_nm": "500.0", **fault}))
    assert main([*argv, "--scheme", str(scheme)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


def test_an_ionization_limit_below_a_level_exits_two(tmp_path, capsys):
    scheme = tmp_path / "limit.scheme"
    scheme.write_text("[SCHEME]\nionization_limit_cm1 -5\n" + CLEAN_SCHEME)
    assert main(["steady-state", "--scheme", str(scheme)]) == 2
    assert capsys.readouterr() == (
        "", "error: level 6p12 lies at or above the ionization limit\n")


def gap_scheme(energy_cm1: str) -> str:
    """A two-level scheme whose 500 nm drive spans a gap of energy_cm1."""
    return NO_LIFETIME_SCHEME.replace("20000.0", energy_cm1).replace("e g 1.0", "")


# A refusal prints an input, and a bound it compares the input with, in full
# as check does, and other derived numbers with six significant digits: a
# tiny value never reads 0, a huge one stays short, and a bound never reads on
# the wrong side of its input.
@pytest.mark.parametrize("argv, named", [
    (["crystal", "--nu1", "474e3", "--invert-from-mode", "1e-300", "com"],
     "com frequency 1e-300 Hz lies below the eta = 1 value 474000.0 Hz"),
    (["crystal", "--nu1", "474000.5", "--invert-from-mode", "474000.2", "com"],
     "com frequency 474000.2 Hz lies below the eta = 1 value 474000.5 Hz"),
    (["xsec", "--model", "hydrogenic", "--limit", "98207.0", "--wavelength-nm", "1e300"],
     "photon energy 1.2398"),
    (["steady-state", "--scheme", "{1e300}"], "energy gap (1e-293 nm)"),
    (["crystal", "--nu1", "1e300", "--invert-from-mode", "1e-300", "com"],
     "eta = 1 value 1e+300 Hz"),
    (["steady-state", "--scheme", "{1e-300}"], "energy gap (1e+307 nm)"),
], ids=["tiny-mode-frequency", "near-bound-mode-frequency", "tiny-photon-energy",
        "tiny-implied-wavelength", "huge-trap-frequency", "huge-implied-wavelength"])
def test_refusals_of_extreme_numbers_name_them_in_one_short_line(argv, named, tmp_path):
    if argv[-1].startswith("{"):
        scheme = tmp_path / "gap.scheme"
        scheme.write_text(gap_scheme(argv[-1][1:-1]), encoding="utf-8")
        argv = [*argv[:-1], str(scheme)]
    code, out, err = run_without_warnings(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err and len(err) < 200, err


# A gap below about 5.6e-302 cm^-1 implies a wavelength past the float range.
@pytest.mark.parametrize("gap", ["5e-324", "5.5e-302"])
def test_a_gap_too_small_for_a_wavelength_exits_two_naming_the_drive(gap, tmp_path):
    scheme = tmp_path / "gap.scheme"
    scheme.write_text(gap_scheme(gap), encoding="utf-8")
    assert run_without_warnings(["steady-state", "--scheme", str(scheme)]) == (
        2, "", "error: drive e<->g: vacuum wavelength lies outside the floating-point "
        f"range for delta_energy_cm1 = {gap}\n")


# The README example of every subcommand that needs no scipy.
NUMPY_ONLY = [
    ["--version"],
    ["steady-state"],
    IONIZE,
    ["crystal", "--nu1", "474e3", "--eta", "2.13", "--q2", "2.0",
     "--invert-from-ratio", "1.74"],
    ["scan", "--scheme", "linewidth_reference", "--grid", "-60e6", "60e6", "241"],
    ["simulate", "--rate", "4.1", "--duty", "0.5", "--trials", "100000", "--seed", "1"],
    ["verify-roundtrip", "--eta", "2.135", "--q2", "2.0", "--seeds", "1000"],
]


def loaded_modules(runs, tmp_path) -> set[str]:
    """The modules a fresh interpreter holds after importing ybion.cli and
    running main(argv) for each argv of runs, in tmp_path."""
    script = (
        "import sys\n"
        "import ybion.cli\n"
        f"for argv in {runs!r}:\n"
        "    assert ybion.cli.main(argv) == 0, argv\n"
        "print(sorted(sys.modules))\n"
    )
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def run_script(script: str, tmp_path) -> subprocess.CompletedProcess:
    """script run by a fresh interpreter that imports this ybion, in tmp_path."""
    src = str(Path(sys.modules["ybion"].__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def packages(modules: set[str], *names: str) -> list[str]:
    """The loaded modules that are one of names or lie inside one."""
    return sorted(m for m in modules
                  if any(m == n or m.startswith(n + ".") for n in names))


def test_numpy_only_subcommands_never_import_scipy(tmp_path):
    runs = [argv if argv == ["--version"] else argv + ["--out", f"out{i}.tsv"]
            for i, argv in enumerate(NUMPY_ONLY)]
    # np.median imports numpy.ma for its NaN check; no run may pay for it
    assert packages(loaded_modules(runs, tmp_path), "scipy", "numpy.ma") == []


def test_runs_that_hash_no_input_never_load_openssl(tmp_path):
    # OpenSSL (_hashlib) is loaded only to hash an input file; simulate and
    # verify-roundtrip load it anyway, through numpy.random
    runs = [["--version"], IONIZE, ["crystal", "--nu1", "474e3", "--eta", "2.13"]]
    assert "_hashlib" not in loaded_modules(runs, tmp_path)


# The numpy row kernel of the simulate table, imported by the first export.
ROW_KERNEL = "ybion._reprtext"


# numpy is executed on first use (ybion._numpy), so runs that compute on
# Python floats alone never execute it; numpy._core is loaded by executing
# numpy's __init__.
def test_light_runs_never_execute_numpy(tmp_path):
    (tmp_path / "series.tsv").write_text("3 60000.0\n4 70000.0\n5 75000.0\n",
                                         encoding="utf-8")
    runs = [["--version"], IONIZE,
            ["crystal", "--nu1", "474e3", "--eta", "1.0",
             "--invert-from-mode", "669702.236241193", "com",
             "--invert-from-ratio", "1.7512911255801311"],
            ["xsec", "--model", "burgess", "--limit", "98207.0"],
            ["xsec", "--model", "hydrogenic", "--limit", "80000.0", "--ell", "1",
             "--core-charge", "1", "--series", "series.tsv"]]
    modules = loaded_modules(runs, tmp_path)
    assert packages(modules, "numpy._core") == []
    assert ROW_KERNEL not in modules


def test_steady_state_executes_numpy(tmp_path):
    # the check above cannot pass vacuously: a run that computes on arrays
    # does execute numpy, and under the same module name
    modules = loaded_modules([["steady-state"]], tmp_path)
    assert "numpy._core" in modules
    assert ROW_KERNEL not in modules


def test_simulate_loads_the_row_kernel(tmp_path):
    runs = [["simulate", "--rate", "4.1", "--trials", "10", "--seed", "1", "--out", "runs.tsv"]]
    assert ROW_KERNEL in loaded_modules(runs, tmp_path)


def test_only_the_lazy_numpy_module_imports_numpy():
    # An `import numpy` statement executes numpy at once on CPython 3.11,
    # even after ybion._numpy has registered the lazy module.
    package = Path(sys.modules["ybion"].__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name == "numpy" or name.startswith("numpy.") for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert [i for i in importers if not i.startswith("_numpy.py:")] == []
    assert importers, "ybion._numpy no longer imports numpy"


def test_a_missing_numpy_fails_at_import(tmp_path):
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "try:\n"
        "    import ybion.cli\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name, 'numpy' in str(exc))\n"
    )
    proc = run_script(script, tmp_path)
    assert (proc.returncode, proc.stdout) == (0, "numpy True\n"), proc.stderr


README_STEADY_STATE = """\
label\tpopulation
7p12\t0.004606149042372484
7s12\t0.0007786405529464948
fd52\t1.201796453477362e-10
fd32\t3.47437920650288e-05
6p12\t0.2646359723058179
5d52\t3.475074082344181e-05
5d32\t0.46522105327962093
f72\t1.2020368127680576e-10
6s12\t0.2646886900459704
"""


def test_readme_steady_state_output_bytes_are_pinned(capsys):
    # frozen from the release that solved scans on a (points, n, n) stack;
    # the single-matrix solve must not move a digit
    assert main(["steady-state"]) == 0
    assert capsys.readouterr().out == README_STEADY_STATE


# The README scan -> fit-scan session and the README xsec call.
FIT_SESSION = [
    ["scan", "--scheme", "linewidth_reference", "--grid", "-60e6", "60e6", "241",
     "--out", "curve.tsv"],
    ["fit-scan", "--data", "curve.tsv", "--saturation", "0.02", "--out", "fit.tsv"],
    ["xsec", "--model", "peach", "--limit", "98207.0", "--out", "xsec.tsv"],
]


def test_fit_scan_and_xsec_never_import_scipy(tmp_path):
    modules = loaded_modules(FIT_SESSION, tmp_path)
    assert packages(modules, "scipy", "numpy.ma") == []
    assert value_map((tmp_path / "fit.tsv").read_text())["converged"] == "1"


# Each row's id is spelled out as pytest first derived it from the row's
# values, so rewording a refusal or inserting a row renames no test.
@pytest.mark.parametrize("argv,names", [
    pytest.param(
        [a.replace("1e-5", "1e-200") for a in IONIZE],
        "error: peak intensity 2 power_w / (pi waist_m^2) lies outside the "
        "floating-point range for power_w = 0.0001, waist_m = 1e-200",
        id=("argv0-error: peak intensity 2 power_w / (pi waist_m^2) lies outside "
            "the floating-point range for power_w = 0.0001, waist_m = 1e-200")),
    pytest.param(
        [a.replace("1e-5", "1e200") for a in IONIZE],
        "error: peak intensity 2 power_w / (pi waist_m^2) lies outside the "
        "floating-point range for power_w = 0.0001, waist_m = 1e+200",
        id=("argv1-error: peak intensity 2 power_w / (pi waist_m^2) lies outside "
            "the floating-point range for power_w = 0.0001, waist_m = 1e+200")),
    pytest.param(
        ["verify-roundtrip", "--eta", "2.135", "--q2", "2.0", "--nu1", "1e308",
         "--seeds", "3"],
        "error: mode frequency nu_bre lies outside the floating-point range for "
        "nu1_hz = 1e+308, eta = 2.135", id="verify-roundtrip-nu1-1e308"),
    pytest.param(
        ["verify-roundtrip", "--eta", "2", "--q2", "1e308", "--seeds", "3"],
        "error: displacement ratio lies outside the floating-point range for "
        "eta = 2.0, q2 = 1e+308", id="verify-roundtrip-q2-1e308"),
    # finite peak intensity, but the photon flux overflows
    pytest.param(
        [a.replace("1e-4", "1e300").replace("1e-5", "1e-3") for a in IONIZE],
        "error: photon flux lies outside the floating-point range for "
        "power_w = 1e+300, waist_m = 0.001, wavelength_nm = 245.426",
        id=("argv3-error: photon flux lies outside the floating-point range for "
            "power_w = 1e+300, waist_m = 0.001, wavelength_nm = 245.426")),
    pytest.param(
        [a.replace("5.5", "1e308").replace("9.5e-3", "1") for a in IONIZE],
        "error: ionization rate p_excited * sigma * flux lies outside the "
        "floating-point range for p_excited = 1.0, sigma_m2 = 1e+286, "
        "flux_m2s = 7.86545697637769e+23",
        id=("argv4-error: ionization rate p_excited * sigma * flux lies outside the"
            " floating-point range for p_excited = 1.0, sigma_m2 = 1e+286, flux_m2s"
            " = 7.86545697637769e+23")),
    pytest.param(
        ["scan", "--scheme", "linewidth_reference", "--grid", "-1e6", "1e6", "3",
         "--noise-sigma", "nan"], "noise sigma must be >= 0 and finite, got nan",
        id="argv5-noise sigma must be >= 0 and finite, got nan"),
    pytest.param(
        ["scan", "--scheme", "linewidth_reference", "--grid", "-1e6", "1e6", "3",
         "--noise-sigma", "inf", "--seed", "1"],
        "noise sigma must be >= 0 and finite, got inf",
        id="argv6-noise sigma must be >= 0 and finite, got inf"),
    pytest.param(
        ["xsec", "--model", "peach", "--limit", "1e300", "--wavelength-nm", "0"],
        "wavelength must be positive and finite, got 0.0 nm",
        id="argv7-wavelength must be positive and finite, got 0.0 nm"),
    pytest.param(
        ["xsec", "--model", "burgess", "--limit", "nan", "--wavelength-nm", "5e-324"],
        "error: photon energy lies outside the floating-point range for "
        "wavelength_nm = 5e-324",
        id=("argv8-error: photon energy lies outside the floating-point range for "
            "wavelength_nm = 5e-324")),
    pytest.param(
        [a.replace("245.426", "1.7e308") for a in IONIZE],
        "error: photon energy lies outside the floating-point range for "
        "wavelength_nm = 1.7e+308",
        id=("argv9-error: photon energy lies outside the floating-point range for "
            "wavelength_nm = 1.7e+308")),
    pytest.param(
        ["crystal", "--nu1", "1e-300", "--eta", "2", "--q2", "1e200",
         "--invert-from-ratio", "-1"],
        "error: equilibrium position X1 lies outside the floating-point range for "
        "nu1_hz = 1e-300, eta = 2.0, q2 = 1e+200",
        id=("argv10-error: equilibrium position X1 lies outside the floating-point "
            "range for nu1_hz = 1e-300, eta = 2.0, q2 = 1e+200")),
    pytest.param(
        ["crystal", "--nu1", "0.5", "--eta", "2", "--q2", "1e300",
         "--invert-from-ratio", "1e300"],
        "error: inferred q2 lies outside the floating-point range for "
        "ratio = 1e+300, eta = 2.0",
        id=("argv11-error: inferred q2 lies outside the floating-point range for "
            "ratio = 1e+300, eta = 2.0")),
    pytest.param(
        ["crystal", "--nu1", "474e3", "--q2", "1e308"],
        "error: displacement ratio lies outside the floating-point range for "
        "eta = 1.0, q2 = 1e+308",
        id=("argv12-error: displacement ratio lies outside the floating-point range"
            " for eta = 1.0, q2 = 1e+308")),
    pytest.param(
        ["steady-state", "--drive-overrides", "7p12", "6s12", "waist_m", "abc"],
        "drive 7p12->6s12 field waist_m: expected a number, got 'abc'",
        id="argv13-drive 7p12->6s12 field waist_m: expected a number, got 'abc'"),
    pytest.param(
        ["steady-state", "--drive-overrides", "6p12", "6s12", "chopped", "maybe"],
        "unknown drive field 'chopped'; expected saturation, power_w, waist_m or "
        "detuning_hz",
        id=("argv14-unknown drive field 'chopped'; expected saturation, power_w, "
            "waist_m or detuning_hz")),
    pytest.param(
        ["verify-roundtrip", "--eta", "0.5", "--q2", "2.0", "--seeds", "3"],
        "eta must lie in the inference range [1, 10], got 0.5",
        id="argv15-eta must lie in the inference range [1, 10], got 0.5"),
    pytest.param(
        ["verify-roundtrip", "--eta", "10.5", "--q2", "2.0", "--seeds", "3"],
        "eta must lie in the inference range [1, 10], got 10.5",
        id="argv16-eta must lie in the inference range [1, 10], got 10.5"),
    pytest.param(
        ["fit-scan", "--data", "{curve}", "--saturation", "nan"],
        "saturation must be >= 0 and finite, got nan",
        id="argv17-saturation must be >= 0 and finite, got nan"),
    pytest.param(
        ["fit-scan", "--data", "{curve}", "--saturation", "inf"],
        "saturation must be >= 0 and finite, got inf",
        id="argv18-saturation must be >= 0 and finite, got inf"),
    pytest.param(
        ["xsec", "--model", "peach", "--limit", "98207.0", "--core-charge", BIG_INT],
        "error: core_charge^2 R lies outside the floating-point range for "
        f"core_charge = {BIG_INT}",
        id=("argv19-error: core_charge^2 R lies outside the floating-point range "
            f"for core_charge = {BIG_INT}")),
    pytest.param(
        ["xsec", "--model", "peach", "--limit", "nan"],
        "ionization_limit_cm1 must be finite, got nan",
        id="argv20-ionization_limit_cm1 must be finite, got nan"),
    pytest.param(
        ["scan", "--scheme", "linewidth_reference", "--grid", "-1e6", "1e6", "5",
         "--noise-sigma", "1e308", "--seed", "2"],
        "error: noisy signal lies outside the floating-point range for "
        "noise_sigma = 1e+308",
        id=("argv21-error: noisy signal lies outside the floating-point range for "
            "noise_sigma = 1e+308")),
    pytest.param(
        ["steady-state", "--drive-overrides", "6p12", "6s12", "power_w", "1e150",
         "--drive-overrides", "6p12", "6s12", "waist_m", "1e300"],
        "error: saturation parameter lies outside the floating-point range for "
        "power_w = 1e+150, waist_m = 1e+300",
        id=("argv22-error: saturation parameter lies outside the floating-point "
            "range for power_w = 1e+150, waist_m = 1e+300")),
    pytest.param(
        ["steady-state", "--drive-overrides", "fd32", "5d52", "waist_m", "1e-320",
         "--drive-overrides", "fd32", "5d52", "power_w", "1"],
        "error: saturation parameter lies outside the floating-point range for "
        "power_w = 1.0, waist_m = 1e-320",
        id=("argv23-error: saturation parameter lies outside the floating-point "
            "range for power_w = 1.0, waist_m = 1e-320")),
    pytest.param(
        ["simulate", "--rate", "4.1", "--trials", "2", "--seed", "1", "--chop-hz",
         "1e-300", "--max-time-s", "1.7976931348623157e308"],
        "error: max time plus two chop periods lies outside the floating-point range for "
        "max_time_s = 1.7976931348623157e+308, chop_rate_hz = 1e-300",
        id=("argv24-error: max time plus two chop periods lies outside the "
            "floating-point range for max_time_s = 1.7976931348623157e+308, "
            "chop_rate_hz = 1e-300")),
    pytest.param(
        ["ionize-rate", "--p7p", "1e-100", "--sigma-mb", "1e300", "--power-w", "1",
         "--waist-m", "1e148", "--wavelength-nm", "1e148"],
        "error: rate-per-power coefficient lies outside the floating-point range for "
        "p_excited = 1e-100, sigma_m2 = 1.0000000000000001e+278, "
        "wavelength_nm = 1e+148",
        id=("argv25-error: rate-per-power coefficient lies outside the "
            "floating-point range for p_excited = 1e-100, sigma_m2 = "
            "1.0000000000000001e+278, wavelength_nm = 1e+148")),
    pytest.param(
        ["xsec", "--model", "peach", "--limit", "98207.0", "--core-charge", "1" + "0" * 148],
        "error: smallest sum of squared residuals of the quantum-defect fit "
        "lies outside the floating-point range for limit_cm1 = 98207.0, "
        f"core_charge = {10**148}",
        id=("argv26-error: smallest sum of squared residuals of the quantum-defect "
            "fit lies outside the floating-point range for limit_cm1 = 98207.0, "
            f"core_charge = {10**148}")),
    pytest.param(
        ["xsec", "--model", "hydrogenic", "--limit", "1e306", "--wavelength-nm", "1e-300"],
        "error: smallest sum of squared residuals of the quantum-defect fit "
        "lies outside the floating-point range for limit_cm1 = 1e+306, "
        "core_charge = 2",
        id=("argv27-error: smallest sum of squared residuals of the quantum-defect "
            "fit lies outside the floating-point range for limit_cm1 = 1e+306, "
            "core_charge = 2")),
    pytest.param(
        ["xsec", "--model", "hydrogenic", "--limit", "1e148", "--wavelength-nm", "1e-308"],
        "error: photon energy in eV lies outside the floating-point range for "
        "wavelength_nm = 1e-308",
        id=("argv28-error: photon energy in eV lies outside the floating-point "
            "range for wavelength_nm = 1e-308")),
    # results that underflow to 0 name their inputs too
    pytest.param(
        ["crystal", "--nu1", "474e3", "--eta", "1e-200"],
        "error: equilibrium position X1 lies outside the floating-point range for "
        "nu1_hz = 474000.0, eta = 1e-200, q2 = 1.0",
        id=("argv29-error: equilibrium position X1 lies outside the floating-point "
            "range for nu1_hz = 474000.0, eta = 1e-200, q2 = 1.0")),
    pytest.param(
        ["crystal", "--nu1", "474e3", "--eta", "1e200"],
        "error: equilibrium position |X2| lies outside the floating-point range for "
        "nu1_hz = 474000.0, eta = 1e+200, q2 = 1.0",
        id=("argv30-error: equilibrium position |X2| lies outside the "
            "floating-point range for nu1_hz = 474000.0, eta = 1e+200, q2 = 1.0")),
    pytest.param(
        ["crystal", "--nu1", "474e3", "--q2", "1e-320"],
        "error: equilibrium position X1 lies outside the floating-point range for "
        "nu1_hz = 474000.0, eta = 1.0, q2 = 1e-320",
        id=("argv31-error: equilibrium position X1 lies outside the floating-point "
            "range for nu1_hz = 474000.0, eta = 1.0, q2 = 1e-320")),
    pytest.param(
        ["crystal", "--nu1", "474e3", "--eta", "2", "--q2", "2",
         "--invert-from-ratio", "1e-300"],
        "error: inferred q2 lies outside the floating-point range for "
        "ratio = 1e-300, eta = 2.0",
        id=("argv32-error: inferred q2 lies outside the floating-point range for "
            "ratio = 1e-300, eta = 2.0")),
    pytest.param(
        ["crystal", "--nu1", "474e3", "--eta", "1e154"],
        "error: mode frequency nu_com lies outside the floating-point range for "
        "nu1_hz = 474000.0, eta = 1e+154", id="crystal-eta-1e154"),
    # nu_com underflows to 0 while both positions stay representable
    pytest.param(
        ["crystal", "--nu1", "1e-300", "--eta", "1e-77"],
        "error: mode frequency nu_com lies outside the floating-point range for "
        "nu1_hz = 1e-300, eta = 1e-77", id="crystal-nu-com-underflows"),
    # photoion results whose factors are all positive but that underflow to 0
    pytest.param(
        ["xsec", "--model", "burgess", "--limit", "98207.0", "--wavelength-nm", "1e-300"],
        "error: cross section lies outside the floating-point range for "
        "n_star = 1.7834560120675202, photon_energy_ev = 1.2398419843320004e+303",
        id="xsec-sigma-underflows"),
    pytest.param(
        ["ionize-rate", "--p7p", "1e-300", "--sigma-mb", "1e-300", "--power-w", "1e-300",
         "--waist-m", "1", "--wavelength-nm", "245"],
        "error: ionization rate p_excited * sigma * flux lies outside the "
        "floating-point range for p_excited = 1e-300, sigma_m2 = 1e-322, "
        "flux_m2s = 7.85180445108723e-283",
        id="ionize-rate-rate-underflows"),
    pytest.param(
        ["ionize-rate", "--p7p", "1e-288", "--sigma-mb", "1", "--power-w", "1e100",
         "--waist-m", "1e-100", "--wavelength-nm", "1e-30"],
        "error: rate-per-power coefficient lies outside the floating-point range "
        "for p_excited = 1e-288, sigma_m2 = 1e-22, wavelength_nm = 1e-30",
        id="ionize-rate-coefficient-underflows"),
    pytest.param(
        ["ionize-rate", "--p7p", "0.5", "--sigma-mb", "5", "--power-w", "1e-300",
         "--waist-m", "1", "--wavelength-nm", "1e-300"],
        "error: photon flux lies outside the floating-point range for "
        "power_w = 1e-300, waist_m = 1.0, wavelength_nm = 1e-300",
        id="ionize-rate-flux-underflows"),
    pytest.param(
        [a.replace("5.5", "1e-310") for a in IONIZE],
        "error: cross section in m^2 lies outside the floating-point range for "
        "value_mb = 1e-310",
        id="ionize-rate-sigma-underflows"),
])
def test_out_of_range_values_exit_two_without_warning(argv, names, curve_file, capsys,
                                                      recwarn):
    assert main([arg.replace("{curve}", str(curve_file)) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err
    assert err.count("\n") == 1 and "Traceback" not in err
    # a row that gives the whole line, as every unrepresentable result does
    if names.startswith("error: "):
        assert err == names + "\n"
    assert not [str(w.message) for w in recwarn]


# Finite inputs whose intermediate squares overflow: a detuning so far off
# resonance that the drive rate is 0, and spreads near the floating-point
# limit, whose standard deviations are taken on scaled values.
@pytest.mark.parametrize("argv,key", [
    (["scan", "--scheme", "linewidth_reference", "--grid", "-1e300", "0.5", "5"],
     "signal"),
    (["steady-state", "--drive-overrides", "7p12", "5d32", "detuning_hz", "1e300"],
     "population"),
    (["verify-roundtrip", "--eta", "2", "--q2", "1e200", "--nu1", "1e200",
      "--seeds", "3"], "q2_std"),
    (["simulate", "--rate", "474e3", "--duty", "1e-300", "--chop-hz", "1e-300",
      "--trials", "3", "--seed", "1", "--max-time-s", "1.7e308",
      "--failure-prob", "1e-5"], "ci95_high_s"),
    # the same noise sigma as the seed 2 row above, whose draws stay finite
    (["scan", "--scheme", "linewidth_reference", "--grid", "-1e6", "1e6", "5",
      "--noise-sigma", "1e308", "--seed", "1"], "signal"),
])
def test_overflowing_intermediates_exit_zero_without_warning(argv, key, capsys,
                                                             recwarn):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert not [str(w.message) for w in recwarn]
    tokens = (out + err).split()
    assert key in tokens
    assert not {"nan", "inf", "-inf"} & {t.lower() for t in tokens}


# -- every numeric flag of every subcommand ---------------------------------------

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10, max_value=10),
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-320", "1e308", "x", "-nan",
                     "-Infinity", "-1_000", "-5."]),
).map(str)
# The limits of the float range, so that several flags of one example can sit
# at them together.
EXTREMES = st.sampled_from([
    "0", "5e-324", "-5e-324", "1e-300", "-1e-300", "1e148", "-1e148", "1e300",
    "-1e300", repr(sys.float_info.max), repr(-sys.float_info.max), "nan", "inf",
    "-inf",
])
VALUES = st.one_of(NUMBERS, st.just(BIG_INT), EXTREMES)
DRIVES = st.sampled_from([("6p12", "6s12"), ("7p12", "5d32"), ("fd32", "5d52")])
FIELDS = st.sampled_from(["saturation", "power_w", "waist_m", "detuning_hz", "chopped"])

# subcommand -> (fixed argv, required flags, optional flags); a flag maps to
# the strategies of its values. The flags in FIXED name files or levels. The
# counts (--trials, --seeds, the grid's POINTS) parse only as integers, so
# VALUES keeps them at 10 or below, and exit 1 above their caps.
WHOLE_CLI = {
    "steady-state": (["steady-state"], {}, {
        "--saturate-all": [VALUES], "--drive-overrides": [DRIVES, FIELDS, VALUES]}),
    "ionize-rate": (["ionize-rate"], {
        "--p7p": [VALUES], "--sigma-mb": [VALUES], "--power-w": [VALUES],
        "--waist-m": [VALUES], "--wavelength-nm": [VALUES]}, {}),
    "xsec": (["xsec"], {
        "--model": [st.sampled_from(["hydrogenic", "burgess", "peach"])],
        "--limit": [VALUES]}, {
        "--ell": [VALUES], "--core-charge": [VALUES], "--wavelength-nm": [VALUES]}),
    "crystal": (["crystal"], {"--nu1": [VALUES]}, {
        "--eta": [VALUES], "--q2": [VALUES],
        "--invert-from-mode": [VALUES, st.sampled_from(["com", "bre"])],
        "--invert-from-ratio": [VALUES]}),
    "scan": (["scan", "--scheme", "linewidth_reference"],
             {"--grid": [VALUES, VALUES, VALUES]},
             {"--noise-sigma": [VALUES], "--seed": [VALUES]}),
    "fit-scan": (["fit-scan", "--data", "{curve}"], {}, {"--saturation": [VALUES]}),
    "simulate": (["simulate"], {
        "--rate": [VALUES], "--trials": [VALUES], "--seed": [VALUES]}, {
        "--duty": [VALUES], "--chop-hz": [VALUES], "--max-time-s": [VALUES],
        "--failure-prob": [VALUES]}),
    "verify-roundtrip": (["verify-roundtrip"], {"--eta": [VALUES], "--q2": [VALUES]}, {
        "--nu1": [VALUES], "--noise": [VALUES, VALUES], "--seeds": [VALUES],
        "--seed-base": [VALUES], "--tolerance": [VALUES]}),
}


@st.composite
def cli_argv(draw, name):
    fixed, required, optional = WHOLE_CLI[name]
    argv = list(fixed)
    for flag, values in [*required.items(), *optional.items()]:
        if flag in required or draw(st.booleans()):
            argv.append(flag)
            for value in values:
                drawn = draw(value)
                argv += drawn if isinstance(drawn, tuple) else [drawn]
    return argv


FIXED = {"-h", "--out", "--scheme", "--series", "--data", "--upper", "--lower"}


def test_whole_cli_draws_every_numeric_flag():
    for name, sub in subparsers().items():
        _, required, optional = WHOLE_CLI[name]
        flags = {a.option_strings[0] for a in sub._actions if a.option_strings}
        assert flags - FIXED == required.keys() | optional.keys(), name


def run_without_warnings(argv):
    """run_cli with warnings as errors inside the run only: under a
    filterwarnings mark the filter also covers hypothesis' failure report,
    whose imports warn and abort the whole session instead of failing the
    test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(argv)


def assert_exits_cleanly(code, out, err):
    """Exit 0, 1 or 2 without a traceback; a domain error is one line, and a
    success prints no non-finite number."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if code == 0:
        tokens = {token.lower() for token in out.split()}
        assert not tokens & {"nan", "inf", "-inf"}, out


@given(argv=st.one_of([cli_argv(name) for name in sorted(WHOLE_CLI)]))
@example(argv=["fit-scan", "--data", "{curve}", "--saturation", "nan"])
@example(argv=["fit-scan", "--data", "{curve}", "--saturation", "inf"])
@example(argv=["xsec", "--model", "peach", "--limit", "98207.0",
               "--core-charge", BIG_INT])
@example(argv=["xsec", "--model", "peach", "--limit", "nan"])
@example(argv=["scan", "--scheme", "linewidth_reference", "--grid", "-1e6", "1e6",
               "5", "--noise-sigma", "1e308", "--seed", "2"])
@example(argv=["scan", "--scheme", "linewidth_reference", "--grid", "-1e300", "0.5",
               "5"])
@example(argv=["scan", "--scheme", "linewidth_reference", "--grid", "1e308", "1.7e308",
               "3", "--noise-sigma", "1e308", "--seed", "3"])
@example(argv=["scan", "--scheme", "linewidth_reference", "--grid",
               "-1.7976931348623157e+308", "0.0", "4"])
@example(argv=["simulate", "--rate", "474e3", "--trials", "10", "--seed", "1"])
@example(argv=["simulate", "--rate", "1e-300", "--trials", "3", "--seed", "0"])
@example(argv=IONIZE)
# a subnormal rate, which ldexp rounds
@example(argv=["ionize-rate", "--p7p", "1e-20", "--sigma-mb", "5.5",
               "--power-w", "1e-300", "--waist-m", "1e-5", "--wavelength-nm", "245.426"])
@settings(max_examples=300, deadline=None)
def test_every_subcommand_exits_cleanly(argv, curve_file):
    argv = [arg.replace("{curve}", str(curve_file)) for arg in argv]
    code, out, err = run_without_warnings(argv)
    assert_exits_cleanly(code, out, err)
    if code == 0 and argv[0] in TABLE_CHECKS:
        TABLE_CHECKS[argv[0]](argv, out, err)


def flag_value(argv, flag):
    """The float of a flag's value as the command line reads it."""
    return float(argv[argv.index(flag) + 1])


def check_simulate_summary(argv, out, err):
    # the summary table follows the manifest on stderr
    stats = dict(line.split("\t") for line in err.partition("statistic\tvalue\n")[2]
                 .splitlines())
    n_runs, n_events = int(stats["n_runs"]), int(stats["n_events"])
    fraction = float(stats["success_fraction"])
    assert fraction == n_events / n_runs
    assert 0.0 <= fraction <= 1.0
    bounds = [stats[k] for k in ("ci95_low_s", "mean_s", "ci95_high_s")]
    if "NA" not in bounds:
        low, mean, high = map(float, bounds)
        assert low <= mean <= high


# _product rounds the product of the three mantissas twice, each time by at
# most 2**-53 relative; scaling by the exponents is exact unless the result
# is subnormal, where it rounds by at most half the smallest subnormal.
PRODUCT_REL_BOUND = (1 + Fraction(1, 2**53)) ** 2 - 1
PRODUCT_ABS_BOUND = Fraction(1, 2**1075)


def check_ionize_rate_product(argv, out, err):
    table = {row[0]: row[1] for row in (line.split("\t") for line in out.splitlines())}
    sigma_m2 = flag_value(argv, "--sigma-mb") * 1e-22  # as CrossSection.from_megabarn
    exact = (Fraction(flag_value(argv, "--p7p")) * Fraction(sigma_m2)
             * Fraction(float(table["photon_flux"])))
    rate = Fraction(float(table["ionization_rate"]))
    assert abs(rate - exact) <= PRODUCT_REL_BOUND * exact + PRODUCT_ABS_BOUND


# exit-0 tables whose values must agree with one another
TABLE_CHECKS = {"simulate": check_simulate_summary,
                "ionize-rate": check_ionize_rate_product}


# -- every scheme shape ------------------------------------------------------------

# A lifetime absent, tiny or huge.
SHAPE_LIFETIMES = st.sampled_from([None, 5e-324, 1e-300, 8e-9, 1.0, 1e300,
                                   sys.float_info.max])
SHAPE_ENERGIES = st.one_of(st.floats(min_value=5e-324, max_value=1e5),
                           st.sampled_from([1e-300, 1e-10, 1e300, sys.float_info.max]))
# scan monitors 6p12 -> 6s12, so the levels carry the bundled labels
SHAPE_LABELS = ("6s12", "6p12", "5d32", "7p12")


@st.composite
def scheme_shapes(draw):
    """(scheme text, scan's drive flags) of a small scheme: 1 to 4 levels,
    the first at energy 0, each decay and drive between two of them present
    or absent, a level's decays splitting its ratio evenly. The flags name
    the first drive, if there is one, else scan's default drive."""
    n = draw(st.integers(min_value=1, max_value=4))
    energies = [0.0, *draw(st.lists(SHAPE_ENERGIES, min_size=n - 1, max_size=n - 1))]
    labels = SHAPE_LABELS[:n]
    levels = []
    for label, energy in zip(labels, energies):
        lifetime = draw(SHAPE_LIFETIMES)
        lifetime = "-" if lifetime is None else repr(lifetime)
        levels.append(f"{label} x 0.5 {energy!r} {lifetime}")
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(n)
             if energies[i] > energies[j]]
    decays, drives = [], []
    for label in labels:
        chosen = [pair for pair in pairs if pair[0] == label and draw(st.booleans())]
        share = draw(st.sampled_from([1.0, 0.5])) / max(len(chosen), 1)
        decays += [f"{upper} {lower} {share!r}" for upper, lower in chosen]
    for upper, lower in pairs:
        if draw(st.booleans()):
            gap = energies[labels.index(upper)] - energies[labels.index(lower)]
            saturation = draw(st.sampled_from([0.0, 1e-2, 1.0, 1e4, 1e300]))
            detuning = draw(st.sampled_from([0.0, 1e6]))
            strength = f"- - {saturation!r} {detuning!r} 0"
            drives.append((upper, lower, f"{1e7 / gap!r} {strength}"))
    text = "\n".join(["[LEVELS]", *levels, "[DECAYS]", *decays, "[DRIVES]",
                      *(" ".join(drive) for drive in drives), ""])
    return text, ["--upper", drives[0][0], "--lower", drives[0][1]] if drives else []


@seed(174)
@given(shape=scheme_shapes())
@example(shape=("[LEVELS]\ng x 0.5 0.0 -\n", []))
@settings(max_examples=150, deadline=None)
def test_every_scheme_shape_exits_cleanly(shape, tmp_path_factory):
    text, scan = shape
    path = tmp_path_factory.getbasetemp() / "shape.scheme"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_without_warnings(["steady-state", "--scheme", str(path)])
    assert_exits_cleanly(code, out, err)
    if code == 0:
        (residual,) = [line.partition(": ")[2] for line in err.splitlines()
                       if line.startswith("diag.steady_residual: ")]
        assert math.isfinite(float(residual))
    assert_exits_cleanly(*run_without_warnings(
        ["scan", "--scheme", str(path), *scan, "--grid", "-1e6", "1e6", "5"]))


# -- every numeric field of the data files ------------------------------------------

# Strings float() and int() refuse; none of them turns its row into a comment.
JUNK = st.sampled_from(["x", "1e", "0x10", "1,5", "--", "", "1 2", "nan(1)", "1e5e5"])
# An integer beyond the float range.
HUGE_INT = "1" + "0" * 400


def number_fields(text, columns):
    """(line number, column, kind) of each number of a data file. columns
    maps a header line's first cell, or "" for no header, to the (column,
    kind) pairs of the numbers on the data lines below it."""
    fields, numbers = [], columns.get("")
    for n, line in enumerate(text.splitlines(), start=1):
        cells = line.split()
        if not cells or cells[0].startswith("#"):
            continue
        if cells[0] in columns:
            numbers = columns[cells[0]]
        else:
            fields += [(n, column, kind) for column, kind in numbers]
    return fields


def with_field(text, n, column, value):
    """text with cell `column` of line n (a quoted string is one cell)
    replaced by the raw string value; the separators stay as they were."""
    lines = text.splitlines()
    parts = re.split(r'("[^"]*"|\S+)', lines[n - 1])
    parts[2 * column + 1] = value
    lines[n - 1] = "".join(parts)
    return "\n".join(lines) + "\n"


def refused(value, kind):
    """Whether a reader must refuse value as a number of this kind."""
    try:
        return not -math.inf < float(kind(value)) < math.inf
    except (ValueError, OverflowError):
        return True


# file -> first cell of a header line ("" for none) -> (column, kind) of each
# number on the data lines below it
NUMBER_COLUMNS = {
    "scheme": {
        "[SCHEME]": [(1, float)],
        "[LEVELS]": [(2, float), (3, float), (4, float)],
        "[DECAYS]": [(2, float)],
        "[DRIVES]": [(column, float) for column in range(2, 7)],
    },
    "series": {"": [(0, int), (1, float)]},
    "curve": {"detuning_hz": [(0, float), (1, float)]},
}


@pytest.fixture(scope="module")
def data_files(curve_file, tmp_path_factory):
    """file -> (source path, path of the edited copy, commands reading the
    copy) for the linewidth reference scheme given an ionization limit, the
    bundled series and the README scan curve."""
    root = tmp_path_factory.mktemp("fields")
    scheme = bundled_scheme_path("linewidth_reference").read_text(encoding="utf-8")
    (root / "source.scheme").write_text(
        scheme.replace("[SCHEME]\n", "[SCHEME]\nionization_limit_cm1 98207.0\n"),
        encoding="utf-8")
    sources = {"scheme": str(root / "source.scheme"), "series": bundled_series_path(),
               "curve": str(curve_file)}
    copies = {name: str(root / f"edited.{name}") for name in sources}
    commands = {
        "scheme": [["steady-state", "--scheme", copies["scheme"]],
                   ["scan", "--scheme", copies["scheme"], "--grid", "-60e6", "60e6",
                    "21"]],
        "series": [["xsec", "--model", model, "--limit", "98207.0", "--series",
                    copies["series"]] for model in ("hydrogenic", "burgess", "peach")],
        "curve": [["fit-scan", "--data", copies["curve"]]],
    }
    return {name: (sources[name], copies[name], commands[name]) for name in sources}


def test_data_files_expose_every_number(data_files):
    counts = {name: len(number_fields(Path(source).read_text(encoding="utf-8"),
                                      NUMBER_COLUMNS[name]))
              for name, (source, _, _) in data_files.items()}
    assert counts == {"scheme": 1 + 4 * 3 + 4 + 2 * 5, "series": 2 * 2, "curve": 241 * 2}


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_every_number_of_the_data_files_exits_cleanly(data, data_files):
    name = data.draw(st.sampled_from(sorted(data_files)))
    source, copy, commands = data_files[name]
    text = Path(source).read_text(encoding="utf-8")
    n, column, kind = data.draw(st.sampled_from(number_fields(text, NUMBER_COLUMNS[name])))
    value = data.draw(st.one_of(EXTREMES, NUMBERS, JUNK,
                                st.sampled_from([BIG_INT, HUGE_INT])))
    Path(copy).write_text(with_field(text, n, column, value), encoding="utf-8")
    code, out, err = run_without_warnings(data.draw(st.sampled_from(commands)))
    assert_exits_cleanly(code, out, err)
    if refused(value, kind):
        assert code == 2 and err.startswith(f"error: line {n}: "), err


@pytest.mark.parametrize("name", ["scheme", "series", "curve"])
def test_data_files_that_are_not_utf8_exit_two(data_files, name):
    # ff fe is a UTF-16 byte-order mark and no UTF-8 text starts with it
    source, copy, commands = data_files[name]
    Path(copy).write_bytes(b"\xff\xfe" + Path(source).read_bytes())
    code, out, err = run_without_warnings(commands[0])
    assert_exits_cleanly(code, out, err)
    assert (code, out) == (2, "")
    assert err == f"error: {copy}: not UTF-8 text at byte 0\n"


def write_edited(data_files, name, edits):
    """Write the copy of data_files[name] with cell `column` of the first
    line holding marker set to value, for each (marker, column, value) of
    edits; returns the edited line numbers."""
    source, copy, _ = data_files[name]
    text = Path(source).read_text(encoding="utf-8")
    lines = []
    for marker, column, value in edits:
        n = next(n for n, line in enumerate(text.splitlines(), start=1) if marker in line)
        text = with_field(text, n, column, value)
        lines.append(n)
    Path(copy).write_text(text, encoding="utf-8")
    return lines


def edited_run(data_files, name, marker, column, value, command=0):
    """Run a command of data_files[name] on the file with cell `column` of
    the line holding marker set to value; returns (line number, code, out,
    err)."""
    (n,) = write_edited(data_files, name, [(marker, column, value)])
    return (n, *run_without_warnings(data_files[name][2][command]))


@pytest.mark.parametrize("name,marker,column,value,rule", [
    ("scheme", '"reference probed"', 3, "nan", "energy must be finite"),
    ("scheme", '"reference probed"', 4, "nan", "lifetime must be finite"),
    ("scheme", '"reference probed"', 4, "inf", "lifetime must be finite"),
    ("scheme", '"reference shelf"', 2, "nan", "J must be finite"),
    ("scheme", "ionization_limit_cm1", 1, "nan", "ionization_limit_cm1 must be finite"),
    ("series", "63706.28", 1, "nan", "energy must be finite"),
    ("series", "63706.28", 0, HUGE_INT,
     "n must be an integer in the floating-point range"),
])
def test_non_finite_file_numbers_exit_two_naming_line_and_field(
        data_files, name, marker, column, value, rule):
    n, code, out, err = edited_run(data_files, name, marker, column, value)
    assert (code, out) == (2, "")
    assert err == f"error: line {n}: {rule}, got {value!r}\n"


PROBE_DRIVE = "7p12   5d32   245.426   -  -  0.02  0.0  1\n"


@pytest.mark.parametrize("old,new,error", [
    (PROBE_DRIVE, PROBE_DRIVE * 2, "error: duplicate drive 7p12<->5d32\n"),
    ("[SCHEME]\n", "[SCHEME]\nionization_limit_cm1 1.0\nionization_limit_cm1 98207.0\n",
     "error: line 21: duplicate scheme key: ionization_limit_cm1\n"),
], ids=["duplicate-drive", "repeated-scheme-key"])
def test_repeated_scheme_entries_exit_two_with_one_line(old, new, error, tmp_path):
    # a second probe row used to load and double the 7p12<-5d32 rate; a
    # second key used to replace the first silently
    text = bundled_scheme_path("linewidth_reference").read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / "repeated.scheme"
    path.write_text(text.replace(old, new), encoding="utf-8")
    assert run_without_warnings(["steady-state", "--scheme", str(path)]) == (2, "", error)


# Finite numbers whose drive rate S / (2 lifetime) or natural linewidth
# 1 / (2 pi lifetime) leaves the floating-point range.
@pytest.mark.parametrize("marker,column,value,command", [
    ('"reference relay"', 4, "1e308", 0),
    ("7p12   5d32", 5, "1e308", 1),
])
def test_drive_rates_outside_the_float_range_exit_two(data_files, marker, column,
                                                      value, command):
    _, code, _, err = edited_run(data_files, "scheme", marker, column, value, command)
    assert code == 2
    assert err == {
        '"reference relay"': "error: drive 6p12<->6s12 natural linewidth lies outside "
                             "the floating-point range for lifetime_s = 1e+308\n",
        "7p12   5d32": "error: drive 7p12<->5d32 peak rate S / (2 lifetime) lies "
                       "outside the floating-point range for saturation = 1e+308, "
                       "lifetime_s = 1.35e-08\n",
    }[marker]


# The level the lifetime of each [LEVELS] line belongs to, and the marker of
# each [DRIVES] line; column 4 is a lifetime and column 5 a saturation.
LIFETIMES = {'"reference ground"': "6s12", '"reference shelf"': "5d32",
             '"reference relay"': "6p12", '"reference probed"': "7p12"}
DRIVES = ["370.3704", "245.426"]
# Out-rates that sum past the float range: 6p12 at 6e-309 s driven at
# saturation 1 has three out-rates of about 8.3e307, and 5d32 at 1e-309 s
# one decay rate beyond it.
OUT_RATE_OVERFLOWS = [('"reference relay"', "6e-309", "370.3704", "1"),
                      ('"reference shelf"', "1e-309", "370.3704", "1e4")]


@pytest.mark.parametrize("command", [0, 1], ids=["steady-state", "scan"])
@pytest.mark.parametrize("level,lifetime,drive,saturation", OUT_RATE_OVERFLOWS,
                         ids=["6p12-sum", "5d32-decay"])
def test_out_rates_past_the_float_range_exit_two_naming_the_level(
        data_files, level, lifetime, drive, saturation, command):
    # the axis-0 sum used to warn of an overflow before an unnamed refusal
    write_edited(data_files, "scheme", [(level, 4, lifetime), (drive, 5, saturation)])
    assert run_without_warnings(data_files["scheme"][2][command]) == (
        2, "", f"error: level {LIFETIMES[level]} out-rate lies outside the "
               f"floating-point range for lifetime_s = {lifetime}\n")


@given(level=st.sampled_from(sorted(LIFETIMES)),
       lifetime=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       drive=st.sampled_from(DRIVES),
       saturation=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       command=st.sampled_from([0, 1]))
@example(level='"reference relay"', lifetime=6e-309, drive="370.3704", saturation=1.0,
         command=0)
@example(level='"reference relay"', lifetime=6e-309, drive="370.3704", saturation=1.0,
         command=1)
@example(level='"reference shelf"', lifetime=1e-309, drive="370.3704", saturation=1e4,
         command=0)
@example(level='"reference shelf"', lifetime=1e-309, drive="370.3704", saturation=1e4,
         command=1)
@settings(max_examples=200, deadline=None)
def test_scheme_lifetime_and_saturation_extremes_exit_cleanly(
        data_files, level, lifetime, drive, saturation, command):
    write_edited(data_files, "scheme",
                 [(level, 4, repr(lifetime)), (drive, 5, repr(saturation))])
    code, out, err = run_without_warnings(data_files["scheme"][2][command])
    assert_exits_cleanly(code, out, err)
    assert code in (0, 2)


@pytest.mark.parametrize("edge,peak", [(1.5e308, 1.7e308), (1e308, 1e308)])
def test_fit_scan_near_the_float_limit_prints_finite_numbers(edge, peak, tmp_path):
    # the median of the edge samples averaged two samples whose sum
    # overflowed, so the table printed offset inf and amplitude -inf
    signal = [edge] * 21
    signal[10] = peak
    path = tmp_path / "curve.tsv"
    path.write_text("".join(f"{d!r}\t{y!r}\n" for d, y in zip(
        np.linspace(-1e6, 1e6, 21).tolist(), signal)), encoding="utf-8")
    code, out, err = run_without_warnings(["fit-scan", "--data", str(path)])
    assert_exits_cleanly(code, out, err)
    assert code == 0 and value_map(out)["offset"] == repr(edge)


def test_fit_scan_refuses_a_lifetime_beyond_the_float_range(tmp_path):
    # sqrt(1 + 1e300) / (2 pi 1e-299 Hz) is about 1.6e448 s; it used to print inf
    nu = np.linspace(-60.0, 60.0, 241) * 1e-300
    path = tmp_path / "curve.tsv"
    path.write_text(curve_to_text(ScanCurve(nu, lorentzian(nu, 0.0, 1e-299, 1.0, 0.0))),
                    encoding="utf-8")
    code, out, err = run_without_warnings(["fit-scan", "--data", str(path),
                                           "--saturation", "1e300"])
    assert_exits_cleanly(code, out, err)
    assert code == 2
    assert err.startswith("error: lifetime sqrt(1 + S) / (2 pi fwhm) lies outside the "
                          "floating-point range for fwhm_hz = ")
    assert err.endswith(", saturation = 1e+300\n")


MAGNITUDES = st.integers(-300, 300).map(lambda e: 10.0 ** e)


@st.composite
def fit_curves(draw):
    """(detunings, signal) of a loadable curve of 8 to 50 points: flat,
    near-flat (one or two points raised by at most 1 ppm) or a Lorentzian
    plus clamped noise, with both axes scaled by 1e-300 to 1e300."""
    n = draw(st.integers(MIN_FIT_POINTS, 50))
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    grid = np.cumsum(gaps) - draw(st.floats(0.0, 1.0)) * sum(gaps)
    nu, scale = grid * draw(MAGNITUDES), draw(MAGNITUDES)
    shape = draw(st.sampled_from(["flat", "near-flat", "lorentzian"]))
    y = np.ones(n)
    if shape == "near-flat":
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
            y[i] += draw(st.floats(0.0, 1e-6))
    elif shape == "lorentzian":
        fwhm = draw(st.floats(1e-3, 10.0)) * (grid[-1] - grid[0])
        y = lorentzian(grid, draw(st.floats(grid[0], grid[-1])), fwhm,
                       draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        y = np.clip(y + rng.normal(0.0, draw(st.floats(0.0, 0.1)), n), 0.0, None)
    return tuple(nu.tolist()), tuple((y * scale).tolist())


# The curve of the ZeroDivisionError once raised by a trial step at width 0.0.
ZERO_WIDTH_TRIAL = (
    (-94336.0657709074, -75143.34470008721, -40057.62189252304, -23264.489147623317,
     -15462.555760468313, 23077.02229625077, 29437.902314850013, 34124.88293872608),
    (1e-155, 1e-155, 1e-155, 1.0000009808353387e-155, 1e-155, 1e-155, 1e-155,
     1.0000006855419844e-155),
)


@pytest.fixture(scope="module")
def drawn_curve_path(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn") / "curve.tsv"


@given(curve=fit_curves())
@example(curve=ZERO_WIDTH_TRIAL)
@settings(max_examples=200, deadline=None)
def test_fit_scan_ends_cleanly_on_any_loadable_curve(curve, drawn_curve_path):
    scan = ScanCurve(*curve)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fit_lorentzian(scan)
        except SolverError:
            pass
    drawn_curve_path.write_text(curve_to_text(scan), encoding="utf-8")
    code, out, err = run_without_warnings(["fit-scan", "--data", str(drawn_curve_path)])
    assert code in (0, 2)
    assert_exits_cleanly(code, out, err)


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


def test_simulate_refuses_a_statistic_beyond_the_float_range(tmp_path):
    # the two event times, about 1.66e308 and 6.25e307, sum past the largest
    # float, so mean_s has none; numpy's overflow warning must not escape
    argv = ["simulate", "--rate", "1.2e-308", "--duty", "1", "--chop-hz", "1e-300",
            "--trials", "2", "--seed", "5", "--max-time-s", "1.7e308"]
    src = str(Path(sys.modules["ybion"].__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "ybion.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: mean_s lies outside the floating-point range for rate_per_s = 1.2e-308, "
        "ionization_duty = 1.0, chop_rate_hz = 1e-300, max_time_s = 1.7e+308\n")


@pytest.mark.parametrize("argv,names", [
    (["simulate", "--rate", "nan", "--trials", "5", "--seed", "1"],
     "ionization rate"),
    (["simulate", "--rate", "4.1", "--max-time-s", "nan", "--trials", "5",
      "--seed", "1"], "max time"),
    (["verify-roundtrip", "--eta", "nan", "--q2", "2.0"], "eta"),
    ([a.replace("5.5", "nan") for a in IONIZE], "cross section must be >= 0 and finite, got nan"),
    ([a.replace("1e-4", "inf") for a in IONIZE], "beam power must be >= 0 and finite, got inf"),
])
def test_non_finite_values_are_domain_errors(argv, names, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,flag", [
    (["simulate", "--rate", "4.1", "--trials", "5", "--seed", "-1"], "--seed"),
    (["verify-roundtrip", "--eta", "2.1", "--q2", "2.0", "--seed-base", "-5"],
     "--seed-base"),
    (["verify-roundtrip", "--eta", "2.1", "--q2", "2.0", "--seeds", "0"],
     "--seeds"),
    (["scan", "--grid", "0", "1", "3", "--seed", "-2"], "--seed"),
])
def test_seed_flags_reject_bad_integers(argv, flag, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "Traceback" not in err


def test_simulate_trial_count_is_capped_at_parse_time(capsys):
    # parsing only: a count above the cap must never reach the simulation
    parser = build_parser()
    base = ["simulate", "--rate", "4.1", "--seed", "1", "--trials"]
    assert parser.parse_args(base + [str(MAX_TRIALS)]).trials == MAX_TRIALS
    for text in (str(MAX_TRIALS + 1), "10**12", "1000000000000", "0"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(base + [text])
        assert exc.value.code == 1
        assert "argument --trials:" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        parser.parse_args(["simulate", "--help"])
    assert f"1 to {MAX_TRIALS}" in capsys.readouterr().out


def test_verify_roundtrip_seed_count_is_capped_at_parse_time(capsys):
    # parsing only: a count above the cap must never reach the seed loop
    parser = build_parser()
    base = ["verify-roundtrip", "--eta", "2.1", "--q2", "2.0", "--seeds"]
    assert parser.parse_args(base + [str(MAX_SEEDS)]).seeds == MAX_SEEDS
    for text in (str(MAX_SEEDS + 1), "10**12", "1000000000000", BIG_INT):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(base + [text])
        assert exc.value.code == 1
        assert "argument --seeds:" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        parser.parse_args(["verify-roundtrip", "--help"])
    assert f"1 to {MAX_SEEDS}" in " ".join(capsys.readouterr().out.split())


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


def simulate_tables(argv, tmp_path):
    """simulate's table as written to --out and as written to stdout."""
    out = tmp_path / "runs.tsv"
    assert main(argv + ["--out", str(out)]) == 0
    code, stdout, _ = run_cli(argv)
    assert code == 0
    return out.read_bytes(), stdout.encode()


@pytest.mark.parametrize("trials", [1, BLOCK_TRIALS - 1, BLOCK_TRIALS, BLOCK_TRIALS + 1,
                                    123457])
def test_simulate_writes_the_export_table_a_block_at_a_time(trials, tmp_path):
    argv = ["simulate", "--rate", "0.3", "--failure-prob", "0.002", "--seed", "11",
            "--trials", str(trials)]
    config = SequenceConfig(rate_per_s=0.3, max_time_s=10.0, rng_seed=11,
                            failure_prob=0.002)
    expected = runs_to_text(simulate_ionization_times(config, trials)).encode()
    assert simulate_tables(argv, tmp_path) == (expected, expected)
    if trials > 1:
        times = [row[1] for row in rows_of(expected.decode())[1]]
        assert "NA" in times and times.count("NA") < len(times)


@pytest.mark.parametrize("argv,digest", [
    (["simulate", "--rate", "4.1", "--duty", "0.5", "--trials", "100000", "--seed", "1"],
     "90c35a3664797671c6e546a63bc0d350335febbc818f55682f783c871cff03da"),
    (["simulate", "--rate", "0.3", "--failure-prob", "0.02", "--trials",
      str(2 * BLOCK_TRIALS + 5), "--seed", "7"],
     "3608f0e56adb2f49848cafd2fff98e9c9be9a868c6e0acd31f1f4c90e8007da2"),
    (["simulate", "--rate", "4.1", "--duty", "0.5", "--trials", "123457", "--seed", "1"],
     "08b5283631afcd71d8d94253142f1c1a89ac4956be943d9620060310e30e4b9b"),
], ids=["readme", "failures", "partial-block"])
def test_simulate_table_bytes_are_pinned(argv, digest, tmp_path):
    # frozen from the release that built the whole table before writing it
    for table in simulate_tables(argv, tmp_path):
        assert hashlib.sha256(table).hexdigest() == digest


def test_simulate_memory_stays_bounded_at_a_million_trials(tmp_path):
    # The peak is read from VmHWM in the child itself: getrusage's
    # ru_maxrss of a child starts from its parent's RSS through fork/exec.
    # Building the whole table in memory peaked at about 272 MB here, and
    # joining the blocks into one string before writing grew the peak by
    # about 72 MB over the import. ybion loads numpy on first use, so numpy
    # is executed (by touching numpy.ndarray) before the baseline is read.
    if not Path("/proc/self/status").is_file():
        pytest.skip("VmHWM is read from /proc/self/status")
    script = (
        "import ybion.cli\n"
        "import numpy\n"
        "numpy.ndarray\n"
        "def peak_kb():\n"
        "    status = open('/proc/self/status').read().splitlines()\n"
        "    return next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
        "imported = peak_kb()\n"
        "code = ybion.cli.main(['simulate', '--rate', '4.1', '--duty', '0.5', "
        "'--trials', '1000000', '--seed', '1', '--out', 'runs.tsv'])\n"
        "print(code, imported, peak_kb())\n"
    )
    src = str(Path(sys.modules["ybion"].__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, imported_kb, peak_kb = proc.stdout.splitlines()[-1].split()
    assert code == "0"
    assert int(peak_kb) < 120 * 1024
    assert int(peak_kb) - int(imported_kb) < 64 * 1024
    digest = hashlib.sha256((tmp_path / "runs.tsv").read_bytes()).hexdigest()
    assert digest == "e3c29e1889ccda08c0eab2d537b7935f370e2189fc71cd2a998da649f15e2af9"


def simulate_diag(argv, tmp_path):
    """The diag.* lines of a simulate run's manifest, and its table."""
    out = tmp_path / "runs.tsv"
    assert main(argv + ["--out", str(out)]) == 0
    diag = dict(line.split(": ", 1) for line in manifest_lines(out)
                if line.startswith("diag."))
    assert sorted(diag) == ["diag.blocks", "diag.failed_trials"]
    return diag, out.read_text()


def test_simulate_diag_blocks_counts_the_blocks_drawn(tmp_path):
    argv = ["simulate", "--rate", "4.1", "--seed", "1", "--trials"]
    full, _ = simulate_diag(argv + [str(BLOCK_TRIALS)], tmp_path)
    more, _ = simulate_diag(argv + [str(BLOCK_TRIALS + 1)], tmp_path)
    assert (full["diag.blocks"], more["diag.blocks"]) == ("1", "2")


def test_simulate_diag_failed_trials_counts_the_aborted_trials(tmp_path):
    argv = ["simulate", "--rate", "4.1", "--seed", "1", "--trials", "1000",
            "--failure-prob"]
    clean, _ = simulate_diag(argv + ["0"], tmp_path)
    assert clean["diag.failed_trials"] == "0"
    lossy, table = simulate_diag(argv + ["0.5"], tmp_path)
    # at this rate a trial that does not fail ionizes long before the
    # 10 s horizon, so the failed trials are the NA rows
    na_rows = sum(row[1] == "NA" for row in rows_of(table)[1])
    assert int(lossy["diag.failed_trials"]) == na_rows > 0


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


def test_verify_roundtrip_counts_failed_inferences_as_misses(tmp_path):
    # one noisy seed near eta = 1 falls below the eta bracket
    out = tmp_path / "vr.tsv"
    assert main(["verify-roundtrip", "--eta", "1.05", "--q2", "2.0",
                 "--seeds", "1000", "--out", str(out)]) == 0
    trap, charges = TrapAxis(nu1_hz=474e3, eta=1.05), ChargePair(q2=2.0)
    noise = VerificationNoise(ratio_rel=0.02, freq_rel=0.005)
    q2_values = []
    for seed in range(1000):
        record = synthesize_verification(trap, charges, noise, seed=seed)
        try:
            q2_values.append(infer_from_verification(record).q2)
        except YbionError:
            pass
    failures = 1000 - len(q2_values)
    assert failures >= 1
    assert f"diag.inference_failures: {failures}" in manifest_lines(out)
    vals = value_map(out.read_text())
    assert vals["n_seeds"] == "1000"
    hits = sum(abs(q2 - 2.0) <= 0.14 for q2 in q2_values)
    assert float(vals["success_fraction"]) == hits / 1000
    mean = sum(q2_values) / len(q2_values)
    assert float(vals["q2_mean"]) == pytest.approx(mean, rel=1e-12)


def test_verify_roundtrip_without_inferences_prints_na(tmp_path):
    # seed 0 at eta = 10 measures modes above the bracket's upper end
    out = tmp_path / "vr.tsv"
    assert main(["verify-roundtrip", "--eta", "10", "--q2", "2.0", "--seeds", "1",
                 "--out", str(out)]) == 0
    vals = value_map(out.read_text())
    assert vals["success_fraction"] == "0.0"
    for name in ("q2_mean", "q2_std", "q2_bias", "eta_mean"):
        assert vals[name] == "NA"
    assert "diag.inference_failures: 1" in manifest_lines(out)


def test_verify_roundtrip_counts_an_unformable_record_as_a_miss(tmp_path):
    # seed 755 draws a ratio noise below -1/0.3, so the measured displacement
    # ratio is negative and VerificationRecord refuses the record
    trap, charges = TrapAxis(nu1_hz=474e3, eta=2.0), ChargePair(q2=2.0)
    with pytest.raises(YbionError, match="displacement_ratio_measured"):
        synthesize_verification(trap, charges, VerificationNoise(0.3, 0.01), seed=755)
    out = tmp_path / "vr.tsv"
    assert main(["verify-roundtrip", "--eta", "2", "--q2", "2", "--noise", "0.3", "0.01",
                 "--seeds", "1", "--seed-base", "755", "--out", str(out)]) == 0
    vals = value_map(out.read_text())
    assert vals["success_fraction"] == "0.0"
    for name in ("q2_mean", "q2_std", "q2_bias", "eta_mean"):
        assert vals[name] == "NA"
    assert "diag.inference_failures: 1" in manifest_lines(out)


@pytest.mark.parametrize("extra,digest", [
    ([], "62d6a8323fcb07c1deab5f110fbea1e2fa912e612ca463452d6f020b4318709a"),
    # seeds 4294967000-4294967999 cross from one 32-bit word to two
    (["--seed-base", "4294967000"],
     "1eac2ba4d61be71b112b789cf5890fa479f4a1064693412a43241e31fdffffeb"),
], ids=["readme", "seeds-cross-2**32"])
def test_verify_roundtrip_table_bytes_are_pinned(extra, digest):
    code, stdout, _ = run_cli(
        ["verify-roundtrip", "--eta", "2.135", "--q2", "2.0", "--seeds", "1000"] + extra)
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


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


# Manifest lines of each RERUN argv minus the timestamp, frozen from the
# release before param.* lines were derived from the parsed flags; the lines
# added since are verify-roundtrip's diag.inference_failures, the noisy
# scan's rng line, steady-state's diag.steady_residual, simulate's
# diag.blocks and diag.failed_trials, fit-scan's diag.fit_center_se_hz,
# diag.fit_fwhm_se_hz and diag.lifetime_se_s, and the diag.scheme.finding_N
# lines of steady-state and scan.
# {placeholders} stand for what depends on the installation or on tmp_path.
FROZEN_MANIFESTS = {
    "steady-state": """\
subcommand: steady-state
param.drive_overrides: NA
param.saturate_all: 100.0
param.scheme: {data}/yb174_plus.scheme
input.yb174_plus.scheme.sha256: 85b08c9d40bdd6c0a67f7eaca9d9c197b0e412a36e4cf7b1a077f844ed668432
diag.scheme.finding_1: level 7p12: branching sum 0.997000, residual 0.003000 unmodeled decay
diag.scheme.finding_2: drive 6p12<->6s12: declared 369.524 nm, energy gap implies \
369.5242965920252 nm (0.803 ppm off)
diag.scheme.finding_3: drive 7p12<->5d32: declared 245.426 nm, energy gap implies \
245.42599571780724 nm (0.017 ppm off)
diag.scheme.finding_4: drive fd32<->5d52: declared 976.31 nm, energy gap implies \
976.3069821570132 nm (3.091 ppm off)
diag.scheme.finding_5: drive fd52<->f72: declared 638.33 nm, energy gap implies \
638.3327769199295 nm (4.350 ppm off)
diag.steady_residual: 1.8772162769020557e-17
""",
    "ionize-rate": """\
subcommand: ionize-rate
param.p7p: 0.0095
param.power_w: 0.0001
param.sigma_mb: 5.5
param.waist_m: 1e-05
param.wavelength_nm: 245.426
""",
    "xsec": """\
subcommand: xsec
param.core_charge: 2
param.ell: 1
param.limit_cm1: 98207.0
param.model: burgess
param.series: {data}/yb2_p_series.tsv
param.wavelength_nm: 245.426
input.yb2_p_series.tsv.sha256: 0f03f489ef0a58288454527c80d6dd8dde7f8342c91a804c3b86e82f7dde7c04
""",
    "crystal": """\
subcommand: crystal
param.eta: 2.13
param.invert_from_mode: NA
param.invert_from_ratio: 1.74
param.nu1_hz: 474000.0
param.q2: 2.0
""",
    "scan": """\
subcommand: scan
param.grid_points: 21
param.grid_start_hz: -30000000.0
param.grid_stop_hz: 30000000.0
param.lower: 5d32
param.noise_sigma: 0.4
param.scheme: {data}/linewidth_reference.scheme
param.seed: 7
param.upper: 7p12
input.linewidth_reference.scheme.sha256: 3016a053f6f3bbf243dd610c8e6823ebaaaf37467eab7ec90df53a2e7e9686a3
rng: numpy default_rng (PCG64), numpy {numpy}, default_rng(seed) drawing one \
normal(0, noise_sigma) per grid point in grid order, each added to its \
point's signal, then clamped at 0
diag.scheme.finding_1: drive 6p12<->6s12: declared 370.3704 nm, energy gap implies \
370.3703703703704 nm (0.080 ppm off)
diag.scheme.finding_2: drive 7p12<->5d32: declared 245.426 nm, energy gap implies \
245.4259957178072 nm (0.017 ppm off)
""",
    "fit-scan": """\
subcommand: fit-scan
param.data: {curve}
param.saturation: 0.02
input.curve.tsv.sha256: {curve_sha}
diag.fit_center_se_hz: 1.049770928264126e-10
diag.fit_cost: 1.7654267659535504e-19
diag.fit_fwhm_se_hz: 3.518383301515282e-10
diag.fit_iterations: 4
diag.lifetime_se_s: 3.9434178512595326e-25
""",
    "simulate": """\
subcommand: simulate
param.chop_hz: 50.0
param.duty: 0.5
param.failure_prob: 0.0
param.max_time_s: 10.0
param.rate_per_s: 4.1
param.seed: 3
param.trials: 200
rng: numpy default_rng (PCG64), numpy {numpy}, blocks of 4096 trials, \
block b seeded SeedSequence([rng_seed, b]), drawn in full as exposures, \
then phases, then Geometric(failure_prob) only if failure_prob > 0
diag.blocks: 1
diag.failed_trials: 0
""",
    "verify-roundtrip": """\
subcommand: verify-roundtrip
param.eta: 2.135
param.noise_freq_rel: 0.005
param.noise_ratio_rel: 0.02
param.nu1_hz: 474000.0
param.q2: 2.0
param.seed_base: 0
param.seeds: 25
param.tolerance: 0.14
rng: numpy default_rng (PCG64), numpy {numpy}, default_rng(seed_base + i) \
for record i, drawing 4 standard normals applied in the order ratio, nu1, \
nu_com, nu_bre
diag.inference_failures: 0
""",
}


def manifest_lines(path) -> list[str]:
    lines = Path(f"{path}.manifest").read_text().splitlines()
    return [line for line in lines if not line.startswith("timestamp: ")]


@pytest.mark.parametrize("name", sorted(RERUN))
def test_rerun_manifest_matches_frozen_lines(name, curve_file, tmp_path):
    import numpy
    from ybion import __version__

    argv = [arg.format(curve=curve_file) for arg in RERUN[name]]
    out = tmp_path / "run.tsv"
    assert main(argv + ["--out", str(out)]) == 0
    frozen = FROZEN_MANIFESTS[name].format(
        data=bundled_scheme_path("yb174_plus").parent,
        curve=curve_file,
        curve_sha=hashlib.sha256(curve_file.read_bytes()).hexdigest(),
        numpy=numpy.__version__,
    )
    expected = ["tool: ybion", f"version: {__version__}", *frozen.splitlines()]
    assert manifest_lines(out) == expected


@pytest.mark.parametrize("name", sorted(RERUN))
def test_every_flag_dest_is_one_manifest_param(name, curve_file, tmp_path):
    argv = [arg.format(curve=curve_file) for arg in RERUN[name]]
    out = tmp_path / "run.tsv"
    assert main(argv + ["--out", str(out)]) == 0
    keys = sorted(line.split(": ", 1)[0].removeprefix("param.")
                  for line in manifest_lines(out) if line.startswith("param."))
    flags = [a for a in subparsers()[name]._actions if a.dest not in ("help", "out")]
    dests = sorted(dest for a in flags for dest in getattr(a, "fields", None) or (a.dest,))
    assert keys == dests
    parsed = vars(build_parser().parse_args(argv))
    assert sorted(parsed.keys() - {"handler", "subcommand", "out"}) == dests


# A two-level scheme whose branching ratios sum to 1 and whose drive declares
# the wavelength its energy gap implies, 1e7 / 20000.0 nm; scan monitors the
# 6p12 -> 6s12 decay.
CLEAN_SCHEME = """\
[LEVELS]
6s12 "ground" 0.5 0.0 -
6p12 "excited" 0.5 20000.0 8e-9

[DECAYS]
6p12 6s12 1.0

[DRIVES]
6p12 6s12 500.0 - - 1.0 0.0 0
"""

SCHEME_RUNS = [["steady-state", "--scheme", "{scheme}"],
               ["scan", "--scheme", "{scheme}", "--upper", "6p12", "--lower", "6s12",
                "--grid", "-1e6", "1e6", "3"]]


def scheme_finding_lines(argv, scheme_text, tmp_path) -> list[str]:
    scheme = tmp_path / "edited.scheme"
    scheme.write_text(scheme_text, encoding="utf-8")
    out = tmp_path / "run.tsv"
    assert main([a.format(scheme=scheme) for a in argv] + ["--out", str(out)]) == 0
    return [line for line in manifest_lines(out) if line.startswith("diag.scheme.")]


@pytest.mark.parametrize("argv", SCHEME_RUNS, ids=["steady-state", "scan"])
def test_a_scheme_without_findings_writes_no_finding_line(argv, tmp_path):
    assert scheme_finding_lines(argv, CLEAN_SCHEME, tmp_path) == []


@pytest.mark.parametrize("argv", SCHEME_RUNS, ids=["steady-state", "scan"])
def test_a_branching_ratio_writes_and_changes_its_finding_line(argv, tmp_path):
    lines = [scheme_finding_lines(argv, CLEAN_SCHEME.replace("6s12 1.0", f"6s12 {ratio}"),
                                  tmp_path) for ratio in ("0.9", "0.75")]
    assert lines == [
        ["diag.scheme.finding_1: level 6p12: branching sum 0.900000, "
         "residual 0.100000 unmodeled decay"],
        ["diag.scheme.finding_1: level 6p12: branching sum 0.750000, "
         "residual 0.250000 unmodeled decay"],
    ]


def test_finding_keys_sort_in_finding_order(tmp_path):
    # ten branching findings: the keys are zero-padded, so finding_10 sorts last
    levels = "".join(f'e{i} "x" 0.5 {1000.0 * i} 8e-9\n' for i in range(1, 11))
    decays = "".join(f"e{i} 6s12 0.5\n" for i in range(1, 11))
    text = (CLEAN_SCHEME.replace("[DECAYS]\n", "[DECAYS]\n" + decays)
            .replace("[LEVELS]\n", "[LEVELS]\n" + levels))
    lines = scheme_finding_lines(SCHEME_RUNS[0], text, tmp_path)
    assert [line.split(": ", 2)[:2] for line in lines] == [
        [f"diag.scheme.finding_{i:02d}", f"level e{i}"] for i in range(1, 11)]


def test_drives_that_share_a_level_write_a_finding_line(tmp_path):
    # yb174_plus plus a 7s12 <- 6p12 drive at the 367.0731 nm of its energy gap
    yb = load_scheme_file(bundled_scheme_path("yb174_plus"))
    extra = "7s12 6p12 367.0731 - - 0.01 0.0 0\n"
    lines = scheme_finding_lines(SCHEME_RUNS[0], serialize(yb) + extra, tmp_path)
    assert lines[-1] == ("diag.scheme.finding_7: drive 6p12<->6s12 and drive "
                         "7s12<->6p12 share level 6p12: the rate model is not exact there")


def test_scan_rng_line_regenerates_first_noisy_point(tmp_path):
    argv = ["scan", "--scheme", "linewidth_reference", "--grid", "-30e6", "30e6", "21"]
    clean, noisy = tmp_path / "clean.tsv", tmp_path / "noisy.tsv"
    assert main(argv + ["--out", str(clean)]) == 0
    assert main(argv + ["--noise-sigma", "0.4", "--seed", "7", "--out", str(noisy)]) == 0
    assert not [line for line in manifest_lines(clean) if line.startswith("rng: ")]
    (rng_line,) = [line for line in manifest_lines(noisy) if line.startswith("rng: ")]
    # the noise comes from default_rng(seed): one normal(0, noise_sigma) per
    # grid point in grid order, added to the signal, which is clamped at 0
    assert "default_rng(seed)" in rng_line
    assert "one normal(0, noise_sigma) per grid point in grid order" in rng_line
    assert "clamped at 0" in rng_line
    signal = float(clean.read_text().splitlines()[1].split("\t")[1])
    draw = np.random.default_rng(7).normal(0.0, 0.4)
    first = noisy.read_text().splitlines()[1].split("\t")
    assert first[1] == repr(max(signal + draw, 0.0))
    assert first[2] == "0.4"


def test_scan_noise_without_seed_records_a_seed_that_repeats_it(tmp_path):
    argv = ["scan", "--scheme", "linewidth_reference", "--grid", "-30e6", "30e6", "21",
            "--noise-sigma", "0.4"]
    first, again = tmp_path / "first.tsv", tmp_path / "again.tsv"
    assert main(argv + ["--out", str(first)]) == 0
    (seed,) = [line.removeprefix("param.seed: ") for line in manifest_lines(first)
               if line.startswith("param.seed: ")]
    assert seed.isdigit()
    assert main(argv + ["--seed", seed, "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


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


# fit-scan's standard errors of center and width, and the lifetime's.
FIT_ERRORS = ("fit_center_se_hz", "fit_fwhm_se_hz", "lifetime_se_s")


def test_fit_scan_manifest_carries_deterministic_fit_diagnostics(curve_file, tmp_path):
    manifests = []
    for name in ("first", "second"):
        out = tmp_path / f"{name}.tsv"
        assert main(["fit-scan", "--data", str(curve_file), "--out", str(out)]) == 0
        manifests.append((tmp_path / f"{name}.tsv.manifest").read_text().splitlines())
    first, second = manifests
    assert [line for line in first if not line.startswith("timestamp: ")] == [
        line for line in second if not line.startswith("timestamp: ")]
    diag = dict(line.split(": ", 1) for line in first if line.startswith("diag."))
    assert sorted(diag) == ["diag.fit_center_se_hz", "diag.fit_cost",
                            "diag.fit_fwhm_se_hz", "diag.fit_iterations",
                            "diag.lifetime_se_s"]
    assert int(diag["diag.fit_iterations"]) >= 1
    assert 0.0 <= float(diag["diag.fit_cost"]) < math.inf
    for key in FIT_ERRORS:
        assert 0.0 <= float(diag[f"diag.{key}"]) < math.inf


def fit_scan_report(curve, tmp_path):
    """fit-scan's table rows and diag.* lines for a stored curve."""
    out = tmp_path / "fit.tsv"
    assert main(["fit-scan", "--data", str(curve), "--saturation", "0.02",
                 "--out", str(out)]) == 0
    diag = dict(line.removeprefix("diag.").split(": ", 1)
                for line in manifest_lines(out) if line.startswith("diag."))
    return value_map(out.read_text()), diag


def test_fit_scan_standard_errors_follow_the_noise(curve_file, tmp_path):
    # 1 % of the peak signal as noise: the errors grow from rounding level
    # to a few parts in 1e3, and cover the shift of the fitted width
    noisy = tmp_path / "noisy.tsv"
    assert main(["scan", "--scheme", "linewidth_reference", "--grid", "-60e6",
                 "60e6", "241", "--noise-sigma", "7200", "--seed", "5",
                 "--out", str(noisy)]) == 0
    (clean_table, clean), (noisy_table, rough) = (
        fit_scan_report(curve, tmp_path) for curve in (curve_file, noisy))
    clean_fwhm, noisy_fwhm = (float(t["fwhm"]) for t in (clean_table, noisy_table))
    assert float(clean["fit_fwhm_se_hz"]) < 1e-12 * clean_fwhm
    assert 1e-3 * noisy_fwhm < float(rough["fit_fwhm_se_hz"]) < 1e-2 * noisy_fwhm
    assert abs(noisy_fwhm - clean_fwhm) < 3.0 * float(rough["fit_fwhm_se_hz"])
    assert float(clean["fit_center_se_hz"]) < 1e-6
    assert 1e3 < float(rough["fit_center_se_hz"]) < 1e5
    for table, diag in ((clean_table, clean), (noisy_table, rough)):
        # tau = sqrt(1 + S) / (2 pi fwhm) carries fwhm's relative error
        assert float(diag["lifetime_se_s"]) / float(table["lifetime"]) == pytest.approx(
            float(diag["fit_fwhm_se_hz"]) / float(table["fwhm"]), rel=1e-12, abs=0)


def test_fit_scan_standard_errors_of_a_negative_variance_read_nan(tmp_path):
    # at detunings of order 1e200 Hz, J^T J overflows and the covariance
    # diagonal comes out -inf; its square root would raise
    nu = np.linspace(-1e200, 1e200, 9)
    y = lorentzian(nu, 1e199, 5e199, 1.0, 0.2) * (1.0 + 1e-3 * np.sin(np.arange(9)))
    curve = tmp_path / "wide.tsv"
    curve.write_text("".join(f"{d!r}\t{v!r}\n" for d, v in zip(nu.tolist(), y.tolist())),
                     encoding="utf-8")
    table, diag = fit_scan_report(curve, tmp_path)
    assert table["converged"] == "1"
    assert [diag[k] for k in FIT_ERRORS] == ["nan", "nan", "nan"]


def test_fit_scan_standard_errors_read_na_without_convergence(tmp_path):
    flat = tmp_path / "flat.tsv"
    flat.write_text("".join(f"{d}.0\t2.0\n" for d in range(8)), encoding="utf-8")
    table, diag = fit_scan_report(flat, tmp_path)
    assert table["converged"] == "0"
    assert [diag[k] for k in FIT_ERRORS] == ["NA", "NA", "NA"]


@pytest.mark.parametrize("argv", [[], ["--saturate-all", "1e8"]], ids=["bundled", "S1e8"])
def test_steady_state_residual_is_recomputed_from_the_printed_populations(argv, tmp_path):
    out = tmp_path / "pops.tsv"
    assert main(["steady-state", *argv, "--out", str(out)]) == 0
    printed = {k: float(v) for k, v in value_map(out.read_text()).items()}
    scheme = load_scheme_file(bundled_scheme_path("yb174_plus"))
    if argv:
        scheme = scheme.with_all_drives_saturated(float(argv[1]))
    matrix = build_rate_matrix(scheme)
    p = np.array([printed[label] for label in matrix.labels])
    residual = np.abs(matrix.matrix @ p).max() / np.abs(matrix.matrix).max()
    diag = [line for line in manifest_lines(out) if line.startswith("diag.")]
    findings = [f"diag.scheme.finding_{i}: {text}"
                for i, text in enumerate(validate_scheme(scheme), start=1)]
    assert diag == [*findings, f"diag.steady_residual: {float(residual)!r}"]
    assert residual <= STEADY_RESIDUAL_TOL


def test_a_one_level_scheme_is_stationary_with_residual_zero(tmp_path):
    # M is the 1x1 zero matrix, so M p is exactly 0 and so is the residual
    scheme = tmp_path / "one.scheme"
    scheme.write_text("[LEVELS]\ng x 0.5 0.0 -\n", encoding="utf-8")
    code, out, err = run_without_warnings(["steady-state", "--scheme", str(scheme)])
    assert code == 0
    assert out == "label\tpopulation\ng\t1.0\n"
    assert "diag.steady_residual: 0.0" in err.splitlines()


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



# -- parser contract ---------------------------------------------------------------

# Every flag of every subcommand, by its first option string, with what
# parsing depends on. The attributes an entry does not list keep argparse's
# defaults: the dest spelled after the flag, no type, default None, optional,
# one value, no metavar, no choices, no fields, the store action and so no
# reader. A type or reader other than a builtin is named by its ybion.cli
# attribute; a reader is what a _ValuesAction checks its values with. Help texts
# and the order of the flags are --help layout only, and are left out; so is
# the -h flag, which argparse adds to every subcommand.
SUPPRESS = argparse.SUPPRESS
PARSER_CONTRACT = {
    "steady-state": {
        "--scheme": dict(default="yb174_plus"),
        "--drive-overrides": dict(action="_AppendAction", nargs=4,
                                  metavar=("UPPER", "LOWER", "FIELD", "VALUE")),
        "--saturate-all": dict(type="float"),
        "--out": dict(),
    },
    "ionize-rate": {
        "--p7p": dict(type="float", required=True),
        "--sigma-mb": dict(type="float", required=True),
        "--power-w": dict(type="float", required=True),
        "--waist-m": dict(type="float", required=True),
        "--wavelength-nm": dict(type="float", required=True),
        "--out": dict(),
    },
    "xsec": {
        "--model": dict(required=True, choices=("hydrogenic", "burgess", "peach")),
        "--series": dict(),
        "--limit": dict(dest="limit_cm1", type="float", required=True),
        "--ell": dict(type="int", default=1),
        "--core-charge": dict(type="int", default=2),
        "--wavelength-nm": dict(type="float", default=245.426),
        "--out": dict(),
    },
    "crystal": {
        "--nu1": dict(dest="nu1_hz", type="float", required=True),
        "--eta": dict(type="float", default=1.0),
        "--q2": dict(type="float", default=1.0),
        "--invert-from-mode": dict(action="_ValuesAction", read="_read_mode", nargs=2,
                                   metavar=("FREQ_HZ", "MODE")),
        "--invert-from-ratio": dict(type="float"),
        "--out": dict(),
    },
    "scan": {
        "--scheme": dict(default="yb174_plus"),
        "--upper": dict(default="7p12"),
        "--lower": dict(default="5d32"),
        "--grid": dict(action="_ValuesAction", read="_read_grid", default=SUPPRESS,
                       required=True, nargs=3, metavar=("START_HZ", "STOP_HZ", "POINTS"),
                       fields=("grid_start_hz", "grid_stop_hz", "grid_points")),
        "--noise-sigma": dict(type="float"),
        "--seed": dict(type="_nonnegative_int"),
        "--out": dict(),
    },
    "fit-scan": {
        "--data": dict(required=True),
        "--saturation": dict(type="float", default=0.0),
        "--out": dict(),
    },
    "simulate": {
        "--rate": dict(dest="rate_per_s", type="float", required=True),
        "--duty": dict(type="float", default=0.5),
        "--chop-hz": dict(type="float", default=50.0),
        "--trials": dict(type="_trial_count", required=True),
        "--seed": dict(type="_nonnegative_int", required=True),
        "--max-time-s": dict(type="float", default=10.0),
        "--failure-prob": dict(type="float", default=0.0),
        "--out": dict(),
    },
    "verify-roundtrip": {
        "--eta": dict(type="float", required=True),
        "--q2": dict(type="float", required=True),
        "--nu1": dict(dest="nu1_hz", type="float", default=474e3),
        "--noise": dict(action="_ValuesAction", read="tuple", type="float",
                        default=SUPPRESS, nargs=2, metavar=("RATIO_REL", "FREQ_REL"),
                        fields=("noise_ratio_rel", "noise_freq_rel")),
        "--seeds": dict(type="_seed_count", default=1000),
        "--seed-base": dict(type="_nonnegative_int", default=0),
        "--tolerance": dict(type="float", default=0.14),
        "--out": dict(),
    },
}
# Each subparser's set_defaults: its handler, and for verify-roundtrip the
# two --noise fields.
PARSER_DEFAULTS = {
    "steady-state": dict(handler="_cmd_steady_state"),
    "ionize-rate": dict(handler="_cmd_ionize_rate"),
    "xsec": dict(handler="_cmd_xsec"),
    "crystal": dict(handler="_cmd_crystal"),
    "scan": dict(handler="_cmd_scan"),
    "fit-scan": dict(handler="_cmd_fit_scan"),
    "simulate": dict(handler="_cmd_simulate"),
    "verify-roundtrip": dict(handler="_cmd_verify_roundtrip",
                             noise_ratio_rel=0.02, noise_freq_rel=0.005),
}


def parsing_attributes(action) -> dict:
    import ybion.cli as cli

    def named(convert):
        if convert in (None, float, int, tuple):
            return getattr(convert, "__name__", convert)
        return next(name for name, value in vars(cli).items() if value is convert)

    return dict(
        option_strings=tuple(action.option_strings),
        action=type(action).__name__,
        read=named(getattr(action, "read", None)),
        dest=action.dest,
        type=named(action.type),
        default=action.default,
        required=action.required,
        nargs=action.nargs,
        metavar=action.metavar,
        choices=None if action.choices is None else tuple(action.choices),
        fields=getattr(action, "fields", None),
    )


def test_parser_contract_is_pinned_flag_by_flag():
    subs = subparsers()
    assert list(subs) == list(PARSER_CONTRACT)
    for name, sub in subs.items():
        help_flag, *flags = sub._actions
        assert parsing_attributes(help_flag) == dict(
            option_strings=("-h", "--help"), action="_HelpAction", read=None,
            dest="help", type=None, default=SUPPRESS, required=False, nargs=0,
            metavar=None, choices=None, fields=None,
        ), name
        found = {action.option_strings[0]: parsing_attributes(action)
                 for action in flags}
        expected = {
            flag: {**dict(option_strings=(flag,), action="_StoreAction", read=None,
                          dest=flag[2:].replace("-", "_"), type=None,
                          default=None, required=False, nargs=None,
                          metavar=None, choices=None, fields=None),
                   **pinned}
            for flag, pinned in PARSER_CONTRACT[name].items()
        }
        assert found == expected, name
        defaults = {key: getattr(value, "__name__", value)
                    for key, value in sub._defaults.items()}
        assert defaults == PARSER_DEFAULTS[name], name


# -- help pages --------------------------------------------------------------------

# sha256 of every --help page at COLUMNS=80: the top-level page, keyed "",
# and one per subcommand. They pin what the parser contract leaves out, the
# help texts and the order of the flags. argparse's layout changes between
# CPython versions; these pages are those of CPython 3.11.7, and another
# interpreter may need them recording anew.
HELP_PAGES = {
    "": "9cd5f3fa1223a6e8a56d75ccca60f3324ff73ae2fb1cfd27e37035c7ee9fd3a3",
    "steady-state": "c3e393d6fb295108c505720d30b9e345c655c089c2c7d9db81627adaf9f14bcf",
    "ionize-rate": "26ee1be1d61645e6a3695522041966845ec6bee5b66c789e8a6ee5a6389f9faa",
    "xsec": "ab376d9625f6610058acf8bb9f65598860bd5da5452d704c49d4b0358be8c732",
    "crystal": "d7837a6eef5895f86fd984fbe9fd1ac6120f75adffdbc99a11556b094609f8fc",
    "scan": "f697d7b60ce6871361c09cb60d384f581b4c998f39911d0cba225de9a1dae484",
    "fit-scan": "dd24fe3a73bd8292b23d92d4c327f9b9b1df906d68f65712e01c645cd6976d6f",
    "simulate": "081c45f08f92261193310f87cbfacb93e929927f55164c818ad70fa5fd15dfca",
    "verify-roundtrip": "9c98a88119526baa971a264645475a9b479368d49f19b0647d2f22bcd419c13c",
}


@pytest.mark.parametrize("name", HELP_PAGES)
def test_help_page_is_pinned(name, monkeypatch, capsys):
    assert list(HELP_PAGES) == ["", *SUBCOMMANDS]
    monkeypatch.setenv("COLUMNS", "80")
    assert main([name, "--help"] if name else ["--help"]) == 0
    page = capsys.readouterr().out
    assert hashlib.sha256(page.encode()).hexdigest() == HELP_PAGES[name], page
