"""The two range tests every module calls, and the wordings they keep."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import ybion
from ybion.errors import SchemeError, SolverError, check, check_array, representable
from ybion.mc import SequenceConfig, exposure_to_wall, wall_to_exposure
from ybion.photoion import cross_section, effective_quantum_number
from ybion.rates import build_rate_matrix, evolve, initial_population, natural_fwhm_hz
from ybion.scheme import Level, load_bundled_scheme
from ybion.spectro import lifetime_from_linewidth

WORDINGS = {
    "(0, inf)": "must be positive and finite",
    "[0, inf)": "must be >= 0 and finite",
    "(0, 1]": "must lie in (0, 1]",
    "[0, 1]": "must lie in [0, 1]",
    "finite": "must be finite",
}
TINY = 5e-324
BIG = 1.7976931348623157e308
ABOVE_ONE = math.nextafter(1.0, 2.0)

# (interval, value, whether check accepts it)
CASES = [
    *[(interval, value, False)
      for interval in WORDINGS for value in (math.nan, math.inf, -math.inf)],
    ("(0, inf)", 0.0, False), ("(0, inf)", -TINY, False),
    ("(0, inf)", TINY, True), ("(0, inf)", BIG, True),
    ("[0, inf)", 0.0, True), ("[0, inf)", -0.0, True), ("[0, inf)", BIG, True),
    ("[0, inf)", -TINY, False),
    ("(0, 1]", 1.0, True), ("(0, 1]", TINY, True),
    ("(0, 1]", 0.0, False), ("(0, 1]", ABOVE_ONE, False),
    ("[0, 1]", 0.0, True), ("[0, 1]", 1.0, True),
    ("[0, 1]", -TINY, False), ("[0, 1]", ABOVE_ONE, False),
    ("finite", -BIG, True), ("finite", BIG, True), ("finite", 0.0, True),
]


# SchemeError is the default, so that case passes no error argument.
@pytest.mark.parametrize("unit,error", [("", SchemeError), ("m", SolverError)])
@pytest.mark.parametrize("interval,value,accepted", CASES)
def test_check_accepts_its_interval_and_words_each_refusal(
        interval, value, accepted, unit, error):
    kwargs = {} if error is SchemeError else {"error": error}
    if accepted:
        assert check("beam waist", value, interval, unit, **kwargs) is value
        return
    with pytest.raises(error) as caught:
        check("beam waist", value, interval, unit, **kwargs)
    assert type(caught.value) is error
    expected = f"beam waist {WORDINGS[interval]}, got {value!r}"
    assert str(caught.value) == (expected + " m" if unit else expected)


# 1.0 lies in every interval, so the refusal names the second entry
@pytest.mark.parametrize("interval,value,accepted", CASES)
def test_check_array_words_the_first_entry_outside_as_check_does(
        interval, value, accepted):
    values = np.array([1.0, value, value])
    if accepted:
        assert check_array("exposure", values, interval) is values
        return
    with pytest.raises(SolverError) as caught:
        check_array("exposure", values, interval, "s", SolverError)
    assert str(caught.value) == f"exposure {WORDINGS[interval]}, got {value!r} s"


CHOPPED = SequenceConfig(rate_per_s=1.0, max_time_s=10.0, rng_seed=0,
                         chop_rate_hz=50.0, ionization_duty=0.5)


@pytest.mark.parametrize("call,message", [
    (lambda: exposure_to_wall(np.array([1.0, math.nan]), 0.0, CHOPPED),
     "exposure must be >= 0 and finite, got nan s"),
    (lambda: exposure_to_wall(-1.0, 0.0, CHOPPED),
     "exposure must be >= 0 and finite, got -1.0 s"),
    (lambda: wall_to_exposure(np.array([0.5, math.inf]), 0.0, CHOPPED),
     "wall time must be >= 0 and finite, got inf s"),
], ids=["exposure-nan", "exposure-negative", "wall-inf"])
def test_chop_mappings_refuse_through_check_array(call, message):
    with pytest.raises(SolverError) as caught:
        call()
    assert str(caught.value) == message


def evolve_linewidth_reference(t_s):
    m = build_rate_matrix(load_bundled_scheme("linewidth_reference"))
    return evolve(m, initial_population(m, m.labels[-1]), t_s)


# A one-sided test such as t < 0, fwhm <= 0 or j < 0 passes NaN, and
# fwhm <= 0 passes inf; each of these must be refused, not computed with.
@pytest.mark.parametrize("call,error,message", [
    (lambda: evolve_linewidth_reference(math.nan), SolverError,
     "evolution time must be >= 0 and finite, got nan s"),
    (lambda: evolve_linewidth_reference(math.inf), SolverError,
     "evolution time must be >= 0 and finite, got inf s"),
    (lambda: lifetime_from_linewidth(math.nan, 0.0), SolverError,
     "fwhm must be positive and finite, got nan Hz"),
    (lambda: lifetime_from_linewidth(math.inf, 0.0), SolverError,
     "fwhm must be positive and finite, got inf Hz"),
    (lambda: Level("a", "c", math.nan, math.nan, math.nan), SchemeError,
     "level a: J must be >= 0 and finite, got nan"),
], ids=["evolve-nan", "evolve-inf", "lifetime-nan", "lifetime-inf", "level-nan"])
def test_non_finite_inputs_of_one_sided_checks_are_refused(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


# Python floats raise OverflowError or ZeroDivisionError, or give inf or a
# negative width, where these used to return; each is refused by name.
@pytest.mark.parametrize("call,error,message", [
    (lambda: cross_section(1e155, 1, 5.0), SolverError,
     "ionization threshold lies outside the floating-point range for n_star = 1e+155"),
    (lambda: cross_section(1e-300, 1, 5.0), SolverError,
     "ionization threshold lies outside the floating-point range for n_star = 1e-300"),
    (lambda: effective_quantum_number(0.0, TINY), SolverError,
     "effective quantum number lies outside the floating-point range for "
     "energy_cm1 = 0.0, ionization_limit_cm1 = 5e-324"),
    (lambda: natural_fwhm_hz(0.0), SchemeError,
     "lifetime must be positive and finite, got 0.0 s"),
    (lambda: natural_fwhm_hz(-1.0), SchemeError,
     "lifetime must be positive and finite, got -1.0 s"),
    (lambda: natural_fwhm_hz(TINY), SchemeError,
     "natural linewidth lies outside the floating-point range for lifetime_s = 5e-324"),
], ids=["xsec-n-star-squared-overflows", "xsec-n-star-squared-underflows",
        "n-star-overflows", "fwhm-zero-lifetime", "fwhm-negative-lifetime",
        "fwhm-overflows"])
def test_public_numeric_functions_refuse_naming_their_inputs(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


def string_literals(root, with_docstrings=True):
    """(file name, line, text) of each string literal in the .py files under
    root other than errors.py, f-string pieces included."""
    for path in sorted(Path(root).glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = set() if with_docstrings else {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings):
                yield path.name, node.lineno, node.value


PACKAGE = Path(ybion.__file__).parent


def test_interval_wordings_are_written_only_in_errors_py():
    phrases = [wording for wording in WORDINGS.values() if wording != "must be finite"]
    copies = [(name, line, phrase) for name, line, text in string_literals(PACKAGE)
              for phrase in phrases if phrase in text]
    assert copies == []


def range_refusals_outside_errors_py(root):
    return [(name, line, text) for name, line, text
            in string_literals(root, with_docstrings=False)
            if "outside the floating-point range" in text or "overflows" in text]


def test_range_refusals_are_worded_only_in_errors_py(tmp_path):
    assert range_refusals_outside_errors_py(PACKAGE) == []
    # a hand-written refusal is found; a docstring saying the same is not
    (tmp_path / "module.py").write_text(
        '"""A result that overflows is refused."""\n'
        "def f(x):\n"
        '    """x * x lies outside the floating-point range near 1e155."""\n'
        '    raise ValueError(f"x * x overflows for x = {x}")\n', encoding="utf-8")
    assert range_refusals_outside_errors_py(tmp_path) == [
        ("module.py", 4, "x * x overflows for x = ")]


LINE_PREFIX = re.compile(r"line (\{[^{}]*\}|%d|\d+): ")


def line_number_writers(root):
    """(file name, enclosing function) of each string under root that writes
    a "line N: " prefix and of each call that passes a line= keyword."""
    found = []

    def visit(node, name, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        text = (ast.unparse(node) if isinstance(node, ast.JoinedStr) else
                node.value if isinstance(node, ast.Constant)
                and isinstance(node.value, str) else "")
        if LINE_PREFIX.search(text) or (isinstance(node, ast.Call) and any(
                keyword.arg == "line" for keyword in node.keywords)):
            found.append((name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, name, function)

    for path in sorted(Path(root).glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
    return found


def test_only_the_line_walk_numbers_data_file_refusals(tmp_path):
    assert line_number_writers(PACKAGE) == [("scheme.py", "walk_lines")]
    # each way of naming a line outside the walk is found
    (tmp_path / "module.py").write_text(
        "def parse(n, text):\n"
        '    raise ValueError(f"line {n}: bad {text}")\n'
        "def count(n):\n"
        '    return "line %d: empty" % n, dict(line=n)\n', encoding="utf-8")
    assert line_number_writers(tmp_path) == [
        ("module.py", "parse"), ("module.py", "count"), ("module.py", "count")]


# the cases of check: each interval's ends, NaN, +-inf and 0 where excluded
@pytest.mark.parametrize("interval,value,accepted", CASES)
def test_representable_accepts_its_interval_and_names_the_inputs(
        interval, value, accepted):
    if accepted:
        assert representable("flux", value, interval, power_w=2.0) is value
        assert representable("flux", lambda: value, interval, power_w=2.0) is value
        return
    for given_value in (value, lambda: value):
        with pytest.raises(SchemeError) as caught:
            representable("flux", given_value, interval, power_w=2.0)
        assert str(caught.value) == (
            "flux lies outside the floating-point range for power_w = 2.0")


def test_representable_default_interval_is_nonnegative_and_finite():
    assert representable("rate", 0.0) == 0.0
    with pytest.raises(SchemeError):
        representable("rate", -TINY)


@pytest.mark.parametrize("call", [lambda: 1e200 ** 2, lambda: 1.0 / 0.0,
                                  lambda: 10**400 * 1.0],
                         ids=["power", "division", "int-to-float"])
def test_representable_refuses_a_callable_raising_arithmetic_errors(call):
    with pytest.raises(SchemeError) as caught:
        representable("power", call, power_w=1e200)
    assert str(caught.value) == (
        "power lies outside the floating-point range for power_w = 1e+200")


def test_representable_lets_other_exceptions_propagate():
    with pytest.raises(ValueError, match="math domain error"):
        representable("root", lambda: math.sqrt(-1.0), x=-1.0)


def test_representable_words_three_inputs_and_passes_the_error_type():
    with pytest.raises(SolverError) as caught:
        representable("photon flux", math.inf, "(0, inf)", SolverError,
                      power_w=1e300, waist_m=0.001, wavelength_nm=245.426)
    assert type(caught.value) is SolverError
    assert str(caught.value) == (
        "photon flux lies outside the floating-point range for power_w = 1e+300, "
        "waist_m = 0.001, wavelength_nm = 245.426")
