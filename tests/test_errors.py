"""The one interval check every module calls, and the wording it keeps."""

import ast
import math
from pathlib import Path

import pytest

import ybion
from ybion.errors import SchemeError, SolverError, check
from ybion.rates import build_rate_matrix, evolve, initial_population
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


# Whole-array checks name no single value, so they do not go through check.
ARRAY_CHECKS = {"exposure must be >= 0 and finite", "wall time must be >= 0 and finite"}


def test_interval_wordings_are_written_only_in_errors_py():
    phrases = [wording for wording in WORDINGS.values() if wording != "must be finite"]
    copies = []
    for path in sorted(Path(ybion.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value not in ARRAY_CHECKS):
                copies += [(path.name, node.lineno, phrase)
                           for phrase in phrases if phrase in node.value]
    assert copies == []
