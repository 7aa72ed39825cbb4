"""Exception types raised by the package, and its two range tests.

The command line maps any YbionError to exit code 2 and prints its message
verbatim, so messages must be self-contained and name the offending input.
A parser of a data file's line raises SchemeError with no line number;
scheme.walk_lines, the one walk over those lines, prefixes "line N: ".
check(what, value, interval, unit) refuses an input with "WHAT WORDING, got
VALUE UNIT". Its intervals and their wordings: "(0, inf)" must be positive
and finite; "[0, inf)" must be >= 0 and finite; "(0, 1]" must lie in (0, 1];
"[0, 1]" must lie in [0, 1]; "finite" must be finite. check_array(what,
values, interval, unit) tests every entry of a numpy array and words its
refusal as check does, naming the first entry outside.

representable(what, value, interval, error, **inputs) tests a computed
result against the same intervals and refuses it with "WHAT lies outside
the floating-point range for NAME = VALUE, NAME = VALUE", naming the inputs
it was computed from.

_seed(seed) passes an integer >= 0 as an int and refuses any other rng seed,
None too, with "rng seed must be an integer >= 0, got SEED".
"""

import math
import operator


class YbionError(Exception):
    """Base class for all domain errors raised by this package."""


class SchemeError(YbionError):
    """Malformed or inconsistent input data: a scheme, series or scan curve,
    or a parameter outside its range.

    The message is the whole refusal. A refusal raised while a data file's
    line is read gains its "line N: " prefix from scheme.walk_lines alone.
    """


class SolverError(YbionError):
    """A numerical routine could not produce a trustworthy result."""


# interval -> (lo, hi, wording); a closed end is stored as the next float
# outward, so every test is the strict lo < value < hi, which NaN fails.
_INTERVALS = {
    "(0, inf)": (0.0, math.inf, "must be positive and finite"),
    "[0, inf)": (-5e-324, math.inf, "must be >= 0 and finite"),
    "(0, 1]": (0.0, math.nextafter(1.0, 2.0), "must lie in (0, 1]"),
    "[0, 1]": (-5e-324, math.nextafter(1.0, 2.0), "must lie in [0, 1]"),
    "finite": (-math.inf, math.inf, "must be finite"),
}


def check(what: str, value, interval: str, unit: str = "", error=SchemeError):
    """value if it lies in interval, else error naming what, value and unit."""
    lo, hi, wording = _INTERVALS[interval]
    if not lo < value < hi:
        raise error(f"{what} {wording}, got {value}" + (f" {unit}" if unit else ""))
    return value


def check_array(what: str, values, interval: str, unit: str = "", error=SchemeError):
    """values, a numpy array, if every entry lies in interval, else error
    naming what, the first entry outside (in C order) and unit."""
    lo, hi, _ = _INTERVALS[interval]
    outside = ~((values > lo) & (values < hi))
    if outside.any():
        check(what, float(values[outside].flat[0]), interval, unit, error)
    return values


def _seed(seed) -> int:
    """seed as an int if it is an integer >= 0, else SchemeError naming it."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if value < 0:
        raise SchemeError(f"rng seed must be an integer >= 0, got {seed}")
    return value


def representable(what: str, value, interval: str = "[0, inf)", error=SchemeError,
                  **inputs):
    """value if it lies in interval, else error naming what and inputs.

    value may be a zero-argument callable, whose OverflowError or
    ZeroDivisionError (Python floats raise these) counts as out of range.

    A caller on a hot path tests its result with one chained comparison
    (0.0 < value < math.inf for "(0, inf)") and calls this helper only
    when that test fails, to word the refusal: a call costs about half a
    microsecond even when the value passes.
    """
    lo, hi, _ = _INTERVALS[interval]
    if callable(value):
        try:
            value = value()
        except (OverflowError, ZeroDivisionError):
            value = math.nan
    if not lo < value < hi:
        names = ", ".join(f"{name} = {v}" for name, v in inputs.items())
        raise error(f"{what} lies outside the floating-point range for {names}")
    return value
