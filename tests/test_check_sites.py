"""The one place in src/ybion that runs the scheme check.

scheme._check_consistency refuses a scheme no solver can use and returns
its branching sums. LevelScheme.__post_init__ runs it once per built
scheme and stores the sums; validate_scheme and every other reader take
what construction found, so no scheme is checked twice. A new reference
to the checker has to be added to the table below, with the reason.
"""

import ast
from collections import Counter

from test_sum_sites import SRC, sites

CHECK_SITES = {
    "scheme.LevelScheme.__post_init__": 1,
}


def references(name: str, sources: dict[str, str]) -> Counter:
    """Uses of name as a bare name or an attribute, a call or not."""
    return sites(sources, lambda node: (isinstance(node, ast.Name) and node.id == name)
                 or (isinstance(node, ast.Attribute) and node.attr == name))


def test_the_scheme_check_runs_only_at_construction():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert dict(references("_check_consistency", sources)) == CHECK_SITES


def test_a_reference_is_found_by_its_enclosing_def():
    source = ("from . import scheme\nCHECK = _check_consistency\n"
              "def _check_consistency(s):\n    return {}\n"
              "class LevelScheme:\n    def __post_init__(self):\n"
              "        _check_consistency(self)\n"
              "def validate(s):\n    def inner():\n"
              "        return scheme._check_consistency(s), [_check_consistency]\n"
              "    return inner\n")
    assert dict(references("_check_consistency", {"m": source})) == {
        "m": 1,
        "m.LevelScheme.__post_init__": 1,
        "m.validate.inner": 2,
    }
