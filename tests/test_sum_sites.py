"""The only places in src/ybion that call the builtin sum().

CPython 3.12 made sum() of floats compensated (Neumaier), so a float sum()
gives other bits on other interpreters than 3.11's left-to-right sum.
The package adds its floats left to right from 0.0 instead, or through
numpy's add.reduce. The sites left are the integer sums that build two
module-level tables, _reprtext's digit table and _rng's mask, and
rates.PopulationVector.__post_init__, whose float sum only feeds a 1e-9
tolerance test. A new site has to be added to the table below, by name
and count, with the reason its bits do not matter.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ybion"

SUM_SITES = {
    "_reprtext": 1,
    "_rng": 1,
    "rates.PopulationVector.__post_init__": 1,
}


def sites(sources: dict[str, str], matches) -> Counter:
    """Nodes for which matches(node) holds, not counting defs, counted by
    the qualified name of the enclosing def over {module: source}."""
    found = Counter()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif matches(child):
                found[scope] += 1
            walk(child, inner)

    for module, source in sources.items():
        walk(ast.parse(source), module)
    return found


def sum_calls(sources: dict[str, str]) -> Counter:
    """Calls of sum by bare name, not numpy's .sum methods."""
    return sites(sources, lambda node: isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id == "sum")


def test_builtin_sum_is_called_only_at_the_pinned_sites():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert dict(sum_calls(sources)) == SUM_SITES


def test_a_sum_call_is_found_by_its_enclosing_def():
    source = ("import numpy as np\nTOTAL = sum(range(4))\n"
              "class Rates:\n    def total(self, ratios):\n"
              "        return sum(r for r in ratios) + np.ones(3).sum()\n"
              "def scan(values):\n    def inner():\n"
              "        return sum(values) + sum(values)\n    return inner\n")
    assert dict(sum_calls({"m": source})) == {
        "m": 1,
        "m.Rates.total": 1,
        "m.scan.inner": 2,
    }
