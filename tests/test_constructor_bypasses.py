"""The only objects of src/ybion built without their constructor's checks.

rates._trusted makes a frozen dataclass instance without running its
__post_init__. Two hot paths use it, each once: build_rate_matrix, for the
RateMatrix whose rates it has just formed, and evolve, for the
PopulationVector whose sum it has just tested. Every other object, a scheme
edit or a start vector among them, is built through its constructor. A new
bypass has to be added to the tables below, by name and count.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ybion"

TRUSTED_DEFINED_IN = ["rates._trusted"]
TRUSTED_CALLED_IN = {"rates.build_rate_matrix": 1, "rates.evolve": 1}
OBJECT_NEW_IN = {"rates._trusted": 1}


def _sites(tree: ast.Module, module: str):
    """Yield (kind, qualified name of the enclosing def) for each definition
    of _trusted, call of _trusted and use of object.__new__ in tree."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
                if child.name == "_trusted" and not isinstance(child, ast.ClassDef):
                    yield "def", inner
            elif isinstance(child, ast.Call) and (
                    getattr(child.func, "id", None) == "_trusted"
                    or getattr(child.func, "attr", None) == "_trusted"):
                yield "call", scope
            elif (isinstance(child, ast.Attribute) and child.attr == "__new__"
                    and getattr(child.value, "id", None) == "object"):
                yield "new", scope
            yield from walk(child, inner)

    yield from walk(tree, module)


def bypasses(sources: dict[str, str]) -> tuple[list, Counter, Counter]:
    """The definitions of _trusted, and the calls of _trusted and uses of
    object.__new__ counted by enclosing def, over {module: source}."""
    defs, calls, news = [], Counter(), Counter()
    for module, source in sources.items():
        for kind, where in _sites(ast.parse(source), module):
            if kind == "def":
                defs.append(where)
            else:
                (calls if kind == "call" else news)[where] += 1
    return defs, calls, news


def test_only_the_rate_matrix_build_and_evolve_skip_the_checks():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    defs, calls, news = bypasses(sources)
    assert defs == TRUSTED_DEFINED_IN
    assert dict(calls) == TRUSTED_CALLED_IN
    assert dict(news) == OBJECT_NEW_IN


def test_a_bypass_is_found_by_its_enclosing_def():
    source = ("def _trusted(cls):\n    return object.__new__(cls)\n"
              "class S:\n    def edit(self):\n        return _trusted(S)\n"
              "def start():\n    def inner():\n        return scheme._trusted(S)\n"
              "    return object.__new__(S), inner\n")
    defs, calls, news = bypasses({"m": source})
    assert defs == ["m._trusted"]
    assert dict(calls) == {"m.S.edit": 1, "m.start.inner": 1}
    assert dict(news) == {"m._trusted": 1, "m.start": 1}
