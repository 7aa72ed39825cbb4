"""The names the benchmark's tracer wraps must exist in ybion.

bench/tracing.py swaps each (owner, attribute) of its WRAPPED table for a
timing wrapper, looking the attribute up in the owner's __dict__; a
function renamed or no longer imported there makes every traced run stop
with a bare KeyError. This test reads the table from the file without
importing it and names each entry that no longer resolves.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def wrapped_table(path):
    """The literal WRAPPED list assigned at the top level of path."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} assigns no WRAPPED table")


def unresolved(table):
    """'owner.attribute' of each entry whose owner lacks the attribute in its
    own __dict__; owner is a module, or "module:Class" for a method."""
    missing = []
    for owner, attr, _ in table:
        module_name, _, class_name = owner.partition(":")
        target = importlib.import_module(module_name)
        if class_name:
            target = getattr(target, class_name, None)
        if target is None or attr not in vars(target):
            missing.append(f"{owner}.{attr}")
    return missing


def test_every_traced_name_resolves():
    table = wrapped_table(TRACING)
    assert len(table) > 0
    assert unresolved(table) == []


def test_a_missing_name_is_named():
    table = [("ybion.rates", "evolve", "rates.evolve"),
             ("ybion.rates", "no_such_function", "rates.none"),
             ("ybion.scheme:LevelScheme", "with_drive", "scheme.edit"),
             ("ybion.scheme:NoSuchClass", "with_drive", "scheme.edit")]
    assert unresolved(table) == ["ybion.rates.no_such_function",
                                 "ybion.scheme:NoSuchClass.with_drive"]
