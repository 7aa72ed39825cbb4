"""Every module-level import of src/ybion is used by its module.

An import that nothing reads still costs its compile and load on every CLI
run, and hides which module owns a rule. The one kind of unused import
allowed is a name that bench/tracing.py's WRAPPED table wraps in that
module: the tracer swaps the module's own attribute, so the name must be
bound there even where the module never calls it.
"""

import ast
from pathlib import Path

from test_bench_names import TRACING, wrapped_table

SRC = Path(__file__).resolve().parent.parent / "src" / "ybion"


def unused_imports(source: str) -> list[str]:
    """Each name bound by an import outside any function or class body that
    the module never reads, in source order; __future__ imports and names
    listed in __all__ count as read."""
    tree = ast.parse(source)
    bound, stack = [], list(tree.body)
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        else:
            stack[:0] = ast.iter_child_nodes(node)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    wrapped = {(owner, attr) for owner, attr, _ in wrapped_table(TRACING)}
    unused = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
              for name in unused_imports(path.read_text(encoding="utf-8"))
              if (f"ybion.{path.stem}", name) not in wrapped]
    assert unused == []


def test_an_unused_import_is_named():
    source = ("from __future__ import annotations\n"
              "import itertools\nimport math\nimport os.path\n"
              "from sys import argv as args, float_info\n"
              "from .rates import steady_state\n"
              "__all__ = ['steady_state']\n"
              "if math.pi:\n    import operator\n"
              "def f():\n    import json\n    return float_info\n")
    assert unused_imports(source) == ["itertools", "os", "args", "operator"]
