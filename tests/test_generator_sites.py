"""The only places in src/ybion that build a numpy random generator.

ybion._rng owns the map from a seed to PCG64's state: its first call builds
one PCG64 and its Generator, checked against numpy's own PCG64 on a probe
seed, and every seeded normal of the package is drawn from them. The one
other site is mc.simulate_ionization_times, whose chopped blocks each make
default_rng(SeedSequence([seed, b])) and draw several arrays from it. A new
site has to be added to the table below, by name and count.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ybion"

BUILDERS = ("default_rng", "PCG64", "Generator")
BUILT_IN = {
    ("_rng._first_generator", "PCG64"): 2,
    ("_rng._first_generator", "Generator"): 1,
    ("mc.simulate_ionization_times", "default_rng"): 1,
}


def builder_calls(sources: dict[str, str]) -> Counter:
    """Calls of default_rng, PCG64 and Generator, by bare name or attribute,
    counted by (qualified name of the enclosing def, callee) over
    {module: source}."""
    calls = Counter()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                name = getattr(child.func, "attr", getattr(child.func, "id", None))
                if name in BUILDERS:
                    calls[scope, name] += 1
            walk(child, inner)

    for module, source in sources.items():
        walk(ast.parse(source), module)
    return calls


def test_generators_are_built_only_in_rng_and_the_chopped_blocks():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert dict(builder_calls(sources)) == BUILT_IN


def test_a_generator_build_is_found_by_its_enclosing_def():
    source = ("import numpy as np\nfrom numpy.random import PCG64\n"
              "RNG = np.random.default_rng(1)\n"
              "class Draw:\n    def normals(self, seed):\n"
              "        return np.random.Generator(PCG64(seed)).standard_normal(4)\n"
              "def scan(seed):\n    def noise():\n"
              "        return default_rng(seed).normal()\n    return noise\n")
    assert dict(builder_calls({"m": source})) == {
        ("m", "default_rng"): 1,
        ("m.Draw.normals", "Generator"): 1,
        ("m.Draw.normals", "PCG64"): 1,
        ("m.scan.noise", "default_rng"): 1,
    }
