"""Import hygiene: every name a package module imports is used there (no linter is a
dependency), every export has a caller, and importing the package or running the default
pipeline leaves scipy out."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import edmpos

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "edmpos"
# the benchmark's modules that call the package
BENCHMARK_CALLERS = [PACKAGE.parents[1] / "perfbench" / name for name in ("workloads.py", "run.py")]

SCIPY_PROBE = """
import sys
import edmpos
from edmpos.harness import GaussianSq, apply_noise, generate_scenario, run_pipeline
loaded = ["scipy.optimize" in sys.modules]
sc = apply_noise(generate_scenario(6, seed=1), GaussianSq(2.0), seed=2)
report = run_pipeline(sc)
loaded.append("scipy.optimize" in sys.modules)
oracle = run_pipeline(sc, "nlp")
print(loaded, report.method, oracle.method, "scipy.optimize" in sys.modules)
"""


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in source but never referenced by name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scanner_flags_only_unreferenced_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nnp.zeros(c)\n"
    assert unused_imports(source) == ["os (line 1)", "d (line 3)"]


def test_package_modules_have_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def referenced_names(source: str) -> set[str]:
    """Every name source refers to: as a name, as an attribute, or in an import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, [node.name, node.asname]))
    return names


def test_every_export_has_a_caller():
    """Each name in edmpos.__all__ is used by another package module or by the benchmark."""
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"] + BENCHMARK_CALLERS
    referenced = set().union(*(referenced_names(p.read_text()) for p in callers))
    assert sorted(set(edmpos.__all__) - referenced) == []


def test_scipy_is_imported_only_when_the_oracle_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["[False,", "False]", "secular-gen", "nlp-oracle", "True"]
