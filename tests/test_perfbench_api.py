"""Everything the frozen benchmark under perfbench/ uses of edmpos still exists and binds.

perfbench/workloads.py and perfbench/run.py are parsed, not run or edited.
Every name they import from edmpos, every attribute they read from such a
name (``H.run_pipeline``, ``W.H.run_pipeline``), and every call they make to
one (``augmented_edm_check(bundle, meas.dm)``) must resolve against the
package and accept the call's positional and keyword arguments.  A refactor
that renames or re-signs one of them fails here instead of in the benchmark.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path
from types import ModuleType, SimpleNamespace

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
FILES = ("workloads.py", "run.py")


def _resolve(node, scope: dict):
    """The object an expression of names and attributes denotes, None if not an edmpos one.

    Raises AttributeError when an attribute of an edmpos object is missing.
    """
    if isinstance(node, ast.Name):
        return scope.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, scope)
        if base is None:
            return None
        if isinstance(base, SimpleNamespace):  # a sibling module: only its edmpos names count
            return getattr(base, node.attr, None)
        if isinstance(node.value, ast.Call) and isinstance(base, type):
            # an attribute of a freshly built instance: a field or a class attribute
            if dataclasses.is_dataclass(base) and node.attr in {
                    f.name for f in dataclasses.fields(base)}:
                return None
        return getattr(base, node.attr)
    if isinstance(node, ast.Call):  # a class called: its instance's attributes are the class's
        cls = _resolve(node.func, scope)
        return cls if isinstance(cls, type) else None
    return None


def _bindings(tree: ast.Module, files: dict) -> dict:
    """Names a benchmark file binds to edmpos objects, its sibling modules, or aliases of them."""
    scope = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("edmpos"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                scope[alias.asname or alias.name] = getattr(module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "edmpos":
                    scope[alias.asname or "edmpos"] = importlib.import_module("edmpos")
                elif alias.name in files:  # a sibling benchmark module: its own bindings
                    scope[alias.asname or alias.name] = SimpleNamespace(**files[alias.name])
    for node in tree.body:  # module-level aliases such as _prepare = H.prepare_scenario
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            try:
                obj = _resolve(node.value, scope)
            except AttributeError:
                continue  # reported where the expression is checked
            if obj is not None and isinstance(node.value, (ast.Name, ast.Attribute)):
                scope[node.targets[0].id] = obj
    return scope


def api_problems(sources: dict[str, str]) -> tuple[list[str], set[str]]:
    """(what fails to resolve or bind, the edmpos names that were checked) over named sources."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    scopes: dict[str, dict] = {}
    for name in sorted(trees, key=lambda m: m != "workloads"):  # workloads first: run reads it
        scopes[name] = _bindings(trees[name], scopes)
    problems, checked = [], set()
    for name, tree in trees.items():
        scope = scopes[name]
        for node in ast.walk(tree):
            where = f"{name}.py:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Attribute):
                try:
                    obj = _resolve(node, scope)
                except AttributeError as exc:
                    problems.append(f"{where}: {exc}")
                    continue
                if obj is not None and not isinstance(obj, (ModuleType, SimpleNamespace)):
                    checked.add(node.attr)
            elif isinstance(node, ast.Call):
                try:
                    fn = _resolve(node.func, scope)
                except AttributeError:
                    continue  # reported by the attribute check
                if fn is None or not callable(fn) or isinstance(fn, SimpleNamespace):
                    continue
                if any(isinstance(a, ast.Starred) for a in node.args) or any(
                        kw.arg is None for kw in node.keywords):
                    continue
                checked.add(getattr(fn, "__name__", repr(fn)))
                try:
                    inspect.signature(fn).bind(*node.args, **{kw.arg: kw for kw in node.keywords})
                except TypeError as exc:
                    problems.append(f"{where}: {ast.unparse(node.func)}(...): {exc}")
    return problems, checked


def test_scanner_flags_missing_names_and_bad_calls():
    sources = {
        "workloads": "from edmpos import harness as H\n"
                     "from edmpos.edm_core import augmented_edm_check\n"
                     "_prepare = H.prepare_scenario\n"
                     "H.no_such_stage\n"
                     "augmented_edm_check(bundle)\n"
                     "_prepare(sc, opts, extra)\n"
                     "H.PipelineOptions().kappa_tol\n",
        "run": "import workloads as W\nW.H.run_pipeline(sc)\nW.H.gone(sc)\n",
    }
    problems, checked = api_problems(sources)
    assert [p.split(":")[1] for p in problems] == ["4", "5", "6", "3"], problems
    assert {"prepare_scenario", "augmented_edm_check", "run_pipeline"} <= checked


def test_benchmark_uses_only_what_edmpos_provides():
    sources = {name[:-3]: (BENCH / name).read_text() for name in FILES}
    problems, checked = api_problems(sources)
    assert problems == []
    # the scan must reach the stages the benchmark times and checks
    assert {"augmented_edm_check", "prepare_scenario", "nlp_oracle", "run_batch",
            "run_pipeline", "generate_scenario", "apply_noise", "BatchSpec",
            "kappa_band"} <= checked
