"""In-memory span tracer for edmpos, installed by rebinding module globals.

Every edmpos module binds the functions it calls at import time (for example
``from .edm_core import factor_edm`` in ``harness``), and looks them up in its
own globals on each call.  Replacing each such binding with a wrapper records
a span at every layer boundary without editing the package: name, start,
end, parent span and per-solve id.  The hot inner functions of the root
finder are counted instead of spanned, because a span costs about 1-2 us
against a call of about 15 us.

Nothing is patched until ``install``; ``uninstall`` restores every binding.
A function that a later version of the package removes is simply absent from
the trace, so its per-layer figures read zero.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# layer functions that get a span, keyed by the module that defines them
SPANNED = {
    "harness": ("generate_scenario", "apply_noise", "prepare_scenario",
                "run_pipeline", "run_batch"),
    "edm_core": ("center_configuration", "build_edm", "factor_edm",
                 "augmented_edm_check"),
    "consistency": ("self_consistency_test", "classify_n4"),
    "solver_general": ("solve_qcqp", "build_secular_general", "nlp_oracle"),
    "solver_n4": ("solve_n4", "build_secular_n4"),
    "rootfind": ("find_root_increasing",),
    "position": ("recover_position",),
}

# inner functions called several times per solve: counted, not spanned
COUNTED = {
    "solver_general": ("eval_f", "eval_f_prime"),
    "solver_n4": ("eval_g", "eval_g_prime"),
}

ROOT_FINDER = "rootfind.find_root_increasing"


class Tracer:
    """Collects spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.solve = array("i")
        self.counts: Counter = Counter()
        self.root_evals = 0
        self.solve_id = -1
        self.active = False
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn):
        nid = self._intern(name)
        is_root_finder = name == ROOT_FINDER
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.solve.append(self.solve_id)
            self.start.append(0)
            self.end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if is_root_finder:
                self.root_evals += out.iterations
            return out

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Rebind every edmpos global that names a traced function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for table, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for mod, names in table.items():
                module = sys.modules.get(f"edmpos.{mod}")
                for name in names:
                    fn = getattr(module, name, None)
                    if callable(fn):
                        wrappers[id(fn)] = (fn, make(f"{mod}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "edmpos" and not modname.startswith("edmpos."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        self.active = False

    def arrays(self):
        """Spans as numpy arrays: (names, name_id, start_ns, end_ns, parent, solve)."""
        import numpy as np

        return (
            list(self.names),
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.int64).copy(),
            np.frombuffer(self.end, dtype=np.int64).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.solve, dtype=np.int32).copy(),
        )

    def write(self, path) -> None:
        """Write every recorded span to an .npz file."""
        import numpy as np

        names, name_id, start, end, parent, solve = self.arrays()
        np.savez(path, names=np.array(names), name_id=name_id, start_ns=start,
                 end_ns=end, parent=parent, solve=solve)


def layer_times(tracer: Tracer) -> dict[str, dict]:
    """Per span name: durations and self times in microseconds.

    Self time is a span's duration minus the durations of its direct
    children; the process is single-threaded, so children never overlap.
    """
    import numpy as np

    names, name_id, start, end, parent, _ = tracer.arrays()
    dur = (end - start).astype(float) / 1e3
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_us = dur - child[: dur.size]
    return {name: {"us": dur[name_id == nid], "self_us": self_us[name_id == nid]}
            for nid, name in enumerate(names)}


def short_circuits(tracer: Tracer) -> tuple[int, int]:
    """(solver calls that reached neither the root finder nor the oracle, solver calls).

    Such a call took the multiplier-zero short circuit.
    """
    import numpy as np

    names, name_id, _, _, parent, _ = tracer.arrays()

    def ids(*wanted):
        return [names.index(w) for w in wanted if w in names]

    solvers = np.flatnonzero(np.isin(name_id, ids("solver_general.solve_qcqp",
                                                  "solver_n4.solve_n4")))
    deeper = np.isin(name_id, ids(ROOT_FINDER, "solver_general.nlp_oracle"))
    went_deeper = np.isin(solvers, parent[deeper])
    return int((~went_deeper).sum()), int(solvers.size)
