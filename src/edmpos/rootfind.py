"""Safeguarded Newton iteration for the secular equation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import NoConvergence

MAX_ITER = 200


@dataclass(frozen=True)
class RootResult:
    root: float
    f_root: float
    iterations: int


def find_root_increasing(
    fun: Callable[[float], float],
    dfun: Callable[[float], float],
    lo: float,
    hi: float,
    x0: float,
    f0: float,
    *,
    ftol: float,
    xtol: float,
) -> RootResult:
    """Root of a strictly increasing function on [lo, hi), where hi may be a pole.

    The search starts at x0 in [lo, hi], where f0 = fun(x0) is already known,
    and takes Newton steps from there.  The bracket starts as (lo, hi) and
    shrinks to the last points where f was seen negative and positive; a step
    that does not land strictly inside it is replaced by its midpoint.  The
    one exception is a step that reaches lo before f was seen negative: f is
    evaluated at lo itself, so a root on that end is found, not crept up on.
    fun is never called at hi.

    Stops when |f| <= ftol, or when the bracket is narrower than xtol with f
    seen on both sides of it.  A bracket that closes with f of one sign only
    holds no sign change and raises NoConvergence, as does an exhausted
    budget.  iterations counts the evaluations of fun, f0 not included.
    """
    if not (hi > lo):
        raise NoConvergence(f"empty bracket ({lo}, {hi})")
    a, b = lo, hi
    below = above = False
    x, fx = x0, f0
    evals = 0
    while True:
        if abs(fx) <= ftol:
            return RootResult(x, fx, evals)
        if fx < 0.0:
            a, below = x, True
        else:
            b, above = x, True
        if b - a <= xtol:
            if below and above:
                return RootResult(x, fx, evals)
            raise NoConvergence(f"no sign change on ({lo}, {hi}): f({x})={fx}")
        if evals == MAX_ITER:
            raise NoConvergence(f"root finder exhausted {MAX_ITER} iterations on ({lo}, {hi})")
        d = dfun(x)
        step = x - fx / d if d > 0.0 else None
        if step is not None and a < step < b:
            x = step
        elif step is not None and step <= a and not below:
            x = lo
        else:
            x = 0.5 * (a + b)
        fx = fun(x)
        evals += 1
