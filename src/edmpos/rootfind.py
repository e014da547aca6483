"""Safeguarded scalar root finding for the secular equation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import NoConvergence


@dataclass(frozen=True)
class RootResult:
    root: float
    f_root: float
    iterations: int
    bracket: tuple[float, float]


def find_root_increasing(
    fun: Callable[[float], float],
    dfun: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    ftol: float,
    xtol: float,
    max_iter: int = 200,
) -> RootResult:
    """Root of a strictly increasing function on the open interval (lo, hi).

    Bisection keeps a sign-changing bracket at all times; a Newton step is
    taken instead of the midpoint whenever it lands strictly inside the
    current bracket.  Endpoints are approached but never evaluated: the
    initial probes sit 1e-12*(hi-lo) inside and creep closer only if the sign
    change hides in that margin.

    Stops when |f| <= ftol or the bracket width falls below xtol.
    """
    if not (hi > lo):
        raise NoConvergence(f"empty bracket ({lo}, {hi})")
    span = hi - lo
    margin = 1e-12 * span
    a = lo + margin
    b = hi - margin
    evals = 0

    fa = fun(a)
    evals += 1
    while fa > 0.0 and a - lo > 1e-300:
        a = lo + (a - lo) / 65536.0
        fa = fun(a)
        evals += 1
        if evals > 40:
            break
    fb = fun(b)
    evals += 1
    while fb < 0.0 and hi - b > 1e-300:
        b = hi - (hi - b) / 65536.0
        fb = fun(b)
        evals += 1
        if evals > 80:
            break
    if fa > 0.0 or fb < 0.0:
        raise NoConvergence(
            f"no sign change on ({lo}, {hi}): f({a})={fa}, f({b})={fb}"
        )
    if abs(fa) <= ftol:
        return RootResult(a, fa, evals, (lo, hi))
    if abs(fb) <= ftol:
        return RootResult(b, fb, evals, (lo, hi))

    x = 0.5 * (a + b)
    for _ in range(max_iter):
        fx = fun(x)
        evals += 1
        if abs(fx) <= ftol:
            return RootResult(x, fx, evals, (lo, hi))
        if fx < 0.0:
            a = x
        else:
            b = x
        if b - a <= xtol:
            return RootResult(x, fx, evals, (lo, hi))
        d = dfun(x)
        step = x - fx / d if d > 0.0 else None
        x = step if step is not None and a < step < b else 0.5 * (a + b)
    raise NoConvergence(f"root finder exhausted {max_iter} iterations on ({lo}, {hi})")
