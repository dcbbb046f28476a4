"""Bracketed root finding for monotone scalar functions.

Small self-contained helper used by the closed-form solver.
The Illinois variant of regula falsi keeps the bracket valid at every step
and converges far faster than plain halving on the smooth, monotone
functions encountered here, while degrading gracefully to bisection.
"""

from __future__ import annotations

from typing import Callable

from .errors import NoBracket

_MAX_EXPAND = 200
_MAX_ITER = 400
_FIRST_STEP = 0.5  # first outward step of a bracket search
_ROOT_STEP = 1e-12  # a root is returned once its bracket is this narrow


def expand_bracket(
    f: Callable[[float], float],
    start: float,
    upper_limit: float | None,
) -> tuple[float, float, float, float]:
    """Find lo < hi with f(lo) < 0 < f(hi) for increasing f.

    Doubles outward from ``start``.  When ``upper_limit`` is given (an open
    domain boundary where f blows up), the upward search approaches it
    geometrically from the inside instead of stepping past it.
    """
    x0 = start
    if upper_limit is not None and x0 >= upper_limit:
        x0 = upper_limit - _FIRST_STEP
    f0 = f(x0)
    if f0 == 0.0:
        return x0, x0, 0.0, 0.0

    if f0 > 0.0:
        # Root is below: walk down.
        step = _FIRST_STEP
        hi, fhi = x0, f0
        for _ in range(_MAX_EXPAND):
            lo = hi - step
            flo = f(lo)
            if flo < 0.0:
                return lo, hi, flo, fhi
            if flo == 0.0:
                return lo, lo, 0.0, 0.0
            hi, fhi = lo, flo
            step *= 2.0
        raise NoBracket(f"no sign change below start={start!r}")

    # f0 < 0: walk up.
    lo, flo = x0, f0
    if upper_limit is None:
        step = _FIRST_STEP
        for _ in range(_MAX_EXPAND):
            hi = lo + step
            fhi = f(hi)
            if fhi > 0.0:
                return lo, hi, flo, fhi
            if fhi == 0.0:
                return hi, hi, 0.0, 0.0
            lo, flo = hi, fhi
            step *= 2.0
        raise NoBracket(f"no sign change above start={start!r}")

    # Bounded domain: the function blows up at the boundary, so a sign
    # change must appear as we close in on it.
    gap = upper_limit - lo
    for _ in range(_MAX_EXPAND):
        gap *= 0.5
        hi = upper_limit - gap
        fhi = f(hi)
        if fhi > 0.0:
            return lo, hi, flo, fhi
        if fhi == 0.0:
            return hi, hi, 0.0, 0.0
        lo, flo = hi, fhi
        if gap < 1e-300:
            break
    raise NoBracket(f"no sign change inside domain boundary {upper_limit!r}")


def illinois(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    flo: float,
    fhi: float,
) -> float:
    """Root of f in [lo, hi] given f(lo) < 0 < f(hi), to absolute ``_ROOT_STEP``."""
    if lo == hi:
        return lo
    side = 0
    for _ in range(_MAX_ITER):
        if hi - lo <= _ROOT_STEP:
            break
        denom = fhi - flo
        if denom == 0.0 or not (denom == denom):  # zero or NaN: bisect
            mid = 0.5 * (lo + hi)
        else:
            mid = hi - fhi * (hi - lo) / denom
            if not (lo < mid < hi):
                mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if fmid < 0.0:
            lo, flo = mid, fmid
            if side == -1:
                fhi *= 0.5
            side = -1
        else:
            hi, fhi = mid, fmid
            if side == 1:
                flo *= 0.5
            side = 1
    return 0.5 * (lo + hi)


def solve_decreasing(
    f: Callable[[float], float],
    start: float = 0.0,
    upper_limit: float | None = None,
) -> float:
    """Unique zero of a strictly decreasing f, bracketing from ``start``."""

    def neg(x):
        return -f(x)

    lo, hi, flo, fhi = expand_bracket(neg, start, upper_limit)
    return illinois(neg, lo, hi, flo, fhi)
