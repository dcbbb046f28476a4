"""Closed-form characteristic functions for the built-in families.

Each family's spectral condition factors into functions H(q, alpha) whose
unique roots in alpha are the per-class exponents; the overall exponent is
their minimum.  The factors themselves are written in ``families``; this
module holds the machinery they share and the search for their roots,
``ClosedFormFamily.solve_factor``.  Partials in q and alpha are assembled
term by term: every atom term m^q L^(-alpha) differentiates to
m^q L^(-alpha) ln m in q and -m^q L^(-alpha) ln L in alpha, and infinite
sums reuse the matrix entries' series sums, with their fixed relative
truncation bound of 1e-15.  tau'(q) = -f_q / f_alpha at the root of the
attaining factor f is the only derivative formula; the paper's long-form
expansions of it are checked in the tests, not here.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import NoBracket, SingularHalpha
from .matrix import AtomFamily

_MAX_STEPS = 200  # steps of a bracket search before NoBracket
_MAX_ITER = 400  # regula falsi steps before the bracket's midpoint is taken
_FIRST_STEP = 0.5  # first step of a bracket search
_ROOT_STEP = 1e-12  # a root is returned once its bracket is this narrow
_MARGIN = 1e-15  # relative margin kept below a factor's bound


# ---------------------------------------------------------------------------
# Forward-mode values carrying (value, d/dq, d/dalpha)
# ---------------------------------------------------------------------------

class Val(NamedTuple):
    v: float
    dq: float = 0.0
    da: float = 0.0

    def __add__(self, other):
        other = _as_val(other)
        return Val(self.v + other.v, self.dq + other.dq, self.da + other.da)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_val(other)
        return Val(self.v - other.v, self.dq - other.dq, self.da - other.da)

    def __rsub__(self, other):
        return _as_val(other).__sub__(self)

    def __mul__(self, other):
        other = _as_val(other)
        return Val(
            self.v * other.v,
            self.dq * other.v + self.v * other.dq,
            self.da * other.v + self.v * other.da,
        )

    __rmul__ = __mul__


def _as_val(x) -> Val:
    return x if isinstance(x, Val) else Val(float(x))


def _qpow(mass: float, ratio: float, q: float, alpha: float) -> Val:
    """mass^q * ratio^(-alpha) with its two partials; +inf where it
    overflows a float, as a block entry does (``CompiledBlock.evaluate``):
    the factor is then -inf, beyond its root, and the root search bisects
    back from it."""
    lm, lr = math.log(mass), math.log(ratio)
    try:
        v = math.exp(q * lm - alpha * lr)
    except OverflowError:
        v = math.inf
    return Val(v, v * lm, -v * lr)


def _series_val(fam: AtomFamily, q: float, alpha: float) -> Val:
    s, sq, sa = fam.evaluate(q, alpha, grads=True)
    return Val(s, sq, sa)


# ---------------------------------------------------------------------------
# Factors and family container
# ---------------------------------------------------------------------------

class Factor(NamedTuple):
    """One root-carrying factor of the characteristic function."""

    name: str
    class_labels: tuple[int, ...]  # cell labels of the matching class
    value: Callable[[float, float], Val]  # (q, alpha) -> factor with its two partials
    # q -> open bound on alpha, or None.  The root search stays below it,
    # so it may be tighter than the domain, wherever the factor is provably
    # negative at it.
    domain_sup: Callable[[float], float | None]


class FactorRoots(NamedTuple):
    roots: tuple[float, ...]
    labels: tuple[tuple[int, ...], ...]
    tau: float
    argmin: int


class ClosedFormFamily(NamedTuple):
    family_id: str
    params: object  # families.FamilyParams
    factors: tuple[Factor, ...]

    def solve_factor(self, i: int, q: float, start: float = 0.0) -> float:
        """Root in alpha of factor i at q; the factor is positive below it.

        Steps from ``start`` (``_FIRST_STEP`` below the bound if not below
        it) double until the sign changes; up toward a finite bound each
        halves the gap instead.  Illinois regula falsi closes the bracket.
        """
        f = self.factors[i]
        bound = f.domain_sup(q)
        top = None if bound is None else bound - _MARGIN * max(1.0, abs(bound))
        x = start if top is None or start < top else top - _FIRST_STEP
        hx = f.value(q, x).v
        if hx == 0.0:
            return x
        down = hx < 0.0  # NaN counts as below the root, as +inf does
        gap = None if down or top is None else top - x
        step = _FIRST_STEP
        for _ in range(_MAX_STEPS):
            if gap is None:
                y = x - step if down else x + step
                step *= 2.0
            else:
                gap *= 0.5
                y = top - gap
            hy = f.value(q, y).v
            if hy == 0.0:
                return y
            if hy > 0.0 if down else hy < 0.0:
                break
            x, hx = y, hy
        else:
            where = "unbounded" if bound is None else f"bound {bound!r}"
            raise NoBracket(f"factor {f.name!r} at q={q!r}: no sign change from "
                            f"start={start!r} ({where}); last alpha {y!r}", q, y, bound)
        lo, hi, hlo, hhi = (y, x, hy, hx) if down else (x, y, hx, hy)
        side = 0  # the end that moved last: -1 lo, 1 hi
        for _ in range(_MAX_ITER):
            if hi - lo <= _ROOT_STEP or math.nextafter(lo, hi) == hi:
                break
            denom = hhi - hlo
            mid = hi - hhi * (hi - lo) / denom if denom else lo
            if not lo < mid < hi:  # also where denom or mid is NaN
                mid = 0.5 * (lo + hi)
            hm = f.value(q, mid).v
            if hm == 0.0:
                return mid
            if hm > 0.0:
                if side == -1:
                    hhi *= 0.5
                lo, hlo, side = mid, hm, -1
            else:
                if side == 1:
                    hlo *= 0.5
                hi, hhi, side = mid, hm, 1
        for x, hx in ((lo, hlo), (hi, hhi)):
            if not math.isfinite(hx):  # e.g. where atom terms overflow next to a finite value
                raise NoBracket(f"factor {f.name!r} at q={q!r} is {hx!r} at alpha={x!r}, an end "
                                f"of its final bracket [{lo!r}, {hi!r}]: no finite sign change",
                                q, x, bound)
        return 0.5 * (lo + hi)

    def solve(self, q: float) -> FactorRoots:
        roots = tuple(self.solve_factor(i, q) for i in range(len(self.factors)))
        arg = min(range(len(roots)), key=lambda i: roots[i])
        return FactorRoots(
            roots=roots,
            labels=tuple(f.class_labels for f in self.factors),
            tau=roots[arg],
            argmin=arg,
        )

    def tau_prime(self, q: float) -> float:
        """d tau / dq at q via the implicit function theorem.

        Uses the factor attaining the minimum: at a simple root of factor f,
        tau'(q) = -f_q / f_alpha, which equals -H_q / H_alpha there.
        """
        sol = self.solve(q)
        fval = self.factors[sol.argmin].value(q, sol.tau)
        if abs(fval.da) <= 1e-12:
            raise SingularHalpha(
                f"alpha-partial {fval.da:.3g} too small at q={q}, alpha={sol.tau}"
            )
        return -fval.dq / fval.da


# ---------------------------------------------------------------------------
# Family builders
# ---------------------------------------------------------------------------

def build_closed_form(p) -> ClosedFormFamily:
    """Factored characteristic function of a built-in family (``families.FamilyParams``)."""
    from .families import resolve  # the family table is built on this module

    fam, w = resolve(p)
    return ClosedFormFamily(fam.id, p, fam.factors(p, w))


def _geom_sup(base: float, step: float):
    """Domain boundary alpha(q) of a series with weight base and length step."""
    lb, ls = math.log(base), math.log(step)

    def sup(q: float) -> float:
        return q * lb / ls

    return sup


def _no_sup(q: float) -> None:
    return None
