"""Closed-form characteristic functions for the built-in families.

Each family's spectral condition factors into functions H(q, alpha) whose
unique roots in alpha are the per-class exponents; the overall exponent is
their minimum.  The factors themselves are written in ``families``; this
module holds the machinery they share.  Partials in q and alpha are
assembled term by term: every atom term m^q L^(-alpha) differentiates to
m^q L^(-alpha) ln m in q and -m^q L^(-alpha) ln L in alpha, and infinite
sums reuse the matrix entries' series sums, with their fixed relative
truncation bound of 1e-15.  tau'(q) = -f_q / f_alpha at the root of the
attaining factor f is the only derivative formula; the paper's long-form
expansions of it are checked in the tests, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ._roots import solve_decreasing
from .errors import DomainViolation, SingularHalpha
from .matrix import AtomFamily


# ---------------------------------------------------------------------------
# Forward-mode values carrying (value, d/dq, d/dalpha)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Val:
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
    """mass^q * ratio^(-alpha) with its two partials; DomainViolation where
    it overflows a float."""
    lm, lr = math.log(mass), math.log(ratio)
    try:
        v = math.exp(q * lm - alpha * lr)
    except OverflowError:
        raise DomainViolation(
            f"the atom term {mass!r}^q * {ratio!r}^(-alpha) overflows a float at q={q!r}, "
            f"alpha={alpha!r}"
        ) from None
    return Val(v, v * lm, -v * lr)


def _series_val(fam: AtomFamily, q: float, alpha: float) -> Val:
    s, sq, sa = fam.evaluate(q, alpha, grads=True)
    return Val(s, sq, sa)


# ---------------------------------------------------------------------------
# Factors and family container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factor:
    """One root-carrying factor of the characteristic function."""

    name: str
    class_labels: tuple[int, ...]  # cell labels of the matching class
    value: Callable[[float, float], Val]  # (q, alpha) -> factor with its two partials
    domain_sup: Callable[[float], float | None]  # q -> open bound on alpha, or None
    # Upper clamp for the root search, if tighter than the domain.  The
    # factor is positive below its root and provably negative at this
    # boundary (a barred term vanishes or a series blows up there), so
    # bracketing inside it cannot land on a spurious sign change beyond the
    # spectral root.
    solve_sup: Callable[[float], float | None] | None = None


@dataclass(frozen=True)
class FactorRoots:
    roots: tuple[float, ...]
    labels: tuple[tuple[int, ...], ...]
    tau: float
    argmin: int


@dataclass(frozen=True)
class ClosedFormFamily:
    family_id: str
    params: object  # families.FamilyParams
    factors: tuple[Factor, ...]

    def solve_factor(self, i: int, q: float, start: float = 0.0) -> float:
        f = self.factors[i]
        sup = (f.solve_sup or f.domain_sup)(q)
        margin = None if sup is None else sup - 1e-15 * max(1.0, abs(sup))
        return solve_decreasing(lambda a: f.value(q, a).v, start=start, upper_limit=margin)

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
