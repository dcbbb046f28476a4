"""Evaluable symbolic matrices of measure masses.

A matrix entry is a tuple of terms, each of one of two kinds:

- an atom ``(mass, ratio)``, whose (q, alpha)-value is
  mass^q * ratio^(-alpha);
- a series, an ``AtomFamily``: its k-th atom, k >= 0, sits at
  log-length -ln(rho0 * r^k) and carries mass w_k.  Geometric weight
  sequences are summed in closed form; binomial-sum sequences by
  ``_series.binomial_sums``, in plain floats, with a truncation error of
  at most ``_SERIES_TOL`` relative and a number of terms that does not grow
  near the convergence edge.

A ``MeasureMatrixSpec`` holds a matrix sparsely, as the map
{(i, j): terms} that a built-in family's table builds
(``build_matrix_spec``).  A missing key is a structural zero (never a tiny
float), so the support, held as one bitmask per row, is exact and so is
the communication-class detection downstream.  The solve path evaluates a
spec only through ``compile_block``: a principal block, held as plain
floats, whose ``evaluate`` returns the block and its partials in q and
alpha at one point as lists of rows.  ``entry_value`` sums one entry on its
own.  Nothing here imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._series import binomial_sums
from .errors import DomainViolation

# Truncation bound of each binomial-series sum, relative: well below the
# 1e-12 that the goldens check, so the sums are exact to a few roundings.
_SERIES_TOL = 1e-15


# ---------------------------------------------------------------------------
# Weight sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometricPower:
    """w_k = c * a^k."""

    c: float
    a: float

    @property
    def growth_base(self) -> float:
        return self.a


@dataclass(frozen=True)
class BinomialSum:
    """w_k = c * sum_{j=0..k} a^j b^{k-j}.

    With hi = max(a, b) and x = min(a, b) / hi this is
    c * hi^k * (1 - x^(k+1)) / (1 - x), and c * (k+1) * a^k when a == b.
    """

    c: float
    a: float
    b: float

    @property
    def growth_base(self) -> float:
        return max(self.a, self.b)


# ---------------------------------------------------------------------------
# Series and entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomFamily:
    """A series: atoms at log-lengths -ln(rho0 * r^k), k >= 0, with mass w_k."""

    weight: GeometricPower | BinomialSum
    base_ratio: float
    step_ratio: float

    def domain_sup(self, q: float) -> float:
        """Open upper bound on alpha for convergence."""
        # zeta = growth_base^q * r^(-alpha) < 1
        return q * math.log(self.weight.growth_base) / math.log(self.step_ratio)

    def evaluate(self, q: float, alpha: float, grads: bool = False):
        """Sum of atom values; optionally the ln(w)- and length-weighted sums.

        Returns S or (S, Sq, Sa) with
            S  = sum_k w_k^q L_k^(-alpha),
            Sq = sum_k w_k^q L_k^(-alpha) ln w_k          (d/dq of each term),
            Sa = -sum_k w_k^q L_k^(-alpha) ln L_k         (d/dalpha of each term),
        where L_k = rho0 * r^k.
        """
        log_rho0 = math.log(self.base_ratio)
        log_r = math.log(self.step_ratio)
        if isinstance(self.weight, BinomialSum):
            return self._sum_binomial(q, alpha, log_rho0, log_r, grads)
        return self._sum_geometric(q, alpha, log_rho0, log_r, grads)

    def _sum_geometric(self, q, alpha, log_rho0, log_r, grads):
        w = self.weight
        log_a = math.log(w.a)
        log_zeta = q * log_a - alpha * log_r
        if log_zeta >= 0.0:
            raise DomainViolation(
                f"geometric family ratio exp({log_zeta:.3g}) >= 1 at q={q}, alpha={alpha}"
            )
        zeta = math.exp(log_zeta)
        amp = math.exp(q * math.log(w.c) - alpha * log_rho0)
        s = amp / (1.0 - zeta)
        if not grads:
            return s
        # sum_{k>=0} k zeta^k = zeta / (1-zeta)^2
        sk = amp * zeta / (1.0 - zeta) ** 2
        sq = math.log(w.c) * s + log_a * sk
        sa = -log_rho0 * s - log_r * sk
        return s, sq, sa

    def _sum_binomial(self, q, alpha, log_rho0, log_r, grads):
        w = self.weight
        log_c = math.log(w.c)
        log_hi = math.log(w.growth_base)
        log_zeta = q * log_hi - alpha * log_r
        if not log_zeta < 0.0:
            raise DomainViolation(
                f"series ratio exp({log_zeta:.3g}) >= 1 at q={q}, alpha={alpha}"
            )
        # ln w_k = ln c + k ln hi + ln h_k, with h_k = sum_{j<=k} x^j and
        # x = e^-delta; lo - hi is exact when 2 lo >= hi, so delta keeps its
        # relative precision as x -> 1.
        hi, lo = w.growth_base, min(w.a, w.b)
        delta = -math.log1p((lo - hi) / hi) if 2.0 * lo >= hi else -math.log(lo / hi)
        try:
            s, s1, sh, _ = binomial_sums(
                q, log_zeta, delta, q * log_c - alpha * log_rho0, _SERIES_TOL
            )
        except OverflowError:  # as an atom does: masses <= 1 make ln w_k <= 0
            return (math.inf, -math.inf, math.inf) if grads else math.inf
        if not grads:
            return s
        return s, log_c * s + log_hi * s1 + sh, -log_rho0 * s - log_r * s1


def entry_value(terms, q: float, alpha: float) -> float:
    """Total mass at (q, alpha) of one entry, a tuple of atoms and series."""
    return math.fsum(
        t.evaluate(q, alpha) if isinstance(t, AtomFamily)
        else math.exp(q * math.log(t[0]) - alpha * math.log(t[1]))
        for t in terms
    )


def geometric_family(c: float, a: float, rho0: float, r: float) -> AtomFamily:
    """Masses c*a^k at log-lengths -ln(rho0*r^k), k >= 0."""
    return AtomFamily(GeometricPower(c, a), rho0, r)


def binomial_family(c: float, a: float, b: float, rho0: float, r: float) -> AtomFamily:
    """Masses c*sum a^j b^(k-j) at log-lengths -ln(rho0*r^k), k >= 0."""
    return AtomFamily(BinomialSum(c, a, b), rho0, r)


# ---------------------------------------------------------------------------
# Matrix spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureMatrixSpec:
    """An n x n matrix held sparsely.

    ``cells[(i, j)]`` is the nonempty tuple of terms of entry (i, j); a
    missing key is a structural zero.  ``labels[i]`` is row i's 1-based
    cell index in reports.
    """

    n: int
    cells: dict[tuple[int, int], tuple]
    labels: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels", tuple(range(1, self.n + 1)))

    def support(self) -> list[int]:
        """The support as row bitmasks: bit j of row i is set when (i, j) is a key."""
        rows = [0] * self.n
        for i, j in self.cells:
            rows[i] |= 1 << j
        return rows


@dataclass(frozen=True)
class CompiledBlock:
    """A principal block of a spec, compiled for repeated evaluation.

    ``atoms`` holds one (flat cell, ln w, ln L) triple per atom and
    ``series`` each distinct series with its flat cells, both in row-major
    cell order.  Blocks that compare equal are the same M(alpha) at every q.
    Each series is summed once per call and added to every cell that holds
    it.
    """

    size: int
    atoms: tuple[tuple[int, float, float], ...]
    series: tuple[tuple[AtomFamily, tuple[int, ...]], ...]

    def domain_sup(self, q: float) -> float | None:
        return min((fam.domain_sup(q) for fam, _ in self.series), default=None)

    def evaluate(self, q: float, alpha: float):
        """The block M and its partials dM/dq, dM/dalpha at (q, alpha), as lists of rows."""
        n = self.size
        m, mq, ma = [0.0] * (n * n), [0.0] * (n * n), [0.0] * (n * n)
        for c, log_w, log_len in self.atoms:
            try:
                t = math.exp(q * log_w - alpha * log_len)
            except OverflowError:
                t = math.inf
            m[c] += t
            mq[c] += t * log_w
            ma[c] -= t * log_len
        for fam, cells in self.series:
            s, sq, sa = fam.evaluate(q, alpha, grads=True)
            for c in cells:
                m[c] += s
                mq[c] += sq
                ma[c] += sa
        return tuple([flat[k:k + n] for k in range(0, n * n, n)] for flat in (m, mq, ma))


def compile_block(spec: MeasureMatrixSpec, members) -> CompiledBlock:
    """Compile the principal block of ``spec`` on the rows ``members``."""
    members = list(members)
    size = len(members)
    atoms, series = [], {}
    for a, i in enumerate(members):
        for b, j in enumerate(members):
            for term in spec.cells.get((i, j), ()):
                if isinstance(term, AtomFamily):
                    series.setdefault(term, []).append(a * size + b)
                else:
                    atoms.append((a * size + b, math.log(term[0]), math.log(term[1])))
    return CompiledBlock(size, tuple(atoms), tuple((fam, tuple(c)) for fam, c in series.items()))


# ---------------------------------------------------------------------------
# Built-in family matrices
# ---------------------------------------------------------------------------

def build_matrix_spec(p) -> MeasureMatrixSpec:
    """Symbolic matrix for a built-in family (``families.FamilyParams``)."""
    from .families import resolve  # the family table is built on this module

    fam, w = resolve(p)
    return MeasureMatrixSpec(
        n=len(fam.cell_labels),
        cells={ij: tuple(terms) for ij, terms in fam.cells(p, w).items()},
        labels=fam.cell_labels,
    )
