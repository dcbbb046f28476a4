"""Evaluable symbolic matrices of measure masses.

Each matrix entry is a (possibly empty) list of atom families.  The k-th
atom of a family sits at log-length -ln(rho0 * r^k) and carries mass w_k,
so its (q, alpha)-value is w_k^q * (rho0 * r^k)^(-alpha).  Finite families
and pure geometric weight sequences are summed in closed form; weight
sequences with a binomial-sum structure are summed by adaptive truncation
with an analytic tail majorant, so every reported value carries a certified
relative error.

Structural zeros are represented as empty entries (never tiny floats) so
that communication-class detection downstream is exact.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainViolation, InvalidParams

_SERIES_TOL = 1e-12  # certified relative error of every truncated series sum
_MAX_TERMS = 1 << 26


# ---------------------------------------------------------------------------
# Weight sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    """w_k = c."""

    c: float

    def log_values(self, ks: np.ndarray) -> np.ndarray:
        return np.full(ks.shape, math.log(self.c))

    @property
    def growth_base(self) -> float:
        return 1.0


@dataclass(frozen=True)
class GeometricPower:
    """w_k = c * a^k."""

    c: float
    a: float

    def log_values(self, ks: np.ndarray) -> np.ndarray:
        return math.log(self.c) + ks * math.log(self.a)

    @property
    def growth_base(self) -> float:
        return self.a


@dataclass(frozen=True)
class BinomialSum:
    """w_k = c * sum_{j=0..k} a^j b^{k-j}.

    With a == b this degenerates to c * (k+1) * a^k.  Values are computed in
    log space through the factorization sum = hi^k * (1 - (lo/hi)^{k+1}) /
    (1 - lo/hi), which never overflows.
    """

    c: float
    a: float
    b: float

    def log_values(self, ks: np.ndarray) -> np.ndarray:
        hi = max(self.a, self.b)
        lo = min(self.a, self.b)
        ratio = lo / hi
        if ratio >= 1.0 - 1e-14:
            log_sgeo = np.log(ks + 1.0)
        else:
            with np.errstate(under="ignore"):
                log_sgeo = np.log1p(-np.power(ratio, ks + 1.0)) - math.log1p(-ratio)
        return math.log(self.c) + ks * math.log(hi) + log_sgeo

    @property
    def growth_base(self) -> float:
        return max(self.a, self.b)


WeightSequence = Constant | GeometricPower | BinomialSum
_WEIGHT_KINDS = {"constant": Constant, "geometric": GeometricPower, "binomial_sum": BinomialSum}


def weight_to_dict(w: WeightSequence) -> dict:
    kind = next(k for k, cls in _WEIGHT_KINDS.items() if type(w) is cls)
    return {"kind": kind, **asdict(w)}


def weight_from_dict(d: dict) -> WeightSequence:
    cls = _WEIGHT_KINDS.get(d["kind"])
    if cls is None:
        raise InvalidParams(f"unknown weight kind {d['kind']!r}")
    return cls(**{k: v for k, v in d.items() if k != "kind"})


# ---------------------------------------------------------------------------
# Atom families and entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomFamily:
    """Atoms at log-lengths -ln(rho0 * r^k), k = k_start..k_end, mass w_k."""

    weight: WeightSequence
    base_ratio: float
    step_ratio: float = 1.0
    k_start: int = 0
    k_end: int | None = 0  # None means infinite

    @property
    def infinite(self) -> bool:
        return self.k_end is None

    def domain_sup(self, q: float) -> float | None:
        """Open upper bound on alpha for convergence; None if unconstrained."""
        if not self.infinite:
            return None
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
        log_r = math.log(self.step_ratio) if self.step_ratio != 1.0 else 0.0

        if not self.infinite:
            if self.k_end == self.k_start and isinstance(self.weight, Constant):
                # Single atom: scalar fast path.
                log_w = math.log(self.weight.c)
                log_len = log_rho0 + self.k_start * log_r
                s = math.exp(q * log_w - alpha * log_len)
                if not grads:
                    return s
                return s, s * log_w, -s * log_len
            ks = np.arange(self.k_start, self.k_end + 1, dtype=float)
            return self._sum_terms(ks, q, alpha, log_rho0, log_r, grads)

        if isinstance(self.weight, BinomialSum):
            return self._sum_truncated(q, alpha, log_rho0, log_r, grads)
        return self._sum_geometric(q, alpha, log_rho0, log_r, grads)

    # -- closed forms -------------------------------------------------------

    def _sum_geometric(self, q, alpha, log_rho0, log_r, grads):
        w = self.weight
        log_a = math.log(w.growth_base) if w.growth_base != 1.0 else 0.0
        log_zeta = q * log_a - alpha * log_r
        if log_zeta >= 0.0:
            raise DomainViolation(
                f"geometric family ratio exp({log_zeta:.3g}) >= 1 at q={q}, alpha={alpha}"
            )
        zeta = math.exp(log_zeta)
        amp = math.exp(q * math.log(w.c) - alpha * log_rho0)
        k0 = self.k_start
        zk0 = math.exp(k0 * log_zeta)
        s = amp * zk0 / (1.0 - zeta)
        if not grads:
            return s
        # sum_{k>=k0} k zeta^k = zeta^k0 (k0 (1-zeta) + zeta) / (1-zeta)^2
        sk = amp * zk0 * (k0 * (1.0 - zeta) + zeta) / (1.0 - zeta) ** 2
        sq = math.log(w.c) * s + log_a * sk
        sa = -log_rho0 * s - log_r * sk
        return s, sq, sa

    # -- vectorized partial sums --------------------------------------------

    def _sum_terms(self, ks, q, alpha, log_rho0, log_r, grads):
        log_w = self.weight.log_values(ks)
        log_len = log_rho0 + ks * log_r
        with np.errstate(under="ignore"):
            terms = np.exp(q * log_w - alpha * log_len)
        s = float(np.sum(terms))
        if not grads:
            return s
        sq = float(np.sum(terms * log_w))
        sa = -float(np.sum(terms * log_len))
        return s, sq, sa

    def _sum_truncated(self, q, alpha, log_rho0, log_r, grads):
        w = self.weight
        log_hi = math.log(w.growth_base)
        log_zeta = q * log_hi - alpha * log_r
        if log_zeta >= 0.0:
            raise DomainViolation(
                f"series ratio exp({log_zeta:.3g}) >= 1 at q={q}, alpha={alpha}"
            )
        log_amp = q * math.log(w.c) - alpha * log_rho0
        lw_const = abs(math.log(w.c)) + abs(log_hi) + 1.0
        ll_const = abs(log_rho0) + abs(log_r)
        s = sq = sa = 0.0
        k_next = self.k_start
        batch = 64
        while True:
            ks = np.arange(k_next, k_next + batch, dtype=float)
            part = self._sum_terms(ks, q, alpha, log_rho0, log_r, True)
            s += part[0]
            sq += part[1]
            sa += part[2]
            k_next += batch
            batch = min(2 * batch, 1 << 20)

            # Tail majorant: terms beyond K obey T_k <= amp (k+1)^q zeta^k,
            # and the ln-weighted variants gain one polynomial degree.
            kk = float(k_next)  # next index to be summed
            log_u = log_amp + q * math.log(kk + 1.0) + kk * log_zeta
            eta = math.exp(log_zeta) * ((kk + 2.0) / (kk + 1.0)) ** (q + 1.0)
            if eta < 1.0 and log_u < 700.0:
                u = math.exp(log_u)
                tail_s = u / (1.0 - eta)
                ok = tail_s <= _SERIES_TOL * (abs(s) + 1e-300)
                if ok and grads:
                    u1 = u * (kk + 1.0)
                    tail_g = u1 / (1.0 - eta)
                    ok = (
                        lw_const * tail_g <= _SERIES_TOL * (abs(sq) + abs(s) + 1e-300)
                        and ll_const * tail_g <= _SERIES_TOL * (abs(sa) + abs(s) + 1e-300)
                    )
                if ok:
                    break
            if k_next - self.k_start > _MAX_TERMS:
                raise DomainViolation(
                    f"series at q={q}, alpha={alpha} converges too slowly "
                    f"(ratio {math.exp(log_zeta):.12g})"
                )
        if grads:
            return s, sq, sa
        return s

    def to_dict(self) -> dict:
        return {
            "weight": weight_to_dict(self.weight),
            "base_ratio": self.base_ratio,
            "step_ratio": self.step_ratio,
            "k_range": [self.k_start, self.k_end],
        }


def family_from_dict(d: dict) -> AtomFamily:
    k0, k1 = d["k_range"]
    return AtomFamily(
        weight=weight_from_dict(d["weight"]),
        base_ratio=d["base_ratio"],
        step_ratio=d["step_ratio"],
        k_start=k0,
        k_end=k1,
    )


@dataclass(frozen=True)
class EntrySpec:
    """One matrix entry: a list of atom families; empty = structural zero."""

    families: tuple[AtomFamily, ...] = ()

    @property
    def is_zero(self) -> bool:
        return not self.families

    def to_dict(self) -> list:
        return [f.to_dict() for f in self.families]


def entry_value(entry: EntrySpec, q: float, alpha: float) -> float:
    """Total mass of an entry at (q, alpha)."""
    return math.fsum(f.evaluate(q, alpha) for f in entry.families)


def atom(c: float, ratio: float) -> AtomFamily:
    """A single atom of mass c at log-length -ln(ratio)."""
    return AtomFamily(weight=Constant(c), base_ratio=ratio, step_ratio=1.0, k_start=0, k_end=0)


def geometric_family(c: float, a: float, rho0: float, r: float) -> AtomFamily:
    """Masses c*a^k at log-lengths -ln(rho0*r^k), k >= 0."""
    return AtomFamily(weight=GeometricPower(c, a), base_ratio=rho0, step_ratio=r, k_start=0, k_end=None)


def binomial_family(c: float, a: float, b: float, rho0: float, r: float) -> AtomFamily:
    """Masses c*sum a^j b^(k-j) at log-lengths -ln(rho0*r^k), k >= 0."""
    return AtomFamily(weight=BinomialSum(c, a, b), base_ratio=rho0, step_ratio=r, k_start=0, k_end=None)


# ---------------------------------------------------------------------------
# Matrix spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureMatrixSpec:
    """n x n matrix of entries, one alpha slot per graph component.

    ``scc_of[i]`` names the graph component whose alpha parameterizes row i;
    ``labels[i]`` is the 1-based cell index used in reports.
    """

    n: int
    entries: tuple[tuple[EntrySpec, ...], ...]
    scc_of: tuple[int, ...]
    dim: int
    labels: tuple[int, ...] = ()
    family_id: str = ""

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels", tuple(range(1, self.n + 1)))

    @property
    def num_scc(self) -> int:
        return max(self.scc_of) + 1

    def support(self) -> np.ndarray:
        """Boolean support pattern (exact: empty entries are zeros)."""
        return np.array(
            [[not self.entries[i][j].is_zero for j in range(self.n)] for i in range(self.n)]
        )

    def row_alpha(self, alpha) -> list[float]:
        """Expand a scalar or per-component alpha into one value per row."""
        if np.ndim(alpha) == 0:
            return [float(alpha)] * self.n
        alpha = list(np.asarray(alpha, dtype=float))
        if len(alpha) != self.num_scc:
            raise ValueError(f"expected {self.num_scc} alpha values, got {len(alpha)}")
        return [alpha[self.scc_of[i]] for i in range(self.n)]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "dim": self.dim,
            "family_id": self.family_id,
            "labels": list(self.labels),
            "scc_of": list(self.scc_of),
            "entries": [[self.entries[i][j].to_dict() for j in range(self.n)] for i in range(self.n)],
        }

    @staticmethod
    def from_dict(d: dict) -> "MeasureMatrixSpec":
        entries = tuple(
            tuple(EntrySpec(tuple(family_from_dict(f) for f in cell)) for cell in row)
            for row in d["entries"]
        )
        return MeasureMatrixSpec(
            n=d["n"],
            entries=entries,
            scc_of=tuple(d["scc_of"]),
            dim=d["dim"],
            labels=tuple(d.get("labels", ())),
            family_id=d.get("family_id", ""),
        )


def row_sum_F(spec: MeasureMatrixSpec, row: int, q: float, alpha: float) -> float:
    """Total mass of one row; strictly increasing and continuous in alpha."""
    return math.fsum(entry_value(spec.entries[row][j], q, alpha) for j in range(spec.n))


def in_domain(spec: MeasureMatrixSpec, q: float, alpha) -> bool:
    """True iff every infinite family converges at its row's alpha."""
    row_alpha = spec.row_alpha(alpha)
    for i in range(spec.n):
        for j in range(spec.n):
            for fam in spec.entries[i][j].families:
                sup = fam.domain_sup(q)
                if sup is not None and row_alpha[i] >= sup:
                    return False
    return True


def matrix_at(spec: MeasureMatrixSpec, q: float, alpha) -> np.ndarray:
    """Dense nonnegative matrix of entry values at (q, alpha)."""
    row_alpha = spec.row_alpha(alpha)
    out = np.zeros((spec.n, spec.n))
    for i in range(spec.n):
        for j in range(spec.n):
            entry = spec.entries[i][j]
            if entry.is_zero:
                continue
            try:
                out[i, j] = entry_value(entry, q, row_alpha[i])
            except DomainViolation as exc:
                raise DomainViolation(f"row {spec.labels[i]}, col {spec.labels[j]}: {exc}") from exc
    return out


@dataclass(frozen=True)
class CompiledBlock:
    """A principal block of a spec, compiled for repeated evaluation.

    Finite families are expanded into flat atom arrays (flat cell index,
    ln w, ln L), so their share of the block at (q, alpha) is one ``exp``
    and one ``bincount`` per output.  Each distinct infinite family is
    summed once per call and added to every cell that holds it.
    """

    size: int
    cells: np.ndarray
    log_w: np.ndarray
    log_len: np.ndarray
    series: tuple[tuple[AtomFamily, tuple[int, ...]], ...]

    def domain_sup(self, q: float) -> float | None:
        sups = [s for fam, _ in self.series if (s := fam.domain_sup(q)) is not None]
        return min(sups) if sups else None

    def evaluate(self, q: float, alpha: float):
        """The block M and its partials dM/dq, dM/dalpha at (q, alpha)."""
        n2 = self.size * self.size
        with np.errstate(over="ignore", under="ignore"):
            terms = np.exp(q * self.log_w - alpha * self.log_len)
        m = np.bincount(self.cells, terms, n2)
        mq = np.bincount(self.cells, terms * self.log_w, n2)
        ma = np.bincount(self.cells, -terms * self.log_len, n2)
        for fam, cells in self.series:
            s, sq, sa = fam.evaluate(q, alpha, grads=True)
            for c in cells:
                m[c] += s
                mq[c] += sq
                ma[c] += sa
        shape = (self.size, self.size)
        return m.reshape(shape), mq.reshape(shape), ma.reshape(shape)


def compile_block(spec: MeasureMatrixSpec, members) -> CompiledBlock:
    """Compile the principal block of ``spec`` on the rows ``members``."""
    members = list(members)
    cells, log_w, log_len = [], [], []
    series: dict[AtomFamily, list[int]] = {}
    for a, i in enumerate(members):
        for b, j in enumerate(members):
            cell = a * len(members) + b
            for fam in spec.entries[i][j].families:
                if fam.infinite:
                    series.setdefault(fam, []).append(cell)
                    continue
                ks = np.arange(fam.k_start, fam.k_end + 1, dtype=float)
                log_r = math.log(fam.step_ratio)
                cells.extend([cell] * len(ks))
                log_w.extend(fam.weight.log_values(ks))
                log_len.extend(math.log(fam.base_ratio) + ks * log_r)
    return CompiledBlock(
        size=len(members),
        cells=np.array(cells, dtype=np.intp),
        log_w=np.array(log_w, dtype=float),
        log_len=np.array(log_len, dtype=float),
        series=tuple((fam, tuple(c)) for fam, c in series.items()),
    )


# ---------------------------------------------------------------------------
# Built-in family matrices
# ---------------------------------------------------------------------------

def build_matrix_spec(p, check_geometry: bool = True) -> MeasureMatrixSpec:
    """Symbolic matrix for a built-in family (``families.FamilyParams``).

    ``check_geometry=False`` skips the family's geometric constraint (the
    non-overlap condition on (rho, r)); the matrix algebra, and in
    particular the lattice structure of its log-length spectrum, is well
    defined for any ratios in (0, 1), which the commensurability analyses
    exploit.
    """
    from .families import resolve  # the family table is built on this module

    fam, w = resolve(p, geometry=check_geometry)
    n = len(fam.cell_labels)
    grid = [[EntrySpec() for _ in range(n)] for _ in range(n)]
    for (i, j), fams in fam.cells(p, w).items():
        grid[i][j] = EntrySpec(tuple(fams))
    return MeasureMatrixSpec(
        n=n,
        entries=tuple(tuple(row) for row in grid),
        scc_of=fam.cell_scc,
        dim=fam.dim,
        labels=fam.cell_labels,
        family_id=fam.id,
    )
