"""Spectral analysis of measure matrices.

Covers Perron-root computation for nonnegative matrices, the communication
class decomposition of a matrix spec's support pattern, the per-class root
alpha_c solving "spectral radius of the class block = 1", the derived
classification (overall exponent, classes attaining it, renewal heights and
asymptotic regime tags), and lattice/non-lattice detection of the cycle
length spectrum.

The classes, which classes each class reaches, the final classes and the
renewal heights all come from one relation, reachability in the support
digraph, computed as reflexive-transitive closures (``_closure``); none of
them depends on q.  The support is read from the spec's sparse map of
entries (each a tuple of atoms and series; a missing key is a zero) as one
bitmask per row, so this part uses plain integers.

Class roots use no eigenvalue iteration and no arrays: a class block is a
few rows of plain floats, and every step below is a plain sum over them.
For a nonnegative block M, one Gaussian elimination of the Z-matrix I - M
with diagonal pivots decides the sign of rho(M) - 1 (M-matrix criterion): a
nonpositive pivot before the last proves rho > 1, and otherwise the last
pivot 1 - g has the sign of 1 - rho, where g is the first-return mass of
the last index.  The same elimination gives positive vectors r and l with
dg = l^T dM r, which drive safeguarded Newton steps in alpha and the slope
d alpha_c / dq used to predict the next root along a curve.  At the root r
is the right Perron vector, and the Collatz-Wielandt bounds
min/max (M r)_i / r_i certify |rho - 1| <= 1e-11.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateClass, InvalidParams, NoConvergence
from .matrix import AtomFamily, CompiledBlock, MeasureMatrixSpec, compile_block
from .matrix import entry_value  # noqa: F401  (public name; bench/tracing.py wraps it here)

_MAX_EVALS = 200
_STEP_TOL = 1e-12  # a root is returned only where its Newton step is this small
_G_TOL = 1e-12  # and |g - 1| is this small
_CERT_TOL = 1e-11  # Collatz-Wielandt bounds at a returned root lie within this of 1
_LATTICE_MAX_DEN = 10**6  # largest denominator of a rational ratio of two generators
_LATTICE_RESIDUAL = 1e-9  # largest distance of a generator from its lattice point


# ---------------------------------------------------------------------------
# Perron root (for tests and users; no solve path calls it)
# ---------------------------------------------------------------------------

def spectral_radius(mat) -> float:
    """Largest-modulus eigenvalue of a nonnegative matrix, given as rows.

    Computed per irreducible diagonal block B by bisection on t, with the
    sign test of ``eliminate``: ``eliminate(B / t).g < 1`` exactly when
    rho(B) < t.  The bracket starts at the smallest and largest row sums of
    B, which bound rho(B), and is halved at its geometric mean until no
    double lies strictly inside.
    """
    mat = [[float(x) for x in row] for row in mat]
    rows = [sum(1 << j for j, x in enumerate(row) if x) for row in mat]
    best = 0.0
    for block_idx in _support_sccs(rows):
        if len(block_idx) == 1:
            i = block_idx[0]
            best = max(best, mat[i][i])
            continue
        sub = [[mat[i][j] for j in block_idx] for i in block_idx]
        if not all(math.isfinite(x) for row in sub for x in row):
            return math.inf
        sums = [sum(row) for row in sub]
        lo, hi = min(sums), max(sums)
        mid = math.sqrt(lo) * math.sqrt(hi)
        while lo < mid < hi:
            if eliminate([[x / mid for x in row] for row in sub]).g < 1.0:
                hi = mid
            else:
                lo = mid
            mid = math.sqrt(lo) * math.sqrt(hi)
        best = max(best, hi)
    return best


def _support_sccs(rows: list[int]) -> list[list[int]]:
    """Classes of mutual reachability of an adjacency held as row bitmasks.

    Members ascend within a class; classes are ordered by smallest member.
    """
    reach = _closure(rows)
    classes, seen = [], set()
    for i, row in enumerate(reach):
        if i not in seen:
            members = [j for j in range(len(reach)) if row >> j & 1 and reach[j] >> i & 1]
            seen.update(members)
            classes.append(members)
    return classes


def _closure(adj: list[int]) -> list[int]:
    """Reflexive-transitive closure (Warshall) of an adjacency held as row bitmasks.

    Bit j of ``adj[i]`` is the edge i -> j; bit j of the result's row i says
    that j is reachable from i, i itself included.
    """
    reach = [row | 1 << i for i, row in enumerate(adj)]
    for k, via in enumerate(reach):
        for i, row in enumerate(reach):
            if row >> k & 1:
                reach[i] = row | via
    return reach


# ---------------------------------------------------------------------------
# Communication classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassDecomposition:
    """Communication classes of a support pattern and their reachability.

    Everything here comes from reachability closures of the support digraph
    and does not depend on (q, alpha).  ``heights[c]`` counts the cyclic
    classes, c included, that reach c through cyclic classes only; it is 0
    for a degenerate class.
    """

    classes: tuple[tuple[int, ...], ...]  # row indices per class
    class_of: tuple[int, ...]  # row -> class index
    degenerate: tuple[bool, ...]  # class has no internal cycle
    accessibility: tuple[tuple[bool, ...], ...]  # transitive closure incl. self
    final_flags: tuple[bool, ...]  # no access to any other class
    heights: tuple[int, ...]  # renewal height per class

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def communication_classes(spec: MeasureMatrixSpec) -> ClassDecomposition:
    """Partition indices by mutual accessibility in the support pattern.

    One closure of the support digraph gives the classes; one closure of
    the class digraph gives accessibility and the final classes, and one of
    the class digraph restricted to cyclic classes gives the heights.  None
    depends on (q, alpha), only on which entries are structurally nonzero.
    """
    rows = spec.support()
    classes = _support_sccs(rows)
    k = len(classes)
    class_of = [0] * spec.n
    for ci, members in enumerate(classes):
        for i in members:
            class_of[i] = ci
    degenerate = [len(m) == 1 and not rows[m[0]] >> m[0] & 1 for m in classes]

    adj = [0] * k
    for i, row in enumerate(rows):
        for j in range(spec.n):
            if row >> j & 1:
                adj[class_of[i]] |= 1 << class_of[j]
    reach = _closure(adj)
    cyclic = sum(1 << c for c in range(k) if not degenerate[c])
    reach_cyclic = _closure([row & cyclic for row in adj])
    from_cyclic = [row for c, row in enumerate(reach_cyclic) if cyclic >> c & 1]
    return ClassDecomposition(
        classes=tuple(tuple(m) for m in classes),
        class_of=tuple(class_of),
        degenerate=tuple(degenerate),
        accessibility=tuple(tuple(bool(row >> d & 1) for d in range(k)) for row in reach),
        final_flags=tuple(row == 1 << c for c, row in enumerate(reach)),
        heights=tuple(sum(row >> c & 1 for row in from_cyclic) for c in range(k)),
    )


# ---------------------------------------------------------------------------
# Per-class roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Elimination:
    """One elimination of I - M for a nonnegative n x n matrix M.

    Pivots are taken on the diagonal only, largest remaining one first, so
    every diagonal entry of a Schur complement is the ratio of two nested
    principal minors of I - M.  One that is not positive before the last
    step means some proper principal submatrix has Perron root >= 1; then
    ``g`` is infinite, ``right``/``left`` are None, and rho(M) > 1 when M
    is irreducible.  Otherwise, with the last index ``t`` and M split as
    M = [[B, b], [c^T, m_tt]], rho(B) < 1 and ``g = m_tt + c^T (I-B)^{-1} b``,
    the mass of first returns to ``t``, is a sum of nonnegative terms; the
    last pivot ``s = 1 - g`` has the sign of 1 - rho(M).  The vectors ``right = [(I-B)^{-1} b; 1]`` and
    ``left = [(I-B)^{-T} c; 1]`` (in M's own index order) give
    ``dg = left^T dM right`` and, at g = 1, are the right and left Perron
    vectors.  Leaving the smallest pivot to the last keeps rho(B) away
    from 1 where M is nearly reducible, so g - 1 stays comparable to
    rho(M) - 1.
    """

    g: float
    right: list[float] | None = None
    left: list[float] | None = None


def eliminate(mat: list[list[float]]) -> Elimination:
    """Decide the sign of rho(M) - 1 from one elimination of I - M, M given as rows."""
    n = len(mat)
    a = [[float(i == j) - v for j, v in enumerate(row)] for i, row in enumerate(mat)]
    perm = list(range(n))
    for k in range(n - 1):
        # Each remaining diagonal entry is the last pivot of a proper
        # principal submatrix, so one that is not positive decides.
        p = k
        for i in range(k, n):
            if not a[i][i] > 0.0:  # also catches NaN
                return Elimination(math.inf)
            if a[i][i] > a[p][p]:
                p = i
        if p != k:
            a[k], a[p] = a[p], a[k]
            for row in a:
                row[k], row[p] = row[p], row[k]
            perm[k], perm[p] = perm[p], perm[k]
        rk = a[k]
        piv = rk[k]
        for i in range(k + 1, n):
            ri = a[i]
            lik = ri[k] = ri[k] / piv
            if lik:
                for j in range(k + 1, n):
                    ri[j] -= lik * rk[j]
    # The last column above the diagonal now holds -L^{-1} b and the last
    # row -c^T U^{-1}; both substitutions only add nonnegative terms.
    m = n - 1
    x = [-a[i][m] for i in range(m)]
    y = [-v for v in a[m][:m]]
    for k in range(m - 1, -1, -1):
        row = a[k]
        acc = x[k]
        for j in range(k + 1, m):
            acc -= row[j] * x[j]
        x[k] = acc / row[k]
        acc = y[k]
        for i in range(k + 1, m):
            acc -= a[i][k] * y[i]
        y[k] = acc
    t = perm[m]
    row_t = mat[t]
    g = row_t[t] + sum(row_t[perm[i]] * x[i] for i in range(m))
    if not g < math.inf:
        return Elimination(math.inf)
    right, left = [1.0] * n, [1.0] * n
    for p, xp, yp in zip(perm, x, y):
        right[p], left[p] = xp, yp
    return Elimination(g, right, left)


def _bilinear(left: list[float], mat: list[list[float]], right: list[float]) -> float:
    """left^T M right."""
    return sum(u * sum(x * v for x, v in zip(row, right)) for u, row in zip(left, mat))


class ClassRoot(float):
    """A class root alpha_c with its certificate.

    ``rho_lo``/``rho_hi`` are the Collatz-Wielandt bounds min/max of
    (M r)_i / r_i at the root for the positive vector r of the final
    elimination; ``slope`` is d alpha_c / dq there, ``q`` the point solved
    and ``evals`` the number of block evaluations spent.  Passed back as a
    bracket hint, a root starts the next solve at its linear prediction.
    """

    q: float
    slope: float
    rho_lo: float
    rho_hi: float
    evals: int

    def __new__(cls, alpha, q, slope, rho_lo, rho_hi, evals):
        self = super().__new__(cls, alpha)
        self.q, self.slope, self.rho_lo, self.rho_hi, self.evals = q, slope, rho_lo, rho_hi, evals
        return self

    def __reduce__(self):
        return ClassRoot, (float(self), self.q, self.slope, self.rho_lo, self.rho_hi, self.evals)


def class_root(block: CompiledBlock, q: float, bracket_hint: float | None = None) -> ClassRoot:
    """Unique alpha where the compiled class block's spectral radius equals one.

    Every entry of the block M(alpha) is a sum of exponentials increasing
    in alpha, so the first-return mass g(alpha) of ``eliminate`` is
    log-convex and increasing wherever it is finite, and g = 1 exactly at
    the root.  Each evaluation is one elimination; its vectors give
    dg/dalpha, and Newton steps run inside a bracket [lo, hi] that every
    evaluation shrinks.  A step leaving the bracket is replaced by
    bisection, or by a step doubling outward while one side is still
    open.  The search starts at the hint (a ``ClassRoot`` hint at its
    linear prediction to q), else at 0, and stays below the convergence
    domain of the block's series, where the radius blows up.  The first
    point whose Newton step is within 1e-12 and whose g is within 1e-12
    of one is the root (or, if the bracket closes to adjacent doubles
    first, the point with g closest to one).  It is returned only if its
    Collatz-Wielandt bounds are within 1e-11 of one; otherwise, and after
    ``_MAX_EVALS`` evaluations, ``NoConvergence`` is raised.
    """
    if not block.atoms and not block.series:
        raise DegenerateClass("the block has no nonzero entry, so its class has no cycle")

    # While hi is only the edge of the series' convergence domain (where
    # the radius blows up, but summing gets ever slower), no step goes past
    # the middle of [lo, hi].
    sup = block.domain_sup(q)
    lo, hi = -math.inf, math.inf
    hi_is_edge = sup is not None
    if hi_is_edge:
        hi = sup - 1e-15 * max(1.0, abs(sup))
    if bracket_hint is None:
        alpha = 0.0
    elif isinstance(bracket_hint, ClassRoot):
        alpha = bracket_hint + (q - bracket_hint.q) * bracket_hint.slope
    else:
        alpha = float(bracket_hint)
    if alpha >= hi:
        alpha = hi - 0.5
    step = 0.5
    best = None  # finite evaluation closest to g = 1
    for evals in range(1, _MAX_EVALS + 1):
        m, mq, ma = block.evaluate(q, alpha)
        el = eliminate(m)
        g = el.g
        delta = math.nan
        if el.right is not None:
            grad = _bilinear(el.left, ma, el.right)
            if grad > 0.0 and g > 0.0:
                # Newton on ln g, convex in alpha, never leaves the upper
                # side of the root and is exact for a single exponential,
                # so it is taken above the root and far below it.  Close
                # below the root, where a step on ln g lands above the root
                # and often past the point where g is still finite, Newton
                # on 1 - 1/g approaches from below.
                delta = g * ((g - 1.0) if 0.5 <= g < 1.0 else math.log(g)) / grad
            point = (alpha, q, m, mq, grad, el)
            if best is None or abs(g - 1.0) < abs(best[-1].g - 1.0):
                best = point
            if abs(delta) <= _STEP_TOL and abs(g - 1.0) <= _G_TOL:
                return _certified(*point, evals)
        if g > 1.0:
            hi, hi_is_edge = alpha, False
        else:
            lo = alpha
        nxt = alpha - delta
        if lo == -math.inf:
            if not nxt < hi:
                nxt = hi - step
                step *= 2.0
        elif hi == math.inf:
            if not nxt > lo:
                nxt = lo + step
                step *= 2.0
        elif not lo < nxt < (0.5 * (lo + hi) if hi_is_edge else hi):
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                # No double lies strictly inside the bracket.
                return _certified(*best, evals)
        alpha = nxt
    raise NoConvergence(
        f"class root at q={q} not found in {_MAX_EVALS} block evaluations; "
        f"bracket [{lo!r}, {hi!r}]"
    )


def _certified(alpha, q, m, mq, grad, el, evals) -> ClassRoot:
    # A ratio is NaN where r_i is not positive (underflow), and fails the bounds.
    ratios = [sum(x * v for x, v in zip(row, el.right)) / r if r > 0.0 else math.nan
              for row, r in zip(m, el.right)]
    rho_lo, rho_hi = min(ratios), max(ratios)
    if not all(abs(x - 1.0) <= _CERT_TOL for x in ratios):
        raise NoConvergence(
            f"class root alpha={alpha!r} at q={q}: Collatz-Wielandt bounds "
            f"[{rho_lo!r}, {rho_hi!r}] not within {_CERT_TOL:g} of 1"
        )
    slope = -_bilinear(el.left, mq, el.right) / grad
    return ClassRoot(alpha, q, slope, rho_lo, rho_hi, evals)


@dataclass(frozen=True)
class CompiledClasses:
    """A spec's class decomposition; classes with equal compiled blocks share one block."""

    decomposition: ClassDecomposition
    blocks: dict  # class index -> CompiledBlock (non-degenerate classes only)


def compile_classes(spec: MeasureMatrixSpec) -> CompiledClasses:
    deco = communication_classes(spec)
    blocks: dict[int, CompiledBlock] = {}
    shared: dict[CompiledBlock, CompiledBlock] = {}  # the first block of each value
    for ci, members in enumerate(deco.classes):
        if not deco.degenerate[ci]:
            block = compile_block(spec, members)
            blocks[ci] = shared.setdefault(block, block)
    return CompiledClasses(deco, blocks)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tag:
    """Asymptotic regime of one cell index.

    kind is one of 'periodic_or_constant' (attaining class, height 1),
    'polynomial' (attaining class, height order+1), 'decays_to_zero',
    'fed_by_S0', 'fed_by_Sm'; order carries the polynomial degree m where
    applicable.
    """

    kind: str
    order: int | None = None

    def as_text(self) -> str:
        if self.order is None:
            return self.kind
        return f"{self.kind}({self.order})"


@dataclass(frozen=True)
class LatticeVerdict:
    lattice: bool
    span: float | None = None  # common generator of the length spectrum
    detail: str = ""


@dataclass(frozen=True)
class ClassificationResult:
    decomposition: ClassDecomposition
    roots: dict  # class index -> ClassRoot alpha_c (non-degenerate classes only)
    tau: float
    basic_classes: tuple[int, ...]  # class indices tying at tau
    heights: dict  # class index -> height (basic classes)
    s_sets: dict  # m -> tuple of labels in S_m
    tags: dict  # label -> Tag

    def labels_of_class(self, spec: MeasureMatrixSpec, ci: int) -> tuple[int, ...]:
        return tuple(spec.labels[i] for i in self.decomposition.classes[ci])


def classify(
    spec: MeasureMatrixSpec,
    q: float,
    class_tie_tol: float = 1e-9,
    bracket_hints: dict | None = None,
    compiled: CompiledClasses | None = None,
) -> ClassificationResult:
    """Roots, attaining classes, heights, and per-cell regime tags at q.

    The overall exponent is the minimum of the class roots.  Classes whose
    root ties with the minimum (within class_tie_tol) attain the spectral
    condition.  Only the roots depend on q: each attaining class's height,
    and the accessibility that tags every other cell by whether an
    attaining class reaches it, are read from the decomposition.  Classes
    with equal blocks are solved once, from the first such class's hint,
    and share one ``ClassRoot``.  ``compiled`` (from
    ``compile_classes(spec)``) saves redoing the decomposition and the block
    compilation when one spec is solved at many q.  The lattice verdict does
    not depend on q and is not part of the result; see ``lattice_check``.
    """
    if not 0.0 <= class_tie_tol < math.inf:
        raise InvalidParams(f"class tie tolerance must be finite and >= 0, got {class_tie_tol}")
    if compiled is None:
        compiled = compile_classes(spec)
    deco = compiled.decomposition
    hints = bracket_hints or {}

    roots: dict[int, ClassRoot] = {}
    solved: dict[int, ClassRoot] = {}  # id of a (possibly shared) block -> its root
    for ci, block in compiled.blocks.items():
        if id(block) not in solved:
            solved[id(block)] = class_root(block, q, bracket_hint=hints.get(ci))
        roots[ci] = solved[id(block)]
    if not roots:
        raise DegenerateClass("no class carries a cycle; no root exists")

    tau = float(min(roots.values()))
    basic = tuple(sorted(ci for ci, a in roots.items() if abs(a - tau) <= class_tie_tol))

    heights = {ci: deco.heights[ci] for ci in basic}
    s_sets: dict[int, tuple[int, ...]] = {}
    for ci in basic:
        m = heights[ci] - 1
        labels = tuple(spec.labels[i] for i in deco.classes[ci])
        s_sets[m] = tuple(sorted(s_sets.get(m, ()) + labels))

    tags: dict[int, Tag] = {}
    basic_set = set(basic)
    for i in range(spec.n):
        ci = deco.class_of[i]
        label = spec.labels[i]
        if ci in basic_set:
            m = heights[ci] - 1
            tags[label] = Tag("periodic_or_constant") if m == 0 else Tag("polynomial", m)
            continue
        feeder_heights = [heights[b] for b in basic if deco.accessibility[b][ci]]
        if not feeder_heights:
            tags[label] = Tag("decays_to_zero")
        elif max(feeder_heights) == 1:
            tags[label] = Tag("fed_by_S0")
        else:
            tags[label] = Tag("fed_by_Sm", max(feeder_heights) - 1)

    return ClassificationResult(
        decomposition=deco,
        roots=roots,
        tau=tau,
        basic_classes=basic,
        heights=heights,
        s_sets=s_sets,
        tags=tags,
    )


# ---------------------------------------------------------------------------
# Lattice detection
# ---------------------------------------------------------------------------

def lattice_check(spec: MeasureMatrixSpec, members) -> LatticeVerdict:
    """Decide whether the class's log-length spectrum sits on a lattice.

    Generators: the summed base log-lengths -ln(rho0) along every simple
    cycle of the class (one choice of atom or series on each edge; a
    series' base is its first atom), plus the step log-length -ln(r) of
    every series in the class block, all in row-major order.
    The verdict is Lattice(span) when all generators are integer multiples
    of a common span, located by continued-fraction rational detection; a
    numeric procedure can only certify lattices, so NonLattice means no
    rational structure with denominator at most 10^6 and residual at most
    1e-9.  The verdict does not depend on q.
    """
    members = list(members)
    rows = spec.support()
    adj = [[b for b, j in enumerate(members) if rows[i] >> j & 1] for i in members]

    generators: list[float] = []
    for cycle in _simple_cycles(len(members), adj):
        edge_terms = [
            spec.cells[members[a], members[b]] for a, b in zip(cycle, cycle[1:] + cycle[:1])
        ]
        for choice in itertools.product(*edge_terms):
            generators.append(sum(-math.log(_base_ratio(t)) for t in choice))
    for i in members:
        for j in members:
            for t in spec.cells.get((i, j), ()):
                if isinstance(t, AtomFamily):
                    generators.append(-math.log(t.step_ratio))

    if not generators:
        return LatticeVerdict(False, detail="no cycle generators")

    span = generators[0]
    for g in generators[1:]:
        span = _real_gcd(span, g)
        if span is None:
            return LatticeVerdict(
                False,
                detail=f"no rational ratio within denominator {_LATTICE_MAX_DEN} "
                f"and residual {_LATTICE_RESIDUAL:g}",
            )
    for g in generators:
        if abs(g - round(g / span) * span) > _LATTICE_RESIDUAL:
            return LatticeVerdict(False, detail="residual check failed")
    return LatticeVerdict(True, span=span, detail=f"{len(generators)} generators")


def _base_ratio(term) -> float:
    """The length ratio of an atom, or of a series' first atom."""
    return term.base_ratio if isinstance(term, AtomFamily) else term[1]


def _real_gcd(x: float, y: float) -> float | None:
    """Largest d with x, y both near-integer multiples of d, or None."""
    if x < y:
        x, y = y, x
    frac = Fraction(x / y).limit_denominator(_LATTICE_MAX_DEN)
    if frac.numerator == 0:
        return None
    if abs(x / y - float(frac)) > _LATTICE_RESIDUAL:
        return None
    return y / frac.denominator


def _simple_cycles(n: int, adj: list[list[int]]):
    """All simple cycles of a small digraph, each rooted at its minimal node."""
    cycles: list[list[int]] = []
    for s in range(n):
        stack = [(s, [s])]
        while stack:
            v, path = stack.pop()
            for w in adj[v]:
                if w == s:
                    cycles.append(path)
                elif w > s and w not in path:
                    stack.append((w, path + [w]))
    return cycles
