"""Top-level spectrum computation: tau(q) values, curves, one-sided slopes,
and the Legendre transform of the resulting curve."""

from __future__ import annotations

import io
import math
from typing import NamedTuple

from .errors import InvalidGrid
from .matrix import MeasureMatrixSpec
from .spectral import ClassificationResult, CompiledClasses, classify, compile_classes


class SpectrumCurve(NamedTuple):
    qs: tuple[float, ...]
    alphas: tuple[float, ...]
    roots_table: tuple[dict, ...]  # per grid point: class index -> root
    slopes: tuple[tuple[float, float], ...]  # per grid point: tau_slopes


class LegendreCurve(NamedTuple):
    alphas: tuple[float, ...]
    f_values: tuple[float, ...]
    q_conjugate: tuple[float, ...]


def tau(
    spec: MeasureMatrixSpec,
    q: float,
    class_tie_tol: float = 1e-9,
    bracket_hints: dict | None = None,
    compiled: CompiledClasses | None = None,
) -> tuple[float, ClassificationResult]:
    """Overall exponent at q: the minimum class root, with classification."""
    if not 0.0 <= q < math.inf:
        raise InvalidGrid(f"q must be >= 0 and finite, got {q}")
    result = classify(
        spec, q, class_tie_tol=class_tie_tol, bracket_hints=bracket_hints, compiled=compiled
    )
    return result.tau, result


def tau_slopes(result: ClassificationResult) -> tuple[float, float]:
    """(right, left) derivatives of tau at the solved q.

    tau is the minimum of the class roots, so its one-sided slopes are the
    least and greatest d alpha_c / dq over the attaining classes; they are
    equal unless tau has a kink there.
    """
    slopes = [result.roots[ci].slope for ci in result.basic_classes]
    return min(slopes), max(slopes)


# Adams-Bashforth weights of orders 1-4, newest slope first
_AB = ((1.0,), (1.5, -0.5), (23 / 12, -16 / 12, 5 / 12), (55 / 24, -59 / 24, 37 / 24, -9 / 24))


def tau_curve(
    spec: MeasureMatrixSpec,
    q_min: float,
    q_max: float,
    steps: int,
) -> SpectrumCurve:
    """tau and its one-sided slopes on an even q-grid, warm-starting each
    solve from the last roots.

    The spec is compiled once per curve.  Each root carries its slope
    d alpha_c / dq, and the next root of its class starts at the
    Adams-Bashforth prediction from the last (up to four) slopes: order 1,
    2, 3, then 4 as they build up.  Only slopes enter the prediction, not
    the roots before the last, whose rounding it would amplify.  Where the
    step times the change over the last five slopes exceeds 1, as on coarse
    grids, extrapolation lands farther off than the tangent: order 1.  From the
    fourth grid point on, at h = 0.1, a class root takes two block
    evaluations, and one if it is linear in q.  The report of ``classify``
    is built once per set of attaining classes and cached in the compiled
    classes.
    """
    if steps < 2:
        raise InvalidGrid(f"steps must be >= 2, got {steps}")
    if not 0.0 <= q_min < q_max < math.inf:
        raise InvalidGrid(f"need 0 <= q_min < q_max < inf, got [{q_min}, {q_max}]")
    step = (q_max - q_min) / (steps - 1)
    qs = [q_min + i * step for i in range(steps - 1)] + [float(q_max)]  # as np.linspace
    alphas = []
    tables = []
    slopes = []
    roots: dict = {}  # class index -> its root at the last grid point
    history: dict[int, list[float]] = {}  # class index -> its last 5 slopes, newest first
    drift: dict[int, float] = {}  # class index -> predicted mean slope over the next step
    compiled = compile_classes(spec)
    for q in qs:
        hints = {ci: root + (q - root.q) * drift[ci] for ci, root in roots.items()}
        _, result = tau(spec, q, bracket_hints=hints, compiled=compiled)
        alphas.append(result.tau)
        tables.append(dict(result.roots))
        slopes.append(tau_slopes(result))
        roots = result.roots
        for ci, root in roots.items():
            last = history[ci] = [root.slope, *history.get(ci, ())][:5]
            order = min(len(last), 4) if step * (max(last) - min(last)) <= 1.0 else 1
            drift[ci] = sum(w * d for w, d in zip(_AB[order - 1], last))
    return SpectrumCurve(
        qs=tuple(qs),
        alphas=tuple(alphas),
        roots_table=tuple(tables),
        slopes=tuple(slopes),
    )


def legendre(curve: SpectrumCurve) -> LegendreCurve:
    """f(a) = inf_q (q a - tau(q)) = q a - tau(q) at each slope a = tau'(q)
    of the (concave) curve: one row per distinct one-sided slope, two at a
    kink.  Rows run from the largest q down, which is ascending a; ordering
    by q keeps rounding noise in equal slopes from reordering them.
    """
    if not curve.qs:
        raise InvalidGrid("empty curve")
    rows = [
        (a, q * a - t, q)
        for q, t, pair in reversed(list(zip(curve.qs, curve.alphas, curve.slopes)))
        for a in sorted(set(pair))
    ]
    alphas, f_values, q_conj = zip(*rows)
    return LegendreCurve(alphas=alphas, f_values=f_values, q_conjugate=q_conj)


# ---------------------------------------------------------------------------
# CSV serialization (17 significant digits, LF endings, '.' decimal point)
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(x, ".17g")


def curve_to_csv(curve: SpectrumCurve) -> str:
    buf = io.StringIO()
    buf.write("q,alpha\n")
    for q, a in zip(curve.qs, curve.alphas):
        buf.write(f"{_fmt(q)},{_fmt(a)}\n")
    return buf.getvalue()


def legendre_to_csv(curve: LegendreCurve) -> str:
    buf = io.StringIO()
    buf.write("alpha,f,q_conj\n")
    for a, f, qc in zip(curve.alphas, curve.f_values, curve.q_conjugate):
        buf.write(f"{_fmt(a)},{_fmt(f)},{_fmt(qc)}\n")
    return buf.getvalue()
