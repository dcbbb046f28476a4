"""Top-level spectrum computation: tau(q) values, curves, derivatives, and
the Legendre transform of the resulting curve."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGrid
from .matrix import MeasureMatrixSpec
from .spectral import ClassificationResult, CompiledClasses, classify, compile_classes


@dataclass(frozen=True)
class SpectrumCurve:
    qs: tuple[float, ...]
    alphas: tuple[float, ...]
    roots_table: tuple[dict, ...]  # per grid point: class index -> root
    metadata: dict = field(default_factory=dict, compare=False)

    def __len__(self) -> int:
        return len(self.qs)


@dataclass(frozen=True)
class LegendreCurve:
    alphas: tuple[float, ...]
    f_values: tuple[float, ...]
    q_conjugate: tuple[float, ...]
    degenerate: bool = False


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


def tau_curve(
    spec: MeasureMatrixSpec,
    q_min: float,
    q_max: float,
    steps: int,
) -> SpectrumCurve:
    """tau on an even q-grid, warm-starting each solve from the last roots.

    The spec is compiled once per curve.  Each previous root carries its
    slope d alpha_c / dq, so the next solve starts at the linear prediction
    alpha_c(q) + h * slope and typically needs a few Newton steps.
    """
    if steps < 2:
        raise InvalidGrid(f"steps must be >= 2, got {steps}")
    if not 0.0 <= q_min < q_max < math.inf:
        raise InvalidGrid(f"need 0 <= q_min < q_max < inf, got [{q_min}, {q_max}]")
    qs = np.linspace(q_min, q_max, steps)
    alphas = []
    tables = []
    hints: dict | None = None
    compiled = compile_classes(spec)
    for q in qs:
        _, result = tau(spec, float(q), bracket_hints=hints, compiled=compiled)
        alphas.append(result.tau)
        tables.append(dict(result.roots))
        hints = dict(result.roots)
    return SpectrumCurve(
        qs=tuple(float(q) for q in qs),
        alphas=tuple(alphas),
        roots_table=tuple(tables),
        metadata={"family": spec.family_id},
    )


def tau_prime_fd(spec: MeasureMatrixSpec, q: float, step: float = 1e-4) -> float:
    """Central-difference slope of tau at q."""
    if not 0.0 < step < math.inf:
        raise InvalidGrid(f"step must be positive and finite, got {step}")
    if q - step < 0.0:
        raise InvalidGrid(f"q - step = {q - step} below 0; decrease step")
    hi, _ = tau(spec, q + step)
    lo, _ = tau(spec, q - step)
    return (hi - lo) / (2.0 * step)


def legendre(curve: SpectrumCurve, num_alpha: int | None = None) -> LegendreCurve:
    """Concave conjugate f(a) = inf_q (q a - tau(q)) over the curve's grid.

    The covered slope range is [min, max] of the curve's finite-difference
    slopes; a single-point curve carries no slope information and is flagged
    degenerate.
    """
    qs = np.asarray(curve.qs)
    ts = np.asarray(curve.alphas)
    if len(qs) == 0:
        raise InvalidGrid("empty curve")
    if len(qs) == 1:
        return LegendreCurve(
            alphas=(float(ts[0]),), f_values=(0.0,), q_conjugate=(float(qs[0]),), degenerate=True
        )
    slopes = np.diff(ts) / np.diff(qs)
    a_lo, a_hi = float(np.min(slopes)), float(np.max(slopes))
    if num_alpha is None:
        num_alpha = max(2 * len(qs) - 1, 3)
    if a_hi - a_lo < 1e-15:
        alphas = np.array([a_lo])
        degenerate = True
    else:
        alphas = np.linspace(a_lo, a_hi, num_alpha)
        degenerate = len(qs) < 3
    f_vals = []
    q_conj = []
    for a in alphas:
        vals = qs * a - ts
        j = int(np.argmin(vals))
        f_vals.append(float(vals[j]))
        q_conj.append(float(qs[j]))
    return LegendreCurve(
        alphas=tuple(float(a) for a in alphas),
        f_values=tuple(f_vals),
        q_conjugate=tuple(q_conj),
        degenerate=degenerate,
    )


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
