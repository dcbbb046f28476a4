"""L^q-spectra of graph-directed self-similar measures with overlaps.

The built-in families are defined once, in ``families``, and reach tau(q)
by three routes:

- spectral: the family's measure matrix (``matrix.build_matrix_spec``) is
  split into communication classes, each class block is compiled
  (``matrix.compile_block``), its root solves "spectral radius = 1"
  (``spectral.class_root``), and ``spectral.classify`` takes the minimum;
  ``solver`` assembles tau(q) curves, their slopes and Legendre transforms;
- closed forms: the families' characteristic functions
  (``closed_forms``);
- Monte Carlo: a chaos game on the family's graph (``gifs.build_example``)
  feeds a box-counting estimator (``empirical``).

Only ``empirical`` needs numpy; its names here are loaded on first use, so
importing the package, or solving, does not import numpy.
"""

from .closed_forms import ClosedFormFamily, build_closed_form
from .errors import (
    ConfigError,
    DegenerateClass,
    DomainViolation,
    InsufficientScales,
    InvalidGrid,
    InvalidParams,
    LqSpecError,
    NoBracket,
    NoConvergence,
    NotDifferentiable,
    SamplerBound,
    SingularHalpha,
)
from .families import FAMILY_IDS, FamilyParams, canonical_params, default_probs
from .gifs import Edge, Gifs, Similitude, build_example
from .matrix import (
    AtomFamily,
    BinomialSum,
    GeometricPower,
    MeasureMatrixSpec,
    build_matrix_spec,
    entry_value,
)
from .solver import LegendreCurve, SpectrumCurve, legendre, tau, tau_curve, tau_slopes
from .spectral import (
    ClassDecomposition,
    ClassificationResult,
    classify,
    class_root,
    communication_classes,
    lattice_check,
    spectral_radius,
)

__version__ = "0.1.0"

_EMPIRICAL = ("SampleCloud", "ScalingFit", "estimate_tau", "partition_sum", "sample")


def __getattr__(name):
    if name in _EMPIRICAL:
        from . import empirical

        return getattr(empirical, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
