"""L^q-spectra of graph-directed self-similar measures with overlaps.

The built-in families are defined once, in ``families``.  The core
pipeline: build a graph-directed system (``gifs``), encode its
renewal structure as an evaluable matrix of measure masses (``matrix``),
solve the per-class spectral-radius condition and classify the class
structure (``spectral``), assemble tau(q) curves and Legendre transforms
(``solver``), evaluate the families' closed-form characteristic functions
(``closed_forms``), and cross-validate with a Monte Carlo box-counting
estimator (``empirical``).
"""

from .closed_forms import ClosedFormFamily, build_closed_form
from .empirical import SampleCloud, ScalingFit, estimate_tau, partition_sum, sample
from .errors import (
    ChainBroken,
    ConfigError,
    DegenerateClass,
    DomainViolation,
    InsufficientScales,
    InvalidGrid,
    InvalidParams,
    LqSpecError,
    NoBracket,
    NoConvergence,
    SamplerBound,
    SingularHalpha,
)
from .families import FAMILY_IDS, FamilyParams, canonical_params, default_probs
from .gifs import Edge, Gifs, Similitude, build_example, compose_path, scc_decompose, validate_gifs
from .matrix import (
    AtomFamily,
    BinomialSum,
    Constant,
    EntrySpec,
    GeometricPower,
    MeasureMatrixSpec,
    build_matrix_spec,
    entry_value,
    in_domain,
    matrix_at,
    row_sum_F,
)
from .solver import LegendreCurve, SpectrumCurve, legendre, tau, tau_curve, tau_prime_fd
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
