"""Exact discrepancy computations for linear flows on the torus.

The package measures how evenly a straight-line flow with irrational
direction fills a convex polytope inside the unit cube: exact time
integrals of the indicator against the flow, their Fourier-side bounds,
and the Diophantine machinery (continued fractions, small-denominator
series, dyadic spacing audits) that certifies those bounds.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .algebraic import AlgebraicValue, default_precision_bits, parse_literal
from .diophantine import (
    ContinuedFraction,
    SeriesBound,
    approximation_exponent_scan,
    continued_fraction,
    diophantine_series,
    dyadic_spacing_audit,
    materialize_dyadic_block,
    schmidt_inequality_scan,
)
from .engine import (
    DiscrepancyTrace,
    FlowInstance,
    box_discrepancy_sup,
    delta_T_exact,
    delta_T_quadrature,
    discrepancy_trace,
    discrete_discrepancy,
    quadrature_delta_profile,
)
from .errors import (
    DegeneratePolytopeError,
    PrecisionError,
    PrecisionExhaustedError,
    TailNotCertifiableError,
    TorusflowError,
    TransversalityError,
    ValidationError,
)
from .fourier import (
    BoundCertificate,
    fourier_coeff_exact_2d,
    fourier_majorant_2d,
    polygon_discrepancy_bound,
)
from .geometry import (
    Box,
    Direction,
    Polytope,
    SectionEvaluator,
    SectionFunction2D,
    arrangement_cells,
    build_piecewise_linear_section,
    random_polygon,
    validate_transversality,
)

__all__ = [
    "AlgebraicValue",
    "BoundCertificate",
    "Box",
    "ContinuedFraction",
    "DegeneratePolytopeError",
    "Direction",
    "DiscrepancyTrace",
    "FlowInstance",
    "Polytope",
    "PrecisionError",
    "PrecisionExhaustedError",
    "SectionEvaluator",
    "SectionFunction2D",
    "SeriesBound",
    "TailNotCertifiableError",
    "TorusflowError",
    "TransversalityError",
    "ValidationError",
    "approximation_exponent_scan",
    "arrangement_cells",
    "box_discrepancy_sup",
    "build_piecewise_linear_section",
    "continued_fraction",
    "default_precision_bits",
    "delta_T_exact",
    "delta_T_quadrature",
    "diophantine_series",
    "discrepancy_trace",
    "discrete_discrepancy",
    "dyadic_spacing_audit",
    "fourier_coeff_exact_2d",
    "fourier_majorant_2d",
    "materialize_dyadic_block",
    "parse_literal",
    "polygon_discrepancy_bound",
    "quadrature_delta_profile",
    "random_polygon",
    "schmidt_inequality_scan",
    "validate_transversality",
    "__version__",
]
