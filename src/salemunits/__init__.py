"""Construction and exact certification of Salem numbers whose n-th power is an exceptional unit."""

from .intpoly import (
    IntPoly,
    gcd_over_rationals,
    is_reciprocal,
    lift_trace,
    resultant,
)
from .trigpolys import cheb, cheb_roots_in_unit_interval, cyclo_trace, extract_trace
from .roots import IsolatingInterval, RootPattern, isolate_roots, refine, root_pattern, sturm_count
from .factor import IrreducibilityWitness, is_irreducible, verify_witness
from .salem import CertificationError, SalemCertificate, certify_min_poly, certify_trace, unit_check
from .construct import (
    ConstructionPlan,
    HypothesisError,
    SearchReport,
    build_candidate,
    plan_construction,
    search,
)

__all__ = [
    "IntPoly",
    "gcd_over_rationals",
    "is_reciprocal",
    "lift_trace",
    "resultant",
    "cheb",
    "cheb_roots_in_unit_interval",
    "cyclo_trace",
    "extract_trace",
    "IsolatingInterval",
    "RootPattern",
    "isolate_roots",
    "refine",
    "root_pattern",
    "sturm_count",
    "IrreducibilityWitness",
    "is_irreducible",
    "verify_witness",
    "CertificationError",
    "SalemCertificate",
    "certify_min_poly",
    "certify_trace",
    "unit_check",
    "ConstructionPlan",
    "HypothesisError",
    "SearchReport",
    "build_candidate",
    "plan_construction",
    "search",
]

__version__ = "0.1.0"
