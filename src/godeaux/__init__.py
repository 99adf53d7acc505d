"""Exact-arithmetic workbench for bi-graded rings, cyclic-group invariants,
and canonical-ring presentations of stable Godeaux surfaces."""

__version__ = "0.1.0"

from .action import CyclicAction, act, project_to_weight, weight_of, weight_space_dim
from .graded import GradedPresentation, HilbertTable, Membership
from .linalg import Matrix, kernel_basis
from .poly import (
    ParseError,
    Polynomial,
    RingDescriptor,
    degree_and_weight,
    enumerate_monomials,
    parse_polynomial,
    parse_ring_file,
    parse_scalar,
    render_polynomial,
)
from .report import Check, VerificationReport
from .scalars import (
    Cyclo,
    IncompatibleFieldsError,
    format_scalar,
    make_cyclo,
    scalar_inv,
    scalar_pow,
    zeta,
)
from .subring import (
    CongruenceImageCondition,
    GeneratorListReport,
    MembershipPredicate,
    SubringBuilder,
    SubringPresentation,
    SubstitutionParityCondition,
    WeightCondition,
)

__all__ = [
    "Check",
    "CongruenceImageCondition",
    "Cyclo",
    "CyclicAction",
    "GeneratorListReport",
    "GradedPresentation",
    "HilbertTable",
    "IncompatibleFieldsError",
    "Matrix",
    "Membership",
    "MembershipPredicate",
    "ParseError",
    "Polynomial",
    "RingDescriptor",
    "SubringBuilder",
    "SubringPresentation",
    "SubstitutionParityCondition",
    "VerificationReport",
    "WeightCondition",
    "act",
    "degree_and_weight",
    "enumerate_monomials",
    "format_scalar",
    "kernel_basis",
    "make_cyclo",
    "parse_polynomial",
    "parse_ring_file",
    "parse_scalar",
    "project_to_weight",
    "render_polynomial",
    "scalar_inv",
    "scalar_pow",
    "weight_of",
    "weight_space_dim",
    "zeta",
]
