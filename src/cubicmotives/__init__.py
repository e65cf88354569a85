"""Exact-arithmetic calculus for cubic fourfold motives.

Truncated Chow rings and characteristic classes, extended Mukai vectors and
projection kernels, tautological correspondences with their diagonal
projectors, a cohomological realization with a primitive quadratic summand,
equivariant Witt extensions, and certified isomorphism candidates between
fourfold (and fourfold/K3) realizations.  All arithmetic is exact rational.
"""

from .errors import DomainError, ShadowViolation, StructureError
from .gradedring import (TruncPoly, VarietyData, dual, integrate, mukai_vector_line,
                         tangent_chern, todd_and_sqrt)
from .linalg import mat_from_json, mat_to_json, qmat, qvec
from .mukai import (MSElement, MukaiSpace, corr_action, corr_to_poly, kernel_class,
                    kuznetsov_project, lambda_basis, mukai_pairing, mutate_project,
                    poly_to_corr)
from .motiveiso import (Datum, GammaCert, build_gamma, build_gamma_cubic_k3,
                        build_refined_projectors, certify_gamma, random_cubic_k3_pair,
                        random_fourfold_pair, surface_ck, verify_frobenius)
from .quadform import (GroupAction, Isometry, QuadSpace, WittResult, aligned_elements,
                       equivariant_witt, reflect_to)
from .rationals import QQ, parse_rational, rational_str
from .realization import (RealizedClass, Space, action_matrix,
                          compose_realized, defect_of, degree, derive_P, diagonal_realized,
                          hyperplane_part, p_to_json, p_to_text, realize,
                          verify_kernel_identities)
from .suites import SUITES, SuiteReport, run_all, run_suite
from .tautcorr import (CorrClass, ck_projectors, compose, intersect, monomial_str, pull,
                       push, transpose)

__version__ = "0.1.0"

__all__ = [
    "DomainError", "ShadowViolation", "StructureError",
    "TruncPoly", "VarietyData", "dual", "integrate", "mukai_vector_line",
    "tangent_chern", "todd_and_sqrt",
    "mat_from_json", "mat_to_json", "qmat", "qvec",
    "MSElement", "MukaiSpace", "corr_action", "corr_to_poly", "kernel_class",
    "kuznetsov_project", "lambda_basis", "mukai_pairing", "mutate_project",
    "poly_to_corr",
    "Datum", "GammaCert", "build_gamma", "build_gamma_cubic_k3",
    "build_refined_projectors", "certify_gamma",
    "random_cubic_k3_pair", "random_fourfold_pair", "surface_ck", "verify_frobenius",
    "GroupAction", "Isometry", "QuadSpace", "WittResult", "aligned_elements",
    "equivariant_witt", "reflect_to",
    "QQ", "parse_rational", "rational_str",
    "RealizedClass", "Space", "action_matrix",
    "compose_realized", "defect_of", "degree", "derive_P", "diagonal_realized",
    "hyperplane_part", "p_to_json", "p_to_text", "realize", "verify_kernel_identities",
    "SUITES", "SuiteReport", "run_all", "run_suite",
    "CorrClass", "ck_projectors", "compose", "intersect", "monomial_str", "pull",
    "push", "transpose",
    "__version__",
]
