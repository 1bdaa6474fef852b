"""Exact singularity invariants of flat double covers, closed-form branch
point recursions, and Chern-number geography checks in odd characteristic."""

from .fields import QQ, extension_field, prime_field
from .polynomials import BPoly, UPoly, b_squarefree, u_factor
from .resolution import (
    BranchGerm,
    ResolutionTrace,
    blowup_once,
    canonical_resolution,
    is_negligible,
    normalize_branch,
)
from .xi import (
    RamificationType,
    SingularityClass,
    xi_bound_family,
    xi_family,
    xi_inequality_slack,
    xi_type,
)

__version__ = "0.1.0"

__all__ = [
    "QQ",
    "BPoly",
    "BranchGerm",
    "RamificationType",
    "ResolutionTrace",
    "SingularityClass",
    "UPoly",
    "b_squarefree",
    "blowup_once",
    "canonical_resolution",
    "extension_field",
    "is_negligible",
    "normalize_branch",
    "prime_field",
    "u_factor",
    "xi_bound_family",
    "xi_family",
    "xi_inequality_slack",
    "xi_type",
]
