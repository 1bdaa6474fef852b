"""Exact singularity invariants of flat double covers, closed-form branch
point recursions, and Chern-number geography checks in odd characteristic.

The names below are re-exported lazily (PEP 562): ``from covergeo import X``
and ``covergeo.<submodule>`` import the submodule on first use, so importing
the package, or one light submodule such as ``covergeo.cli``, does not load
the resolution layer.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "QQ": "fields",
    "extension_field": "fields",
    "prime_field": "fields",
    "BPoly": "polynomials",
    "UPoly": "polynomials",
    "b_squarefree": "polynomials",
    "u_factor": "polynomials",
    "BranchGerm": "resolution",
    "ResolutionTrace": "resolution",
    "blowup_once": "resolution",
    "canonical_resolution": "resolution",
    "is_negligible": "resolution",
    "normalize_branch": "resolution",
    "RamificationType": "xi",
    "SingularityClass": "xi",
    "xi_and_slack": "xi",
    "xi_bound_family": "xi",
    "xi_family": "xi",
    "xi_type": "xi",
}

_SUBMODULES = frozenset({
    "cli", "fibration", "fields", "genus", "geography", "parsing",
    "polynomials", "reports", "resolution", "univariate", "verify", "xi",
})

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
