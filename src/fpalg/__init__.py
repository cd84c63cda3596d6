"""fpalg: exact workbench for finitely presented associative algebras.

Coefficients live in purely transcendental extensions Q(t1,...,tk) with exact
canonical arithmetic; presentations can be twisted through coefficient-field
automorphisms and descended onto the canonical subfield generated by the
transcendentals they actually use.  A degree-truncated noncommutative
Groebner engine provides normal forms, ideal membership, graded and filtered
dimensions, and generation tests; on top of it sit the isomorphism
classification of the one-relation quadratic family and matrix-algebra /
idempotent machinery.

Importing the package loads none of its modules.  Each public name is read
from its home module on use (`from fpalg import groebner`, `fpalg.groebner`
or `from fpalg import *`), which imports that module and what it needs the
first time; the import lock makes this as thread-safe as an eager import.
"""

import importlib

_HOMES = {
    "aalpha": (
        "CongruenceDecision",
        "CongruenceWitness",
        "ModScalar",
        "congruence_check",
        "decide_form_congruence",
        "form_of",
        "iso_aalpha",
        "iso_witness",
        "make_aalpha",
        "orbit_sample",
        "search_iso_degree2",
        "verify_iso_witness",
    ),
    "freealg": ("NCPoly", "deglex_key"),
    "morita": (
        "FullnessVerdict",
        "MatrixPresentation",
        "corner_filtered_dims",
        "filtered_dimension",
        "is_full_idempotent",
        "matrix_presentation",
        "verify_fullness_certificate",
        "verify_idempotent",
    ),
    "presentation": (
        "Presentation",
        "canonicalize",
        "is_over_subfield",
        "transcendental_support",
        "twist",
    ),
    "rewrite": (
        "GenerationVerdict",
        "MembershipVerdict",
        "NormalForm",
        "TruncatedGB",
        "graded_dimension",
        "groebner",
        "hilbert_series",
        "ideal_membership",
        "is_generating",
        "normal_form",
    ),
    "scalars": (
        "DegreeBudgetError",
        "FieldAutomorphism",
        "FieldSpec",
        "MismatchError",
        "Scalar",
        "apply_automorphism",
        "compose",
        "invert",
    ),
    "syntax": (
        "ParseError",
        "parse_automorphism",
        "parse_poly",
        "parse_presentation",
        "parse_scalar",
        "presentation_to_text",
    ),
}
# public name -> the module that defines it
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_HOME_OF})
