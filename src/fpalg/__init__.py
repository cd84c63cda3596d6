"""fpalg: exact workbench for finitely presented associative algebras.

Coefficients live in purely transcendental extensions Q(t1,...,tk) with exact
canonical arithmetic; presentations can be twisted through coefficient-field
automorphisms and descended onto the canonical subfield generated by the
transcendentals they actually use.  A degree-truncated noncommutative
Groebner engine provides normal forms, ideal membership, graded and filtered
dimensions, and generation tests; on top of it sit the isomorphism
classification of the one-relation quadratic family and matrix-algebra /
idempotent machinery.
"""

from .aalpha import (
    CongruenceDecision,
    CongruenceWitness,
    congruence_check,
    decide_form_congruence,
    form_of,
    iso_aalpha,
    iso_witness,
    make_aalpha,
    orbit_sample,
    search_iso_degree2,
    verify_iso_witness,
)
from .freealg import NCPoly, deglex_key
from .morita import (
    DegreeBudgetError,
    FullnessVerdict,
    MatrixPresentation,
    corner_filtered_dims,
    filtered_dimension,
    is_full_idempotent,
    matrix_presentation,
    verify_fullness_certificate,
    verify_idempotent,
)
from .presentation import (
    Presentation,
    canonicalize,
    is_over_subfield,
    transcendental_support,
    twist,
)
from .rewrite import (
    GenerationVerdict,
    MembershipVerdict,
    NormalForm,
    TruncatedGB,
    graded_dimension,
    groebner,
    hilbert_series,
    ideal_membership,
    is_generating,
    normal_form,
)
from .scalars import (
    FieldAutomorphism,
    FieldSpec,
    MismatchError,
    ModScalar,
    Scalar,
    apply_automorphism,
    compose,
    invert,
)
from .syntax import (
    ParseError,
    parse_automorphism,
    parse_poly,
    parse_presentation,
    parse_scalar,
    presentation_to_text,
)

__version__ = "0.1.0"
