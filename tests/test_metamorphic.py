"""Metamorphic verdict tests: the engine against itself on inputs whose
answers must agree, with no reference implementation.

Relation 2, renaming generators.  A permutation of B's generators changes
the deglex order, so the completed basis and the normal words change, but
not the algebra.  On a homogeneous B, graded_basis is exact in every degree
it is completed to, so the Hilbert series and the corner dims of e = 1 in
M_2(B) must not change.

The corpus is homogeneous only.  On an inhomogeneous B a truncated basis can
miss consequences that arise above the bound and reach back below it, so a
renaming may change which ones it misses; that relation waits until such
verdicts stop overclaiming.
"""

import random

import pytest

from fpalg import (
    FieldSpec,
    NCPoly,
    Presentation,
    corner_filtered_dims,
    hilbert_series,
    matrix_presentation,
)
from randgen import random_homogeneous_quadratic

FIELDS = {"Q": FieldSpec(0), "Q(t1)": FieldSpec(1)}


def renamed(P, perm):
    """P with generator i renamed to generator perm[i]."""
    rels = tuple(
        NCPoly.from_terms(P.field, P.num_gens,
                          [(tuple(perm[g] for g in w), c) for w, c in rel.terms()])
        for rel in P.relations)
    return Presentation(P.field, P.generators, rels, name=P.name)


def corner_dims_of_one(P):
    MP = matrix_presentation(P, 2)
    return corner_filtered_dims(MP.unit(1, 1) + MP.unit(2, 2), MP, 2)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("seed", range(20))
def test_renaming_generators_keeps_homogeneous_dims(field, seed):
    rng = random.Random(f"rename:{field}:{seed}")
    P = random_homogeneous_quadratic(rng, FIELDS[field], rng.randint(2, 3), 3)
    perm = list(range(P.num_gens))
    while perm == sorted(perm):
        rng.shuffle(perm)
    P2 = renamed(P, perm)
    assert hilbert_series(P2, 5) == hilbert_series(P, 5)
    assert corner_dims_of_one(P2) == corner_dims_of_one(P)
