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

Relation 3, conjugation in M_n(B).  For an elementary unit u = 1 + c*e_ij
(i != j), with inverse 1 - c*e_ij, e and u e u^-1 have isomorphic corners,
which is the paper's Morita setting, so they have the same idempotency and
the same fullness.  Their corner dims need not be equal, since u has
degree 1, but they are on the corpus here: Q, projector, A_t and Weyl at
n = 2 and 3, three idempotents (e11, or e11 + e22 at n = 3; e11 + c*e12;
e11 + e12*z1, or e11 + c*e21 over Q) and three units each, 72 cases.
Each element is built from its matrix over B, lifts before the unit, so e
and its conjugate have the same degree.

Relation 4, twisting by a field automorphism.  twist(P, sigma) sends every
coefficient of P through sigma^-1, an automorphism of Q(t1), so it is an
isomorphic algebra with the same words.  On 20 homogeneous quadratic bases
over Q(t1), each twisted by an affine t1 -> a*t1 + b (a != 0), the Hilbert
series to degree 5 and the corner dims of e = 1 in M_2 to depth 2 must not
change, and f is in P exactly when f with its coefficients sent through
sigma^-1 is in twist(P, sigma).  Both completions make elements monic whose
leads are not constant in t1.
"""

import pathlib
import random
from fractions import Fraction

import pytest

from fpalg import (
    FieldAutomorphism,
    FieldSpec,
    NCPoly,
    Presentation,
    Scalar,
    corner_filtered_dims,
    hilbert_series,
    ideal_membership,
    invert,
    is_full_idempotent,
    make_aalpha,
    matrix_presentation,
    parse_presentation,
    twist,
    verify_idempotent,
)
from randgen import random_homogeneous_quadratic, random_poly, rich_scalar, small_int

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


def ideal_element(rng, P, degree):
    """A nonzero sum of c * u * r * v of one degree, so a member of P."""
    acc = NCPoly.zero(P.field, P.num_gens)
    while acc.is_zero():
        r = rng.choice(P.relations)
        left = rng.randint(0, degree - 2)
        u = tuple(rng.randrange(P.num_gens) for _ in range(left))
        v = tuple(rng.randrange(P.num_gens) for _ in range(degree - 2 - left))
        acc = acc + r.mul_word(u, v).scale(rich_scalar(rng, P.field, depth=2))
    return acc


@pytest.mark.parametrize("seed", range(20))
def test_twisting_by_an_affine_automorphism_keeps_homogeneous_dims(seed):
    rng = random.Random(f"twist:{seed}")
    field = FIELDS["Q(t1)"]
    P = random_homogeneous_quadratic(rng, field, rng.randint(2, 3), 3)
    a, b = Fraction(1), Fraction(0)
    while (a, b) == (1, 0):
        a = Fraction(small_int(rng, nonzero=True), rng.randint(1, 3))
        b = Fraction(small_int(rng), rng.randint(1, 3))
    sigma = FieldAutomorphism.affine(field, 0, a, b)
    P2 = twist(P, sigma)
    assert hilbert_series(P2, 5) == hilbert_series(P, 5)
    assert corner_dims_of_one(P2) == corner_dims_of_one(P)
    inverse = invert(sigma)
    members = 0
    for f in (ideal_element(rng, P, 3), random_poly(rng, field, P.num_gens, 3, 3),
              ideal_element(rng, P, 3) + random_poly(rng, field, P.num_gens, 2, 2)):
        if f.is_zero():
            continue
        member = ideal_membership(f, P, 3).member
        assert ideal_membership(f.map_coefficients(inverse), P2, 3).member == member
        members += member
    assert members >= 1


INPUTS = pathlib.Path(__file__).parent / "golden" / "inputs"
BASES = {
    "Q": lambda: Presentation(FieldSpec(0), (), (), name="B"),
    "projector": lambda: parse_presentation((INPUTS / "projector.alg").read_text()),
    "A_t": lambda: make_aalpha(Scalar.generator(FieldSpec(1), 0)),
    "weyl": lambda: parse_presentation(
        "algebra W over Q generators x y relations { x*y - y*x - 1 = 0; }"),
}


def element(MP, X):
    """The element sum x_ab * e_ab of M_n(B) for the matrix X, {(a, b): x_ab}
    with 0-based positions and entries in B, each word of x_ab lifted."""
    n, nn = MP.n, MP.n * MP.n
    return NCPoly.from_terms(MP.field, MP.num_gens, [
        (tuple(nn + g for g in w) + (a * n + b,), c)
        for (a, b), x in X.items() for w, c in x.terms()])


def conjugate(X, i, j, c):
    """(1 + c*E_ij) X (1 - c*E_ij) for a matrix X over B and i != j: row j
    of X is added c times to row i, then column i c times subtracted from
    column j."""
    Y = dict(X)
    for (a, b), x in X.items():
        if a == j:
            Y[i, b] = Y[i, b] + x.scale(c) if (i, b) in Y else x.scale(c)
    for (a, b), y in list(Y.items()):
        if b == i:
            Y[a, j] = Y[a, j] - y.scale(c) if (a, j) in Y else -y.scale(c)
    return {ab: y for ab, y in Y.items() if not y.is_zero()}


def conjugation_cases(name):
    """(MP, X, unit) for the three idempotent matrices X and the three
    units (i, j, c) at n = 2 and 3.  Only a corner of rank 2 inserts
    words that end in a unit and grow the rank."""
    B = BASES[name]()
    c = Scalar.from_fraction(B.field, Fraction(1, 3))
    if B.field.num_generators:
        t = Scalar.generator(B.field, 0)
        c = (t + Scalar.one(B.field)) / (t - Scalar.from_int(B.field, 2))
    one = NCPoly.one(B.field, B.num_gens)
    third = {(1, 0): one.scale(c)}  # e11 + c*e21
    if B.num_gens:
        third = {(0, 1): NCPoly.gen(B.field, B.num_gens, 0)}  # e11 + e12*z1
    for n in (2, 3):
        MP = matrix_presentation(B, n)
        units = [(0, 1, Scalar.one(B.field)), (1, 0, c), (0, n - 1, Scalar.from_int(B.field, -2))]
        first = {(0, 0): one} if n == 2 else {(0, 0): one, (1, 1): one}  # e11, e11 + e22
        for X in (first, {(0, 0): one, (0, 1): one.scale(c)}, {(0, 0): one, **third}):
            for unit in units:
                yield MP, X, unit


def first_full(e, MP, deepest):
    return next((d for d in range(deepest + 1) if is_full_idempotent(e, MP, d).full), None)


@pytest.mark.parametrize("name", BASES)
def test_conjugation_keeps_idempotency_fullness_and_corner_dims(name):
    cases = list(conjugation_cases(name))
    assert len(cases) == 18
    moved = 0
    for MP, X, (i, j, c) in cases:
        e, f = element(MP, X), element(MP, conjugate(X, i, j, c))
        assert f.degree() == e.degree()
        moved += e != f
        assert verify_idempotent(e, MP, 4) and verify_idempotent(f, MP, 4)
        # 2*e is no idempotent, and neither is its conjugate
        Z = {ab: x.scale(Scalar.from_int(MP.field, 2)) for ab, x in X.items()}
        assert not verify_idempotent(element(MP, Z), MP, 4)
        assert not verify_idempotent(element(MP, conjugate(Z, i, j, c)), MP, 4)
        de, df = first_full(e, MP, 2), first_full(f, MP, 2)
        assert de is not None and df is not None
        assert is_full_idempotent(f, MP, de + 2).full and is_full_idempotent(e, MP, df + 2).full
        assert corner_filtered_dims(e, MP, 2) == corner_filtered_dims(f, MP, 2), (MP.n, X, i, j)
    # e11 + e22 commutes with 1 + c*e12 and 1 + c*e21 at n = 3
    assert moved == 16
