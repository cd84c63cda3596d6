"""Homogeneous verdicts complete only to the degree they can see.

For homogeneous relations a polynomial of degree n meets only basis
elements of degree <= n, so every homogeneous verdict takes its basis from
rewrite.graded_basis: the relations of degree <= the degree the verdict
reduces or counts at, completed to that degree, instead of to the bound
maxdeg.  These tests pin the degree each verdict hands to groebner (a
guard holds hilbert, member, corner, full, filtered and the iso re-check to
that one rule), the errors they keep raising before any completion, and
their answers against the u * r * v span oracle on presentations mixing
relation degrees 1 to 3.
"""

import pathlib
import random

import pytest

from fpalg import (
    FieldSpec,
    NCPoly,
    Presentation,
    Scalar,
    corner_filtered_dims,
    filtered_dimension,
    graded_dimension,
    hilbert_series,
    ideal_membership,
    is_full_idempotent,
    iso_witness,
    make_aalpha,
    matrix_presentation,
    parse_presentation,
    verify_fullness_certificate,
    verify_iso_witness,
)
from fpalg import cli, morita, rewrite
from fpalg.cli import run
from randgen import random_word, simple_scalar
from span_oracle import graded_dimension_oracle, ideal_membership_oracle

Q = FieldSpec(0)
QT = FieldSpec(1)
INPUTS = pathlib.Path(__file__).parent / "golden" / "inputs"


def a_t():
    return make_aalpha(Scalar.generator(QT, 0))


def projector():
    return parse_presentation((INPUTS / "projector.alg").read_text())


def cubic():
    # x1*x1*x2 = x2*x1*x1 over Q: one relation of degree 3
    one = Scalar.one(Q)
    rel = NCPoly.from_terms(Q, 2, [((0, 0, 1), one), ((1, 0, 0), -one)])
    return Presentation(Q, ("x1", "x2"), (rel,))


@pytest.fixture
def degrees(monkeypatch):
    """The maxdeg of every groebner call made through fpalg.rewrite."""
    seen = []
    real = rewrite.groebner

    def counting(P, maxdeg):
        seen.append(maxdeg)
        return real(P, maxdeg)

    monkeypatch.setattr(rewrite, "groebner", counting)
    return seen


# ---------------------------------------------------------------------------
# the degree each verdict completes to
# ---------------------------------------------------------------------------


def test_cli_hilbert_completes_once(degrees, capsys):
    assert run(["hilbert", "--file", str(INPUTS / "aalpha_t.alg"), "--upto", "5"]) == 0
    assert capsys.readouterr().out.split("\n")[:6] == [f"{n} {n + 1}" for n in range(6)]
    assert degrees == [5]


def test_cli_hilbert_below_relation_degree_completes_at_it(degrees, capsys):
    # below the relation degree 2 no relation is completed, to degree 1
    assert run(["hilbert", "--file", str(INPUTS / "aalpha_t.alg"), "--upto", "1"]) == 0
    assert capsys.readouterr().out == "0 1\n1 2\n"
    assert degrees == [1]


@pytest.mark.parametrize(
    "make, expected", [(a_t, [0, 1, 2, 3, 4]), (cubic, [0, 1, 2, 3, 4])]
)
def test_graded_dimension_completes_to_max_of_n_and_relation_degree(make, expected, degrees):
    # the relation degree counted is that of the relations of degree <= n
    P = make()
    dims = [graded_dimension(P, n, 4) for n in range(5)]
    assert degrees == expected
    assert dims == [graded_dimension_oracle(P, n) for n in range(5)]


def test_hilbert_series_below_the_top_degree_completes_the_low_relations(degrees):
    # relations of degrees 1, 2 and 3 over Q and Q(t1): below degree 3 the
    # series completes only the relations it can see, to the degree asked
    rng = random.Random(2901)
    for field in (Q, Q, QT):
        P = mixed_degree_presentation(rng, field, 2, (1, 2, 3))
        expected = [graded_dimension_oracle(P, n) for n in range(3)]
        del degrees[:]
        assert [hilbert_series(P, upto) for upto in range(3)] == [
            expected[: upto + 1] for upto in range(3)
        ]
        assert degrees == [0, 1, 2]


def test_membership_completes_to_what_the_verdict_sees(degrees):
    P = a_t()
    x1, x2 = (NCPoly.gen(QT, 2, i) for i in range(2))
    relation = P.relations[0]
    verdict = ideal_membership(x1, P, 4)
    assert (verdict.member, verdict.exact, verdict.bound) == (False, True, 4)
    assert ideal_membership(x1 * relation, P, 4).member
    assert ideal_membership(relation * x2 + x1 * x1 * x1 * x2, P, 4).exact
    # a degree-1 question completes no relation, to degree 1
    assert degrees == [1, 3, 4]
    # inhomogeneous relations keep the requested bound: reductions of
    # x1 - 1 by x1*x1 - x1 may pass through higher degrees
    del degrees[:]
    P = projector()
    x1 = NCPoly.gen(Q, 1, 0)
    verdict = ideal_membership(x1 - NCPoly.one(Q, 1), P, 5)
    assert (verdict.member, verdict.exact, verdict.bound) == (False, False, 5)
    assert degrees == [5]


def test_membership_below_the_top_degree_completes_the_low_relations(degrees):
    # relations of degrees 1, 2 and 3 over Q and Q(t1): a question of
    # degree n below 3 completes only the relations of degree <= n, to n
    rng = random.Random(2902)
    verdicts = set()
    for field in (Q, Q, QT):
        P = mixed_degree_presentation(rng, field, 2, (1, 2, 3))
        for n in (1, 2):
            member = ideal_element(rng, P, n)
            noise = homogeneous_poly(rng, field, 2, n, n_terms=2)
            for f in (member, member + noise, noise, member + NCPoly.one(field, 2)):
                if f.is_zero():
                    continue
                del degrees[:]
                verdict = ideal_membership(f, P, 3)
                assert (verdict.member, verdict.exact, verdict.bound) == (
                    ideal_membership_oracle(P, f), True, 3
                ), (str(P), f.to_text(P.generators))
                assert degrees == [f.degree()]
                verdicts.add(verdict.member)
    assert verdicts == {False, True}


def test_iso_recheck_completes_once(degrees):
    # a passing witness is re-checked over the one basis the relation half
    # completed, at the relation degree 2
    t = Scalar.generator(QT, 0)
    images = iso_witness(t, -t)
    assert verify_iso_witness(t, -t, images)
    assert degrees == [2]


def test_iso_recheck_completes_again_for_a_failing_witness(degrees):
    # (x1, x1) substitutes to 0 under beta = -2, so the relation half passes
    # over the degree-1 basis the generation check starts at; its images do
    # not span x2, and only then is the degree-3 basis completed
    t = Scalar.generator(QT, 0)
    x1 = NCPoly.gen(QT, 2, 0)
    assert not verify_iso_witness(t, Scalar.from_int(QT, -2), (x1, x1))
    assert degrees == [1, 3]


def test_iso_recheck_stops_at_the_relation_half(degrees):
    t = Scalar.generator(QT, 0)
    x1 = NCPoly.gen(QT, 2, 0)
    assert not verify_iso_witness(t, -t, (x1, x1))
    assert degrees == [2]


# ---------------------------------------------------------------------------
# the errors, raised before any completion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: graded_dimension(a_t(), 1, 1), "maxdeg 1 below maximal relation degree 2"),
        (lambda: graded_dimension(cubic(), 0, 2), "maxdeg 2 below maximal relation degree 3"),
        (lambda: graded_dimension(a_t(), 3, 2), "degree exceeds maxdeg"),
        (lambda: graded_dimension(a_t(), -1, 4), "degree must be >= 0"),
        (lambda: graded_dimension(projector(), 1, 3), "needs homogeneous relations"),
        (lambda: hilbert_series(projector(), 3), "needs homogeneous relations"),
        (lambda: hilbert_series(a_t(), -1), "degree must be >= 0"),
        (
            lambda: ideal_membership(NCPoly.gen(QT, 2, 0), a_t(), 1),
            "maxdeg 1 below maximal relation degree 2",
        ),
        (
            lambda: ideal_membership(NCPoly.gen(Q, 1, 0), projector(), 1),
            "maxdeg 1 below maximal relation degree 2",
        ),
        (
            lambda: ideal_membership(NCPoly.monomial(QT, 2, (0, 1, 0)), a_t(), 2),
            "polynomial degree exceeds maxdeg",
        ),
    ],
)
def test_contract_errors(call, message, degrees):
    with pytest.raises(ValueError, match=message):
        call()
    assert degrees == []


def test_cli_member_below_relation_degree_exits_2(capsys):
    argv = ["member", "--file", str(INPUTS / "aalpha_t.alg"), "--expr", "x1", "--maxdeg", "1"]
    assert run(argv) == 2
    assert "below maximal relation degree 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# differential: engine against the u * r * v spans, relation degrees 1 to 3
# ---------------------------------------------------------------------------


def homogeneous_poly(rng, field, num_gens, degree, n_terms=3):
    pairs = {}
    for _ in range(rng.randint(1, n_terms)):
        pairs[random_word(rng, num_gens, degree, min_len=degree)] = simple_scalar(
            rng, field, allow_fraction=False, nonzero=True
        )
    return NCPoly.from_terms(field, num_gens, pairs.items())


def mixed_degree_presentation(rng, field, num_gens, degrees):
    names = tuple(f"x{i + 1}" for i in range(num_gens))
    rels = tuple(homogeneous_poly(rng, field, num_gens, d) for d in degrees)
    return Presentation(field, names, rels)


def corpus():
    rng = random.Random(1401)
    out = [
        Presentation(Q, ("x1", "x2"), ()),
        Presentation(Q, ("x1", "x2"), (NCPoly.one(Q, 2),)),
        Presentation(QT, ("x1",), ()),
        cubic(),
    ]
    for degrees in ((1,), (3,), (1, 2), (2, 3), (3, 3), (1, 3), (2, 2, 3)):
        out.append(mixed_degree_presentation(rng, Q, rng.choice((2, 3)), degrees))
    for degrees in ((1,), (2,), (3,), (1, 2), (2, 3)):
        out.append(mixed_degree_presentation(rng, QT, 2, degrees))
    return rng, out


def ideal_element(rng, P, degree):
    acc = NCPoly.zero(P.field, P.num_gens)
    for r in P.relations:
        if r.degree() > degree:
            continue
        left = rng.randint(0, degree - r.degree())
        u = tuple(rng.randrange(P.num_gens) for _ in range(left))
        v = tuple(rng.randrange(P.num_gens) for _ in range(degree - r.degree() - left))
        acc = acc + r.mul_word(u, v).scale(simple_scalar(rng, P.field, nonzero=True))
    return acc


def probes(rng, P):
    """Members, non-members and mixed-degree polynomials of degree <= 4."""
    m, field = P.num_gens, P.field
    out = [NCPoly.zero(field, m), NCPoly.one(field, m)]
    for degree in range(1, 5):
        member = ideal_element(rng, P, degree)
        noise = homogeneous_poly(rng, field, m, degree, n_terms=2)
        out += [member, member + noise, noise]
    out.append(ideal_element(rng, P, 2) + ideal_element(rng, P, 4))
    out.append(ideal_element(rng, P, 1) + homogeneous_poly(rng, field, m, 3, n_terms=2))
    return out


def test_dimensions_and_membership_match_the_span_oracle():
    rng, presentations = corpus()
    sides = set()
    for P in presentations:
        maxrel = P.max_relation_degree()
        series = hilbert_series(P, 4)
        for n in range(5):
            expected = graded_dimension_oracle(P, n)
            assert graded_dimension(P, n, max(4, maxrel)) == expected
            assert series[n] == expected
            sides.add((n > maxrel) - (n < maxrel))
        for f in probes(rng, P):
            verdict = ideal_membership(f, P, 4)
            assert (verdict.member, verdict.exact, verdict.bound) == (
                ideal_membership_oracle(P, f), True, 4
            ), (str(P), f.to_text(P.generators))
    assert sides == {-1, 0, 1}


# ---------------------------------------------------------------------------
# one depth rule: every homogeneous verdict completes through graded_basis
# ---------------------------------------------------------------------------


@pytest.fixture
def depths(monkeypatch):
    """[presentation, maxdeg, highest degree reduced over the basis] for
    every completion, made through any binding of groebner.  Reductions a
    completion makes on its own are not counted."""
    rows = []
    by_index = {}
    completing = []
    real_groebner = rewrite.groebner
    real_reduce = rewrite.reduce_by_entries

    def spying(P, maxdeg):
        completing.append(P)
        try:
            gb = real_groebner(P, maxdeg)
        finally:
            completing.pop()
        row = [P, maxdeg, -1, gb]
        rows.append(row)
        by_index[id(gb.entries())] = row
        return gb

    def reducing(f, entries):
        if not completing:
            row = by_index[id(entries)]
            row[2] = max(row[2], f.degree())
        return real_reduce(f, entries)

    for module in (rewrite, morita, cli):
        for name, real, spy in (
            ("groebner", real_groebner, spying),
            ("reduce_by_entries", real_reduce, reducing),
        ):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    return rows


def matrix_bases():
    return {"A_t": a_t(), "A_alpha": make_aalpha(Scalar.from_int(Q, 3)), "cubic": cubic()}


def lifted_idempotents(MP):
    """(zdeg, e): e11 and e11 + e12*z1, which carries one lift."""
    e11 = MP.unit(1, 1)
    return [(0, e11), (1, e11 + MP.unit(1, 2) * MP.lift(0))]


def test_every_homogeneous_verdict_completes_at_the_degree_it_reduces_at(depths):
    reached = set()

    def check(kind, expected, counted=False):
        # one completion per call, except the iso re-check of a failing
        # witness; no relation above maxdeg, maxdeg the verdict's degree,
        # and no reduction over the basis above it
        assert [row[1] for row in depths] == expected, kind
        for P, maxdeg, highest, _ in depths:
            assert all(r.degree() <= maxdeg for r in P.relations), kind
            assert highest == -1 if counted else highest <= maxdeg, kind
            if highest == maxdeg:
                reached.add(kind)
        del depths[:]

    rng, presentations = corpus()
    for P in presentations:
        for upto in range(5):
            hilbert_series(P, upto)
            check("hilbert", [upto], counted=True)
        for f in probes(rng, P):
            if not f.is_zero():
                ideal_membership(f, P, 4)
                check("member", [f.degree()])
    for B in matrix_bases().values():
        MP = matrix_presentation(B, 2)
        for d in range(2, 5):
            filtered_dimension(MP, d)
            check("filtered", [d], counted=True)
        for zdeg, e in lifted_idempotents(MP):
            for d in range(4):
                corner_filtered_dims(e, MP, d)
                check("corner", [d + 2 * zdeg])
                verdict = is_full_idempotent(e, MP, d)
                check("full", [max(d + zdeg, 2 * zdeg)])
                if verdict.full:
                    assert verify_fullness_certificate(e, MP, verdict.certificate, d)
                    check("full re-check", [max(d + zdeg, 2 * zdeg)])
    t = Scalar.generator(QT, 0)
    x1, x2 = (NCPoly.gen(QT, 2, i) for i in range(2))
    for beta, images, expected in [
        (-t, iso_witness(t, -t), [2]),
        (-t, (x1, x1), [2]),
        (Scalar.from_int(QT, -2), (x1, x1), [1, 3]),
        (t, (x1 * x2, x2), [4]),
    ]:
        verify_iso_witness(t, beta, images)
        check("iso", expected)
    # the re-check reduces only the residue, below the search's degree
    assert reached == {"member", "corner", "full", "iso"}
