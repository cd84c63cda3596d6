"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its runtime budget."""

import contextlib
import io
import json
import pathlib
import random
import time
from fractions import Fraction

from fpalg import (
    FieldAutomorphism,
    FieldSpec,
    ModScalar,
    Presentation,
    Scalar,
    apply_automorphism,
    canonicalize,
    congruence_check,
    corner_filtered_dims,
    filtered_dimension,
    graded_dimension,
    invert,
    is_full_idempotent,
    is_over_subfield,
    iso_aalpha,
    make_aalpha,
    matrix_presentation,
    orbit_sample,
    parse_presentation,
    presentation_to_text,
    search_iso_degree2,
    transcendental_support,
    twist,
    verify_fullness_certificate,
)
from fpalg.aalpha import CongruenceWitness, mat2, mat2_det
from fpalg.cli import run
from randgen import (
    random_automorphism,
    random_homogeneous_quadratic,
    random_permutation_auto,
    random_presentation,
)
from span_oracle import graded_dimension_oracle

QT = FieldSpec(1)
Q = FieldSpec(0)


class _Budget:
    def __init__(self, capsys, number, label, seconds):
        self.capsys = capsys
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        with self.capsys.disabled():
            print(
                f"[acceptance] criterion {self.number} ({self.label}): {status} "
                f"in {elapsed:.2f}s (budget {self.seconds}s)"
            )
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget "
                f"({elapsed:.2f}s)"
            )


def test_criterion_1_family_decision_vs_finite_field_oracle(capsys):
    with _Budget(capsys, 1, "family decision vs GL2 oracle", 30):
        checked = 0
        for p in (3, 5, 7):
            for a in range(p):
                if (a * a - 4) % p == 0:
                    continue
                for b in range(p):
                    if (b * b - 4) % p == 0:
                        continue
                    criterion = iso_aalpha(ModScalar(a, p), ModScalar(b, p))
                    witness = search_iso_degree2(a, b, p)
                    assert criterion == (witness is not None), (p, a, b)
                    if witness is not None:
                        assert congruence_check(
                            ModScalar(a, p), ModScalar(b, p), witness
                        )
                    checked += 1
        assert checked == 1 + 9 + 25


def test_criterion_1_scan_at_a_large_prime(capsys):
    # 2 and 3 are not congruent over F_101 (3 != +-2), so the scan runs to
    # the end; enumerating all 101^4 matrices takes tens of seconds
    with _Budget(capsys, 1, "GL2 scan at p = 101", 10):
        assert search_iso_degree2(2, 3, 101) is None


def _random_accepted_witness(rng):
    """A random congruence-accepted (alpha, beta, witness) triple."""
    alpha = Scalar.from_fraction(
        Q, Fraction(rng.randint(-8, 8), rng.randint(1, 5))
    )
    c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    if c == 0:
        c = Fraction(1)
    cs = Scalar.from_fraction(Q, c)
    style = rng.randrange(3)
    if style == 0:
        beta = alpha
        q = mat2(cs, Scalar.zero(Q), Scalar.zero(Q), cs)
        gamma = cs * cs
    elif style == 1:
        beta = -alpha
        q = mat2(cs, Scalar.zero(Q), Scalar.zero(Q), -cs)
        gamma = cs * cs
    else:
        # rotation-like witnesses live over the symmetric form alpha = 0
        alpha = Scalar.zero(Q)
        beta = Scalar.zero(Q)
        a = Scalar.from_int(Q, rng.randint(-5, 5))
        b = Scalar.from_int(Q, rng.randint(-5, 5))
        if a.is_zero() and b.is_zero():
            a = Scalar.one(Q)
        q = mat2(a, -b, b, a)
        gamma = a * a + b * b
    return alpha, beta, CongruenceWitness(q, gamma)


def test_criterion_2_congruence_invariants(capsys):
    with _Budget(capsys, 2, "congruence witness invariants", 5):
        rng = random.Random(1201)
        four = Scalar.from_int(Q, 4)
        for _ in range(1000):
            alpha, beta, witness = _random_accepted_witness(rng)
            assert congruence_check(alpha, beta, witness)
            det = mat2_det(witness.q)
            gamma = witness.gamma
            assert beta * det == gamma * alpha
            assert (four - beta * beta) * det * det == gamma * gamma * (
                four - alpha * alpha
            )
            assert beta * beta == alpha * alpha


def test_criterion_3_twist_roundtrip(capsys):
    from randgen import rich_scalar

    with _Budget(capsys, 3, "twist roundtrip and coefficient law", 10):
        rng = random.Random(1301)
        for _ in range(200):
            field = FieldSpec(rng.randint(1, 4))
            P = random_presentation(
                rng, field, max_gens=3, max_deg=3, scalar=rich_scalar
            )
            sigma = random_automorphism(rng, field)
            twisted = twist(P, sigma)
            assert twist(twisted, invert(sigma)) == P
            inverse = invert(sigma)
            for original, moved in zip(P.relations, twisted.relations):
                assert moved.support() == original.support()
                for word in original.support():
                    assert moved.coefficient(word) == apply_automorphism(
                        inverse, original.coefficient(word)
                    )


def test_criterion_4_groebner_vs_span_oracle(capsys):
    with _Budget(capsys, 4, "graded dimensions vs span oracle", 60):
        rng = random.Random(1401)
        corpus = [make_aalpha(Scalar.generator(QT, 0))]
        while len(corpus) < 21:
            num_gens = rng.choice((2, 2, 3))
            field = Q if num_gens == 3 else rng.choice((Q, QT))
            corpus.append(random_homogeneous_quadratic(rng, field, num_gens))
        for P in corpus:
            for n in range(7):
                assert graded_dimension(P, n, 6) == graded_dimension_oracle(P, n)


def test_criterion_5_descent_onto_canonical_subfield(capsys):
    with _Budget(capsys, 5, "descent onto the canonical subfield", 10):
        rng = random.Random(1501)
        field = FieldSpec(9)
        for _ in range(100):
            P = random_presentation(rng, field, max_gens=3, max_deg=3)
            r = len(transcendental_support(P))
            P0, sigma = canonicalize(P)
            assert is_over_subfield(P0, r)
            assert twist(P0, invert(sigma)) == P
            pi = random_permutation_auto(rng, field)
            assert canonicalize(twist(P, pi))[0] == P0


def test_criterion_6_orbit_inside_one_morita_class(capsys):
    with _Budget(capsys, 6, "orbit sampling separates isomorphism classes", 5):
        t = Scalar.generator(QT, 0)
        autos = [
            FieldAutomorphism.affine(QT, 0, 1, 1),
            FieldAutomorphism.affine(QT, 0, 2, 0),
            FieldAutomorphism.affine(QT, 0, 1, -1),
        ]
        sample = orbit_sample(t, autos)
        assert len(sample) == 3
        presentations = [make_aalpha(beta) for beta in sample]
        assert len(presentations) == 3
        for beta in sample:
            assert not iso_aalpha(t, beta)
        for i, left in enumerate(sample):
            for right in sample[i + 1:]:
                assert not iso_aalpha(left, right)


def test_criterion_7_morita_apparatus(capsys):
    with _Budget(capsys, 7, "matrix algebras, fullness, corners", 120):
        base = Presentation(Q, (), (), name="B")
        for n in (1, 2, 3):
            MP = matrix_presentation(base, n)
            assert filtered_dimension(MP, 2) == n * n
            assert filtered_dimension(MP, 3) == n * n

        MP2 = matrix_presentation(base, 2)
        e11 = MP2.unit(1, 1)
        verdict = is_full_idempotent(e11, MP2, 3)
        assert verdict.full and verdict.bound <= 3
        assert verify_fullness_certificate(e11, MP2, verdict.certificate, 3)

        t = Scalar.generator(QT, 0)
        quadratic = make_aalpha(t)
        MPt = matrix_presentation(quadratic, 2)
        corner = corner_filtered_dims(MPt.unit(1, 1), MPt, 4)
        own = [
            sum(graded_dimension(quadratic, j, 4) for j in range(c + 1))
            for c in range(5)
        ]
        assert corner == own


def test_criterion_8_cli_contract(capsys):
    golden = pathlib.Path(__file__).parent / "golden"
    cases = json.loads((golden / "cases.json").read_text())
    with _Budget(capsys, 8, "CLI golden files and round-trips", 10):
        for case in cases:
            argv = [a.replace("{DIR}", str(golden)) for a in case["argv"]]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
                io.StringIO()
            ):
                code = run(argv)
            assert code == case["exit"], case["name"]
            assert out.getvalue() == (golden / f"{case['name']}.out").read_text(), (
                case["name"]
            )
        for path in sorted((golden / "inputs").glob("*.alg")):
            P = parse_presentation(path.read_text())
            assert parse_presentation(presentation_to_text(P)) == P
