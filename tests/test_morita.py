import contextlib
import pathlib
import random
import signal
from fractions import Fraction

import pytest

from fpalg import (
    DegreeBudgetError,
    FieldSpec,
    MatrixPresentation,
    MismatchError,
    NCPoly,
    Presentation,
    Scalar,
    corner_filtered_dims,
    filtered_dimension,
    graded_dimension,
    is_full_idempotent,
    make_aalpha,
    matrix_presentation,
    parse_presentation,
    verify_fullness_certificate,
    twist,
    verify_idempotent,
)
from fpalg import morita
from fpalg.cli import run
from completion_spy import degrees_of, spy_completions
from randgen import random_automorphism, random_homogeneous_quadratic

Q = FieldSpec(0)
QT = FieldSpec(1)
GOLDEN = pathlib.Path(__file__).parent / "golden"
PROJECTOR = GOLDEN / "inputs" / "projector.alg"


def rational_base():
    return Presentation(Q, (), (), name="B")


def twist_matrix_commutes(P, n, sigma):
    """Whether twisting commutes with the matrix construction, syntactically."""
    lhs = matrix_presentation(twist(P, sigma), n).pres
    return lhs == twist(matrix_presentation(P, n).pres, sigma)


def assert_views_match_pres(B):
    """field, num_gens and generators of M_n(B) are those of its pres."""
    for n in (1, 2, 3, 10):
        MP = matrix_presentation(B, n)
        P = MP.pres
        assert (MP.field, MP.num_gens, MP.generators) == (P.field, P.num_gens, P.generators)
        assert MP == MatrixPresentation(B, n)
        assert MP != MatrixPresentation(B, n + 1)


class TestConstruction:
    def test_rational_base_n2_shape(self):
        MP = matrix_presentation(rational_base(), 2)
        assert MP.pres.generators == ("e11", "e12", "e21", "e22")
        # 16 unit relations plus the unit sum
        assert len(MP.pres.relations) == 17
        assert_views_match_pres(rational_base())

    def test_free_base_adds_lift_and_commutations(self):
        P = Presentation(Q, ("x1",), ())
        MP = matrix_presentation(P, 2)
        assert MP.pres.generators == ("e11", "e12", "e21", "e22", "z1")
        assert len(MP.pres.relations) == 16 + 1 + 4
        assert_views_match_pres(P)

    def test_unit_relation_values(self):
        MP = matrix_presentation(rational_base(), 2)
        e12, e21, e11 = MP.unit(1, 2), MP.unit(2, 1), MP.unit(1, 1)
        assert e12 * e21 - e11 in MP.pres.relations
        assert e12 * e12 in MP.pres.relations

    def test_base_relation_lifted(self):
        t = Scalar.generator(QT, 0)
        MP = matrix_presentation(make_aalpha(t), 2)
        z1, z2 = MP.lift(0), MP.lift(1)
        lifted = z1 * z1 + z2 * z2 + (z1 * z2).scale(t)
        assert lifted in MP.pres.relations
        assert_views_match_pres(make_aalpha(t))

    def test_base_without_generators_lifts_constant_relation(self):
        one = NCPoly.one(Q, 0)
        MP = matrix_presentation(Presentation(Q, (), (one,)), 2)
        assert MP.pres.relations[-1] == NCPoly.one(Q, 4)
        assert_views_match_pres(Presentation(Q, (), (one,)))

    @pytest.mark.parametrize("n, k", [(1, 0), (2, 1), (9, 2), (10, 0), (12, 3)])
    def test_names_are_looked_up_by_their_spelling(self, n, k):
        B = Presentation(Q, tuple(f"x{i + 1}" for i in range(k)), ())
        MP = matrix_presentation(B, n)
        names = MP.generators
        assert [MP.generator_name(g) for g in range(MP.num_gens)] == list(names)
        index = {name: g for g, name in enumerate(names)}
        near = [
            "e", "z", "x1", "e0", "z0", "z01", "e01", "e10", "e1_01", "e01_1", "e1__1",
            "e1_1_1", "e1_", "e_1", "e+1_1", "z+1", "z1_0", "e1_1", "e11", "e99", "e1_10",
            f"e{n}{n}", f"e{n}_{n}", f"e{n + 1}1", f"e1{n + 1}", f"e{n + 1}_1", f"e1_{n + 1}",
            f"z{k}", f"z{k + 1}", "z" + "9" * 5000, "e\u0661\u0661", "E11", "e1 1",
        ]
        for name in [*names, *near]:
            assert MP.generator_index(name) == index.get(name), name

    def test_size_validation(self):
        with pytest.raises(ValueError):
            matrix_presentation(rational_base(), 0)
        with pytest.raises(ValueError):
            MatrixPresentation(rational_base(), 0)


class TestFilteredDimension:
    def test_rational_base_stabilizes_at_n_squared(self):
        for n in (1, 2, 3):
            MP = matrix_presentation(rational_base(), n)
            assert filtered_dimension(MP, 2) == n * n
            assert filtered_dimension(MP, 3) == n * n

    def test_polynomial_algebra_grows_linearly(self):
        P = Presentation(Q, ("x1",), ())
        MP = matrix_presentation(P, 1)
        for d in (2, 3, 4, 5):
            assert filtered_dimension(MP, d) == d + 1

    def test_matches_base_filtration_for_n1(self):
        t = Scalar.generator(QT, 0)
        base = make_aalpha(t)
        MP = matrix_presentation(base, 1)
        for d in (2, 3, 4):
            base_filtered = sum(graded_dimension(base, j, d) for j in range(d + 1))
            assert filtered_dimension(MP, d) == base_filtered

    def test_monotone(self):
        MP = matrix_presentation(make_aalpha(Scalar.from_int(Q, 1)), 2)
        dims = [filtered_dimension(MP, d) for d in (2, 3, 4)]
        assert dims == sorted(dims)

    def test_low_bound_rejected(self):
        with pytest.raises(ValueError):
            filtered_dimension(matrix_presentation(rational_base(), 2), 1)

    def test_equals_explicit_normal_form_span(self):
        # the normal-word count must match the literal definition: the span
        # of normal forms of every word of length <= d
        from itertools import product

        from fpalg.rewrite import Span, groebner, reduce_by_entries

        t = Scalar.generator(QT, 0)
        for base, n in ((rational_base(), 2), (make_aalpha(t), 1)):
            MP = matrix_presentation(base, n)
            for d in (2, 3):
                gb = groebner(MP.pres, max(d + 2, MP.pres.max_relation_degree()))
                span = Span()
                m = MP.pres.num_gens
                for length in range(d + 1):
                    for word in product(range(m), repeat=length):
                        poly = NCPoly.monomial(MP.pres.field, m, word)
                        span.add(reduce_by_entries(poly, gb.entries()))
                assert filtered_dimension(MP, d) == len(span)


class TestIdempotents:
    def setup_method(self):
        self.MP = matrix_presentation(rational_base(), 2)

    def test_unit_generator(self):
        assert verify_idempotent(self.MP.unit(1, 1), self.MP, 3)

    def test_sum_with_nilpotent_corner(self):
        e = self.MP.unit(1, 1) + self.MP.unit(1, 2)
        assert verify_idempotent(e, self.MP, 3)

    def test_off_diagonal_is_not_idempotent(self):
        assert not verify_idempotent(self.MP.unit(1, 2), self.MP, 3)

    def test_degree_budget_error(self):
        e = self.MP.unit(1, 1)
        tall = e * e * e * e
        with pytest.raises(DegreeBudgetError):
            verify_idempotent(tall, self.MP, 2)


class TestFullness:
    def setup_method(self):
        self.MP = matrix_presentation(rational_base(), 2)

    def test_corner_unit_is_full(self):
        verdict = is_full_idempotent(self.MP.unit(1, 1), self.MP, 2)
        assert verdict.full
        assert verify_fullness_certificate(
            self.MP.unit(1, 1), self.MP, verdict.certificate, 2
        )

    def test_one_is_full_at_zero(self):
        one = NCPoly.one(self.MP.field, self.MP.num_gens)
        verdict = is_full_idempotent(one, self.MP, 2)
        assert verdict.full
        assert verdict.bound == 0

    def test_zero_rejected(self):
        zero = NCPoly.zero(self.MP.field, self.MP.num_gens)
        with pytest.raises(ValueError):
            is_full_idempotent(zero, self.MP, 2)

    def test_non_idempotent_rejected(self):
        for verdict in (is_full_idempotent, corner_filtered_dims):
            with pytest.raises(ValueError, match="not an idempotent"):
                verdict(self.MP.unit(1, 2), self.MP, 2)

    def test_certificates_reverify_over_quadratic_base(self):
        t = Scalar.generator(QT, 0)
        MP = matrix_presentation(make_aalpha(t), 2)
        verdict = is_full_idempotent(MP.unit(1, 1), MP, 2)
        assert verdict.full
        assert verify_fullness_certificate(MP.unit(1, 1), MP, verdict.certificate, 2)

    def test_element_over_other_context_rejected(self):
        other = matrix_presentation(rational_base(), 3)
        with pytest.raises(MismatchError):
            is_full_idempotent(other.unit(1, 1), self.MP, 2)
        with pytest.raises(MismatchError):
            corner_filtered_dims(other.unit(1, 1), self.MP, 2)

    def test_certificate_that_does_not_reduce_is_an_error(self, monkeypatch):
        real = morita._certificate_residue

        def off_by_one(e, MP, certificate):
            return real(e, MP, certificate) + NCPoly.one(MP.field, MP.num_gens)

        monkeypatch.setattr(morita, "_certificate_residue", off_by_one)
        with pytest.raises(ValueError, match="certificate"):
            is_full_idempotent(self.MP.unit(1, 1), self.MP, 2)
        assert run(["full", "--n", "2", "--elem", "e11", "--maxdeg", "2"]) == 2

    def test_cli_full_completes_one_basis(self, monkeypatch, capsys):
        # the rational base is homogeneous and e11 has no lift: degree d
        calls = spy_completions(monkeypatch)
        assert run(["full", "--n", "2", "--elem", "e11", "--maxdeg", "3"]) == 0
        assert "re-verified: ok" in capsys.readouterr().out
        assert degrees_of(calls) == [3]


class TestCorner:
    def test_identity_corner_equals_filtration(self):
        # both take B's basis from one rule; the homogeneous bases and the
        # inhomogeneous projector and Weyl algebra check both of its branches
        bases = [
            rational_base(),
            make_aalpha(Scalar.generator(QT, 0)),
            make_aalpha(Scalar.from_fraction(Q, Fraction(3, 2))),
            parse_presentation(PROJECTOR.read_text()),
            parse_presentation("algebra W over Q generators x y relations { x*y - y*x - 1 = 0; }"),
        ]
        for B in bases:
            for n in (1, 2, 3):
                MP = matrix_presentation(B, n)
                dims = corner_filtered_dims(NCPoly.one(MP.field, MP.num_gens), MP, 4)
                for c in (2, 3, 4):
                    assert dims[c] == filtered_dimension(MP, c), (B.name, n, c)

    def test_corner_unit_over_rational_base(self):
        MP = matrix_presentation(rational_base(), 2)
        dims = corner_filtered_dims(MP.unit(1, 1), MP, 3)
        assert dims == [1, 1, 1, 1]

    def test_corner_tracks_base_over_quadratic_family(self):
        t = Scalar.generator(QT, 0)
        base = make_aalpha(t)
        MP = matrix_presentation(base, 2)
        dims = corner_filtered_dims(MP.unit(1, 1), MP, 4)
        base_filtered = [
            sum(graded_dimension(base, j, 4) for j in range(c + 1)) for c in range(5)
        ]
        assert dims == base_filtered


class TestTwistCompatibility:
    def test_quadratic_base_with_shift(self):
        from fpalg import FieldAutomorphism

        t = Scalar.generator(QT, 0)
        sigma = FieldAutomorphism.affine(QT, 0, 1, 1)
        assert twist_matrix_commutes(make_aalpha(t), 2, sigma)

    def test_identity_always_commutes(self):
        from fpalg import FieldAutomorphism

        P = make_aalpha(Scalar.generator(QT, 0))
        assert twist_matrix_commutes(P, 3, FieldAutomorphism.identity(QT))

    def test_random_corpus(self):
        rng = random.Random(101)
        field = FieldSpec(2)
        for _ in range(50):
            P = random_homogeneous_quadratic(rng, field, rng.choice((1, 2)))
            sigma = random_automorphism(rng, field)
            n = rng.randint(1, 3)
            assert twist_matrix_commutes(P, n, sigma)


class RelationListBuilt(Exception):
    pass


class WallBoundExceeded(Exception):
    # not an OSError, as TimeoutError is, so cli.run does not turn it into exit 2
    pass


@contextlib.contextmanager
def wall_bound(seconds):
    """Raise WallBoundExceeded in the body once it has run for seconds."""

    def expire(signum, frame):
        raise WallBoundExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestVerdictsOnBaseAndSize:
    """Matrix verdicts read (B, n) alone; only `matrix` builds M_n(B)'s relations."""

    def test_verdicts_build_no_relation_list(self, monkeypatch, capsys):
        B = parse_presentation(PROJECTOR.read_text())
        where = ["--n", "16", "--base", str(PROJECTOR)]
        argvs = [
            ["corner", *where, "--elem", "e1_1+3*e1_2", "--upto", "2"],
            ["full", *where, "--elem", "e1_1+3*e1_2", "--maxdeg", "2"],
            ["idem", *where, "--check", "e1_1+3*e1_2", "--maxdeg", "2"],
        ]

        def outputs():
            MP = matrix_presentation(B, 16)
            e = MP.unit(1, 1) + MP.unit(1, 2).scale(Scalar.from_int(B.field, 3))
            library = (
                corner_filtered_dims(e, MP, 2),
                is_full_idempotent(e, MP, 2),
                verify_idempotent(e, MP, 2),
            )
            return library, [(run(argv), capsys.readouterr()) for argv in argvs]

        expected = outputs()
        assert expected[0][1].full and expected[0][2]
        assert [code for code, _ in expected[1]] == [0, 0, 0]

        def no_presentation(*args, **kwargs):
            raise RelationListBuilt

        monkeypatch.setattr(morita, "Presentation", no_presentation)
        assert outputs() == expected
        # matrix renders through pres, so the patch reaches it
        with pytest.raises(RelationListBuilt):
            run(["matrix", "--n", "2"])
        monkeypatch.undo()
        assert run(["matrix", "--n", "2"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "matrix-n2.out").read_text()

    @pytest.mark.parametrize(
        "argv",
        [
            ["full", "--n", "1000", "--elem", "e1_1", "--maxdeg", "-1"],
            ["idem", "--n", "1000", "--check", "e1_1", "--maxdeg", "-1"],
            ["corner", "--n", "1000", "--elem", "e1_1", "--upto", "-1"],
        ],
        ids=["full", "idem", "corner"],
    )
    def test_negative_degree_at_large_n_exits_at_once(self, argv, capsys):
        with wall_bound(5):
            code = run(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "must be >= 0" in err
        assert "Traceback" not in err
