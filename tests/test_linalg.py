"""The span oracle's sparse rank against sympy's DomainMatrix rank."""

import random
from fractions import Fraction

from sympy import QQ, symbols
from sympy.polys.matrices import DomainMatrix

from fpalg import FieldSpec, Scalar
from poly_scalars import denominator, numerator
from randgen import rich_scalar
from span_oracle import sparse_field_rank

Q = FieldSpec(0)
QT = FieldSpec(1)


def sparse_rows(rows):
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def reference_rank(rows):
    """Rank of a matrix of Scalars by sympy over QQ or QQ(t1..tk)."""
    k = rows[0][0].field.num_generators
    domain = QQ.frac_field(*symbols(f"t1:{k + 1}")) if k else QQ
    entries = [
        [domain.from_sympy(numerator(s).as_expr() / denominator(s).as_expr()) for s in row]
        for row in rows
    ]
    return DomainMatrix(entries, (len(rows), len(rows[0])), domain).rank()


class TestKnownRanks:
    def test_identity(self):
        one, zero = Scalar.one(Q), Scalar.zero(Q)
        rows = [[one, zero], [zero, one]]
        assert reference_rank(rows) == 2
        assert sparse_field_rank(sparse_rows(rows)) == 2

    def test_repeated_row(self):
        t = Scalar.generator(QT, 0)
        one = Scalar.one(QT)
        rows = [[t, one], [t, one], [t * t, t]]
        # third row is t * first row
        assert reference_rank(rows) == 1
        assert sparse_field_rank(sparse_rows(rows)) == 1

    def test_rational_function_entries(self):
        t = Scalar.generator(QT, 0)
        one = Scalar.one(QT)
        rows = [[one / t, one], [one, t]]
        # det = 1/t * t - 1 = 0
        assert reference_rank(rows) == 1
        assert sparse_field_rank(sparse_rows(rows)) == 1

    def test_zero_matrix(self):
        zero = Scalar.zero(Q)
        assert reference_rank([[zero, zero]]) == 0
        assert sparse_field_rank(sparse_rows([[zero, zero]])) == 0
        assert sparse_field_rank([{}]) == 0


class TestCrossValidation:
    def test_dense_and_sparse_agree_on_random_scalar_matrices(self):
        rng = random.Random(127)
        for _ in range(60):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 5)
            rows = [
                [rich_scalar(rng, QT, depth=1) for _ in range(ncols)]
                for _ in range(nrows)
            ]
            assert reference_rank(rows) == sparse_field_rank(sparse_rows(rows))

    def test_sparse_rank_over_fractions(self):
        rng = random.Random(131)
        for _ in range(60):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(1, 6)
            scalars = [
                [Scalar.from_fraction(Q, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                 for _ in range(ncols)]
                for _ in range(nrows)
            ]
            fractions = [
                {j: row[j].as_fraction() for j in range(ncols) if row[j]}
                for row in scalars
            ]
            assert sparse_field_rank(fractions) == reference_rank(scalars)
