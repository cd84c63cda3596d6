"""Independent answer checks that share no code with the rewriting engine.

Everything here is built from free-algebra products, exact linear algebra
and explicit n x n matrices, so a check agrees with the engine only when the
engine is right.  The checks run after the timed phase of a run.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def _coeff(c, rational):
    return c.as_fraction() if rational else c


class IdealSpan:
    """Echelon basis of the degree-n part of a homogeneous relation ideal.

    The rows are the products u * r * v with |u| + |v| = n - deg r, the same
    spanning set the span oracle of the test suite ranks.
    """

    def __init__(self, P, n):
        self.rational = P.field.num_generators == 0
        self._pivots = {}
        m = P.num_gens
        for r in P.relations:
            d = r.degree()
            if d > n:
                continue
            for left_len in range(n - d + 1):
                for u in product(range(m), repeat=left_len):
                    for v in product(range(m), repeat=n - d - left_len):
                        self._insert(self._row(r.mul_word(u, v)))

    def _row(self, poly):
        return {w: _coeff(c, self.rational) for w, c in poly.terms()}

    def _reduce(self, row):
        row = {w: c for w, c in row.items() if c}
        while row:
            col = next((w for w in sorted(row) if w in self._pivots), None)
            if col is None:
                return row
            factor = row[col]
            for w, c in self._pivots[col].items():
                nc = row[w] - c * factor if w in row else -(c * factor)
                if nc:
                    row[w] = nc
                else:
                    row.pop(w, None)
        return row

    def _insert(self, row):
        row = self._reduce(row)
        if row:
            col = min(row)
            lead = row[col]
            self._pivots[col] = {w: c / lead for w, c in row.items()}

    def contains(self, poly):
        """Whether a homogeneous polynomial of degree n lies in the ideal."""
        return not self._reduce(self._row(poly))


def ideal_contains(spans, P, poly):
    """Membership of any polynomial in a homogeneous ideal, degree by degree.

    spans caches IdealSpan objects by degree for this presentation.
    """
    by_degree = {}
    for w, c in poly.terms():
        by_degree.setdefault(len(w), []).append((w, c))
    for n, terms in by_degree.items():
        if n not in spans:
            spans[n] = IdealSpan(P, n)
        part = type(poly).from_terms(poly.field, poly.num_gens, terms)
        if not spans[n].contains(part):
            return False
    return True


# -- matrix evaluation of M_n(B) -------------------------------------------
#
# e_ij -> E_ij and every central lift z_k -> 0 is a representation of M_n(B)
# whenever B's relations have no constant term; it is faithful on the span
# of the matrix units, which is where the idempotents under test live.


def _scalar_value(c):
    q = c.as_fraction()
    return q if q is not None else c


def _word_matrix(word, n):
    """The n x n matrix of a word: the identity for the empty word, E_il
    for a chain e_ij * e_jk * ... * e_.l, and 0 otherwise."""
    out = [[Fraction(0)] * n for _ in range(n)]
    if not word:
        for i in range(n):
            out[i][i] = Fraction(1)
        return out
    pos = None
    for g in word:
        if g >= n * n:
            return out
        i, j = divmod(g, n)
        if pos is not None and pos[1] != i:
            return out
        pos = (i, j) if pos is None else (pos[0], j)
    out[pos[0]][pos[1]] = Fraction(1)
    return out


def _combination(terms, n):
    """sum value * M over (M, value) pairs."""
    total = [[Fraction(0)] * n for _ in range(n)]
    for M, value in terms:
        total = [[total[i][j] + value * M[i][j] for j in range(n)] for i in range(n)]
    return total


def matmul(A, B):
    n = len(A)
    return [
        [sum((A[i][k] * B[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


def is_identity(A):
    n = len(A)
    return all(A[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))


def poly_matrix(poly, n):
    """A polynomial in the matrix-unit generators as an n x n matrix."""
    return _combination(((_word_matrix(w, n), _scalar_value(c)) for w, c in poly.terms()), n)


def certificate_matrix(e, certificate, n):
    """sum c * M(u) * M(e) * M(v) for a fullness certificate."""
    E = poly_matrix(e, n)
    return _combination(
        (
            (matmul(matmul(_word_matrix(u, n), E), _word_matrix(v, n)), _scalar_value(c))
            for (u, v), c in certificate
        ),
        n,
    )
