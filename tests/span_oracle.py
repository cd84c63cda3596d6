"""Independent graded-dimension oracle.

dim_n(quotient) = m^n - rank{u * r * v : r a relation, |u| + |v| = n - deg r},
computed with free-algebra products and exact linear algebra only -- no
rewriting code is imported, so this is a genuinely separate route.
"""

from itertools import product


def sparse_field_rank(rows):
    """Rank of sparse rows (dicts column -> field element) by pivoted echelon.

    Entries may be any exact field type with +, *, /, unary - and truthiness
    (Scalar, Fraction, ...).
    """
    pivots = {}  # column -> normalized row
    rank = 0
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            col = min(row)
            if col not in pivots:
                pivot_value = row[col]
                row = {c: v / pivot_value for c, v in row.items()}
                pivots[col] = row
                rank += 1
                break
            factor = row[col]
            for c, v in pivots[col].items():
                if c in row:
                    nv = row[c] - v * factor
                    if nv:
                        row[c] = nv
                    else:
                        del row[c]
                else:
                    row[c] = -(v * factor)
    return rank


def all_words(num_gens, length):
    return [tuple(w) for w in product(range(num_gens), repeat=length)]


def _row_of(poly, rational):
    if rational:
        return {w: c.as_fraction() for w, c in poly.terms()}
    return {w: c for w, c in poly.terms()}


def _ideal_rows(P, n, rational):
    """The products u * r * v of degree n, as rows: they span the degree-n
    part of a homogeneous relation ideal."""
    m = P.num_gens
    rows = []
    for r in P.relations:
        d = r.degree()
        if d > n:
            continue
        for left_len in range(n - d + 1):
            right_len = n - d - left_len
            for u in all_words(m, left_len):
                for v in all_words(m, right_len):
                    rows.append(_row_of(r.mul_word(u, v), rational))
    return rows


def graded_dimension_oracle(P, n):
    """Exact degree-n dimension of the quotient for homogeneous relations."""
    rational = P.field.num_generators == 0
    return P.num_gens ** n - sparse_field_rank(_ideal_rows(P, n, rational))


def ideal_membership_oracle(P, f):
    """Exact membership of f in a homogeneous relation ideal: each
    homogeneous component of f must lie in the span of the u * r * v of its
    degree."""
    rational = P.field.num_generators == 0
    by_degree = {}
    for w, c in _row_of(f, rational).items():
        by_degree.setdefault(len(w), {})[w] = c
    for n, component in by_degree.items():
        rows = _ideal_rows(P, n, rational)
        if sparse_field_rank(rows + [component]) > sparse_field_rank(rows):
            return False
    return True


def filtered_membership_oracle(P, f, D):
    """Whether f is a combination of the products u * r * v of degree <= D.

    A yes proves membership in the relation ideal for any relations,
    homogeneous or not; a no only holds for combinations up to degree D.
    """
    rational = P.field.num_generators == 0
    rows = [row for n in range(D + 1) for row in _ideal_rows(P, n, rational)]
    return sparse_field_rank(rows + [_row_of(f, rational)]) == sparse_field_rank(rows)
