"""Matrix algebras over presented algebras, idempotents and corner fingerprints.

M_n(B) is presented on the n^2 matrix-unit generators e_ij followed by one
central lift z_k per base generator: the unit relations e_ij*e_kl = delta_jk
e_il, the unit sum e_11 + ... + e_nn = 1, commutation of every z_k with every
e_ij, and the base relations rewritten in the lifts.  For a ring containing a
full system of matrix units this is the standard centralizer decomposition,
so the quotient really is the n x n matrix algebra over the base quotient.

The matrix-unit relations are inhomogeneous, so dimensions here are filtered:
spans of normal forms of words up to a length bound.  Fullness of an
idempotent is a semidecision: a found combination sum a_i * e * b_i = 1 is a
re-verifiable certificate, while absence at a bound stays unknown.  The
search inserts u*e*v only when u*e*v extends, by one letter on either side,
an insert that grew the span; it finds the certificate that inserting every
u*e*v with |u| + |v| <= d finds (see is_full_idempotent for why).

Every verdict here completes the base B alone, and neither a basis nor
the relation list of M_n(B) is written down: a MatrixPresentation is the
pair (B, n).  _matrix reads an element as an n x n matrix over B and
reduces each entry by B's basis; the matrix is empty exactly when the
element is in the ideal, up to the basis's degree (see its docstring).
Its guard is on the base degree, the number of lifts in a word, since
only the entries are reduced.  No verdict writes a matrix back in normal
words: idempotency, corners and fullness walk e*e, e*w and u*e*v as
matrices over B, where a unit letter moves a row or a column and a lift
letter multiplies each entry by its generator and reduces it, and e*e = e
is one test on e's matrix for all three.  Every verdict takes B's basis
from one rule, _walk_basis: on a homogeneous B it is rewrite.graded_basis
at the highest base degree of an entry the walk reduces, and otherwise
the basis the normal forms of M_n(B) need at the degree of the walked
products.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .freealg import NCPoly
from .presentation import Presentation
from .rewrite import FactorAvoider, Span, graded_basis, groebner, reduce_by_entries
from .scalars import FieldSpec, MismatchError, Scalar


class DegreeBudgetError(ValueError):
    """A verification could not be completed within the degree bound."""


_NOT_IDEMPOTENT = "element is not an idempotent modulo the relations"


@dataclass(frozen=True)
class MatrixPresentation:
    """The n x n matrix algebra M_n(B) over a presented base B: the pair (B, n).

    Generator index (i - 1) * n + (j - 1) is the unit e_ij, and n^2 + k the
    lift z_(k+1) of base generator k.  field and num_gens are stored once
    here; pres, the relation list of M_n(B), is built on each read.
    """

    base: Presentation
    n: int
    field: FieldSpec = dc_field(init=False, compare=False)
    num_gens: int = dc_field(init=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix size must be >= 1")
        object.__setattr__(self, "field", self.base.field)
        object.__setattr__(self, "num_gens", self.n * self.n + self.base.num_gens)

    @property
    def generators(self):
        n = self.n
        names = [_unit_name(i, j, n) for i in range(1, n + 1) for j in range(1, n + 1)]
        return tuple(names + [f"z{k + 1}" for k in range(self.base.num_gens)])

    @property
    def pres(self):
        """The presentation of M_n(B), about n^4 relations, built on each read.

        The unit relations e_ij*e_kl - delta_jk e_il, the unit sum
        e_11 + ... + e_nn - 1, the commutations z*e_ij - e_ij*z for every
        lift z, and the base relations with base generator k relabelled
        z_(k+1).  No verdict reads it: only the matrix verb renders it, and
        the tests complete it as the reference that _matrix's zero test
        and the matrix walk are held to.
        """
        n, field, total = self.n, self.field, self.num_gens
        one = Scalar.one(field)
        rows = range(1, n + 1)
        units = [(i, j, self.unit_index(i, j)) for i in rows for j in rows]
        relations = []
        for i, j, a in units:
            for k, l, b in units:
                pairs = [((a, b), one)]
                if j == k:
                    pairs.append(((self.unit_index(i, l),), -one))
                relations.append(NCPoly.from_terms(field, total, pairs))
        pairs = [((self.unit_index(i, i),), one) for i in rows]
        pairs.append(((), -one))
        relations.append(NCPoly.from_terms(field, total, pairs))
        for k in range(self.base.num_gens):
            z = self.lift_index(k)
            for _, _, u in units:
                pairs = [((z, u), one), ((u, z), -one)]
                relations.append(NCPoly.from_terms(field, total, pairs))
        for rel in self.base.relations:
            terms = {tuple(self.lift_index(g) for g in w): c for w, c in rel._terms.items()}
            relations.append(NCPoly(field, total, terms))
        name = f"M{n}_{self.base.name}"
        return Presentation(field, self.generators, tuple(relations), name=name)

    def unit_index(self, i, j):
        """Generator index of e_ij (1-based matrix positions)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"matrix position ({i},{j}) outside 1..{self.n}")
        return (i - 1) * self.n + (j - 1)

    def lift_index(self, k):
        """Generator index of z_(k+1), the lift of base generator k (0-based)."""
        if not 0 <= k < self.base.num_gens:
            raise ValueError(f"base generator index {k} out of range")
        return self.n * self.n + k

    def unit(self, i, j):
        return NCPoly.gen(self.field, self.num_gens, self.unit_index(i, j))

    def lift(self, k):
        return NCPoly.gen(self.field, self.num_gens, self.lift_index(k))


def _unit_name(i, j, n):
    return f"e{i}{j}" if n <= 9 else f"e{i}_{j}"


def matrix_presentation(P, n):
    """M_n over the base presentation P; raises ValueError for n < 1."""
    return MatrixPresentation(P, n)


def _walk_basis(e, MP, d, copies):
    """B's basis for walking products u*e*v, |u| + |v| <= d, with copies
    factors e: 2 for corners e*w*e, 1 for fullness, and 0 for idempotency,
    which walks e*e alone at the budget d.  Their entries, and those of
    e*e, have base degree at most max(d + copies*zdeg(e), 2*zdeg(e)),
    zdeg(e) the most lifts in a word of e: on a homogeneous B that is
    graded_basis's degree.  Otherwise, with D the degree of those products
    and deg e read as at least 1, so that D >= 2, B is completed to
    max(D, maximal relation degree of B): the degree the normal forms of
    M_n(B) need at D, since its unit relations have degree 2 and its lifted
    base relations keep theirs."""
    B = MP.base
    if B.is_homogeneous():
        nn = MP.n * MP.n
        zdeg = max((sum(g >= nn for g in w) for w in e._terms), default=0)
        return graded_basis(B, max(d + copies * zdeg, 2 * zdeg))
    edeg = max(e.degree(), 1)
    return groebner(B, max(d + copies * edeg, 2 * edeg, B.max_relation_degree()))


def _reduced(matrix, MP, base_gb):
    """Each entry of {unit index: {B-word: coefficient}} reduced by B's
    basis, as {unit index: B-normal NCPoly} with the zero entries left out.
    Every reduction of the matrix walk goes through here."""
    field, k, index = MP.field, MP.base.num_gens, base_gb.entries()
    out = {}
    for unit, terms in matrix.items():
        entry = reduce_by_entries(NCPoly(field, k, terms), index)
        if entry._terms:
            out[unit] = entry
    return out


def _matrix(f, MP, base_gb):
    """f as an n x n matrix over B: {unit index of E_ij: NF(x_ij)}.

    A word of f is its lifts, read as a word b of B since they are central,
    times the product of its units in order, which is 0, the identity or
    one E_ij.  Summing c * b into the entries gives f = sum x_ij E_ij, the
    identity adding to every diagonal entry, and each x_ij is reduced by
    B's basis.  NF is unique only up to need = base_gb.complete_to, so the
    base degree |b| of a word may not pass it.

    Why an empty matrix means f is in the ideal, up to need.  For f of
    degree <= need, _matrix(f) is empty exactly when f reduces to zero by
    a basis of M_n(B) complete to need.  That reduced basis, in deglex with
    the units before the lifts and e11 first, is:

    - the unit sum e11 + ... + enn - 1;
    - e_ij*e_kl - delta_jk NF(e_il) for units e_ij, e_kl other than e11,
      where NF(e11) = 1 - e22 - ... - enn;
    - e_ij*z - z*e_ij for every unit other than e11 and every lift z that
      is not itself a leading word of B's basis;
    - B's basis, lifted to the z's;
    - or 1 alone when B's basis holds a constant, since then so does this.

    Leading words.  Deglex ranks x1 > x2 > ..., so the leading words are
    e11, e_ij*e_kl, e_ij*z and B's own.  No leading word is a factor of
    another: e11 is in no other; e_ij*e_kl and e_ij*z have length 2 and
    hold a unit, which B's leading words do not, and z is not one of them;
    B's own are factor-free since B's basis is reduced.  Each tail is
    normal: it is a sum of 1 and units other than e11, or z*e_ij, or a tail
    of B's reduced basis.  The normal words are therefore the B-normal
    z-words, alone or followed by one unit other than e11.

    Overlaps.  A proper suffix of one leading word is a proper prefix of
    another in three ways only, and each resolves:

    - e_ij*e_kl*e_pq, unit-unit-unit.  Reduction keeps a polynomial in the
      units alone, and its normal words are 1 and the units other than e11.
      Sending e_ij to the elementary matrix E_ij maps every rule to zero
      (E_11 = I - E_22 - ... - E_nn), and maps those normal words to a
      basis of M_n(F).  Both reductions therefore end at the one normal
      polynomial whose image is E_ij E_kl E_pq: they agree.
    - e_ij*e_kl*z and e_ij*z*v with z*v a leading word of B: a commutation
      rule.  The lifts in such a word are not eliminated, and nor are the
      letters of a tail of B's basis, since that tail is normal, so the
      commutation rules carry a unit across them to the right.  The first
      word reduces both ways to z * delta_jk NF(e_il).  In the second, one
      side moves e_ij to the end and then rewrites z*v by B's rule; the
      other rewrites z*v first and then moves e_ij to the end of each tail
      word.  Both give (tail of the B rule) * e_ij, which is normal.  The
      lifts are central, so these resolve at every degree.
    - overlaps of B's leading words.  These reduce by B's rules alone, and
      they resolve up to need because B's basis is complete to need.

    By Bergman's diamond lemma (Adv. Math. 29, 1978), truncated at need,
    this reduced set is a basis complete to need, and every way of
    reducing f by it ends at the same normal polynomial.  Moving each unit
    right past the lifts, multiplying the units out, reducing each entry's
    B-words by B's rules and rewriting E_11 is one such way, and it never
    passes degree need.  It ends at

        NF(x11) * 1 + sum_{k>=2} (NF(x_kk) - NF(x11)) * e_kk
                    + sum_{i != j} NF(x_ij) * e_ij,

    each B-word written back in the lifts, before the unit.  That
    write-back is one-to-one on matrices with B-normal entries (x11 is the
    part without a unit, x_kk - x11 the e_kk part, x_ij the e_ij part), so
    the normal form is zero exactly when the matrix is empty, and two
    polynomials share a normal form exactly when they share a matrix.
    Since the mixed overlaps resolve at every degree, the basis resolves
    all of its overlaps exactly when B's basis does.  Completing the whole
    matrix presentation to need stays the reference, and the tests compare
    the two.
    """
    need = base_gb.complete_to
    n = MP.n
    nn = n * n
    diagonal = range(0, nn, n + 1)
    matrix = {}
    for w, c in f._terms.items():
        unit = -1  # the identity until a unit comes
        b = []
        for g in w:
            if g >= nn:
                b.append(g - nn)
            elif unit < 0:
                unit = g
            elif unit % n == g // n:
                unit += g % n - unit % n  # E_(r,s) E_(s,j) = E_(r,j)
            else:
                break  # E_(r,s) E_ij = 0 for i != s
        else:
            if len(b) > need:
                raise DegreeBudgetError(f"base degree {len(b)} exceeds verified degree {need}")
            b = tuple(b)
            for key in diagonal if unit < 0 else (unit,):
                entry = matrix.setdefault(key, {})
                entry[b] = entry[b] + c if b in entry else c
    return _reduced(matrix, MP, base_gb)


def filtered_dimension(MP, d):
    """Dimension of the span of normal forms of all words of length <= d.

    With a degree-compatible order the normal form of any word of length
    <= d is a combination of normal words of length <= d, and normal words
    are their own normal forms, so the span dimension equals the count of
    normal words of M_n(B) of length <= d.  Those are the B-normal z-words
    of length <= d, and those of length <= d - 1 followed by one of the
    n^2 - 1 units other than e11 (see _matrix), so B's counts b_c give
    sum_{c<=d} b_c + (n^2 - 1) * sum_{c<=d-1} b_c.  This is the corner of
    e = 1, and B's basis is the one that corner walks with.
    """
    if d < 2:
        raise ValueError("filtration degree must be >= 2")
    base_gb = _walk_basis(NCPoly.one(MP.field, MP.num_gens), MP, d, 2)
    counts = FactorAvoider(MP.base.num_gens, base_gb.entries()).counts(d)
    return sum(counts) + (MP.n * MP.n - 1) * sum(counts[:d])


def _check_degree(d, verdict):
    """The ValueError of a verdict asked with a negative degree budget."""
    if d < 0:
        raise ValueError(f"{verdict} degree must be >= 0")


def _check_context(e, MP):
    if e.field != MP.field or e.num_gens != MP.num_gens:
        raise MismatchError("element over a different context")


# -- the matrix walk ---------------------------------------------------------
# Corners and fullness carry u*e*v as a matrix over B, {unit index: B-normal
# NCPoly} as _matrix gives, and never write it back in normal words.  Each
# step is exact up to the basis's degree, where NF is linear and
# NF(NF(x) * y) = NF(x * y).


def _times_letter(X, g, MP, base_gb, left):
    """g * X (left) or X * g for a letter g of M_n(B).  A unit e_ab moves
    row b to row a, or column a to column b, and reduces nothing; a lift
    z_k multiplies every entry by x_k, on the same side, and reduces it."""
    n = MP.n
    nn = n * n
    if g >= nn:
        k = (g - nn,)
        return _reduced(
            {
                u: {k + b if left else b + k: c for b, c in x._terms.items()}
                for u, x in X.items()
            },
            MP,
            base_gb,
        )
    a, b = divmod(g, n)
    if left:
        return {a * n + u % n: x for u, x in X.items() if u // n == b}
    return {u - a + b: x for u, x in X.items() if u % n == a}


def _product(X, Y, MP, base_gb):
    """X * Y: (XY)_ij = sum_l X_il Y_lj, reduced entry by entry."""
    n = MP.n
    acc = {}
    for u, x in X.items():
        i, l = divmod(u, n)
        for v, y in Y.items():
            if v // n != l:
                continue
            entry = acc.setdefault(i * n + v % n, {})
            for b1, c1 in x._terms.items():
                for b2, c2 in y._terms.items():
                    w = b1 + b2
                    c = c1 * c2
                    entry[w] = entry[w] + c if w in entry else c
    return _reduced(acc, MP, base_gb)


def _span_vector(X, MP):
    """The matrix X as the polynomial sum lift(x_ij) * e_ij, the vector a
    Span holds.  Reading f as this matrix is linear and one-to-one, so
    ranks, pivots' combinations and Span.express answer as they would on
    normal forms."""
    nn = MP.n * MP.n
    return NCPoly(
        MP.field,
        MP.num_gens,
        {
            tuple(nn + g for g in b) + (u,): c
            for u, x in X.items()
            for b, c in x._terms.items()
        },
    )


def _idempotent_matrix(e, MP, base_gb):
    """e as a matrix over B if e*e = e there, otherwise None: the one
    idempotency test of idem, corners and fullness."""
    E = _matrix(e, MP, base_gb)
    return E if _product(E, E, MP, base_gb) == E else None


def verify_idempotent(e, MP, d):
    """Exact check of e^2 = e modulo the relations, within the degree
    budget need = max(d, 2, maximal relation degree of B), the degree of
    M_n(B)'s truncated normal forms.  e*e - e has degree 2*deg e in the
    free algebra, and above need the check raises DegreeBudgetError before
    completing anything.  Otherwise _idempotent_matrix decides with B's
    basis from _walk_basis: complete to need on an inhomogeneous B, and on
    a homogeneous one graded_basis at the base degree of e*e's entries, or
    d if that is higher, where the verdict is exact."""
    _check_degree(d, "idempotent")
    _check_context(e, MP)
    need = max(d, 2, MP.base.max_relation_degree())
    if 2 * e.degree() > need:
        raise DegreeBudgetError(f"degree {2 * e.degree()} exceeds verified degree {need}")
    return _idempotent_matrix(e, MP, _walk_basis(e, MP, d, 0)) is not None


@dataclass(frozen=True)
class FullnessVerdict:
    full: bool
    bound: int
    # certificate: tuple of ((u, v), coefficient) with sum c * u*e*v = 1
    certificate: tuple | None = None

    def __str__(self):
        return "full" if self.full else f"unknown-at-{self.bound}"


def _certificate_residue(e, MP, certificate):
    """sum c * u*e*v - 1, zero modulo the relations exactly when the
    certificate is valid."""
    acc = -NCPoly.one(MP.field, MP.num_gens)
    for (u, v), c in certificate:
        acc = acc + e.mul_word(u, v).scale(c)
    return acc


def is_full_idempotent(e, MP, d):
    """Search for 1 in the span of normal forms of u*e*v, |u| + |v| <= d.

    Returns a certificate combination when found, after checking that its
    residue sum c * u*e*v - 1, rebuilt as a polynomial, reduces to zero by
    the basis of the search; otherwise the verdict is unknown at this
    bound, since non-fullness is not certifiable by a bounded search.

    The search walks the rank-growing frontier.  A tag (u, v) stands for
    the insert NF(u*e*v); tags are inserted by total length |u| + |v|, and
    within a length in the order (len u, u, v).  Length 0 holds only
    ((), ()).  At length t + 1 the only tags inserted are (x*u, v) and
    (u, v*x), for every generator x and every tag (u, v) whose insert grew
    the rank at length t.  The span, its pivots and the certificate are
    those of inserting every tag up to length d, because:

    - Left multiplication by a letter maps every tag that comes before
      (u, v) to a tag that comes before (x*u, v): a shorter total length
      stays shorter, a shorter u stays shorter, and same-length words keep
      their lex order.  So does right multiplication, onto (u, v*x).
    - The basis is _walk_basis(e, MP, d, 1), so NF is linear up to its
      degree, and a polynomial that reduces to zero still does after
      multiplying by a letter within that degree.  If NF(u*e*v) is a
      combination of the inserts of earlier tags, then NF(x*u*e*v) and
      NF(u*e*v*x) are the same combination of the inserts of their images,
      which come earlier.  So if a tag does not grow the rank, neither does
      any extension of it, and every tag that grows the rank at length
      t + 1 extends, on either side where it has a letter, one that grew it
      at length t.
    - An insert that does not grow the rank leaves the Span unchanged.
      The frontier inserts, in the same order, a subsequence of all the
      tags that holds every rank-growing one, so each pivot and its
      combination are the ones the all-words loop finds, and so is every
      certificate.

    Each insert is the matrix over B of a tag that grew the rank, times
    one letter on the side where the insert extends it: one reduction of
    the entries for a lift, none for a unit.  The Span holds each as
    _span_vector, which is linear and one-to-one on normal forms: the
    inserts that grow the rank are the same, and Span.express writes the
    target in them with the one combination there is, since they are
    linearly independent.
    """
    _check_degree(d, "fullness")
    _check_context(e, MP)
    base_gb = _walk_basis(e, MP, d, 1)
    E = _idempotent_matrix(e, MP, base_gb)
    if E is None:
        raise ValueError(_NOT_IDEMPOTENT)
    if e.is_zero():
        raise ValueError("the zero element is never a full idempotent")

    m = MP.num_gens
    target = _span_vector(_matrix(NCPoly.one(MP.field, m), MP, base_gb), MP)
    span = Span()
    frontier = {((), ()): E}  # tag (u, v) -> u*e*v as a matrix over B
    for total in range(d + 1):
        grown = []
        for tag in sorted(frontier, key=lambda tag: (len(tag[0]), tag)):
            if span.add(_span_vector(frontier[tag], MP), tag):
                grown.append((tag, frontier[tag]))
        combo = span.express(target)
        if combo is not None:
            certificate = tuple(
                sorted(combo.items(), key=lambda kv: (len(kv[0][0]) + len(kv[0][1]), kv[0]))
            )
            if _matrix(_certificate_residue(e, MP, certificate), MP, base_gb):
                raise ValueError("fullness certificate does not reduce to zero")
            return FullnessVerdict(True, total, certificate)
        if total == d:
            break
        frontier = {}
        for (u, v), X in grown:
            for x in range(m):
                for tag, left in ((((x,) + u, v), True), ((u, v + (x,)), False)):
                    if tag not in frontier:
                        frontier[tag] = _times_letter(X, x, MP, base_gb, left)
    return FullnessVerdict(False, d)


def verify_fullness_certificate(e, MP, certificate, d):
    """Recompute sum c * u*e*v - 1 and reduce it to zero.

    The basis is the one is_full_idempotent(e, MP, d) searched with, or
    the one for the certificate's longest |u| + |v| if that is above d.  NF
    is linear up to that degree, so a certificate the search found reduces
    to zero; a zero normal form proves the identity at any degree.
    """
    longest = max((len(u) + len(v) for (u, v), _ in certificate), default=0)
    base_gb = _walk_basis(e, MP, max(d, longest), 1)
    return not _matrix(_certificate_residue(e, MP, certificate), MP, base_gb)


def _normal_words(MP, base_gb, d):
    """The normal words of M_n(B) of each length 0..d: the B-normal z-words
    of length c, from a FactorAvoider over B's leading words, then those of
    length c - 1 followed by a unit other than e11 (see _matrix).
    """
    nn = MP.n * MP.n
    lifted = [
        [tuple(nn + g for g in b) for b in words]
        for words in FactorAvoider(MP.base.num_gens, base_gb.entries()).words_up_to(d)
    ]
    # e11 is unit index 0
    return [lifted[0]] + [
        lifted[c] + [b + (u,) for b in lifted[c - 1] for u in range(1, nn)]
        for c in range(1, d + 1)
    ]


def corner_filtered_dims(e, MP, d):
    """Span dimensions of normal forms of e*w*e for |w| <= c, c = 0..d.

    Only normal words w are inserted, and that loses nothing.  The basis is
    _walk_basis(e, MP, d, 2), complete to gbdeg.  Every word w with
    |w| <= c equals NF(w) plus a sum of terms a*g*b with g in the basis and
    deg(a*g*b) <= |w|, and NF(w) is a combination of normal words of length
    <= |w|.  The entries of each e*(a*g*b)*e have base degree at most
    gbdeg, and the truncated basis is confluent up to gbdeg, so NF is
    linear there and sends those terms to zero.  Hence NF(e*w*e) lies in
    the span of NF(e*w'*e) over normal w' with |w'| <= |w|, and the span at
    every c, so every dim, is the one over all words.  The normal words
    come from _normal_words, and the order they are inserted in does not
    change a span.

    The walk keeps e*w as a matrix over B for each normal word w; its
    prefix w[:-1] is a normal word one shorter, so e*w is that prefix's
    matrix times the letter w[-1].  The insert is the product with e's
    matrix, reduced entry by entry, as _span_vector: linear and one-to-one
    on normal forms, so every rank is the one over normal forms.
    """
    _check_degree(d, "corner")
    _check_context(e, MP)
    base_gb = _walk_basis(e, MP, d, 2)
    E = _idempotent_matrix(e, MP, base_gb)
    if E is None:
        raise ValueError(_NOT_IDEMPOTENT)

    span = Span()
    dims = []
    left = {(): E}  # w -> e*w as a matrix over B
    for words in _normal_words(MP, base_gb, d):
        for w in words:
            if w not in left:
                left[w] = _times_letter(left[w[:-1]], w[-1], MP, base_gb, False)
            span.add(_span_vector(_product(left[w], E, MP, base_gb), MP))
        dims.append(len(span))
    return dims
