"""Degree-truncated noncommutative Groebner bases and normal forms.

Completion follows Buchberger/Mora: resolve overlap ambiguities of the
leading words, in ascending deglex order of the overlap word, up to a
truncation degree.  With a degree-compatible order every S-element coming
from an overlap of degree <= maxdeg reduces inside the truncation, so the
returned basis always has complete_to = maxdeg: all ambiguities up to that
degree are resolved and normal forms of polynomials of degree <= maxdeg do
not depend on the order of the reduction steps.  For inhomogeneous ideals a
zero normal form certifies membership while a nonzero one is only a bounded
verdict; for homogeneous ideals both directions are exact up to the
truncation.
"""

from __future__ import annotations

import bisect
import heapq
from collections import deque, namedtuple

from .freealg import NCPoly, deglex_key, descending_key, find_factor
from .presentation import Presentation
from .scalars import MismatchError, Scalar, _Record, _set


class ReductionIndex:
    """Leading word -> (deglex key, word, monic poly) of a set of reducers,
    and each nonempty proper prefix and suffix -> the leading words with it.

    Reduction asks find(), completion asks starting_with() and ending_with()
    for overlap partners, normal-word enumeration `w in index` and
    starting_with().  Iterating yields (leading word, poly) pairs in
    ascending deglex order.
    """

    __slots__ = ("_by_word", "_lengths", "_per_length", "_by_prefix", "_by_suffix")

    def __init__(self, entries=()):
        self._by_word = {}
        self._lengths = []  # distinct leading-word lengths, ascending
        self._per_length = {}  # length -> number of leading words
        self._by_prefix = {}  # proper prefix -> leading words starting with it
        self._by_suffix = {}  # proper suffix -> leading words ending with it
        for lw, g in entries:
            if lw not in self._by_word:
                self.add(lw, g)

    def add(self, lw, g):
        n = len(lw)
        if n not in self._per_length:
            bisect.insort(self._lengths, n)
            self._per_length[n] = 0
        self._per_length[n] += 1
        self._by_word[lw] = (deglex_key(lw), lw, g)
        for cut in range(1, n):
            self._by_prefix.setdefault(lw[:cut], set()).add(lw)
            self._by_suffix.setdefault(lw[cut:], set()).add(lw)

    def remove(self, lw):
        del self._by_word[lw]
        n = len(lw)
        self._per_length[n] -= 1
        if not self._per_length[n]:
            del self._per_length[n]
            self._lengths.remove(n)
        for cut in range(1, n):
            for table, part in ((self._by_prefix, lw[:cut]), (self._by_suffix, lw[cut:])):
                table[part].discard(lw)
                if not table[part]:
                    del table[part]

    def __contains__(self, w):
        return w in self._by_word

    def starting_with(self, part):
        """The leading words that have part as a nonempty proper prefix."""
        return self._by_prefix.get(part, ())

    def ending_with(self, part):
        """The leading words that have part as a nonempty proper suffix."""
        return self._by_suffix.get(part, ())

    def __len__(self):
        return len(self._by_word)

    def __iter__(self):
        for _, lw, g in sorted(self._by_word.values(), key=lambda e: e[0]):
            yield lw, g

    def find(self, w):
        """(leading word, poly, position) of the reducer for w, or None.

        The reducer is the one with the deglex-smallest leading word that
        occurs in w, taken at its leftmost occurrence.
        """
        by_word = self._by_word
        n = len(w)
        for length in self._lengths:
            if length > n:
                return None
            best = None
            for i in range(n - length + 1):
                hit = by_word.get(w[i : i + length])
                if hit is not None and (best is None or hit[0] < best[0]):
                    best, pos = hit, i
            if best is not None:
                return best[1], best[2], pos
        return None


class TruncatedGB(_Record):
    """Reduced truncated basis: monic elements, pairwise irreducible leading
    words, tails in normal form, sorted by ascending deglex leading word."""

    __slots__ = ("field", "num_gens", "basis", "complete_to", "_index")
    _fields = __slots__[:4]

    def __init__(self, field, num_gens, basis, complete_to, _index):
        _set(self, "field", field)
        _set(self, "num_gens", num_gens)
        _set(self, "basis", basis)
        _set(self, "complete_to", complete_to)
        _set(self, "_index", _index)

    def entries(self):
        """The basis as the ReductionIndex its completion built; read only."""
        return self._index


NormalForm = namedtuple("NormalForm", "poly verified")


class MembershipVerdict(_Record):
    __slots__ = _fields = ("member", "exact", "bound")

    def __init__(self, member, exact, bound):
        _set(self, "member", member)
        _set(self, "exact", exact)
        _set(self, "bound", bound)

    def __str__(self):
        if self.member:
            return "member"
        if self.exact:
            return "not-member"
        return f"not-member-up-to-{self.bound}"


class GenerationVerdict(_Record):
    __slots__ = _fields = ("generating", "bound")

    def __init__(self, generating, bound):
        _set(self, "generating", generating)
        _set(self, "bound", bound)

    def __bool__(self):
        return self.generating

    def __str__(self):
        return "yes" if self.generating else f"no-up-to-{self.bound}"


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def reduce_by_entries(f, entries):
    """Fully reduce f by (leading word, monic poly) pairs.

    entries is a ReductionIndex.  The largest remaining word is rewritten
    first, by the entry with the deglex-smallest leading word occurring in
    it, at its leftmost occurrence.
    """
    work = dict(f._terms)
    pending = [descending_key(w) for w in work]
    heapq.heapify(pending)
    out = {}
    while pending:
        w = heapq.heappop(pending)[1]
        if w not in work:
            continue  # cancelled after it was queued
        c = work.pop(w)
        hit = entries.find(w)
        if hit is None:
            out[w] = c
            continue
        lw, g, pos = hit
        a, b = w[:pos], w[pos + len(lw):]
        for wg, cg in g._terms.items():
            if wg == lw:
                continue
            ww = a + wg + b
            delta = c * cg
            if ww in work:
                nc = work[ww] - delta
                if nc:
                    work[ww] = nc
                else:
                    del work[ww]
            else:
                work[ww] = -delta
                heapq.heappush(pending, descending_key(ww))
    return NCPoly._make(f.field, f.num_gens, out)


def normal_form(f, gb):
    """Normal form of f modulo the truncated basis.

    The result is flagged unverified when deg(f) exceeds gb.complete_to; in
    that range reductions above the completed degree may depend on unresolved
    ambiguities.
    """
    if f.field != gb.field or f.num_gens != gb.num_gens:
        raise MismatchError("polynomial over a different context")
    reduced = reduce_by_entries(f, gb.entries())
    return NormalForm(reduced, f.degree() <= gb.complete_to)


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------


def _check_truncation(P, maxdeg):
    """The requirements on a truncated completion of P at maxdeg."""
    if not isinstance(P, Presentation):
        raise TypeError("groebner expects a Presentation")
    if maxdeg < P.max_relation_degree():
        raise ValueError(
            f"maxdeg {maxdeg} below maximal relation degree {P.max_relation_degree()}"
        )


def groebner(P, maxdeg):
    """Reduced truncated Groebner basis of P's relation ideal.

    Deterministic: initial relations are incorporated in list order, then
    pending S-elements by ascending deglex of the overlap word with ties by
    the creation order of the two parents.

    Overlap candidates come from the index of the live leading words: a new
    leading word L overlaps u exactly where a proper suffix of L is a proper
    prefix of u, or a proper prefix of L a proper suffix of u.  An
    S-element is built from the two parents' tails alone, as both parents
    are monic and their overlap words cancel.  The final pass puts tails
    into normal form and reduces only the elements with a tail word that
    holds a leading word; the others are already in normal form.  The index,
    holding the tail-reduced elements, becomes the basis's own.
    """
    _check_truncation(P, maxdeg)
    m = P.num_gens

    live = {}          # seq -> (leading word, monic poly)
    seq_of = {}        # leading word -> seq
    index = ReductionIndex()  # the live elements by leading word
    heap = []          # (deglex key of overlap word, lseq, rseq, a, b)
    work = deque(P.relations)
    seq_counter = 0

    def push_overlaps(seq, lw):
        # each overlap word a + v = u + b with seq as u or as v, self included
        n = len(lw)
        for shared in range(1, n):
            for v in index.starting_with(lw[n - shared:]):
                b = v[shared:]
                if n + len(b) <= maxdeg:
                    entry = (deglex_key(lw + b), seq, seq_of[v], lw[: n - shared], b)
                    heapq.heappush(heap, entry)
            b = lw[shared:]
            for u in index.ending_with(lw[:shared]):
                if u != lw and len(u) + len(b) <= maxdeg:
                    entry = (deglex_key(u + b), seq_of[u], seq, u[: len(u) - shared], b)
                    heapq.heappush(heap, entry)

    while work or heap:
        if work:
            f = work.popleft()
        else:
            _, ls, rs, a, b = heapq.heappop(heap)
            if ls not in live or rs not in live:
                continue
            f = _s_element(live[ls], live[rs], a, b)
        f = reduce_by_entries(f, index)
        if f.is_zero():
            continue
        f = f.monic()
        new_lw = f.leading_word()
        # f is reduced, so new_lw can only be a factor of longer leading words
        displaced = sorted(
            (s, u) for u, s in seq_of.items()
            if len(u) > len(new_lw) and find_factor(u, new_lw) >= 0
        )
        for s, u in displaced:
            work.append(live.pop(s)[1])
            index.remove(u)
            del seq_of[u]
        seq = seq_counter
        seq_counter += 1
        live[seq] = (new_lw, f)
        seq_of[new_lw] = seq
        index.add(new_lw, f)
        push_overlaps(seq, new_lw)

    # Tails into normal form, in ascending deglex order of leading words.  A
    # tail meets only elements with smaller leading words, and here those are
    # already tail-reduced; that gives the same tail as reducing by them as
    # completed.  Both sets have the same leading words and the same ideal,
    # and the basis is confluent up to maxdeg, so the normal form is unique.
    # A tail word is deglex-smaller than lw, so lw is never a factor of it:
    # when the index finds no leading word in any tail word, reducing g
    # would give g back, and g stays as it is.
    final = []
    for lw, g in list(index):
        if any(w != lw and index.find(w) for w in g._terms):
            index.remove(lw)
            g = reduce_by_entries(g, index)
            index.add(lw, g)
        final.append(g)
    return TruncatedGB(P.field, m, tuple(final), maxdeg, index)


def _s_element(left, right, a, b):
    """left * b - a * right for monic (leading word, poly) pairs with
    lw(left) * b = a * lw(right), the overlap word.

    The overlap word cancels, so only the parents' tails are shifted; a
    shifted tail word stays below the overlap word, as deglex is compatible
    with concatenation.
    """
    lu, gu = left
    lv, gv = right
    terms = {w + b: c for w, c in gu._terms.items() if w != lu}
    for w, c in gv._terms.items():
        if w == lv:
            continue
        w = a + w
        if w in terms:
            nc = terms[w] - c
            if nc:
                terms[w] = nc
            else:
                del terms[w]
        else:
            terms[w] = -c
    return NCPoly(gu.field, gu.num_gens, terms)


# ---------------------------------------------------------------------------
# membership, dimensions, generation
# ---------------------------------------------------------------------------


def graded_basis(P, D):
    """P's relations of degree <= D, completed to D: the basis every
    question of degree D about homogeneous P reduces or counts over.

    Why it is exact, for every homogeneous verdict.  The ideal's degree-c
    component is spanned by the u * r * v of degree c, so by the relations
    of degree <= c.  Reduction never raises the degree of a homogeneous
    component, so a polynomial of degree <= D meets only basis elements of
    degree <= D, and completion builds those from the relations and
    overlaps of degree <= D alone.  By Bergman's diamond lemma (Adv. Math.
    29, 1978), truncated at D, normal forms, normal words and membership
    in degrees <= D are those of any deeper truncation of all of P.  A
    negative D, the zero polynomial's degree, asks for degree 0.
    """
    D = max(D, 0)
    low = tuple(r for r in P.relations if r.degree() <= D)
    if len(low) < len(P.relations):
        P = Presentation(P.field, P.generators, low, name=P.name)
    return groebner(P, D)


def ideal_membership(f, P, maxdeg):
    """Decide f in the relation ideal via a truncated basis.

    A zero normal form certifies membership.  For homogeneous P the basis
    is graded_basis(P, deg f), and a nonzero normal form is exact as well.
    Inhomogeneous P is completed to maxdeg, because its reductions can pass
    through higher degrees; there a nonzero normal form only holds up to
    maxdeg.
    """
    if f.degree() > maxdeg:
        raise ValueError("polynomial degree exceeds maxdeg")
    _check_truncation(P, maxdeg)
    homogeneous = P.is_homogeneous()
    gb = graded_basis(P, f.degree()) if homogeneous else groebner(P, maxdeg)
    member = normal_form(f, gb).poly.is_zero()
    return MembershipVerdict(member, member or homogeneous, maxdeg)


class FactorAvoider:
    """Counts and lists the words that contain no leading word of an index.

    leading is a ReductionIndex, read and never changed.  The state of an
    avoiding word u is its longest suffix that is a proper prefix of a
    leading word, and it alone decides a step by a letter x.  A leading word
    that is a factor of u*x is a suffix of u*x, as u avoids them all, and its
    part before x is a suffix of u and a proper prefix of a leading word, so
    no longer than the state: it is a suffix of state*x.  So is the next
    state, for the same reason.  One step thus looks up the suffixes of
    state*x in the index, as leading words and as proper prefixes; each
    state's row of steps is built on first use and kept on this instance.
    """

    def __init__(self, num_gens, leading):
        self.num_gens = num_gens
        self._leading = leading
        self.trivial_dead = () in leading
        self._rows = {}

    def _row(self, state):
        """(letter, next state) for each letter that keeps a word avoiding."""
        row = self._rows.get(state)
        if row is None:
            row = []
            for letter in range(self.num_gens):
                word = state + (letter,)
                target = ()  # the empty word is a prefix of every word
                for cut in range(len(word) + 1):  # longest suffix first
                    tail = word[cut:]
                    if tail in self._leading:
                        break
                    if not target and self._leading.starting_with(tail):
                        target = tail
                else:
                    row.append((letter, target))
            self._rows[state] = row
        return row

    def counts(self, length):
        """Numbers of avoiding words of each length 0..length, in one pass."""
        vec = {} if self.trivial_dead else {(): 1}
        out = [sum(vec.values())]
        for _ in range(length):
            nxt = {}
            for state, ways in vec.items():
                for _, target in self._row(state):
                    nxt[target] = nxt.get(target, 0) + ways
            vec = nxt
            out.append(sum(vec.values()))
        return out[: length + 1]

    def count(self, length):
        """Number of words of exactly this length avoiding all factors."""
        return self.counts(length)[length]

    def count_up_to(self, length):
        return sum(self.counts(length))

    def words_up_to(self, length):
        """The avoiding words of each length 0..length, each list in lex order.

        Every length extends the previous one letter by letter, so only
        avoiding words are ever built; a prefix of an avoiding word avoids.
        """
        level = [] if self.trivial_dead else [((), ())]
        levels = [[word for word, _ in level]]
        for _ in range(length):
            level = [
                (word + (letter,), target)
                for word, state in level
                for letter, target in self._row(state)
            ]
            levels.append([word for word, _ in level])
        return levels


def _check_graded(P, n):
    if not P.is_homogeneous():
        raise ValueError(
            "graded dimension needs homogeneous relations; "
            "use the filtered dimension of a matrix presentation instead"
        )
    if n < 0:
        raise ValueError("degree must be >= 0")


def hilbert_series(P, upto):
    """Dimensions of the degree 0..upto components of the quotient algebra:
    the counts of normal words per length over graded_basis(P, upto)."""
    _check_graded(P, upto)
    return FactorAvoider(P.num_gens, graded_basis(P, upto).entries()).counts(upto)


def graded_dimension(P, n, maxdeg):
    """Dimension of the degree-n component of the quotient algebra.

    The last entry of hilbert_series(P, n), so completed to n, not to
    maxdeg: no deeper element can change the count at length n.  maxdeg
    is still checked as the request's bound, so n <= maxdeg and maxdeg >=
    the maximal relation degree are required.
    """
    _check_graded(P, n)
    if n > maxdeg:
        raise ValueError("degree exceeds maxdeg")
    _check_truncation(P, maxdeg)
    return hilbert_series(P, n)[n]


class Span:
    """Incremental row-reduced span of noncommutative polynomials.

    A vector inserted with a tag also records where it came from: each pivot
    keeps the combination of tagged inserts it equals, so express() can write
    a member of the span in terms of them.  Tag every insert of a span or
    none of them.
    """

    def __init__(self):
        # leading word -> (tail of the monic pivot as (word, coeff) pairs,
        # combo: tag -> Scalar)
        self._pivots = {}

    def __len__(self):
        return len(self._pivots)

    def _reduce(self, f, combo):
        """(terms left, their largest word or None) of f reduced by the pivots.

        As in reduce_by_entries, the words wait in a heap, largest first, and
        each pivot word met is replaced by -c times the pivot's tail, which
        holds only smaller words.  combo, when given, is updated along with
        the terms.
        """
        work = dict(f._terms)
        pending = [descending_key(w) for w in work]
        heapq.heapify(pending)
        pivots = self._pivots
        lead = None
        while pending:
            w = heapq.heappop(pending)[1]
            if w not in work:
                continue  # cancelled after it was queued
            hit = pivots.get(w)
            if hit is None:
                if lead is None:
                    lead = w
                continue
            c = work.pop(w)
            tail, pivot_combo = hit
            for wt, ct in tail:
                delta = c * ct
                if wt in work:
                    nc = work[wt] - delta
                    if nc:
                        work[wt] = nc
                    else:
                        del work[wt]
                else:
                    work[wt] = -delta
                    heapq.heappush(pending, descending_key(wt))
            if combo is not None:
                factor = -c
                for tag, pc in pivot_combo.items():
                    delta = pc * factor
                    if tag in combo:
                        s = combo[tag] + delta
                        if s:
                            combo[tag] = s
                        else:
                            del combo[tag]
                    else:
                        combo[tag] = delta
        return work, lead

    def add(self, f, tag=None):
        """Insert f if independent; True when the rank grew."""
        combo = None if tag is None else {tag: Scalar.one(f.field)}
        work, lead = self._reduce(f, combo)
        if lead is None:
            return False
        inv = work.pop(lead)._reciprocal()
        if combo is not None:
            combo = {t: c * inv for t, c in combo.items()}
        self._pivots[lead] = (tuple((w, c * inv) for w, c in work.items()), combo)
        return True

    def contains(self, f):
        return self._reduce(f, None)[1] is None

    def express(self, target):
        """{tag: c} with sum c * (insert of tag) = target, or None when
        target is outside the span."""
        combo = {}
        if self._reduce(target, combo)[1] is None:
            return {t: -c for t, c in combo.items()}
        return None


def is_generating(elems, P, maxdeg):
    """Whether elems generate the quotient as a unital algebra.

    Saturates the span of normal forms of products of at most maxdeg factors
    from elems (and 1), all modulo the truncated basis; products whose raw
    degree exceeds the verified range are skipped.  A yes is a certificate,
    a no only holds up to the bound.
    """
    for e in elems:
        if e.field != P.field or e.num_gens != P.num_gens:
            raise MismatchError("element over a different context")
    return _generating_by(elems, P, groebner(P, maxdeg), maxdeg)


def _generating_by(elems, P, gb, maxdeg):
    """is_generating's saturation over a basis complete to at least maxdeg.

    Products of raw degree above maxdeg are skipped, so any basis complete
    that far gives the verdict of groebner(P, maxdeg) whenever normal forms
    up to degree maxdeg do not depend on the truncation, as for homogeneous
    relations.
    """
    entries = gb.entries()
    span = Span()
    fresh = []
    for cand in [NCPoly.one(P.field, P.num_gens)] + list(elems):
        if cand.degree() > maxdeg:
            continue
        nf = reduce_by_entries(cand, entries)
        if span.add(nf):
            fresh.append(nf)
    targets = [
        reduce_by_entries(NCPoly.gen(P.field, P.num_gens, i), entries)
        for i in range(P.num_gens)
    ]

    def all_in_span():
        return all(span.contains(t) for t in targets)

    if all_in_span():
        return GenerationVerdict(True, maxdeg)
    for _ in range(2, maxdeg + 1):
        new_fresh = []
        for s in fresh:
            for e in elems:
                if s.degree() + e.degree() > maxdeg:
                    continue
                p = reduce_by_entries(s * e, entries)
                if span.add(p):
                    new_fresh.append(p)
        fresh = new_fresh
        if all_in_span():
            return GenerationVerdict(True, maxdeg)
        if not fresh:
            break
    return GenerationVerdict(False, maxdeg)
