"""Reference fullness search that inserts u*e*v for every pair of words.

This is the loop fpalg's is_full_idempotent used before it walked the
rank-growing frontier: at each total length |u| + |v|, every u in
(length, lex) order and, for each, every v in lex order, each reduced
through the same left cache and inserted into one span.  It reduces by
groebner(MP.pres, need), the completion of the whole matrix presentation,
so it shares no code with the matrix normal form.  The differential tests
hold is_full_idempotent to the same verdict, bound and certificate.
"""

from itertools import product

from fpalg.freealg import NCPoly
from fpalg.morita import _NOT_IDEMPOTENT, FullnessVerdict, _certificate_residue
from fpalg.rewrite import Span, groebner, reduce_by_entries


def allwords_full_idempotent(e, MP, d):
    """is_full_idempotent(e, MP, d) by the all-words loop."""
    if d < 0:
        raise ValueError("fullness degree must be >= 0")
    edeg = max(e.degree(), 1)
    need = max(d + edeg, 2 * edeg, MP.pres.max_relation_degree())
    entries = groebner(MP.pres, need).entries()
    if not reduce_by_entries(e * e - e, entries).is_zero():
        raise ValueError(_NOT_IDEMPOTENT)
    if e.is_zero():
        raise ValueError("the zero element is never a full idempotent")

    m = MP.pres.num_gens
    target = reduce_by_entries(NCPoly.one(MP.pres.field, m), entries)
    span = Span()
    left = {(): reduce_by_entries(e, entries)}  # u -> NF(u * e)
    for total in range(d + 1):
        # u ascending by (length, lex), so u[1:] is always cached
        for ulen in range(total + 1):
            for u in product(range(m), repeat=ulen):
                if u not in left:
                    left[u] = reduce_by_entries(
                        NCPoly.monomial(MP.pres.field, m, (u[0],)) * left[u[1:]], entries
                    )
                for v in product(range(m), repeat=total - ulen):
                    vec = reduce_by_entries(left[u].mul_word((), v), entries)
                    span.add(vec, (u, v))
        combo = span.express(target)
        if combo is not None:
            certificate = tuple(
                sorted(combo.items(), key=lambda kv: (len(kv[0][0]) + len(kv[0][1]), kv[0]))
            )
            residue = _certificate_residue(e, MP, certificate)
            if not reduce_by_entries(residue, entries).is_zero():
                raise ValueError("fullness certificate does not reduce to zero")
            return FullnessVerdict(True, total, certificate)
    return FullnessVerdict(False, d)
