"""Reference corner fingerprint that inserts e*w*e for every word w.

This is the loop fpalg's corner_filtered_dims used before it enumerated
normal words only: all m^c words of each length c, in lex order, each
reduced through the same prefix cache and inserted into one span.  It
reduces by groebner(MP.pres, need), the completion of the whole matrix
presentation, so it shares no code with the matrix normal form.  The
differential tests hold corner_filtered_dims to the same dims.
"""

from itertools import product

from fpalg.freealg import NCPoly
from fpalg.rewrite import Span, groebner, reduce_by_entries


def allwords_corner_dims(e, MP, d):
    """corner_filtered_dims(e, MP, d) by the all-words loop."""
    edeg = max(e.degree(), 1)
    need = max(d + 2 * edeg, 2 * edeg, MP.pres.max_relation_degree())
    entries = groebner(MP.pres, need).entries()
    m = MP.pres.num_gens
    span = Span()
    dims = []
    left = {(): reduce_by_entries(e, entries)}  # w -> NF(e * w)
    for c in range(d + 1):
        for w in product(range(m), repeat=c):
            if w not in left:
                left[w] = reduce_by_entries(
                    left[w[:-1]] * NCPoly.monomial(MP.pres.field, m, (w[-1],)), entries
                )
            span.add(reduce_by_entries(left[w] * e, entries))
        dims.append(len(span))
    return dims
