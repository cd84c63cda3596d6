"""Reference corner fingerprint that inserts e*w*e for every word w.

This is the loop fpalg's corner_filtered_dims used before it enumerated
normal words only: all m^c words of each length c, in lex order, each
reduced through the same prefix cache and inserted into one span.  The
differential tests hold corner_filtered_dims to the same dims.
"""

from itertools import product

from fpalg.freealg import NCPoly
from fpalg.morita import _groebner_for
from fpalg.rewrite import Span, reduce_by_entries


def allwords_corner_dims(e, MP, d):
    """corner_filtered_dims(e, MP, d) by the all-words loop."""
    edeg = max(e.degree(), 1)
    gb = _groebner_for(MP, max(d + 2 * edeg, 2 * edeg))
    entries = gb.entries()
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
