"""Reference reduction by a linear scan over the entries.

This is the reduction loop fpalg used before its leading-word index: the
largest remaining word is found with max() and its reducer by trying every
entry in ascending deglex order.  The differential tests hold the indexed
reduce_by_entries to exactly this behaviour, term order included.  It also
reduces at the rightmost occurrence of a leading word, an order fpalg does
not use, so that tests can check normal forms do not depend on the order.
"""

from fpalg.freealg import NCPoly, deglex_key


def find_factor(word, factor, from_left=True):
    """Index of the leftmost or rightmost occurrence of factor in word, or -1."""
    n, f = len(word), len(factor)
    positions = range(n - f + 1) if from_left else range(n - f, -1, -1)
    for i in positions:
        if word[i : i + f] == factor:
            return i
    return -1


def linear_reduce(f, entries, strategy="leftmost"):
    """Fully reduce f by (leading word, monic poly) pairs sorted ascending."""
    from_left = strategy == "leftmost"
    work = dict(f._terms)
    out = {}
    while work:
        w = max(work, key=deglex_key)
        c = work.pop(w)
        hit = None
        for lw, g in entries:
            if len(lw) > len(w):
                break
            pos = find_factor(w, lw, from_left)
            if pos >= 0:
                hit = (lw, g, pos)
                break
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
    return NCPoly._make(f.field, f.num_gens, out)
