"""Reference completion that tries every live pair for overlaps.

This is the overlap step fpalg's groebner used before its prefix and
suffix tables: each new basis element is tested against every live element,
in both orders, for a proper suffix of one leading word that is a proper
prefix of the other.  It also keeps the product loop's earlier shortcuts
undone: each S-element is the difference of the two shifted parents, and
the final pass reduces every element.  The differential tests hold groebner
to the same basis and the same pushed and popped overlaps.
"""

import heapq
from collections import deque

from fpalg.freealg import deglex_key, find_factor
from fpalg.rewrite import ReductionIndex, TruncatedGB, reduce_by_entries


def _proper_overlaps(u, v):
    """Yield (a, b) for each overlap word a + v = u + b, nonempty shared part."""
    for shared in range(1, min(len(u), len(v))):
        if u[len(u) - shared:] == v[:shared]:
            yield u[: len(u) - shared], v[shared:]


def allpairs_groebner(P, maxdeg, pushed=None, popped=None):
    """groebner(P, maxdeg) by the all-pairs loop; heap traffic is appended
    to the pushed and popped lists when they are given."""
    pushed = [] if pushed is None else pushed
    popped = [] if popped is None else popped
    live = {}
    lw_of = {}
    index = ReductionIndex()
    heap = []
    work = deque(P.relations)
    seq_counter = 0

    def push_overlaps(s1, s2):
        u, v = lw_of[s1], lw_of[s2]
        for a, b in _proper_overlaps(u, v):
            w = u + b
            if len(w) <= maxdeg:
                entry = (deglex_key(w), s1, s2, a, b)
                pushed.append(entry)
                heapq.heappush(heap, entry)

    while work or heap:
        if work:
            f = work.popleft()
        else:
            entry = heapq.heappop(heap)
            popped.append(entry)
            _, ls, rs, a, b = entry
            if ls not in live or rs not in live:
                continue
            f = live[ls].mul_word((), b) - live[rs].mul_word(a, ())
        f = reduce_by_entries(f, index)
        if f.is_zero():
            continue
        f = f.monic()
        new_lw = f.leading_word()
        displaced = [s for s in live if find_factor(lw_of[s], new_lw) >= 0]
        for s in sorted(displaced):
            work.append(live[s])
            index.remove(lw_of[s])
            del live[s]
            del lw_of[s]
        seq = seq_counter
        seq_counter += 1
        live[seq] = f
        lw_of[seq] = new_lw
        index.add(new_lw, f)
        for s in sorted(live):
            push_overlaps(seq, s)
            if s != seq:
                push_overlaps(s, seq)

    final = []
    for s in sorted(live, key=lambda s: deglex_key(lw_of[s])):
        index.remove(lw_of[s])
        final.append(reduce_by_entries(live[s], index))
        index.add(lw_of[s], live[s])
    own = ReductionIndex((g.leading_word(), g) for g in final)
    return TruncatedGB(P.field, P.num_gens, tuple(final), maxdeg, own)
