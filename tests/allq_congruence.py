"""Reference GL_2(F_p) congruence searches, both in the full scan order.

allq_search_iso_degree2 enumerates every Q: all p^4 matrices in
lexicographic (q11, q12, q21, q22) order, each tested against the one scale
gamma = m11.  solved_q22_search_iso_degree2 visits about p^3 triples
(q11, q12, q21) in the same order and solves the (2,1) entry of the
congruence, which is linear in q22, instead of enumerating q22.  Both
return the lexicographically first witness.  fpalg's search_iso_degree2
scans first columns and solves for the second; the differential tests hold
it to the same first witness, against the p^4 loop for p <= 13 and against
the p^3 loop for larger p, where the p^4 loop is too slow.
"""

from fpalg.aalpha import CongruenceWitness, ModScalar, _residue, mat2


def _witness(q11, q12, q21, q22, m11, p):
    q = mat2(
        ModScalar(q11, p),
        ModScalar(q12, p),
        ModScalar(q21, p),
        ModScalar(q22, p),
    )
    return CongruenceWitness(q, ModScalar(m11, p))


def allq_search_iso_degree2(alpha, beta, p):
    """search_iso_degree2(alpha, beta, p) by the all-Q loop."""
    a = _residue(alpha, p)
    b = _residue(beta, p)
    for q11 in range(p):
        for q12 in range(p):
            for q21 in range(p):
                for q22 in range(p):
                    det = (q11 * q22 - q12 * q21) % p
                    if det == 0:
                        continue
                    # M = Q^T (1 b; 0 1) Q
                    m11 = (q11 * q11 + b * q11 * q21 + q21 * q21) % p
                    m12 = (q11 * q12 + b * q11 * q22 + q21 * q22) % p
                    m21 = (q12 * q11 + b * q12 * q21 + q22 * q21) % p
                    m22 = (q12 * q12 + b * q12 * q22 + q22 * q22) % p
                    if m21 == 0 and m11 and m22 == m11 and m12 == (m11 * a) % p:
                        return _witness(q11, q12, q21, q22, m11, p)
    return None


def solved_q22_search_iso_degree2(alpha, beta, p):
    """search_iso_degree2(alpha, beta, p) by the solved-q22 loop.

    m11 = q11^2 + b*q11*q21 + q21^2 does not involve q22, so a triple with
    m11 = 0 is passed over whole.  m21 = q12*(q11 + b*q21) + q21*q22 is
    linear in q22: for q21 != 0 its one root is -q12*(q11 + b*q21)/q21,
    and for q21 = 0 either no q22 or every q22 solves it.  The surviving
    q22 ascend, so the witness returned is the lexicographically first one.
    """
    a = _residue(alpha, p)
    b = _residue(beta, p)
    inverse = [0] + [pow(x, -1, p) for x in range(1, p)]
    for q11 in range(p):
        # (q21, m11) with m11 != 0, ascending in q21
        column = []
        for q21 in range(p):
            m11 = (q11 * q11 + b * q11 * q21 + q21 * q21) % p
            if m11:
                column.append((q21, m11))
        for q12 in range(p):
            for q21, m11 in column:
                # M = Q^T (1 b; 0 1) Q with m21 = c + q21*q22
                c = q12 * (q11 + b * q21) % p
                if q21:
                    q22s = ((-c * inverse[q21]) % p,)
                elif c:
                    continue
                else:
                    q22s = range(p)
                for q22 in q22s:
                    if (q11 * q22 - q12 * q21) % p == 0:
                        continue
                    m12 = (q11 * q12 + b * q11 * q22 + q21 * q22) % p
                    m22 = (q12 * q12 + b * q12 * q22 + q22 * q22) % p
                    if m22 == m11 and m12 == (m11 * a) % p:
                        return _witness(q11, q12, q21, q22, m11, p)
    return None
