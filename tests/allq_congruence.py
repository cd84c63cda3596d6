"""Reference GL_2(F_p) congruence search that enumerates every Q.

This is the loop fpalg's search_iso_degree2 used before it solved the (2,1)
entry of the congruence for q22: all p^4 matrices Q in lexicographic
(q11, q12, q21, q22) order, each tested against the one scale gamma = m11.
The differential tests hold search_iso_degree2 to the same first witness.
"""

from fpalg.aalpha import CongruenceWitness, _residue, mat2
from fpalg.scalars import ModScalar


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
                        q = mat2(
                            ModScalar(q11, p),
                            ModScalar(q12, p),
                            ModScalar(q21, p),
                            ModScalar(q22, p),
                        )
                        return CongruenceWitness(q, ModScalar(m11, p))
    return None
