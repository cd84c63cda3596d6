"""The one-relation quadratic family and its isomorphism classification.

A_alpha is the algebra on two generators with the single relation
x1^2 + x2^2 + alpha*x1*x2 = 0.  Two members are isomorphic exactly when the
parameters agree up to sign.  One comparison of beta with +alpha and -alpha
makes the decision: a match gives the congruence witness Q = diag(1, +-1),
gamma = 1, of the relation's coefficient form (1 alpha; 0 1), and the
generator images of the isomorphism are read off Q; no match gives the
certificate below.  An exhaustive witness search over GL_2(F_p) is an
independent oracle: it scans the p^2 first columns of Q, solves the
congruence's two linear off-diagonal entries for the second column, and
never uses beta^2 = alpha^2.

The not-congruent certificate comes from two invariants of a congruence
Q^T * F_beta * Q = gamma * F_alpha with Q invertible, gamma != 0:

  * the antisymmetric parts transform by det(Q), giving
    beta*det(Q) = gamma*alpha;
  * the symmetric-part determinants give
    (4 - beta^2)*det(Q)^2 = gamma^2*(4 - alpha^2).

Together these force det(Q)^2 = gamma^2 and hence beta^2 = alpha^2, so the
evaluated inequality beta^2 != alpha^2 refutes every candidate witness at
once.  The derivation only divides by 2, so it is valid in characteristic 0
and over every odd prime field.
"""

from __future__ import annotations

from .freealg import NCPoly
from .presentation import Presentation
from .rewrite import _generating_by, graded_basis, normal_form
from .scalars import MismatchError, Scalar, _Record, _set, apply_automorphism


def _is_odd_prime(p):
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _check_modulus(p):
    if not _is_odd_prime(p):
        raise ValueError(f"modulus {p} is not an odd prime")


class ModScalar(_Record):
    """An element of F_p, p an odd prime: the scalars of the witness search
    over GL_2(F_p) below.  The modulus is checked at construction; results
    of arithmetic take it from operands that passed that check."""

    __slots__ = _fields = ("value", "modulus")

    def __init__(self, value, modulus):
        _check_modulus(modulus)
        _set(self, "value", value % modulus)
        _set(self, "modulus", modulus)

    def _new(self, value):
        out = object.__new__(ModScalar)
        _set(out, "value", value % self.modulus)
        _set(out, "modulus", self.modulus)
        return out

    def _check(self, other):
        if not isinstance(other, ModScalar):
            raise TypeError(f"expected ModScalar, got {type(other).__name__}")
        if other.modulus != self.modulus:
            raise MismatchError(f"modulus mismatch: {self.modulus} vs {other.modulus}")

    def __add__(self, other):
        self._check(other)
        return self._new(self.value + other.value)

    def __sub__(self, other):
        self._check(other)
        return self._new(self.value - other.value)

    def __mul__(self, other):
        self._check(other)
        return self._new(self.value * other.value)

    def __truediv__(self, other):
        self._check(other)
        if other.value == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return self._new(self.value * pow(other.value, self.modulus - 2, self.modulus))

    def __neg__(self):
        return self._new(-self.value)

    def __bool__(self):
        return self.value != 0

    def is_zero(self):
        return self.value == 0

    def __str__(self):
        return str(self.value)


def one_like(x):
    if isinstance(x, Scalar):
        return Scalar.one(x.field)
    if isinstance(x, ModScalar):
        return x._new(1)
    raise TypeError(type(x).__name__)


def zero_like(x):
    if isinstance(x, Scalar):
        return Scalar.zero(x.field)
    if isinstance(x, ModScalar):
        return x._new(0)
    raise TypeError(type(x).__name__)


# 2x2 matrices are tuples of row tuples of scalar-like entries.


def mat2(a, b, c, d):
    return ((a, b), (c, d))


def mat2_mul(A, B):
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def mat2_transpose(A):
    return ((A[0][0], A[1][0]), (A[0][1], A[1][1]))


def mat2_det(A):
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def mat2_scale(c, A):
    return ((c * A[0][0], c * A[0][1]), (c * A[1][0], c * A[1][1]))


class CongruenceWitness(_Record):
    """An invertible change of basis Q and a nonzero scale gamma."""

    __slots__ = _fields = ("q", "gamma")

    def __init__(self, q, gamma):
        if not mat2_det(q):
            raise ValueError("witness matrix must be nonsingular")
        if not gamma:
            raise ValueError("witness scale must be nonzero")
        _set(self, "q", q)
        _set(self, "gamma", gamma)


class CongruenceDecision(_Record):
    __slots__ = _fields = ("congruent", "witness", "certificate")

    def __init__(self, congruent, witness=None, certificate=None):
        # certificate: (beta^2, alpha^2), evaluated, unequal
        _set(self, "congruent", congruent)
        _set(self, "witness", witness)
        _set(self, "certificate", certificate)


def make_aalpha(alpha):
    """The presentation <x1, x2 | x1^2 + x2^2 + alpha*x1*x2 = 0>."""
    if not isinstance(alpha, Scalar):
        raise TypeError("make_aalpha expects a Scalar parameter")
    one = Scalar.one(alpha.field)
    rel = NCPoly.from_terms(
        alpha.field, 2, [((0, 0), one), ((1, 1), one), ((0, 1), alpha)]
    )
    return Presentation(alpha.field, ("x1", "x2"), (rel,), name="A")


def form_of(alpha):
    """The coefficient form (1 alpha; 0 1) of the defining relation."""
    one, zero = one_like(alpha), zero_like(alpha)
    return mat2(one, alpha, zero, one)


def congruence_check(alpha, beta, witness):
    """Exact test of Q^T * (1 beta; 0 1) * Q = gamma * (1 alpha; 0 1)."""
    lhs = mat2_mul(mat2_mul(mat2_transpose(witness.q), form_of(beta)), witness.q)
    rhs = mat2_scale(witness.gamma, form_of(alpha))
    return lhs == rhs


def _sign(alpha, beta):
    """1 when beta = alpha, -1 when beta = -alpha otherwise, else None."""
    if beta == alpha:
        return 1
    if beta == -alpha:
        return -1
    return None


def decide_form_congruence(alpha, beta):
    """Closed-form congruence decision with witness or certificate.

    Congruent exactly when beta = +-alpha, with Q = diag(1, +-1) of the same
    sign and gamma = 1.  Otherwise the invariant chain in the module
    docstring shows beta^2 = alpha^2 would be forced, so the evaluated pair
    (beta^2, alpha^2) refutes all witnesses.
    """
    if isinstance(alpha, ModScalar) or isinstance(beta, ModScalar):
        raise TypeError("decide_form_congruence needs characteristic-0 scalars")
    sign = _sign(alpha, beta)
    if sign is None:
        return CongruenceDecision(False, certificate=(beta * beta, alpha * alpha))
    one, zero = one_like(alpha), zero_like(alpha)
    q = mat2(one, zero, zero, one if sign == 1 else -one)
    return CongruenceDecision(True, CongruenceWitness(q, one))


def iso_aalpha(alpha, beta):
    """Whether A_alpha and A_beta are isomorphic: beta = +-alpha.

    Takes ModScalar parameters as well, for comparisons over F_p.
    """
    return _sign(alpha, beta) is not None


def iso_witness(alpha, beta):
    """Generator images realizing an isomorphism, when one exists.

    Read off the witness Q of decide_form_congruence: y_i = sum_j Q[i][j] x_j
    inside A_alpha, so y1^2 + y2^2 + beta*y1*y2 is gamma times the relation
    of A_alpha and {y1, y2} generates; absent when not isomorphic.
    """
    decision = decide_form_congruence(alpha, beta)
    if not decision.congruent:
        return None
    q = decision.witness.q
    x = [NCPoly.gen(alpha.field, 2, j) for j in range(2)]
    return tuple(x[0].scale(row[0]) + x[1].scale(row[1]) for row in q)


def verify_iso_witness(alpha, beta, images):
    """Check both contract halves for a claimed generator-image pair.

    The relation of A_alpha is homogeneous, so both halves reduce over
    graded_basis, exactly: first at the larger of the substituted
    relation's degree and 1, where the generation half starts.

    The generation half first makes _generating_by's opening span check,
    without products: do 1 and the images of degree <= 1 span the
    generators' normal forms?  The degree-3 check makes the same test first,
    over a superset of those candidates and with equal normal forms (all of
    degree <= 1), so a yes here is its yes too.  Only a no goes on to the
    degree-3 saturation, over a basis complete to at least 3, which gives
    the verdict of groebner(P, 3).  So every input gets the degree-3
    verdict, and only a failing witness pays for a second completion.
    """
    P = make_aalpha(alpha)
    substituted = make_aalpha(beta).relations[0].substitute(list(images))
    gb = graded_basis(P, max(1, substituted.degree()))
    if not normal_form(substituted, gb).poly.is_zero():
        return False
    if _generating_by(list(images), P, gb, 1):
        return True
    if gb.complete_to < 3:
        gb = graded_basis(P, 3)
    return bool(_generating_by(list(images), P, gb, 3))


def _residue(x, p):
    _check_modulus(p)
    if isinstance(x, ModScalar):
        if x.modulus != p:
            raise ValueError(f"parameter modulus {x.modulus} differs from {p}")
        return x.value
    if isinstance(x, int):
        return x % p
    raise TypeError("finite-field search takes int or ModScalar parameters")


def search_iso_degree2(alpha, beta, p):
    """Exhaustive degree-2 witness search over F_p (p an odd prime).

    Returns the first witness, in lexicographic (q11, q12, q21, q22) order
    over GL_2(F_p), for Q^T * (1 beta; 0 1) * Q = gamma * (1 alpha; 0 1),
    or None.  The (1,1) entries force gamma = m11, the (1,1) entry of the
    left side, so each Q is tested against that one scale; the search does
    not use the closed-form decision.

    It visits about p^2 first columns (q11, q21) and solves for the second
    instead of enumerating it.  m11 = q11^2 + b*q11*q21 + q21^2 involves
    only the first column, so a column with m11 = 0 is passed over whole.
    The off-diagonal entries are linear in (q12, q22):

        m21 = (q11 + b*q21)*q12 + q21*q22          = 0
        m12 = q11*q12       + (b*q11 + q21)*q22    = a*m11

    with determinant b*m11.  For b != 0 Cramer's rule gives the one
    solution q12 = -a*q21/b, q22 = a*(q11 + b*q21)/b.  For b = 0 both rows
    read q11*q12 + q21*q22, so there is no solution when a != 0, and when
    a = 0 the solutions are t*(-q21, q11), where m22 = t^2*m11 leaves the
    two candidates t = +-1.  Every candidate still has to pass det Q != 0
    and m22 = m11.  All witnesses with a given q11 are among the
    candidates of its columns, so the smallest (q12, q21, q22) among the
    survivors of the first q11 that has any is the first witness of the
    full scan.
    """
    a = _residue(alpha, p)
    b = _residue(beta, p)
    if not b and a:
        return None
    b_inverse = pow(b, -1, p) if b else 0
    for q11 in range(p):
        survivors = []
        for q21 in range(p):
            m11 = (q11 * q11 + b * q11 * q21 + q21 * q21) % p
            if not m11:
                continue
            if b:
                seconds = (
                    (-a * q21 * b_inverse % p, a * (q11 + b * q21) * b_inverse % p),
                )
            else:
                seconds = ((-q21 % p, q11), (q21, -q11 % p))
            for q12, q22 in seconds:
                if (q11 * q22 - q12 * q21) % p == 0:
                    continue
                m22 = (q12 * q12 + b * q12 * q22 + q22 * q22) % p
                if m22 == m11:
                    survivors.append((q12, q21, q22, m11))
        if survivors:
            q12, q21, q22, m11 = min(survivors)
            q = mat2(
                ModScalar(q11, p),
                ModScalar(q12, p),
                ModScalar(q21, p),
                ModScalar(q22, p),
            )
            return CongruenceWitness(q, ModScalar(m11, p))
    return None


def orbit_sample(alpha, autos):
    """Deduplicated images of alpha under a list of field automorphisms.

    Every sampled parameter gives an algebra in the same semilinear (hence
    Morita) class as A_alpha; pairwise iso_aalpha then separates isomorphism
    classes inside it.
    """
    out = []
    for sigma in autos:
        image = apply_automorphism(sigma, alpha)
        if image not in out:
            out.append(image)
    return out
