"""Sparse integer polynomials in t1..tk: the non-constant parts of a Scalar.

A ZPoly is a dict from exponent tuple (one entry per generator) to nonzero
int coefficient, plus the number of generators.  It is never changed after
it is built, so results may share it.  It has what scalars.py needs and no
more: ring arithmetic with a ZPoly or an int on either side, exact division
by an int (``quo_ground``) and the gcd of two nonzero ZPolys with both
cofactors (``cofactors``).  Equality is the dict's: a ZPoly never equals an
int, since Scalar holds every constant part as an int.

The gcd is GCDHEU (Char, Geddes and Gonnet, *GCDHEU: heuristic polynomial
GCD algorithm based on integer GCD computation*, J. Symbolic Comput. 7,
1989).  Both operands are evaluated at an integer xi in the first
generator; the gcd of the images (integers, or polynomials in one generator
fewer, found the same way) is read back as a polynomial from its balanced
base-xi digits.  A candidate is accepted only when it divides both operands
exactly, and for xi >= 2*min(|f|, |g|) + 2 (max-norms after the integer
content is taken out) an accepted candidate is the gcd; the first xi here
is 2*min(|f|, |g|) + 29.  After six evaluation points the heuristic gives
up and an exact gcd takes over: the contents in Z[t2..tk] (gcds of the
t1-coefficients, one generator fewer, found the same way) are split off,
and the primitive parts meet through their subresultant pseudo-remainder
sequence in t1 (W. S. Brown, *On Euclid's algorithm and the computation of
polynomial greatest common divisors*, J. ACM 18, 1971), whose exact
divisions keep the coefficients small without a content gcd at every step.
The gcd is unique up to sign; Scalar fixes the sign of its parts itself.

GCDHEU evaluates by Horner's scheme over the exponent gaps (_horner) and
reads back from balanced digits (_digits); for k >= 2 both run once per
t2..tk monomial.  For one generator (k = 1) the hot work runs on Python
ints; the dict stays the canonical form.  A product fills a dense
coefficient list, and GCDHEU takes math.gcd of the two values and reads
each cofactor from the digits of an integer quotient, taken without a
division when a norm bound proves it (_certified1).
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add, sub

# evaluation points tried before the exact gcd takes over
HEU_GCD_MAX = 6


class ZPoly(dict):
    """An element of Z[t1..tk]: {exponent tuple: nonzero int}."""

    __slots__ = ("ngens",)

    def __init__(self, ngens, terms=()):
        dict.__init__(self, terms)
        self.ngens = ngens

    @classmethod
    def constant(cls, ngens, value):
        return cls(ngens, {(0,) * ngens: value} if value else ())

    # -- arithmetic -----------------------------------------------------------

    def __neg__(self):
        return ZPoly(self.ngens, {m: -c for m, c in self.items()})

    def __add__(self, other):
        if type(other) is int:
            if not other:
                return self
            other = ZPoly.constant(self.ngens, other)
        elif not isinstance(other, ZPoly):
            return NotImplemented
        out = ZPoly(self.ngens, self)
        get = out.get
        for m, c in other.items():
            c += get(m, 0)
            if c:
                out[m] = c
            else:
                del out[m]
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not int and not isinstance(other, ZPoly):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        if type(other) is not int:
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        if type(other) is int:
            if other == 1:
                return self
            return ZPoly(self.ngens, {m: c * other for m, c in self.items()} if other else ())
        if not isinstance(other, ZPoly):
            return NotImplemented
        if self.ngens == 1:
            return _mul1(self, other)
        out = ZPoly(self.ngens)
        get = out.get
        for m1, c1 in self.items():
            for m2, c2 in other.items():
                m = tuple(map(add, m1, m2))
                out[m] = get(m, 0) + c1 * c2
        for m in [m for m, c in out.items() if not c]:
            del out[m]
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if type(exponent) is not int or exponent < 0:
            raise ValueError("exponent must be a nonnegative int")
        out = ZPoly.constant(self.ngens, 1)
        base = self
        while exponent:
            if exponent & 1:
                out = out * base
            exponent >>= 1
            if exponent:
                base = base * base
        return out

    def quo_ground(self, divisor):
        """Every coefficient divided by the int divisor, which must divide it."""
        return ZPoly(self.ngens, {m: c // divisor for m, c in self.items()})

    def cofactors(self, other):
        """(h, self / h, other / h) with h = gcd(self, other), unique up to
        sign, for nonzero self and other."""
        k = self.ngens
        parts = _cofactors(self, other, k)
        if parts is None:
            parts = _exact_cofactors(self, other, k)
        return tuple(ZPoly(k, p) for p in parts)


# ---------------------------------------------------------------------------
# the gcd, on plain dicts from exponent tuple to int
# ---------------------------------------------------------------------------


def _cofactors(f, g, k):
    """(h, f/h, g/h) as dicts for nonzero f and g, with a one-term operand
    answered directly, or None when GCDHEU gives up."""
    if len(f) == 1:
        return _gcd_with_term(f, g)
    if len(g) == 1:
        h, cfg, cff = _gcd_with_term(g, f)
        return h, cff, cfg
    return _heugcd(f, g, k)


def _gcd_with_term(f, g):
    # f = c * t^m is one term: the gcd is gcd(c, content g) times the
    # exponent-wise minimum of m and every monomial of g
    ((m, c),) = f.items()
    content = math.gcd(c, *g.values())
    for mg in g:
        m = tuple(map(min, m, mg))
    cff = {tuple(map(sub, mf, m)): cf // content for mf, cf in f.items()}
    cfg = {tuple(map(sub, mg, m)): cg // content for mg, cg in g.items()}
    return {m: content}, cff, cfg


def _heugcd(f, g, k):
    content = math.gcd(*f.values(), *g.values())
    if content != 1:
        f = {m: c // content for m, c in f.items()}
        g = {m: c // content for m, c in g.items()}
    norms = max(map(abs, f.values())), max(map(abs, g.values()))
    xi = 2 * min(norms) + 29
    for _ in range(HEU_GCD_MAX):
        if k == 1:
            found = _certified1(f, g, xi, norms)
        else:
            found = None
            ff, gg = _evaluate(f, xi), _evaluate(g, xi)
            if ff and gg:
                images = _cofactors(ff, gg, k - 1)
                if images is None:
                    return None
                found = _certified(f, g, images[0], xi)
        if found is not None:
            h, cff, cfg = found
            if content != 1:
                h = {m: c * content for m, c in h.items()}
            return h, cff, cfg
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _certified(f, g, hh, xi):
    """(h, f/h, g/h) with h the primitive part of the gcd image hh read back
    from xi, when h divides both f and g exactly, or None."""
    h = _primitive(_interpolate(hh, xi))
    cff = _exquo(f, h)
    if cff is not None:
        cfg = _exquo(g, h)
        if cfg is not None:
            return h, cff, cfg
    return None


def _certified1(f, g, xi, norms):
    """GCDHEU's step at xi for k = 1, on ints: (h, f/h, g/h) or None.  A
    cofactor q is read from the balanced digits of f(xi) // h(xi), so q*h
    and f agree at xi; when 2*|f| < xi and 2*|q|_1*|h| < xi, every
    coefficient of both is below xi/2 in size, so q*h = f.  Else _exquo."""
    ff, gg = _horner(f.items(), xi), _horner(g.items(), xi)
    if not (ff and gg):
        return None
    hh = math.gcd(ff, gg)
    if hh == 1:
        return {(0,): 1}, f, g
    h = _digits(hh, xi)
    content = math.gcd(*h.values())
    if content != 1:
        h = {m: c // content for m, c in h.items()}
        hh //= content
    norm_h = max(map(abs, h.values()))
    found = [h]
    for p, value, norm in zip((f, g), (ff, gg), norms):
        q = _digits(value // hh, xi)
        if 2 * norm >= xi or 2 * sum(map(abs, q.values())) * norm_h >= xi:
            q = _exquo(p, h)
            if q is None:
                return None
        found.append(q)
    return found


def _horner(terms, xi):
    """The polynomial in t1 with these ((e,), c) terms at t1 = xi, by
    Horner's scheme over the exponent gaps."""
    terms = sorted(terms, reverse=True)
    value, (top,) = 0, terms[0][0]
    for (e,), c in terms:
        value = value * xi ** (top - e) + c
        top = e
    return value * xi ** top


def _digits(n, xi):
    """The polynomial in t1 whose coefficients are the balanced base-xi
    digits of the int n."""
    half = xi // 2
    out = {}
    e = 0
    while n:
        n, digit = divmod(n, xi)
        if digit > half:
            digit -= xi
            n += 1
        if digit:
            out[(e,)] = digit
        e += 1
    return out


def _mul1(f, g):
    """f * g for k = 1, into a dense list of coefficients."""
    out = [0] * (max(f, default=(0,))[0] + max(g, default=(0,))[0] + 1)
    terms = [(m[0], c) for m, c in g.items()]
    for (e1,), c1 in f.items():
        for e2, c2 in terms:
            out[e1 + e2] += c1 * c2
    return ZPoly(1, {(e,): c for e, c in enumerate(out) if c})


def _evaluate(f, xi):
    """f at t1 = xi, as a dict in t2..tk, for k >= 2: one _horner per
    t2..tk monomial of f."""
    groups = {}
    for m, c in f.items():
        groups.setdefault(m[1:], []).append((m[:1], c))
    values = ((rest, _horner(terms, xi)) for rest, terms in groups.items())
    return {rest: value for rest, value in values if value}


def _interpolate(image, xi):
    """The polynomial in t1..tk whose t1-coefficients are the balanced
    base-xi digits (_digits) of the image, a dict in t2..tk."""
    return {e + rest: c for rest, value in image.items() for e, c in _digits(value, xi).items()}


def _primitive(f):
    content = math.gcd(*f.values())
    if content == 1:
        return f
    return {m: c // content for m, c in f.items()}


def _exquo(f, h):
    """f / h when h divides f exactly over Z, else None (h nonzero)."""
    if len(h) == 1:
        ((mh, ch),) = h.items()
        out = {}
        for m, c in f.items():
            q, r = divmod(c, ch)
            e = tuple(map(sub, m, mh))
            if r or min(e) < 0:
                return None
            out[e] = q
        return out
    # long division, lex-leading terms first; when h divides f, every
    # remainder is a multiple of h, so its leading term divides exactly
    lead = max(h)
    lc = h[lead]
    rem = dict(f)
    out = {}
    while rem:
        m = max(rem)
        q, r = divmod(rem[m], lc)
        e = tuple(map(sub, m, lead))
        if r or min(e) < 0:
            return None
        out[e] = q
        for mh, ch in h.items():
            mm = tuple(map(add, e, mh))
            c = rem.get(mm, 0) - q * ch
            if c:
                rem[mm] = c
            else:
                del rem[mm]
    return out


def _exact_cofactors(f, g, k):
    """(h, f/h, g/h) for nonzero f and g, by the subresultant
    pseudo-remainder sequence in t1 of their primitive parts: h is the gcd
    of the contents times the primitive part of the last nonzero remainder,
    and both cofactors are exact quotients."""
    content_f, a = _content(f, k)
    content_g, b = _content(g, k)
    if max(a)[0] < max(b)[0]:
        a, b = b, a
    lead = scale = ZPoly.constant(k, 1)
    while True:
        db = max(b)[0]
        delta = max(a)[0] - db
        r = _prem(a, b, k)
        if not r:
            break
        # the remainder over lead * scale**delta is again in Z[t1..tk]
        a, b = b, ZPoly(k, _exquo(r, lead * scale**delta))
        lead = ZPoly(k, {(0,) + m[1:]: c for m, c in a.items() if m[0] == db})
        if delta:
            scale = ZPoly(k, _exquo(lead**delta, scale ** (delta - 1)))
    content = _gcd(content_f, content_g, k - 1)
    h = _content(b, k)[1] * ZPoly(k, {(0,) + m: c for m, c in content.items()})
    cff, cfg = _exquo(f, h), _exquo(g, h)
    if cff is None or cfg is None:
        raise ArithmeticError("the pseudo-remainder gcd does not divide its operands")
    return h, cff, cfg


def _gcd(f, g, k):
    return (_cofactors(f, g, k) or _exact_cofactors(f, g, k))[0]


def _content(f, k):
    """(c, f/c) for nonzero f: c is the gcd of the t1-coefficients of f, a
    dict in t2..tk (keyed by () when k = 1), and f/c is a ZPoly."""
    coeffs = {}
    for m, c in f.items():
        coeffs.setdefault(m[0], {})[m[1:]] = c
    content = reduce(lambda a, b: _gcd(a, b, k - 1), coeffs.values())
    return content, ZPoly(k, _exquo(f, {(0,) + m: c for m, c in content.items()}))


def _prem(f, g, k):
    """The pseudo-remainder lc(g)**(deg f - deg g + 1) * f mod g in t1, for
    deg f >= deg g, where lc(g) in Z[t2..tk] leads g in t1."""
    dg = max(g)[0]
    lead_g = ZPoly(k, {(0,) + m[1:]: c for m, c in g.items() if m[0] == dg})
    for d in range(max(f)[0], dg - 1, -1):
        lead_f = ZPoly(k, {(d - dg,) + m[1:]: c for m, c in f.items() if m[0] == d})
        f = f * lead_g - g * lead_f
    return f
