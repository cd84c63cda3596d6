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
generator (_evaluate, by Horner's scheme over the exponent gaps, once per
t2..tk monomial); the images are ints for one generator, met by math.gcd,
and else polynomials in one generator fewer, met the same way.  An image
gcd of 1 gives h = 1 at once.  Else one step (_certified) reads the gcd
image back from its balanced base-xi digits (_interpolate) as a primitive
h, and each cofactor from its image, so a cofactor q times h agrees with
its operand f at xi: when 2*|f| < xi and 2*|q|_1*|h| < xi that proves
q*h = f, and else q is the exact division f / h or the point is
rejected.  For xi >= 2*min(|f|, |g|) + 2 (max-norms after the integer
content is taken out) an accepted h is the gcd; the first xi here is
2*min(|f|, |g|) + 29.  After six evaluation points the heuristic gives up
and an exact gcd takes over: the contents in Z[t2..tk] (gcds of the
t1-coefficients, one generator fewer, found the same way) are split off,
and the primitive parts meet through their subresultant pseudo-remainder
sequence in t1 (W. S. Brown, *On Euclid's algorithm and the computation of
polynomial greatest common divisors*, J. ACM 18, 1971), whose exact
divisions keep the coefficients small without a content gcd at every step.
The gcd is unique up to sign; Scalar fixes the sign of its parts itself.
A product for one generator (k = 1) fills a dense coefficient list; the
dict stays the canonical form.
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
        parts = _cofactors(self, other, k) or _exact_cofactors(self, other, k)
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
    f, g = _quo_int(f, content), _quo_int(g, content)
    norms = max(map(abs, f.values())), max(map(abs, g.values()))
    xi = 2 * min(norms) + 29
    one = {(0,) * (k - 1): 1}  # an image gcd of 1 for k >= 2
    for _ in range(HEU_GCD_MAX):
        ff, gg = _evaluate(f, xi), _evaluate(g, xi)
        if ff and gg:
            if k > 1:
                images = _cofactors(ff, gg, k - 1)
                if images is None:
                    return None
            else:
                hh = math.gcd(ff, gg)
                images = hh, ff // hh, gg // hh
            if images[0] in (1, one):  # h = 1 divides both
                return {(0,) * k: content}, f, g
            found = _certified(f, g, images, xi, norms)
            if found is not None:
                h, cff, cfg = found
                if content != 1:
                    h = {m: c * content for m, c in h.items()}
                return h, cff, cfg
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _certified(f, g, images, xi, norms):
    """GCDHEU's step at xi: (h, f/h, g/h) or None, from images, the gcd of
    f and g at t1 = xi and both exact cofactors there.  h is the gcd image
    read back (_interpolate) with its content c taken out, and a cofactor q
    is read back from its image times c, so q*h and f agree at t1 = xi.
    When 2*|f| < xi and 2*|q|_1*|h| < xi, every coefficient of both, in
    each t2..tk monomial, is below xi/2 in size, so q*h = f.  Else _exquo."""
    h = _interpolate(images[0], xi)
    lost = math.gcd(*h.values())
    h = _quo_int(h, lost)
    norm_h = max(map(abs, h.values()))
    found = [h]
    for p, image, norm in zip((f, g), images[1:], norms):
        q = _interpolate(image, xi, lost) if 2 * norm < xi else None
        if q is None or 2 * sum(map(abs, q.values())) * norm_h >= xi:
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
    """f at t1 = xi: an int for one generator, else a dict in t2..tk, with
    one _horner per t2..tk monomial of f."""
    if len(next(iter(f))) == 1:
        return _horner(f.items(), xi)
    groups = {}
    for m, c in f.items():
        groups.setdefault(m[1:], []).append((m[:1], c))
    values = ((rest, _horner(terms, xi)) for rest, terms in groups.items())
    return {rest: value for rest, value in values if value}


def _interpolate(image, xi, scale=1):
    """The polynomial in t1..tk whose t1-coefficients are the balanced
    base-xi digits (_digits) of scale times the image, an int for one
    generator, else a dict in t2..tk."""
    if type(image) is int:
        return _digits(scale * image, xi)
    return {e + rest: c for rest, value in image.items()
            for e, c in _digits(scale * value, xi).items()}


def _quo_int(f, content):
    """f with each coefficient divided by the int content, which divides all."""
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
