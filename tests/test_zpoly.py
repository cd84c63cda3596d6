"""ZPoly, the part class of Scalar, against sympy's PolyElement for k = 1..4.

Ring arithmetic (with ints on either side too), quo_ground and cofactors must
give the terms sympy gives; the gcd may differ from sympy's only in sign.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fpalg import FieldSpec, Scalar
from fpalg import zpoly
from fpalg.zpoly import ZPoly
from poly_scalars import int_ring
from randgen import rich_scalar


def terms(k, max_size=5):
    monomial = st.tuples(*[st.integers(0, 3)] * k)
    coeff = st.integers(-9, 9).filter(bool)
    general = st.dictionaries(monomial, coeff, max_size=max_size)
    constant = coeff.map(lambda c: {(0,) * k: c})
    one_term = st.dictionaries(monomial, coeff, min_size=1, max_size=1)
    return st.one_of(general, st.just({}), constant, one_term)


def assert_same(z, s, k):
    assert type(z) is ZPoly and z.ngens == k
    assert all(z.values())  # no zero coefficient is stored
    assert dict(z) == dict(s)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_sympy(data):
    k = data.draw(st.integers(1, 4))
    f, g = data.draw(terms(k)), data.draw(terms(k))
    n = data.draw(st.integers(-3, 3))
    e = data.draw(st.integers(0, 3))
    R = int_ring(k)
    zf, zg, sf, sg = ZPoly(k, f), ZPoly(k, g), R.from_dict(f), R.from_dict(g)
    pairs = [
        (zf + zg, sf + sg), (zf - zg, sf - sg), (zf * zg, sf * sg), (-zf, -sf),
        (zf ** e, sf ** e if f or e else R.one),  # sympy refuses 0**0; ints give 1
        (zf + n, sf + n), (n + zf, n + sf), (zf - n, sf - n), (n - zf, n - sf),
        (zf * n, sf * n), (n * zf, n * sf),
    ]
    for z, s in pairs:
        assert_same(z, s, k)
    assert (zf == n) == (sf == n) and (zf != n) == (sf != n)
    assert (n == zf) == (n == sf)
    assert (zf == zg) == (sf == sg) and (zf != zg) == (sf != sg)
    assert bool(zf) == bool(sf)
    if n:
        assert_same((zf * n).quo_ground(n), (sf * n).quo_ground(n), k)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cofactors_match_sympy(data):
    k = data.draw(st.integers(1, 4))
    f, g = ZPoly(k, data.draw(terms(k))), ZPoly(k, data.draw(terms(k)))
    if data.draw(st.booleans()):  # a shared factor and a shared content
        common = ZPoly(k, data.draw(terms(k, max_size=3))) or ZPoly.constant(k, 1)
        content = data.draw(st.integers(1, 12))
        f, g = f * common * content, g * common * content
    h, cff, cfg = f.cofactors(g)
    for part in (h, cff, cfg):
        assert type(part) is ZPoly and part.ngens == k and all(part.values())
    assert h * cff == f and h * cfg == g
    R = int_ring(k)
    expected = dict(R.from_dict(f).gcd(R.from_dict(g)))
    assert dict(h) == expected or dict(-h) == expected


def _gcd_heavy_scalars(rng):
    # quotients whose parts share polynomial factors, in 1..4 generators
    for k in (1, 2, 3, 4):
        field = FieldSpec(k)
        t = [Scalar.generator(field, i) for i in range(k)]
        one = Scalar.one(field)
        shared = t[0] + t[-1] + one
        yield shared * (t[0] - one), shared * (t[0] * t[-1] + one)
        for _ in range(15):
            a, b, c = (rich_scalar(rng, field, depth=2) for _ in range(3))
            if b and c:
                yield a * c + b, b * c


def test_exact_fallback_when_the_heuristic_gives_up(monkeypatch):
    pairs = list(_gcd_heavy_scalars(random.Random(19)))
    expected = [(a / b, a * b, a + b) for a, b in pairs]
    exact_calls = []
    exact = zpoly._exact_cofactors

    def counted(f, g, k):
        exact_calls.append(k)
        return exact(f, g, k)

    # no evaluation point is tried: every gcd of two many-term parts gives up
    monkeypatch.setattr(zpoly, "HEU_GCD_MAX", 0)
    monkeypatch.setattr(zpoly, "_exact_cofactors", counted)
    for (a, b), values in zip(pairs, expected):
        for got, want in zip((a / b, a * b, a + b), values):
            assert got == want
            assert str(got) == str(want) and hash(got) == hash(want)
    assert set(exact_calls) == {1, 2, 3, 4}
    t, u = Scalar.generator(FieldSpec(2), 0)._num, Scalar.generator(FieldSpec(2), 1)._num
    f, g = (t * t - u * u) * (t + 3), (t - u) * (t * u + 1)
    h, cff, cfg = f.cofactors(g)
    assert h * cff == f and h * cfg == g
    assert h == t - u or h == u - t
