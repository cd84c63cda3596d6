"""ZPoly, the part class of Scalar, against sympy's PolyElement for k = 1..4.

Ring arithmetic (with ints on either side too), quo_ground and cofactors of
nonzero operands must give the terms sympy gives; the gcd may differ from
sympy's only in sign.  So must the exact gcd that takes over when GCDHEU
gives up, called directly.  The one-generator kernel is also held to the
dict route of k = 2, to a time bound on sparse parts of t-degree 500 and to
its norm bound.  The GCDHEU step for k = 2 and 3, which runs that kernel's
Horner and digit steps once per t2..tk monomial, is held to sympy at
t1-degree 40.
"""

import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpalg import FieldSpec, Scalar
from fpalg import zpoly
from fpalg.zpoly import ZPoly
from poly_scalars import int_ring
from randgen import gcd_heavy_pairs


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
    assert (zf == zg) == (sf == sg) and (zf != zg) == (sf != sg)
    assert bool(zf) == bool(sf)
    if n:
        assert_same((zf * n).quo_ground(n), (sf * n).quo_ground(n), k)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cofactors_match_sympy(data):
    k = data.draw(st.integers(1, 4))
    nonzero = terms(k).filter(bool)  # cofactors takes nonzero operands only
    f, g = ZPoly(k, data.draw(nonzero)), ZPoly(k, data.draw(nonzero))
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


def assert_gcd_matches_sympy(f, g, k):
    h, cff, cfg = (ZPoly(k, p) for p in zpoly._exact_cofactors(f, g, k))
    assert all(h.values()) and all(cff.values()) and all(cfg.values())
    assert h * cff == f and h * cfg == g
    R = int_ring(k)
    expected = dict(R.from_dict(f).gcd(R.from_dict(g)))
    assert dict(h) == expected or dict(-h) == expected
    return h


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_exact_gcd_matches_sympy(data):
    # the pseudo-remainder gcd called directly, on every shape of operand
    k = data.draw(st.integers(1, 4))
    nonzero = terms(k).filter(bool)
    f, g = ZPoly(k, data.draw(nonzero)), ZPoly(k, data.draw(nonzero))
    shape = data.draw(st.sampled_from(["any", "shared", "no t1", "integer", "one term"]))
    if shape == "shared":  # a shared factor and a shared content
        common = ZPoly(k, data.draw(terms(k, max_size=3))) or ZPoly.constant(k, 1)
        content = data.draw(st.integers(1, 12))
        f, g = f * common * content, g * common * content
    elif shape == "no t1":
        g = ZPoly(k, {(0,) + m[1:]: c for m, c in g.items()})
    elif shape == "integer":  # gcd(f, f*g + 1) = 1, so the gcd is n
        n = data.draw(st.integers(2, 12))
        f, g = f * n, ((f * g + 1) or ZPoly.constant(k, 1)) * n
    elif shape == "one term":
        f = ZPoly(k, [max(f.items())])
    # without evaluation points, every content gcd of two many-term
    # operands recurses into the pseudo-remainder gcd one generator fewer
    with mock.patch.object(zpoly, "HEU_GCD_MAX", data.draw(st.sampled_from([0, 6]))):
        h = assert_gcd_matches_sympy(f, g, k)
    if shape == "integer":
        assert dict(h) in ({(0,) * k: n}, {(0,) * k: -n})


def test_exact_gcd_content_recursion_reaches_zero_generators(monkeypatch):
    t1, t2, t3 = (Scalar.generator(FieldSpec(3), i)._num for i in range(3))
    shared = t2 * t3 + t2 + 1
    f = shared * (t3 + 2) * (t1 + t2)
    g = shared * (t2 + 3) * (t1 - t3) * 2
    ngens = []
    cofactors = zpoly._cofactors

    def counted(f, g, k):
        ngens.append(k)
        return cofactors(f, g, k)

    monkeypatch.setattr(zpoly, "HEU_GCD_MAX", 0)
    monkeypatch.setattr(zpoly, "_cofactors", counted)
    h = assert_gcd_matches_sympy(f, g, 3)
    assert h == shared or h == -shared
    assert set(ngens) == {0, 1, 2}


def test_exact_fallback_when_the_heuristic_gives_up(monkeypatch):
    pairs = list(gcd_heavy_pairs(random.Random(19)))
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


def test_rejected_evaluation_point_moves_on_to_the_next(monkeypatch):
    # the first xi's gcd image does not read back to a divisor, so the
    # candidate is rejected and the second xi finds the gcd; each point is
    # one call of the certification step
    f = ZPoly(1, {(1,): -4, (0,): -2})
    g = ZPoly(1, {(2,): 3, (1,): 2, (0,): -6})
    calls = []
    certified = zpoly._certified

    def counted(*args):
        found = certified(*args)
        calls.append(found is not None)
        return found

    monkeypatch.setattr(zpoly, "_certified", counted)
    h, cff, cfg = f.cofactors(g)
    assert calls == [False, True]
    assert h * cff == f and h * cfg == g
    R = int_ring(1)
    expected = dict(R.from_dict(f).gcd(R.from_dict(g)))
    assert dict(h) == expected or dict(-h) == expected


# -- the one-generator kernel ------------------------------------------------


def univariate(max_degree=40, bits=60):
    bound = 2**bits
    coeff = st.integers(-bound, bound).filter(bool)
    return st.dictionaries(st.integers(0, max_degree).map(lambda e: (e,)), coeff,
                           min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_generator_kernel_matches_sympy_and_the_dict_route(data):
    f, g = ZPoly(1, data.draw(univariate())), ZPoly(1, data.draw(univariate()))
    if data.draw(st.booleans()):  # a shared factor and a shared content
        common = ZPoly(1, data.draw(univariate(max_degree=12, bits=20)))
        content = data.draw(st.integers(1, 2**20))
        f, g = f * common * content, g * common * content
    R = int_ring(1)
    sf, sg = R.from_dict(f), R.from_dict(g)
    assert_same(f * g, sf * sg, 1)
    h, cff, cfg = f.cofactors(g)
    for part in (h, cff, cfg):
        assert type(part) is ZPoly and part.ngens == 1 and all(part.values())
    assert h * cff == f and h * cfg == g
    expected = dict(sf.gcd(sg))
    assert dict(h) == expected or dict(-h) == expected
    # lifted to k = 2 with t2 unused, the dict route finds the same gcd
    lift = lambda p: ZPoly(2, {(e, 0): c for (e,), c in p.items()})
    h2 = lift(f).cofactors(lift(g))[0]
    assert h2 == lift(h) or h2 == lift(-h)


def test_two_term_parts_of_degree_500_are_cheap():
    t = Scalar.generator(FieldSpec(1), 0)._num
    f, g = t**500 - 1, t**250 - 1
    best = {}
    for _ in range(3):
        for name, run in (("product", lambda: (t**500 + 3) * (t**500 - 2)),
                          ("cofactors", lambda: f.cofactors(g))):
            start = time.perf_counter()
            run()
            best[name] = min(best.get(name, 1.0), time.perf_counter() - start)
    one = ZPoly.constant(1, 1)
    assert f.cofactors(g) in ((g, t**250 + 1, one), (-g, -(t**250 + 1), -one))
    assert best["product"] < 0.05 and best["cofactors"] < 0.05, best


def test_operands_outside_the_norm_bound_take_exact_division(monkeypatch):
    # at xi = 2*min(|f|, |g|) + 29 the gcd candidate t + 1 is read back for
    # each pair; a cofactor is taken from the digits without division only
    # when 2*|f| < xi and 2*|q|_1*|h| < xi, else _exquo checks it
    divided = []
    exquo = zpoly._exquo

    def counted(f, h):
        divided.append(ZPoly(1, f))
        return exquo(f, h)

    monkeypatch.setattr(zpoly, "_exquo", counted)
    t = Scalar.generator(FieldSpec(1), 0)._num
    cases = [
        # both bounds hold: no division
        ((t + 1) * (t + 3), (t + 1) * (t + 2), []),
        # |f| = 1001 and xi = 35: f is divided
        ((t + 1) * (1000 * t + 1), (t + 1) * (t + 2), [0]),
        # |f| = 21 and xi = 35: the digits of f(xi) // h(xi) give
        # t^2 - 15*t + 1, which meets the q bound but is not f / (t + 1)
        ((t + 1) * (20 * t + 1), (t + 1) * (t + 2), [0]),
        # |f| = 1 but f / (t + 1) has 1-norm 17 and xi = 31: f is divided
        (t**17 + 1, (t + 1) * (t + 2), [0]),
    ]
    for f, g, which in cases:
        divided.clear()
        h, cff, cfg = f.cofactors(g)
        assert h == t + 1 or h == -t - 1
        assert h * cff == f and h * cfg == g
        assert divided == [(f, g)[i] for i in which]


# -- the multivariate GCDHEU step --------------------------------------------


@pytest.mark.parametrize("k", [2, 3])
def test_grouped_horner_step_at_high_t1_degree(k, monkeypatch):
    # t1-degree 40 with gaps over three t2..tk monomials and 60-bit
    # coefficients: _evaluate runs one Horner scheme per t2..tk monomial and
    # _interpolate reads the digits back, with no exact fallback
    rng = random.Random(f"grouped horner:{k}")
    rests = [(0,) * (k - 1), (1,) + (2,) * (k - 2), (3,) + (0,) * (k - 2)]

    def part(t1_exponents):
        return ZPoly(k, {(e,) + rest: rng.choice((-1, 1)) * rng.randrange(1, 2**60)
                         for e in t1_exponents for rest in rests})

    common = part((0, 5, 13))
    f, g = part((0, 11, 27)) * common, part((3, 16, 27)) * common
    assert max(f)[0] == max(g)[0] == 40
    evaluated, exact = [], []
    evaluate, exact_cofactors = zpoly._evaluate, zpoly._exact_cofactors
    monkeypatch.setattr(zpoly, "_evaluate", lambda p, xi: evaluated.append(xi) or evaluate(p, xi))
    monkeypatch.setattr(zpoly, "_exact_cofactors",
                        lambda *args: exact.append(args) or exact_cofactors(*args))
    h, cff, cfg = f.cofactors(g)
    assert evaluated and not exact
    assert h * cff == f and h * cfg == g
    R = int_ring(k)
    expected = dict(R.from_dict(f).gcd(R.from_dict(g)))
    assert dict(h) == expected or dict(-h) == expected


def test_two_generator_cofactors_are_read_from_the_images(monkeypatch):
    # the one-generator step at t1 = xi returns the gcd image and both exact
    # cofactor images; each cofactor is read back from its image under the
    # norm bound of k = 1, so inside it no two-generator operand is divided,
    # and outside it (|f| = 1001, xi = 33) _exquo checks f; coprime images
    # give h = 1 and the operands themselves
    divided = []
    exquo = zpoly._exquo

    def counted(f, h):
        if len(next(iter(h))) == 2:
            divided.append(ZPoly(2, f))
        return exquo(f, h)

    monkeypatch.setattr(zpoly, "_exquo", counted)
    t1, t2 = (Scalar.generator(FieldSpec(2), i)._num for i in range(2))
    cases = [
        ((t1 + t2) * (t1 + 3), (t1 + t2) * (t1 + 2), []),
        ((t1 + t2) * (1000 * t1 + t2), (t1 + t2) * (t1 + 2), [0]),
        ((t1 + t2) * (t1 + 3), (t1 - t2) * (t1 + 2), []),
    ]
    R = int_ring(2)
    for f, g, which in cases:
        divided.clear()
        h, cff, cfg = f.cofactors(g)
        assert h * cff == f and h * cfg == g
        expected = dict(R.from_dict(f).gcd(R.from_dict(g)))
        assert dict(h) == expected or dict(-h) == expected
        assert divided == [(f, g)[i] for i in which]
