"""Seeded random value generators shared by the test modules."""

from fractions import Fraction

from fpalg import (
    FieldAutomorphism,
    FieldSpec,
    NCPoly,
    Presentation,
    Scalar,
    compose,
)


def small_int(rng, lo=-4, hi=4, nonzero=False):
    while True:
        v = rng.randint(lo, hi)
        if v or not nonzero:
            return v


def simple_scalar(rng, field, allow_fraction=True, nonzero=False):
    """Random scalar whose numerator and denominator each involve at most one
    transcendental: the regime where support extraction is stable under
    generator renaming (see transcendental_support)."""

    def one_var_poly(require_nonzero):
        k = field.num_generators
        if k and rng.random() < 0.7:
            i = rng.randrange(k)
            e = rng.randint(1, 2)
            c = small_int(rng, nonzero=True)
            d = small_int(rng)
            ti = Scalar.generator(field, i)
            return Scalar.from_int(field, c) * ti ** e + Scalar.from_int(field, d)
        return Scalar.from_int(field, small_int(rng, nonzero=require_nonzero))

    value = one_var_poly(nonzero)
    if nonzero and value.is_zero():
        value = Scalar.one(field)
    if allow_fraction and rng.random() < 0.4:
        den = one_var_poly(True)
        if den.is_zero():
            den = Scalar.one(field)
        value = value / den
    return value


def rich_scalar(rng, field, depth=3):
    """Random scalar built from a full expression tree; may mix generators."""
    if depth == 0 or rng.random() < 0.35:
        k = field.num_generators
        if k and rng.random() < 0.6:
            return Scalar.generator(field, rng.randrange(k))
        return Scalar.from_int(field, small_int(rng))
    op = rng.choice("+-*/")
    lhs = rich_scalar(rng, field, depth - 1)
    rhs = rich_scalar(rng, field, depth - 1)
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if rhs.is_zero():
        rhs = Scalar.one(field)
    return lhs / rhs


def gcd_heavy_pairs(rng):
    """Scalar pairs in 1..4 generators whose quotient, product and sum meet
    parts that share polynomial factors."""
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


def random_word(rng, num_gens, max_len, min_len=0):
    return tuple(rng.randrange(num_gens) for _ in range(rng.randint(min_len, max_len)))


def random_poly(rng, field, num_gens, max_deg, n_terms=3, scalar=simple_scalar):
    # one coefficient per word: summing two coefficients could mix their
    # transcendentals and leave the renaming-stable regime of simple_scalar
    pairs = {}
    for _ in range(rng.randint(1, n_terms)):
        word = random_word(rng, num_gens, max_deg)
        if word not in pairs:
            pairs[word] = scalar(rng, field)
    return NCPoly.from_terms(field, num_gens, pairs.items())


def random_presentation(rng, field, max_gens=3, max_deg=3, max_rels=2,
                        scalar=simple_scalar):
    m = rng.randint(1, max_gens)
    names = tuple(f"x{i + 1}" for i in range(m))
    rels = []
    for _ in range(rng.randint(1, max_rels)):
        poly = random_poly(rng, field, m, max_deg, scalar=scalar)
        if poly.is_zero():
            poly = NCPoly.gen(field, m, 0)
        rels.append(poly)
    return Presentation(field, names, tuple(rels))


def random_homogeneous_quadratic(rng, field, num_gens, max_rels=2):
    names = tuple(f"x{i + 1}" for i in range(num_gens))
    rels = []
    for _ in range(rng.randint(1, max_rels)):
        pairs = []
        for _ in range(rng.randint(2, 4)):
            word = (rng.randrange(num_gens), rng.randrange(num_gens))
            coeff = simple_scalar(rng, field, allow_fraction=False)
            pairs.append((word, coeff))
        poly = NCPoly.from_terms(field, num_gens, pairs)
        if poly.is_zero():
            poly = NCPoly.monomial(field, num_gens, (0, 0))
        rels.append(poly)
    return Presentation(field, names, tuple(rels))


def random_permutation_auto(rng, field):
    targets = list(range(field.num_generators))
    rng.shuffle(targets)
    return FieldAutomorphism.permutation(field, targets)


def random_automorphism(rng, field, n_factors=3):
    """Random composition of permutations and per-generator affine maps."""
    sigma = FieldAutomorphism.identity(field)
    k = field.num_generators
    if k == 0:
        return sigma
    for _ in range(rng.randint(1, n_factors)):
        if rng.random() < 0.5:
            factor = random_permutation_auto(rng, field)
        else:
            i = rng.randrange(k)
            a = rng.choice(
                [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3)]
            )
            b = Fraction(rng.randint(-3, 3))
            factor = FieldAutomorphism.affine(field, i, a, b)
        sigma = compose(factor, sigma)
    return sigma
