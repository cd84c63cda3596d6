"""Seeded op lists for the four benchmark workloads.

An op is one verdict-producing call.  Op.run() is the timed part and returns
the verdict; Op.check(output) is the independent check made after the timed
phase, and returns True when the output is right.  build_ops(name, seed)
gives the same op list for the same seed; the program only ever sees the
generated inputs.

Why each workload exists, and what it stresses:

graded   homogeneous rewriting: Hilbert series (one graded_dimension call per
         degree, as `fpalg hilbert` does), ideal membership and normal forms
         on A_t, A_alpha and random homogeneous quadratic presentations.
         groebner, reduce_by_entries and the scalar gcds do the work.
morita   matrix algebras M_2 and M_3 over Q, A_t and A_alpha: corner
         fingerprints, fullness with certificate re-checks, filtered
         dimensions and idempotent checks.  Reduction lookups and span
         insertion dominate.
family   the quadratic family over Q(t1..t4): twist round trips,
         canonical descent, orbit sampling with the closed-form iso decision
         and witness re-check, and the GL_2(F_p) congruence search.
cli      fresh `python -m fpalg.cli` processes, one at a time: interpreter
         and import start-up plus a small verdict.

The random presentations of `graded` take their word shapes and the form of
each coefficient from a fixed stream and only the small integers from the
seed: shapes and coefficient forms decide the size of the Groebner basis,
and with seeded ones the cost of a run varied by more than the benchmark's
bounds from seed to seed.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from fpalg import (
    FieldSpec,
    ModScalar,
    NCPoly,
    Presentation,
    Scalar,
    canonicalize,
    congruence_check,
    corner_filtered_dims,
    decide_form_congruence,
    filtered_dimension,
    graded_dimension,
    groebner,
    ideal_membership,
    invert,
    is_full_idempotent,
    is_generating,
    is_over_subfield,
    iso_aalpha,
    iso_witness,
    make_aalpha,
    matrix_presentation,
    normal_form,
    orbit_sample,
    parse_automorphism,
    parse_poly,
    parse_presentation,
    parse_scalar,
    presentation_to_text,
    search_iso_degree2,
    transcendental_support,
    twist,
    verify_fullness_certificate,
    verify_idempotent,
    verify_iso_witness,
)
from fpalg.syntax import poly_to_data, presentation_to_data
from randgen import random_automorphism, random_presentation, rich_scalar, simple_scalar, small_int
from span_oracle import graded_dimension_oracle

import oracles

Q = FieldSpec(0)
QT = FieldSpec(1)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    describe: Callable[[], str]  # the op's inputs as text, for reports and tests


def build_ops(name, seed, cli_runner=None, work_dir=None):
    """The op list of one workload; cli needs a runner and a scratch dir."""
    rng = random.Random(f"{name}:{seed}")
    if name == "graded":
        ops = graded_ops(rng)
    elif name == "morita":
        ops = morita_ops(rng)
    elif name == "family":
        ops = family_ops(rng)
    elif name == "cli":
        return cli_ops(rng, cli_runner, work_dir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    # One fixed order for every seed, so that the partial cycle a run ends
    # in holds a mix of cheap and costly ops instead of one group of them.
    random.Random(f"{name}:order").shuffle(ops)
    return ops


def _fraction(rng, nonzero=True):
    while True:
        q = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        if q or not nonzero:
            return q


def _scalar(field, q):
    return Scalar.from_fraction(field, q)


# ---------------------------------------------------------------------------
# graded
# ---------------------------------------------------------------------------

GRADED_D = 4  # Hilbert series degree, membership and normal-form truncation
# (generators, transcendentals) of the random slots, as criterion 4 mixes them
GRADED_SHAPES = ((2, 0), (2, 1), (3, 0)) * 32


def shaped_scalar(shape, rng, field):
    """A nonzero simple_scalar(allow_fraction=False) whose form (a constant,
    or c*t_i^e + d) comes from the shape stream and whose small integers
    come from rng."""
    k = field.num_generators
    if k and shape.random() < 0.7:
        i, e = shape.randrange(k), shape.randint(1, 2)
        return (Scalar.from_int(field, small_int(rng, nonzero=True)) * Scalar.generator(field, i) ** e
                + Scalar.from_int(field, small_int(rng)))
    return Scalar.from_int(field, small_int(rng, nonzero=True))


def shaped_quadratic(slot, rng, field, num_gens):
    """A random_homogeneous_quadratic-style presentation whose words and
    coefficient forms come from a fixed per-slot stream and whose small
    integers come from rng."""
    shape = random.Random(f"graded-shape:{slot}")
    rels = []
    for _ in range(shape.randint(1, 2)):
        pairs = []
        for _ in range(shape.randint(2, 4)):
            word = (shape.randrange(num_gens), shape.randrange(num_gens))
            pairs.append((word, shaped_scalar(shape, rng, field)))
        poly = NCPoly.from_terms(field, num_gens, pairs)
        if poly.is_zero():
            poly = NCPoly.monomial(field, num_gens, (0, 0))
        rels.append(poly)
    names = tuple(f"x{i + 1}" for i in range(num_gens))
    return Presentation(field, names, tuple(rels))


def _random_homogeneous(rng, P, degree):
    pairs = {}
    for _ in range(rng.randint(2, 4)):
        word = tuple(rng.randrange(P.num_gens) for _ in range(degree))
        pairs[word] = simple_scalar(rng, P.field, allow_fraction=False, nonzero=True)
    return NCPoly.from_terms(P.field, P.num_gens, pairs.items())


def _ideal_element(rng, P, degree):
    """A sum of c * u * r * v of one degree: always in the ideal."""
    acc = NCPoly.zero(P.field, P.num_gens)
    while acc.is_zero():
        for _ in range(2):
            r = rng.choice(P.relations)
            left = rng.randint(0, degree - r.degree())
            u = tuple(rng.randrange(P.num_gens) for _ in range(left))
            v = tuple(rng.randrange(P.num_gens) for _ in range(degree - r.degree() - left))
            c = simple_scalar(rng, P.field, allow_fraction=False, nonzero=True)
            acc = acc + r.mul_word(u, v).scale(c)
    return acc


class _GradedOracle:
    """Oracle answers for one presentation, computed once per run."""

    def __init__(self, P):
        self.P = P
        self.spans = {}
        self._dims = None

    def dims(self):
        if self._dims is None:
            self._dims = tuple(graded_dimension_oracle(self.P, n) for n in range(GRADED_D + 1))
        return self._dims

    def contains(self, poly):
        return oracles.ideal_contains(self.spans, self.P, poly)


def graded_ops(rng):
    corpus = [make_aalpha(Scalar.generator(QT, 0)), make_aalpha(_scalar(Q, _fraction(rng, False)))]
    for slot, (m, k) in enumerate(GRADED_SHAPES):
        corpus.append(shaped_quadratic(slot, rng, FieldSpec(k), m))
    ops = []
    for slot, P in enumerate(corpus):
        oracle = _GradedOracle(P)
        # element degrees follow the slot, not the seed: degree sets the cost
        member = _ideal_element(rng, P, 3 + slot % 2)
        probe = _random_homogeneous(rng, P, 2 + slot % 3)
        reducible = _random_homogeneous(rng, P, 4 - slot % 2)
        ops.append(Op(
            "hilbert",
            lambda P=P: tuple(graded_dimension(P, n, GRADED_D) for n in range(GRADED_D + 1)),
            lambda out, o=oracle: out == o.dims(),
            lambda P=P: _describe(P, f"hilbert {GRADED_D}"),
        ))
        ops.append(Op(
            "member",
            lambda P=P, f=member: _membership(f, P),
            lambda out: out == (True, True),
            lambda P=P, f=member: _describe(P, "member", f),
        ))
        ops.append(Op(
            "member",
            lambda P=P, f=probe: _membership(f, P),
            lambda out, o=oracle, f=probe: out == (o.contains(f), True),
            lambda P=P, f=probe: _describe(P, "member", f),
        ))
        ops.append(Op(
            "nf",
            lambda P=P, f=reducible: tuple(normal_form(f, groebner(P, GRADED_D))),
            lambda out, o=oracle, f=reducible: _normal_form_ok(o, f, out),
            lambda P=P, f=reducible: _describe(P, "nf", f),
        ))
    return ops


def _describe(P, what, poly=None, names=None):
    text = f"{presentation_to_text(P)}\n{what}"
    if poly is not None:
        text += " " + poly.to_text(names or P.generators)
    return text


def _membership(f, P):
    verdict = ideal_membership(f, P, GRADED_D)
    return (verdict.member, verdict.exact)


def _normal_form_ok(oracle, f, out):
    poly, verified = out
    return (
        verified
        and oracle.contains(f - poly)
        and (poly.is_zero() or not oracle.contains(poly))
    )


# ---------------------------------------------------------------------------
# morita
# ---------------------------------------------------------------------------

# (matrix size, corner depth): the depth where one op stays well under a second
MORITA_SIZES = ((2, 3), (3, 2))
MORITA_FULL_DEPTH = 2
MORITA_IDEM_DEPTH = 3


def _base_partial_sums(B, depth):
    dims = [graded_dimension_oracle(B, j) for j in range(depth + 1)]
    return [sum(dims[: c + 1]) for c in range(depth + 1)]


def morita_ops(rng):
    bases = [
        Presentation(Q, (), (), name="B"),
        make_aalpha(Scalar.generator(QT, 0)),
        make_aalpha(_scalar(Q, _fraction(rng, False))),
    ]
    ops = []
    for B in bases:
        for n, depth in MORITA_SIZES:
            MP = matrix_presentation(B, n)
            field = MP.pres.field
            # the seed picks the scalars; the matrix positions stay fixed,
            # since they decide how much reduction an op needs
            c = _scalar(field, _fraction(rng))
            k = _scalar(field, Fraction(rng.randint(2, 5)))
            conjugate = MP.unit(1, 1) + MP.unit(1, 2).scale(c)
            sums = {}

            def corner_check(out, B=B, depth=depth, sums=sums):
                # e11 + c*e12 = (1 - c*e12) e11 (1 + c*e12): both corners have
                # the filtered dims of e11's, the partial sums of B's graded
                # dims (criterion 7).
                if "v" not in sums:
                    sums["v"] = _base_partial_sums(B, depth)
                return list(out) == sums["v"]

            for e in (MP.unit(1, 1), conjugate):
                ops.append(Op(
                    "corner",
                    lambda e=e, MP=MP, d=depth: tuple(corner_filtered_dims(e, MP, d)),
                    corner_check,
                    lambda e=e, MP=MP, d=depth: _describe(B, f"M{n} corner {d}", e, MP.pres.generators),
                ))
            ops.append(Op(
                "full",
                lambda e=conjugate, MP=MP: _fullness(e, MP),
                lambda out, e=conjugate, n=n: _fullness_ok(e, n, out),
                lambda e=conjugate, MP=MP: _describe(B, f"M{n} full", e, MP.pres.generators),
            ))
            for e in (conjugate, MP.unit(1, 1) + MP.unit(2, 2).scale(k)):
                ops.append(Op(
                    "idem",
                    lambda e=e, MP=MP: verify_idempotent(e, MP, MORITA_IDEM_DEPTH),
                    lambda out, e=e, n=n: out == _matrix_idempotent(e, n),
                    lambda e=e, MP=MP: _describe(B, f"M{n} idem", e, MP.pres.generators),
                ))
            if B.num_gens == 0:
                ops.append(Op(
                    "filtered",
                    lambda MP=MP, d=depth: filtered_dimension(MP, d),
                    lambda out, n=n: out == n * n,
                    lambda d=depth: _describe(B, f"M{n} filtered {d}"),
                ))
    return ops


def _fullness(e, MP):
    verdict = is_full_idempotent(e, MP, MORITA_FULL_DEPTH)
    reverified = bool(verdict.full) and verify_fullness_certificate(
        e, MP, verdict.certificate, MORITA_FULL_DEPTH
    )
    return (verdict.full, verdict.bound, verdict.certificate, reverified)


def _fullness_ok(e, n, out):
    full, _, certificate, reverified = out
    return (
        full
        and reverified
        and oracles.is_identity(oracles.certificate_matrix(e, certificate, n))
    )


def _matrix_idempotent(e, n):
    E = oracles.poly_matrix(e, n)
    return oracles.matmul(E, E) == E


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------

FAMILY_FIELD = FieldSpec(4)
FAMILY_PRIMES = (3, 5, 7, 11)
FAMILY_ROUNDS = 90


# one alpha per residue class modulo all the primes, degenerate at none of them
FAMILY_SEARCH_ALPHAS = tuple(
    a for a in range(1, math.prod(FAMILY_PRIMES)) if all((a * a - 4) % p for p in FAMILY_PRIMES)
)


def family_ops(rng):
    F = FAMILY_FIELD
    ops = []
    for _ in range(FAMILY_ROUNDS):
        # three twists a round put the median op inside the twist cluster
        # rather than on the edge between cheap and costly kinds
        for _ in range(3):
            P = random_presentation(rng, F, max_gens=3, max_deg=3, scalar=_family_scalar)
            sigma = random_automorphism(rng, F)
            ops.append(Op(
                "twist",
                lambda P=P, s=sigma: _twist_roundtrip(P, s),
                lambda out, P=P, s=sigma: _twist_ok(P, s, out),
                lambda P=P, s=sigma: _describe(P, f"twist {s}"),
            ))
        P = random_presentation(rng, F, max_gens=3, max_deg=3, scalar=_family_scalar)
        ops.append(Op(
            "canonicalize",
            lambda P=P: canonicalize(P),
            lambda out, P=P: _canonical_ok(P, out),
            lambda P=P: _describe(P, "canonicalize"),
        ))
        # a one-transcendental parameter: a rich_scalar one makes the cost of
        # the witness re-check swing with the depth of its expression tree
        alpha = simple_scalar(rng, F, nonzero=True)
        autos = [random_automorphism(rng, F) for _ in range(3)]
        ops.append(Op(
            "decide",
            lambda a=alpha, autos=autos: _decide(a, autos),
            lambda out, a=alpha, autos=autos: _decide_ok(a, autos, out),
            lambda a=alpha, autos=autos: f"decide {a} under " + "; ".join(map(str, autos)),
        ))
        # an alpha that is degenerate (a^2 = 4) at none of the primes: a sweep
        # that skips p = 11 costs a tenth of one that does not
        a = rng.choice(FAMILY_SEARCH_ALPHAS)
        ops.append(Op(
            "search",
            lambda a=a: _search(a),
            lambda out, a=a: _search_ok(a, out),
            lambda a=a: f"search sweep alpha={a}",
        ))
    return ops


def _family_scalar(rng, field):
    # expression trees of depth 2: depth 3 gives a long tail of coefficient
    # sizes, and with it ops whose cost depends mostly on the seed
    return rich_scalar(rng, field, depth=2)


def _twist_roundtrip(P, sigma):
    moved = twist(P, sigma)
    return moved, twist(moved, invert(sigma))


def _twist_ok(P, sigma, out):
    moved, back = out
    if back != P or len(moved.relations) != len(P.relations):
        return False
    inverse = invert(sigma)
    for original, rel in zip(P.relations, moved.relations):
        if rel.support() != original.support():
            return False
        for word in original.support():
            if rel.coefficient(word) != inverse(original.coefficient(word)):
                return False
    return True


def _canonical_ok(P, out):
    P0, sigma = out
    return is_over_subfield(P0, len(transcendental_support(P))) and twist(P0, invert(sigma)) == P


def _decide(alpha, autos):
    sample = orbit_sample(alpha, autos)
    rows = []
    for beta in sample + [-alpha, alpha + Scalar.one(alpha.field)]:
        decision = decide_form_congruence(alpha, beta)
        iso = iso_aalpha(alpha, beta)
        images = iso_witness(alpha, beta) if iso else None
        verified = verify_iso_witness(alpha, beta, images) if iso else None
        rows.append((beta, iso, decision, images, verified))
    return tuple(sample), tuple(rows)


def _decide_ok(alpha, autos, out):
    sample, rows = out
    images = [sigma(alpha) for sigma in autos]
    if len(set(sample)) != len(sample) or any(s not in images for s in sample):
        return False
    for beta, iso, decision, witness_images, verified in rows:
        # beta = +-alpha exactly when beta^2 = alpha^2, in any field
        expected = beta * beta == alpha * alpha
        if iso != expected or decision.congruent != expected:
            return False
        if expected:
            if not (congruence_check(alpha, beta, decision.witness) and verified):
                return False
            if witness_images is None:
                return False
        elif decision.certificate != (beta * beta, alpha * alpha):
            return False
    return True


def _search_pairs(a):
    """Every (p, alpha, beta) of one sweep: alpha = a mod p against each beta
    in F_p, skipping the degenerate residues x^2 = 4 exactly as criterion 1."""
    return [
        (p, a % p, b) for p in FAMILY_PRIMES if (a * a - 4) % p
        for b in range(p) if (b * b - 4) % p
    ]


def _search(a):
    return tuple((p, b, search_iso_degree2(ap, b, p)) for p, ap, b in _search_pairs(a))


def _search_ok(a, out):
    if [(p, b) for p, b, _ in out] != [(p, b) for p, _, b in _search_pairs(a)]:
        return False
    for p, b, witness in out:
        alpha, beta = ModScalar(a, p), ModScalar(b, p)
        if (witness is not None) != iso_aalpha(alpha, beta):
            return False
        if witness is not None and not congruence_check(alpha, beta, witness):
            return False
    return True


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_VERBS = (
    "print", "canonicalize", "twist", "gb", "nf", "member", "hilbert",
    "generates", "aalpha-iso", "aalpha-orbit", "aalpha-oracle", "matrix",
    "idem", "full", "corner",
)
GOLDEN_DIR = Path("tests") / "golden"
# golden cases in the mix, one that exits 1 and one that exits 3.  With the 15
# seeded verbs the list of 17 processes and their reference samples takes
# about 19 s when the machine is slow, so a 20 s run completes it and every
# run times the same ops.
CLI_GOLDEN = ("twist-bad-auto", "nf-unverified")


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: bytes


class CliRunner:
    """Runs one CLI invocation in a fresh process from the checkout root,
    untraced or through the tracing launcher."""

    timeout_s = 120

    def __init__(self, work_dir):
        self.work_dir = Path(work_dir)
        self.traced = False
        self.stats_paths = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(Path.cwd() / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def __call__(self, argv):
        if self.traced:
            stats = self.work_dir / f"cli-stats-{len(self.stats_paths)}.json"
            self.stats_paths.append(stats)
            cmd = [sys.executable, str(Path(__file__).resolve().parent / "cli_launcher.py"),
                   str(stats), *argv]
        else:
            cmd = [sys.executable, "-m", "fpalg.cli", *argv]
        proc = subprocess.run(
            cmd, env=self.env, capture_output=True, timeout=self.timeout_s, check=False
        )
        return CliResult(proc.returncode, proc.stdout)


def golden_cases(root):
    cases = json.loads((root / GOLDEN_DIR / "cases.json").read_text())
    by_name = {case["name"]: case for case in cases}
    out = []
    for name in CLI_GOLDEN:
        case = by_name[name]
        argv = [a.replace("{DIR}", str(GOLDEN_DIR)) for a in case["argv"]]
        expected = CliResult(case["exit"], (root / GOLDEN_DIR / f"{name}.out").read_bytes())
        out.append((name, argv, expected))
    return out


def _cli_seeded(rng, work_dir):
    """Seeded argv lists with their library answers, all with --emit data."""
    work_dir.mkdir(parents=True, exist_ok=True)
    t = Scalar.generator(QT, 0)
    alpha = simple_scalar(rng, QT, allow_fraction=False, nonzero=True) * t + Scalar.one(QT)
    A = make_aalpha(alpha)
    R = shaped_quadratic(0, rng, Q, 2)
    a_file, r_file = work_dir / "aalpha.alg", work_dir / "quadratic.alg"
    a_file.write_text(presentation_to_text(A) + "\n")
    r_file.write_text(presentation_to_text(R) + "\n")
    a_path, r_path = str(a_file), str(r_file)

    shift = rng.randint(1, 3)
    auto = f"t1 -> t1 + {shift}"
    expr = _random_homogeneous(rng, R, 3).to_text(R.generators)
    a_num, b_num, p = rng.randrange(1, 30), rng.randrange(1, 30), rng.choice((5, 7))
    c = _fraction(rng)
    i, j = rng.sample((1, 2), 2)
    idem_expr = f"e{i}{i} + ({c})*e{i}{j}"
    alpha_text = str(alpha)
    orbit_autos = f"t1->t1+{shift};t1->{rng.randint(2, 4)}*t1"
    beta_text = rng.choice((alpha_text, f"-({alpha_text})", f"{alpha_text} + 1"))

    def lib(verb):
        # the library answer for one verb, mirroring the CLI's data payload
        if verb == "print":
            return 0, presentation_to_data(parse_presentation(a_file.read_text()))
        if verb == "canonicalize":
            P0, sigma = canonicalize(parse_presentation(a_file.read_text()))
            return 0, {"presentation": presentation_to_data(P0), "sigma": str(sigma)}
        if verb == "twist":
            P = parse_presentation(a_file.read_text())
            return 0, presentation_to_data(twist(P, parse_automorphism(auto, P.field)))
        P = parse_presentation(r_file.read_text())
        if verb == "gb":
            gb = groebner(P, 3)
            return 0, {"complete_to": gb.complete_to, "basis": [poly_to_data(g) for g in gb.basis]}
        if verb == "nf":
            r = normal_form(parse_poly(expr, P.field, P.generators), groebner(P, 3))
            return (0 if r.verified else 3), {"normal_form": poly_to_data(r.poly), "verified": r.verified}
        if verb == "member":
            v = ideal_membership(parse_poly(expr, P.field, P.generators), P, 3)
            code = 0 if v.member or v.exact else 3
            return code, {"member": v.member, "exact": v.exact, "bound": v.bound}
        if verb == "hilbert":
            return 0, {"dims": [graded_dimension(P, n, 4) for n in range(5)]}
        A0 = parse_presentation(a_file.read_text())
        if verb == "generates":
            elems = [parse_poly(s, A0.field, A0.generators) for s in ("x1+x2", "x2")]
            v = is_generating(elems, A0, 2)
            return (0 if v.generating else 3), {"generating": v.generating, "bound": v.bound}
        if verb == "aalpha-iso":
            x, y = parse_scalar(alpha_text, QT), parse_scalar(beta_text, QT)
            if iso_aalpha(x, y):
                images = iso_witness(x, y)
                witness = ", ".join(
                    f"x{k + 1} -> {img.to_text(('x1', 'x2'))}" for k, img in enumerate(images)
                )
                return 0, {"iso": True, "witness": witness}
            b2, a2 = decide_form_congruence(x, y).certificate
            return 0, {"iso": False, "certificate": f"{b2} != {a2}"}
        if verb == "aalpha-orbit":
            x = parse_scalar(alpha_text, QT)
            autos = [parse_automorphism(s, QT) for s in orbit_autos.split(";")]
            return 0, {"orbit": [str(s) for s in orbit_sample(x, autos)]}
        if verb == "aalpha-oracle":
            w = search_iso_degree2(a_num, b_num, p)
            if w is None:
                return 0, {"found": False}
            q = [[w.q[r][s].value for s in range(2)] for r in range(2)]
            return 0, {"found": True, "q": q, "gamma": w.gamma.value}
        MP = matrix_presentation(A0, 2)
        if verb == "matrix":
            return 0, presentation_to_data(MP.pres)
        if verb == "idem":
            e = parse_poly(idem_expr, MP.pres.field, MP.pres.generators)
            return 0, {"idempotent": verify_idempotent(e, MP, 3), "bound": 3}
        if verb == "full":
            e = MP.unit(j, j)
            v = is_full_idempotent(e, MP, 2)
            if not v.full:
                return 3, {"full": False, "bound": v.bound}
            ok = verify_fullness_certificate(e, MP, v.certificate, 2)
            return (0 if ok else 2), {"full": True, "bound": v.bound, "reverified": ok}
        if verb == "corner":
            return 0, {"dims": corner_filtered_dims(MP.unit(1, 1), MP, 2)}
        raise ValueError(verb)

    argvs = {
        "print": ["print", "--file", a_path],
        "canonicalize": ["canonicalize", "--file", a_path],
        "twist": ["twist", "--file", a_path, "--auto", auto],
        "gb": ["gb", "--file", r_path, "--maxdeg", "3"],
        "nf": ["nf", "--file", r_path, "--maxdeg", "3", "--expr", expr],
        "member": ["member", "--file", r_path, "--expr", expr, "--maxdeg", "3"],
        "hilbert": ["hilbert", "--file", r_path, "--upto", "4"],
        "generates": ["generates", "--file", a_path, "--elems", "x1+x2;x2", "--maxdeg", "2"],
        "aalpha-iso": ["aalpha-iso", "--alpha", alpha_text, f"--beta={beta_text}", "--k", "1"],
        "aalpha-orbit": ["aalpha-orbit", "--alpha", alpha_text, "--autos", orbit_autos, "--k", "1"],
        "aalpha-oracle": ["aalpha-oracle", "--p", str(p), "--alpha", str(a_num), "--beta", str(b_num)],
        "matrix": ["matrix", "--n", "2", "--base", a_path],
        "idem": ["idem", "--n", "2", "--check", idem_expr, "--maxdeg", "3", "--base", a_path],
        "full": ["full", "--n", "2", "--elem", f"e{j}{j}", "--maxdeg", "2", "--base", a_path],
        "corner": ["corner", "--n", "2", "--elem", "e11", "--upto", "2", "--base", a_path],
    }
    return [(verb, argvs[verb] + ["--emit", "data"], lambda v=verb: lib(v)) for verb in CLI_VERBS]


def _data_ok(expected, out):
    code, payload = expected()
    try:
        got = json.loads(out.stdout)
    except ValueError:
        return False
    if isinstance(got, dict) and "certificate" not in payload:
        # `full` prints its certificate in the CLI's own rendering; the
        # verdict, the bound and the re-verification are compared instead
        got.pop("certificate", None)
    return out.code == code and got == payload


def cli_ops(rng, runner, work_dir):
    root = Path.cwd()
    golden = golden_cases(root)
    seeded = _cli_seeded(rng, Path(work_dir))
    ops = []
    # alternate seeded and golden cases so every prefix of the list mixes both
    for k in range(max(len(golden), len(seeded))):
        if k < len(seeded):
            verb, argv, expected = seeded[k]
            ops.append(Op(f"cli:{verb}", lambda argv=argv: runner(argv),
                          lambda out, e=expected: _data_ok(e, out),
                          lambda argv=argv: " ".join(argv)))
        if k < len(golden):
            name, argv, expected = golden[k]
            ops.append(Op(f"cli:{name}", lambda argv=argv: runner(argv),
                          lambda out, e=expected: out == e,
                          lambda argv=argv: " ".join(argv)))
    return ops
