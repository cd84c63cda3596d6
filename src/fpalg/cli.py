"""Command-line front end.

Exit codes: 0 success, 1 parse error, 2 semantic error, 3 verdict undecided
at the requested bound.  Output is deterministic; --emit data switches any
command to a stable JSON rendering.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .aalpha import (
    decide_form_congruence,
    iso_witness,
    orbit_sample,
    search_iso_degree2,
    verify_iso_witness,
)
from .morita import (
    DegreeBudgetError,
    _check_degree,
    corner_filtered_dims,
    is_full_idempotent,
    matrix_presentation,
    verify_idempotent,
)
from .presentation import (
    Presentation,
    canonicalize,
    transcendental_support,
    twist,
)
from .rewrite import (
    groebner,
    hilbert_series,
    ideal_membership,
    is_generating,
    normal_form,
)
from .scalars import FieldSpec, MismatchError, signed_sum_text, term_text
from .syntax import (
    ParseError,
    parse_automorphism,
    parse_poly,
    parse_presentation,
    parse_scalar,
    poly_to_data,
    presentation_to_data,
    presentation_to_text,
)

PARSE_ERROR = 1
SEMANTIC_ERROR = 2
UNDECIDED = 3


def _add_input_options(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", help="presentation file")
    group.add_argument("--pres", help="inline presentation text")


def _add_base_options(sub):
    # the base presentation of a matrix construction; rational base when absent
    group = sub.add_mutually_exclusive_group(required=False)
    group.add_argument("--base", dest="file", help="base presentation file")
    group.add_argument("--pres", help="inline base presentation text")


def _add_emit(sub):
    sub.add_argument("--emit", choices=("text", "data"), default="text")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fpalg",
        description="Exact workbench for finitely presented associative algebras",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    for verb, doc in (
        ("parse", "validate a presentation and report its shape"),
        ("print", "canonical form of a presentation"),
        ("support", "transcendentals occurring in the coefficients"),
        ("canonicalize", "rename the occurring transcendentals onto t1..tr"),
    ):
        sub = subs.add_parser(verb, help=doc)
        _add_input_options(sub)
        _add_emit(sub)

    sub = subs.add_parser("twist", help="twist by a field automorphism")
    _add_input_options(sub)
    sub.add_argument("--auto", required=True, help="automorphism clauses")
    _add_emit(sub)

    sub = subs.add_parser("gb", help="truncated Groebner basis")
    _add_input_options(sub)
    sub.add_argument("--maxdeg", type=int, required=True)
    _add_emit(sub)

    sub = subs.add_parser("nf", help="normal form of a polynomial")
    _add_input_options(sub)
    sub.add_argument("--maxdeg", type=int, required=True)
    sub.add_argument("--expr", required=True)
    _add_emit(sub)

    sub = subs.add_parser("hilbert", help="graded dimensions up to a degree")
    _add_input_options(sub)
    sub.add_argument("--upto", type=int, required=True)
    _add_emit(sub)

    sub = subs.add_parser("member", help="ideal membership of a polynomial")
    _add_input_options(sub)
    sub.add_argument("--expr", required=True)
    sub.add_argument("--maxdeg", type=int, required=True)
    _add_emit(sub)

    sub = subs.add_parser("generates", help="do the elements generate the quotient")
    _add_input_options(sub)
    sub.add_argument("--elems", required=True, help="semicolon-separated polynomials")
    sub.add_argument("--maxdeg", type=int, required=True)
    _add_emit(sub)

    sub = subs.add_parser("aalpha-iso", help="isomorphism within the quadratic family")
    sub.add_argument("--alpha", required=True)
    sub.add_argument("--beta", required=True)
    sub.add_argument("--k", type=int, default=None, help="transcendental count")
    _add_emit(sub)

    sub = subs.add_parser("aalpha-oracle", help="finite-field congruence search")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--alpha", type=int, required=True)
    sub.add_argument("--beta", type=int, required=True)
    _add_emit(sub)

    sub = subs.add_parser("aalpha-orbit", help="parameter orbit under automorphisms")
    sub.add_argument("--alpha", required=True)
    sub.add_argument("--autos", required=True, help="semicolon-separated automorphisms")
    sub.add_argument("--k", type=int, default=None)
    _add_emit(sub)

    sub = subs.add_parser("matrix", help="matrix presentation over a base")
    _add_base_options(sub)
    sub.add_argument("--n", type=int, required=True)
    _add_emit(sub)

    sub = subs.add_parser("idem", help="verify an idempotent")
    _add_base_options(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--check", required=True)
    sub.add_argument("--maxdeg", type=int, required=True)
    _add_emit(sub)

    sub = subs.add_parser("full", help="full-idempotent semidecision")
    _add_base_options(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--elem", required=True)
    sub.add_argument("--maxdeg", type=int, required=True)
    _add_emit(sub)

    sub = subs.add_parser("corner", help="corner algebra dimension fingerprint")
    _add_base_options(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--elem", required=True)
    sub.add_argument("--upto", type=int, required=True)
    _add_emit(sub)

    return parser


def _load_presentation(args):
    if args.file is not None:
        with open(args.file, encoding="utf-8") as handle:
            return parse_presentation(handle.read())
    if args.pres is not None:
        return parse_presentation(args.pres)
    return None


def _load_base(args):
    P = _load_presentation(args)
    if P is None:
        return Presentation(FieldSpec(0), (), (), name="B")
    return P


def _detect_field(texts, override):
    if override is not None:
        return FieldSpec(override)
    k = 0
    for text in texts:
        for m in re.finditer(r"\bt([0-9]*)\b", text):
            k = max(k, int(m.group(1)) if m.group(1) else 1)
    return FieldSpec(k)


def _certificate_text(certificate, names):
    return signed_sum_text([
        term_text(coeff, "*".join([*(names[g] for g in u), "e", *(names[g] for g in v)]))
        for (u, v), coeff in certificate
    ])


# -- handlers ----------------------------------------------------------------
# Each returns (exit code, payload for --emit data, lines for --emit text).


def _presentation_result(P):
    return 0, presentation_to_data(P), [presentation_to_text(P)]


def _cmd_parse(args):
    P = _load_presentation(args)
    line = (
        f"ok: {P.name} field={P.field} generators={P.num_gens} "
        f"relations={len(P.relations)}"
    )
    return 0, presentation_to_data(P), [line]


def _cmd_print(args):
    return _presentation_result(_load_presentation(args))


def _cmd_support(args):
    support = transcendental_support(_load_presentation(args))
    text = " ".join(f"t{i + 1}" for i in support) if support else "none"
    return 0, {"support": [i + 1 for i in support]}, [text]


def _cmd_canonicalize(args):
    P0, sigma = canonicalize(_load_presentation(args))
    payload = {"presentation": presentation_to_data(P0), "sigma": str(sigma)}
    return 0, payload, [presentation_to_text(P0), f"sigma: {sigma}"]


def _cmd_twist(args):
    P = _load_presentation(args)
    sigma = parse_automorphism(args.auto, P.field)
    return _presentation_result(twist(P, sigma))


def _cmd_gb(args):
    P = _load_presentation(args)
    gb = groebner(P, args.maxdeg)
    payload = {
        "complete_to": gb.complete_to,
        "basis": [poly_to_data(g) for g in gb.basis],
    }
    lines = [f"complete_to: {gb.complete_to}"]
    lines += [g.to_text(P.generators) for g in gb.basis]
    return 0, payload, lines


def _cmd_nf(args):
    P = _load_presentation(args)
    f = parse_poly(args.expr, P.field, P.generators)
    gb = groebner(P, args.maxdeg)
    result = normal_form(f, gb)
    payload = {"normal_form": poly_to_data(result.poly), "verified": result.verified}
    lines = [result.poly.to_text(P.generators)]
    if not result.verified:
        lines.append(f"unverified: degree exceeds complete_to {gb.complete_to}")
    return (0 if result.verified else UNDECIDED), payload, lines


def _cmd_hilbert(args):
    if args.upto < 0:
        raise ValueError("--upto must be >= 0")
    dims = hilbert_series(_load_presentation(args), args.upto)
    return 0, {"dims": dims}, [f"{n} {dim}" for n, dim in enumerate(dims)]


def _cmd_member(args):
    P = _load_presentation(args)
    f = parse_poly(args.expr, P.field, P.generators)
    verdict = ideal_membership(f, P, args.maxdeg)
    payload = {"member": verdict.member, "exact": verdict.exact, "bound": verdict.bound}
    code = 0 if verdict.member or verdict.exact else UNDECIDED
    return code, payload, [str(verdict)]


def _cmd_generates(args):
    P = _load_presentation(args)
    elems = [
        parse_poly(part, P.field, P.generators)
        for part in args.elems.split(";")
        if part.strip()
    ]
    verdict = is_generating(elems, P, args.maxdeg)
    payload = {"generating": verdict.generating, "bound": verdict.bound}
    return (0 if verdict.generating else UNDECIDED), payload, [str(verdict)]


def _cmd_aalpha_iso(args):
    field = _detect_field([args.alpha, args.beta], args.k)
    alpha = parse_scalar(args.alpha, field)
    beta = parse_scalar(args.beta, field)
    decision = decide_form_congruence(alpha, beta)
    if decision.congruent:
        images = iso_witness(alpha, beta)
        if not verify_iso_witness(alpha, beta, images):
            raise ValueError("isomorphism witness failed its re-check")
        witness = ", ".join(
            f"x{i + 1} -> {img.to_text(('x1', 'x2'))}" for i, img in enumerate(images)
        )
        return 0, {"iso": True, "witness": witness}, ["ISO", f"witness: {witness}"]
    beta2, alpha2 = decision.certificate
    payload = {"iso": False, "certificate": f"{beta2} != {alpha2}"}
    return 0, payload, ["NOT-ISO", f"certificate: beta^2 != alpha^2: {beta2} != {alpha2}"]


def _cmd_aalpha_oracle(args):
    witness = search_iso_degree2(args.alpha, args.beta, args.p)
    if witness is None:
        return 0, {"found": False}, ["absent"]
    q = witness.q
    values = [[q[i][j].value for j in range(2)] for i in range(2)]
    line = (
        f"congruent Q = [[{q[0][0]}, {q[0][1]}], [{q[1][0]}, {q[1][1]}]] "
        f"gamma = {witness.gamma}"
    )
    return 0, {"found": True, "q": values, "gamma": witness.gamma.value}, [line]


def _cmd_aalpha_orbit(args):
    auto_texts = [part for part in args.autos.split(";") if part.strip()]
    field = _detect_field([args.alpha, *auto_texts], args.k)
    alpha = parse_scalar(args.alpha, field)
    autos = [parse_automorphism(text, field) for text in auto_texts]
    sample = [str(s) for s in orbit_sample(alpha, autos)]
    return 0, {"orbit": sample}, sample


def _cmd_matrix(args):
    return _presentation_result(matrix_presentation(_load_base(args), args.n).pres)


def _matrix_element(args, text, degree, verdict):
    """M_n over the base of args, text parsed as one of its elements, and
    the generator names it was parsed with.  A negative degree for the
    verdict fails first, before the n^2 + k names are built."""
    MP = matrix_presentation(_load_base(args), args.n)
    _check_degree(degree, verdict)
    names = MP.generators
    return MP, parse_poly(text, MP.field, names), names


def _cmd_idem(args):
    MP, e, _ = _matrix_element(args, args.check, args.maxdeg, "idempotent")
    ok = verify_idempotent(e, MP, args.maxdeg)
    line = "idempotent" if ok else f"not-idempotent (tested to degree {args.maxdeg})"
    return 0, {"idempotent": ok, "bound": args.maxdeg}, [line]


def _cmd_full(args):
    MP, e, names = _matrix_element(args, args.elem, args.maxdeg, "fullness")
    # a full verdict comes back only once its certificate reduced to zero
    verdict = is_full_idempotent(e, MP, args.maxdeg)
    if not verdict.full:
        return UNDECIDED, {"full": False, "bound": verdict.bound}, [str(verdict)]
    text = _certificate_text(verdict.certificate, names)
    payload = {"full": True, "bound": verdict.bound, "certificate": text, "reverified": True}
    lines = [f"full at {verdict.bound}", f"certificate: {text}", "re-verified: ok"]
    return 0, payload, lines


def _cmd_corner(args):
    MP, e, _ = _matrix_element(args, args.elem, args.upto, "corner")
    dims = corner_filtered_dims(e, MP, args.upto)
    return 0, {"dims": dims}, [f"{c} {dim}" for c, dim in enumerate(dims)]


_HANDLERS = {
    "parse": _cmd_parse,
    "print": _cmd_print,
    "support": _cmd_support,
    "canonicalize": _cmd_canonicalize,
    "twist": _cmd_twist,
    "gb": _cmd_gb,
    "nf": _cmd_nf,
    "hilbert": _cmd_hilbert,
    "member": _cmd_member,
    "generates": _cmd_generates,
    "aalpha-iso": _cmd_aalpha_iso,
    "aalpha-oracle": _cmd_aalpha_oracle,
    "aalpha-orbit": _cmd_aalpha_orbit,
    "matrix": _cmd_matrix,
    "idem": _cmd_idem,
    "full": _cmd_full,
    "corner": _cmd_corner,
}


def run(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, lines = _HANDLERS[args.verb](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except OSError as exc:  # a missing or unreadable input path
        print(f"error: {exc}", file=sys.stderr)
        return SEMANTIC_ERROR
    except DegreeBudgetError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return UNDECIDED
    except (ValueError, MismatchError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SEMANTIC_ERROR
    if args.emit == "text":
        for line in lines:
            print(line)
    else:
        print(json.dumps(payload, sort_keys=True))
    return code


def main(argv=None):
    raise SystemExit(run(argv))


if __name__ == "__main__":
    main()
