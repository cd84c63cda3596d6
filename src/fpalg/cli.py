"""Command-line front end.

Exit codes: 0 success, 1 parse error, 2 semantic error, 3 verdict undecided
at the requested bound.  Output is deterministic; --emit data switches any
command to a stable JSON rendering.

A process pays only for its verb: a command line that names a verb builds
that verb's parser alone, and each handler imports the engine module
(rewrite, morita or aalpha) it calls when it runs.
"""

from __future__ import annotations

import argparse
import re
import sys

from .presentation import (
    Presentation,
    canonicalize,
    transcendental_support,
    twist,
)
from .scalars import DegreeBudgetError, FieldSpec, signed_sum_text, term_text
from .syntax import (
    ParseError,
    parse_automorphism,
    parse_poly,
    parse_poly_with,
    parse_presentation,
    parse_scalar,
    poly_to_data,
    presentation_to_data,
    presentation_to_text,
)

PARSE_ERROR = 1
SEMANTIC_ERROR = 2
UNDECIDED = 3


def _required(flag, **kwargs):
    return flag, {"required": True, **kwargs}


_MAXDEG = _required("--maxdeg", type=int)
_N = _required("--n", type=int)

# mutually exclusive presentation options: (required, options)
_GROUPS = {
    "input": (True, (
        ("--file", {"help": "presentation file"}),
        ("--pres", {"help": "inline presentation text"}),
    )),
    # the base presentation of a matrix construction; rational base when absent
    "base": (False, (
        ("--base", {"dest": "file", "help": "base presentation file"}),
        ("--pres", {"help": "inline base presentation text"}),
    )),
}


def _options(verb):
    """The option strings of verb, in the order its parser adds them."""
    _, _, group, options = _VERBS[verb]
    grouped = _GROUPS[group][1] if group else ()
    return [flag for flag, _ in (*grouped, *options)] + ["--emit"]


def _add_verb(subs, verb):
    _, doc, group, options = _VERBS[verb]
    sub = subs.add_parser(verb, help=doc)
    if group is not None:
        required, grouped = _GROUPS[group]
        exclusive = sub.add_mutually_exclusive_group(required=required)
        for flag, kwargs in grouped:
            exclusive.add_argument(flag, **kwargs)
    for flag, kwargs in options:
        sub.add_argument(flag, **kwargs)
    sub.add_argument("--emit", choices=("text", "data"), default="text")


def _build_parser(verb=None):
    """The parser with verb's subparser alone, or with every verb's when
    verb is None.  The verb list is spelled out either way, so usage lines
    and errors read the same."""
    parser = argparse.ArgumentParser(
        prog="fpalg",
        description="Exact workbench for finitely presented associative algebras",
    )
    subs = parser.add_subparsers(
        dest="verb", required=True, metavar="{" + ",".join(_VERBS) + "}" if verb else None
    )
    for name in [verb] if verb else _VERBS:
        _add_verb(subs, name)
    return parser


def _dash_values(argv, verb):
    """argv with each value that begins with '-' glued to its option as
    --option=value, so that argparse reads `--expr -x1` and `--beta -t` as
    values.  Only a value after one of verb's options, named in full or by
    a unique prefix as argparse allows, is glued; -h and tokens that begin
    with '--' keep their meaning."""
    options = _options(verb) if verb else []
    out = []
    k = 0
    while k < len(argv):
        token = argv[k]
        value = argv[k + 1] if k + 1 < len(argv) else ""
        if (
            token.startswith("--")
            and value.startswith("-")
            and not value.startswith("--")
            and value != "-h"
            and (token in options or len([o for o in options if o.startswith(token)]) == 1)
        ):
            out.append(f"{token}={value}")
            k += 2
        else:
            out.append(token)
            k += 1
    return out


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


def _certificate_text(certificate, MP):
    name = MP.generator_name
    return signed_sum_text([
        term_text(coeff, "*".join([*map(name, u), "e", *map(name, v)]))
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
    from .rewrite import groebner

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
    from .rewrite import groebner, normal_form

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
    from .rewrite import hilbert_series

    if args.upto < 0:
        raise ValueError("--upto must be >= 0")
    dims = hilbert_series(_load_presentation(args), args.upto)
    return 0, {"dims": dims}, [f"{n} {dim}" for n, dim in enumerate(dims)]


def _cmd_member(args):
    from .rewrite import ideal_membership

    P = _load_presentation(args)
    f = parse_poly(args.expr, P.field, P.generators)
    verdict = ideal_membership(f, P, args.maxdeg)
    payload = {"member": verdict.member, "exact": verdict.exact, "bound": verdict.bound}
    code = 0 if verdict.member or verdict.exact else UNDECIDED
    return code, payload, [str(verdict)]


def _cmd_generates(args):
    from .rewrite import is_generating

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
    from .aalpha import decide_form_congruence, iso_witness, verify_iso_witness

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
    from .aalpha import search_iso_degree2

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
    from .aalpha import orbit_sample

    auto_texts = [part for part in args.autos.split(";") if part.strip()]
    field = _detect_field([args.alpha, *auto_texts], args.k)
    alpha = parse_scalar(args.alpha, field)
    autos = [parse_automorphism(text, field) for text in auto_texts]
    sample = [str(s) for s in orbit_sample(alpha, autos)]
    return 0, {"orbit": sample}, sample


def _cmd_matrix(args):
    from .morita import matrix_presentation

    return _presentation_result(matrix_presentation(_load_base(args), args.n).pres)


def _matrix_element(args, text, degree, verdict):
    """M_n over the base of args and text parsed as one of its elements,
    after a negative degree for the verdict has failed.  Names are looked
    up by their spelling, so the n^2 + k generator names are never built."""
    from .morita import _check_degree, matrix_presentation

    MP = matrix_presentation(_load_base(args), args.n)
    _check_degree(degree, verdict)
    return MP, parse_poly_with(text, MP.field, MP.generator_index, MP.num_gens)


def _cmd_idem(args):
    from .morita import verify_idempotent

    MP, e = _matrix_element(args, args.check, args.maxdeg, "idempotent")
    ok = verify_idempotent(e, MP, args.maxdeg)
    line = "idempotent" if ok else f"not-idempotent (tested to degree {args.maxdeg})"
    return 0, {"idempotent": ok, "bound": args.maxdeg}, [line]


def _cmd_full(args):
    from .morita import is_full_idempotent

    MP, e = _matrix_element(args, args.elem, args.maxdeg, "fullness")
    # a full verdict comes back only once its certificate reduced to zero
    verdict = is_full_idempotent(e, MP, args.maxdeg)
    if not verdict.full:
        return UNDECIDED, {"full": False, "bound": verdict.bound}, [str(verdict)]
    text = _certificate_text(verdict.certificate, MP)
    payload = {"full": True, "bound": verdict.bound, "certificate": text, "reverified": True}
    lines = [f"full at {verdict.bound}", f"certificate: {text}", "re-verified: ok"]
    return 0, payload, lines


def _cmd_corner(args):
    from .morita import corner_filtered_dims

    MP, e = _matrix_element(args, args.elem, args.upto, "corner")
    dims = corner_filtered_dims(e, MP, args.upto)
    return 0, {"dims": dims}, [f"{c} {dim}" for c, dim in enumerate(dims)]


# Each verb's handler, its help, the presentation options it reads first
# (see _GROUPS), and its further options.  Every option takes one value.
_VERBS = {
    "parse": (_cmd_parse, "validate a presentation and report its shape", "input", ()),
    "print": (_cmd_print, "canonical form of a presentation", "input", ()),
    "support": (_cmd_support, "transcendentals occurring in the coefficients", "input", ()),
    "canonicalize": (_cmd_canonicalize, "rename the occurring transcendentals onto t1..tr",
                     "input", ()),
    "twist": (_cmd_twist, "twist by a field automorphism", "input",
              (_required("--auto", help="automorphism clauses"),)),
    "gb": (_cmd_gb, "truncated Groebner basis", "input", (_MAXDEG,)),
    "nf": (_cmd_nf, "normal form of a polynomial", "input", (_MAXDEG, _required("--expr"))),
    "hilbert": (_cmd_hilbert, "graded dimensions up to a degree", "input",
                (_required("--upto", type=int),)),
    "member": (_cmd_member, "ideal membership of a polynomial", "input",
               (_required("--expr"), _MAXDEG)),
    "generates": (_cmd_generates, "do the elements generate the quotient", "input",
                  (_required("--elems", help="semicolon-separated polynomials"), _MAXDEG)),
    "aalpha-iso": (_cmd_aalpha_iso, "isomorphism within the quadratic family", None, (
        _required("--alpha"),
        _required("--beta"),
        ("--k", {"type": int, "help": "transcendental count"}),
    )),
    "aalpha-oracle": (_cmd_aalpha_oracle, "finite-field congruence search", None, (
        _required("--p", type=int), _required("--alpha", type=int), _required("--beta", type=int),
    )),
    "aalpha-orbit": (_cmd_aalpha_orbit, "parameter orbit under automorphisms", None, (
        _required("--alpha"),
        _required("--autos", help="semicolon-separated automorphisms"),
        ("--k", {"type": int}),
    )),
    "matrix": (_cmd_matrix, "matrix presentation over a base", "base", (_N,)),
    "idem": (_cmd_idem, "verify an idempotent", "base", (_N, _required("--check"), _MAXDEG)),
    "full": (_cmd_full, "full-idempotent semidecision", "base",
             (_N, _required("--elem"), _MAXDEG)),
    "corner": (_cmd_corner, "corner algebra dimension fingerprint", "base",
               (_N, _required("--elem"), _required("--upto", type=int))),
}


def run(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command line that names a verb builds and parses that verb alone
    verb = argv[0] if argv and argv[0] in _VERBS else None
    args = _build_parser(verb).parse_args(_dash_values(argv, verb))
    try:
        code, payload, lines = _VERBS[args.verb][0](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except OSError as exc:  # a missing or unreadable input path
        print(f"error: {exc}", file=sys.stderr)
        return SEMANTIC_ERROR
    except DegreeBudgetError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return UNDECIDED
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SEMANTIC_ERROR
    if args.emit == "text":
        for line in lines:
            print(line)
    else:
        import json

        print(json.dumps(payload, sort_keys=True))
    return code


def main(argv=None):
    raise SystemExit(run(argv))


if __name__ == "__main__":
    main()
