"""Parsing and printing of scalars, polynomials, automorphisms, presentations.

Grammar (whitespace-insensitive, UTF-8):

    presentation := "algebra" NAME "over" fieldspec
                    "generators" NAME* "relations" "{" (poly "=" "0" ";")* "}"
    fieldspec    := "Q" | "Q" "(" "t1" "," ... "," "tk" ")"
    poly         := ["-"] term (("+" | "-") term)*
    term         := factor ("*" factor)*
    factor       := INT | "(" scalar ")" | GENERATOR-NAME
    scalar       := sum/difference of products/quotients of INT, t-names and
                    parenthesized subexpressions; "^" takes integer powers
    automorphism := "identity" | clause ("," clause)*
    clause       := TNAME "->" scalar          (affine in one generator)

Printing is canonical: parse(print(x)) reproduces x exactly.
"""

from __future__ import annotations

import re

from .freealg import NCPoly
from .presentation import Presentation, _check_generator_name
from .scalars import FieldAutomorphism, FieldSpec, Scalar
from fractions import Fraction


class ParseError(Exception):
    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<arrow>->)
  | (?P<sym>[-+*/^(){}=;,])
    """,
    re.VERBOSE,
)


# Scalar expressions are parsed recursively; deeper nesting is refused with a
# ParseError long before the interpreter's recursion limit is reached.
MAX_SCALAR_NESTING = 100


class _Tokens:
    def __init__(self, text):
        self.depth = 0  # scalar factors currently being parsed
        self.tokens = []
        line, col = 1, 1
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", line, col)
            kind = m.lastgroup
            value = m.group()
            if kind != "ws":
                self.tokens.append((kind, value, line, col))
            newlines = value.count("\n")
            if newlines:
                line += newlines
                col = len(value) - value.rfind("\n")
            else:
                col += len(value)
            pos = m.end()
        self.tokens.append(("eof", "", line, col))
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        if tok[0] != "eof":
            self.index += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok[1] or 'end of input'!r}",
                             tok[2], tok[3])
        return tok

    def error(self, message):
        tok = self.peek()
        raise ParseError(message, tok[2], tok[3])

    def end(self):
        if self.peek()[0] != "eof":
            self.error(f"trailing input {self.peek()[1]!r}")


# ---------------------------------------------------------------------------
# scalar expressions
# ---------------------------------------------------------------------------


def _tvar_index(name, field, tokens):
    if name == "t":
        if field.num_generators == 1:
            return 0
        tokens.error("bare 't' is only allowed over Q(t1)")
    m = re.fullmatch(r"t([0-9]+)", name)
    if not m:
        tokens.error(f"unknown name {name!r} in scalar expression")
    idx = int(m.group(1)) - 1
    if not 0 <= idx < field.num_generators:
        tokens.error(f"{name} lies outside the declared field {field}")
    return idx


def _parse_scalar_expr(tokens, field):
    value = _parse_scalar_term(tokens, field)
    while tokens.peek()[1] in ("+", "-"):
        op = tokens.next()[1]
        rhs = _parse_scalar_term(tokens, field)
        value = value + rhs if op == "+" else value - rhs
    return value


def _parse_scalar_term(tokens, field):
    value = _parse_scalar_factor(tokens, field)
    while tokens.peek()[1] in ("*", "/"):
        op = tokens.next()[1]
        rhs = _parse_scalar_factor(tokens, field)
        if op == "/":
            if rhs.is_zero():
                tokens.error("division by zero")
            value = value / rhs
        else:
            value = value * rhs
    return value


def _parse_scalar_factor(tokens, field):
    if tokens.depth >= MAX_SCALAR_NESTING:
        tokens.error(f"scalar nested deeper than {MAX_SCALAR_NESTING} levels")
    tokens.depth += 1
    value = _parse_scalar_factor_body(tokens, field)
    tokens.depth -= 1
    return value


def _parse_scalar_factor_body(tokens, field):
    kind, value, line, col = tokens.peek()
    if value in ("-", "+"):
        tokens.next()
        inner = _parse_scalar_factor(tokens, field)
        return -inner if value == "-" else inner
    if kind == "int":
        tokens.next()
        base = Scalar.from_int(field, int(value))
    elif kind == "name":
        tokens.next()
        base = Scalar.generator(field, _tvar_index(value, field, tokens))
    elif value == "(":
        tokens.next()
        base = _parse_scalar_expr(tokens, field)
        tokens.expect("sym", ")")
    else:
        raise ParseError(f"expected a scalar, found {value!r}", line, col)
    if tokens.peek()[1] == "^":
        tokens.next()
        exp = tokens.expect("int")
        base = base ** int(exp[1])
    return base


def parse_scalar(text, field):
    tokens = _Tokens(text)
    value = _parse_scalar_expr(tokens, field)
    tokens.end()
    return value


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

_POLY_STOP = {"=", ";", "}", ")", ""}


def _parse_poly(tokens, field, index_of, num_gens):
    total = NCPoly.zero(field, num_gens)
    sign = 1
    if tokens.peek()[1] in ("+", "-"):
        sign = -1 if tokens.next()[1] == "-" else 1
    while True:
        term = _parse_poly_term(tokens, field, index_of, num_gens)
        total = total - term if sign < 0 else total + term
        nxt = tokens.peek()[1]
        if nxt in _POLY_STOP:
            return total
        if nxt == "+":
            sign = 1
        elif nxt == "-":
            sign = -1
        else:
            tokens.error(f"expected '+', '-' or end of polynomial, found {nxt!r}")
        tokens.next()


def _parse_poly_term(tokens, field, index_of, num_gens):
    coeff = Scalar.one(field)
    word = []
    while True:
        kind, value, line, col = tokens.peek()
        if kind == "int":
            tokens.next()
            coeff = coeff * Scalar.from_int(field, int(value))
        elif value == "(":
            tokens.next()
            coeff = coeff * _parse_scalar_expr(tokens, field)
            tokens.expect("sym", ")")
        elif kind == "name":
            g = index_of(value)
            if g is None:
                raise ParseError(f"undeclared generator {value!r}", line, col)
            tokens.next()
            word.append(g)
        else:
            raise ParseError(f"expected a term factor, found {value!r}", line, col)
        if tokens.peek()[1] == "*":
            tokens.next()
            continue
        if tokens.peek()[1] == "^":
            tokens.error("powers apply to scalars only; write words as products")
        break
    return NCPoly.monomial(field, num_gens, tuple(word), coeff)


def parse_poly(text, field, names):
    """The polynomial text over field in the generators names, in index order."""
    names = tuple(names)
    return parse_poly_with(text, field, {n: i for i, n in enumerate(names)}.get, len(names))


def parse_poly_with(text, field, index_of, num_gens):
    """The polynomial text over field in num_gens generators, where
    index_of(name) is the index of the generator called name, or None."""
    tokens = _Tokens(text)
    poly = _parse_poly(tokens, field, index_of, num_gens)
    tokens.end()
    return poly


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------


def _affine_parts(image, where):
    """Split a scalar into (target index, a, b) for a*t_j + b, a != 0, or
    raise a ParseError at where, the image's first token.

    A ZPoly numerator is nonconstant, so once its monomials of degree 2 or
    more are refused it has a degree-1 monomial, with a nonzero coefficient.
    """

    def error(message):
        raise ParseError(message, where[2], where[3])

    den_c = image._den
    if type(den_c) is not int:
        error("automorphism image must be affine, not a proper fraction")
    if type(image._num) is int:
        error("automorphism image drops the generator (a = 0)")
    target = None
    a = Fraction(0)
    b = Fraction(0)
    for mon, coeff in image._num.items():
        degree = sum(mon)
        if degree == 0:
            b = Fraction(coeff, den_c)
        elif degree == 1:
            j = next(i for i, e in enumerate(mon) if e)
            if target is not None:
                error("automorphism image involves two generators")
            target = j
            a = Fraction(coeff, den_c)
        else:
            error("automorphism image must have degree 1")
    return target, a, b


_NOT_PERMUTATION = "generator targets do not form a permutation"


def parse_automorphism(text, field):
    tokens = _Tokens(text)
    if tokens.peek()[1] == "identity":
        tokens.next()
        if tokens.peek()[0] != "eof":
            tokens.error("trailing input after 'identity'")
        return FieldAutomorphism.identity(field)
    k = field.num_generators
    images = {}
    taken = {}  # target index -> first token of the image that took it
    while True:
        name = tokens.expect("name")
        src = _tvar_index(name[1], field, tokens)
        if src in images:
            raise ParseError(f"duplicate clause for t{src + 1}", name[2], name[3])
        tokens.expect("arrow")
        where = tokens.peek()
        images[src] = _affine_parts(_parse_scalar_expr(tokens, field), where)
        target = images[src][0]
        if target in taken:
            raise ParseError(_NOT_PERMUTATION, where[2], where[3])
        taken[target] = where
        if tokens.peek()[1] != ",":
            break
        tokens.next()
    tokens.end()
    # a generator without a clause keeps itself as its target
    for target, where in taken.items():
        if target not in images:
            raise ParseError(_NOT_PERMUTATION, where[2], where[3])
    forward = [images.get(i, (i, Fraction(1), Fraction(0))) for i in range(k)]
    return FieldAutomorphism.from_images(field, forward)


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


def _parse_fieldspec(tokens):
    tokens.expect("name", "Q")
    if tokens.peek()[1] != "(":
        return FieldSpec(0)
    tokens.next()
    count = 0
    while True:
        name = tokens.expect("name")
        count += 1
        if name[1] != f"t{count}":
            raise ParseError(
                f"field generators must be t1,...,tk in order; found {name[1]!r}",
                name[2],
                name[3],
            )
        if tokens.peek()[1] == ",":
            tokens.next()
            continue
        break
    tokens.expect("sym", ")")
    return FieldSpec(count)


def parse_presentation(text):
    tokens = _Tokens(text)
    tokens.expect("name", "algebra")
    name = tokens.expect("name")[1]
    tokens.expect("name", "over")
    field = _parse_fieldspec(tokens)
    tokens.expect("name", "generators")
    names = []
    while tokens.peek()[0] == "name" and tokens.peek()[1] != "relations":
        gen = tokens.peek()[1]
        if gen in names:
            tokens.error(f"duplicate generator name {gen!r}")
        try:
            _check_generator_name(gen)
        except ValueError as exc:
            tokens.error(str(exc))
        names.append(tokens.next()[1])
    tokens.expect("name", "relations")
    tokens.expect("sym", "{")
    index_of = {n: i for i, n in enumerate(names)}.get
    relations = []
    while tokens.peek()[1] != "}":
        where = tokens.peek()
        poly = _parse_poly(tokens, field, index_of, len(names))
        tokens.expect("sym", "=")
        zero = tokens.expect("int")
        if zero[1] != "0":
            raise ParseError("relations must end in '= 0'", zero[2], zero[3])
        tokens.expect("sym", ";")
        if poly.is_zero():
            raise ParseError("zero relation is not storable", where[2], where[3])
        relations.append(poly)
    tokens.expect("sym", "}")
    tokens.end()
    return Presentation(field, tuple(names), tuple(relations), name=name)


def presentation_to_text(P):
    head = f"algebra {P.name} over {P.field} generators"
    if P.generators:
        head += " " + " ".join(P.generators)
    lines = [head + " relations {"]
    for rel in P.relations:
        lines.append(f"  {rel.to_text(P.generators)} = 0;")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# machine-readable export
# ---------------------------------------------------------------------------


def poly_to_data(poly):
    return [[[g + 1 for g in word], str(coeff)] for word, coeff in poly.terms()]


def presentation_to_data(P):
    return {
        "name": P.name,
        "field": {"transcendentals": P.field.num_generators},
        "generators": list(P.generators),
        "relations": [poly_to_data(r) for r in P.relations],
    }
