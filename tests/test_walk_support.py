"""The matrix walks try only the unit letters that e's matrix can carry.

A unit e_ab moves a row or a column, so the fullness frontier extends a
tag with matrix X on the left by e_ab only when row b of X is nonzero and
on the right only when column a is, and the corner walk builds a normal
word b*e_ij only when column i and row j of e's matrix are nonzero.  The
work pins count _times_letter calls, which the all-letters walks made
about n^3 (fullness) and n^2 (corners) of; the all-words references hold
the walks to the same verdicts, certificates and dims on idempotents
whose support is one row or one column, where a row/column mix-up in the
fullness frontier shows.  A mix-up in the corner walk leaves the dims as
they are on these bases, so the last test holds both walks to making no
zero matrix from a unit letter.
"""

import pathlib
import pytest

from fpalg import (
    FieldSpec,
    Presentation,
    Scalar,
    corner_filtered_dims,
    is_full_idempotent,
    make_aalpha,
    matrix_presentation,
    parse_presentation,
)
from fpalg import morita
from allwords_corner import allwords_corner_dims
from allwords_fullness import allwords_full_idempotent

Q = FieldSpec(0)
QT = FieldSpec(1)
INPUTS = pathlib.Path(__file__).parent / "golden" / "inputs"


def bases():
    return {
        "Q": Presentation(Q, (), (), name="B"),
        "projector": parse_presentation((INPUTS / "projector.alg").read_text()),
        "A_t": make_aalpha(Scalar.generator(QT, 0)),
    }


def record_calls(monkeypatch, name):
    """Wrap morita.<name>; the returned list gets (args, result) per call."""
    calls = []
    real = getattr(morita, name)

    def recording(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(morita, name, recording)
    return calls


class TestWorkPins:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_fullness_steps_grow_as_n_squared(self, monkeypatch, n):
        MP = matrix_presentation(bases()["projector"], n)
        calls = record_calls(monkeypatch, "_times_letter")
        verdict = is_full_idempotent(MP.unit(1, 1), MP, 2)
        assert verdict.full and len(verdict.certificate) == n
        # trying every letter on every grown tag makes 2,024 calls at n = 8
        assert len(calls) <= 4 * n * n

    def test_corner_steps_do_not_grow_with_n(self, monkeypatch):
        counts = []
        for n in (8, 16, 32):
            MP = matrix_presentation(bases()["projector"], n)
            calls = record_calls(monkeypatch, "_times_letter")
            corner_filtered_dims(MP.unit(1, 1) + MP.unit(1, 2), MP, 3)
            counts.append(len(calls))
        # building every normal word makes 127, 511 and 2,047 calls
        assert counts[0] == counts[1] == counts[2]


def one_sided(MP, base):
    """e11 + 2*e12 - 3*e14 (support in row 1), e11 + 2*e21 - 3*e31
    (support in column 1) and, over projector, where x1 is idempotent,
    e11*z1."""
    def c(k):
        return Scalar.from_int(MP.field, k)

    e11 = MP.unit(1, 1)
    yield "row", e11 + MP.unit(1, 2).scale(c(2)) + MP.unit(1, 4).scale(c(-3))
    yield "column", e11 + MP.unit(2, 1).scale(c(2)) + MP.unit(3, 1).scale(c(-3))
    if base == "projector":
        yield "e11*z1", e11 * MP.lift(0)


@pytest.mark.parametrize("base", ["Q", "projector", "A_t"])
def test_one_sided_supports_match_all_words(base):
    MP = matrix_presentation(bases()[base], 4)
    for name, e in one_sided(MP, base):
        expected = allwords_full_idempotent(e, MP, 2)
        got = is_full_idempotent(e, MP, 2)
        assert got == expected, name
        assert got.certificate == expected.certificate, name
        assert corner_filtered_dims(e, MP, 2) == allwords_corner_dims(e, MP, 2), name


@pytest.mark.parametrize("base", ["Q", "projector", "A_t"])
def test_no_unit_letter_gives_a_zero_matrix(monkeypatch, base):
    """e_ab * X is zero exactly when row b of X is, and X * e_ab when
    column a is.  The corner insert e*b*e_ij*e of these elements is b*E
    times a nonzero scalar when column i and row j of E are nonzero, or
    x1*b*x1 = x1 times e11 over projector.  So neither walk makes a zero
    matrix from a unit letter; trying every letter does, and so does
    mixing up rows and columns."""
    MP = matrix_presentation(bases()[base], 4)
    nn = MP.n * MP.n
    steps = record_calls(monkeypatch, "_times_letter")
    products = record_calls(monkeypatch, "_product")
    for name, e in one_sided(MP, base):
        steps.clear()
        is_full_idempotent(e, MP, 2)
        assert all(X for (_, g, *_), X in steps if g < nn), name
        products.clear()
        corner_filtered_dims(e, MP, 2)
        assert products and all(X for _, X in products), name
