"""Byte-exact golden suite over every CLI verb, plus the round-trip corpus."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import fpalg
from fpalg import parse_presentation, presentation_to_text
from fpalg.cli import run

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def substituted(case):
    return [a.replace("{DIR}", str(GOLDEN)) for a in case["argv"]]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case):
    code, out, _ = run_cli(substituted(case))
    assert code == case["exit"]
    expected = (GOLDEN / f"{case['name']}.out").read_text()
    assert out == expected


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_determinism_across_runs(case):
    first = run_cli(substituted(case))
    second = run_cli(substituted(case))
    assert first == second


def test_every_verb_covered():
    from fpalg.cli import _VERBS

    seen = {case["argv"][0] for case in CASES}
    assert seen == set(_VERBS)


def test_deeply_nested_scalar_is_a_parse_error():
    deep = "(" * 1000 + "1" + ")" * 1000
    code, out, err = run_cli(["aalpha-iso", "--alpha", deep, "--beta", "1"])
    assert code == 1
    assert out == ""
    assert err.startswith("parse error:")
    assert "Traceback" not in err


def test_type_error_in_a_handler_propagates(monkeypatch):
    # a TypeError is a programming error, not a user error: no exit 2
    from fpalg import cli

    def broken(args):
        raise TypeError("handler bug")

    monkeypatch.setitem(cli._VERBS, "print", (broken, *cli._VERBS["print"][1:]))
    with pytest.raises(TypeError, match="handler bug"):
        run_cli(["print", "--file", str(GOLDEN / "inputs" / "aalpha_t.alg")])


def test_aalpha_iso_rechecks_its_witness(monkeypatch):
    # a wrong witness must not be printed as ISO; the handler reads
    # iso_witness from fpalg.aalpha when it runs
    from fpalg import aalpha

    def wrong(alpha, beta):
        x1 = fpalg.NCPoly.gen(alpha.field, 2, 0)
        return (x1, x1)

    monkeypatch.setattr(aalpha, "iso_witness", wrong)
    code, out, err = run_cli(["aalpha-iso", "--alpha", "t", "--beta=-t"])
    assert code == 2
    assert "ISO" not in out
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "--file", "{PATH}"],
        ["full", "--base", "{PATH}", "--n", "2", "--elem", "e11", "--maxdeg", "1"],
    ],
    ids=["file", "base"],
)
def test_unreadable_input_path_is_an_error(argv, tmp_path):
    # a directory exists but cannot be read as a file: exit 2, as a missing file
    code, out, err = run_cli([a.replace("{PATH}", str(tmp_path)) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, verdict",
    [
        (["idem", "--n", "1000", "--check", "e1_1", "--maxdeg", "-1"], "idempotent"),
        (["full", "--n", "1000", "--elem", "e1_1", "--maxdeg", "-1"], "fullness"),
        (["corner", "--n", "1000", "--elem", "e1_1", "--upto", "-1"], "corner"),
    ],
    ids=["idem", "full", "corner"],
)
def test_negative_degree_fails_before_the_matrix_names(argv, verdict, monkeypatch):
    # the n^2 + k generator names of M_n are never built for a negative degree
    reads = []
    real = fpalg.MatrixPresentation.generators

    def generators(MP):
        reads.append(MP.n)
        return real.fget(MP)

    monkeypatch.setattr(fpalg.MatrixPresentation, "generators", property(generators))
    code, out, err = run_cli(argv)
    assert (code, out, err) == (2, "", f"error: {verdict} degree must be >= 0\n")
    assert reads == []


MATRIX_ELEMENT_CASES = [c for c in CASES if c["argv"][0] in ("idem", "full", "corner")]


@pytest.mark.parametrize("case", MATRIX_ELEMENT_CASES, ids=[c["name"] for c in MATRIX_ELEMENT_CASES])
def test_matrix_verbs_never_list_the_generator_names(case, monkeypatch):
    # names are resolved by their spelling and the certificate names only
    # the letters it prints, so no verb builds the n^2 + k names
    def generators(MP):
        raise AssertionError(f"M_{MP.n} generator names built")

    monkeypatch.setattr(fpalg.MatrixPresentation, "generators", property(generators))
    code, out, _ = run_cli(substituted(case))
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.out").read_text()


def test_a_unit_at_n_1000_costs_no_names(monkeypatch):
    reads = []
    monkeypatch.setattr(
        fpalg.MatrixPresentation, "generators", property(lambda MP: reads.append(MP.n))
    )
    argv = ["idem", "--n", "1000", "--check", "e1_1 - e1000_1000 + e1000_1000", "--maxdeg", "2"]
    assert run_cli(argv) == (0, "idempotent\n", "")
    assert run_cli(["idem", "--n", "1000", "--check", "e11", "--maxdeg", "2"]) == (
        1, "", "parse error: line 1, column 1: undeclared generator 'e11'\n"
    )
    assert reads == []


# Runs every golden case through fpalg.cli.run in one fresh interpreter and
# prints (exit code, stdout, stderr) per case as JSON.
_GOLDEN_RUNNER = """
import contextlib, io, json, sys
from fpalg.cli import run
results = []
for argv in json.loads(sys.stdin.read()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _golden_in_subprocess(hash_seed):
    src = pathlib.Path(fpalg.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _GOLDEN_RUNNER],
        input=json.dumps([substituted(case) for case in CASES]).encode(),
        env=env,
        capture_output=True,
        timeout=300,
        check=True,
    )
    return proc.stdout


def test_golden_bytes_independent_of_hash_seed():
    first, second = _golden_in_subprocess(0), _golden_in_subprocess(1)
    assert first == second
    for case, (code, out, _) in zip(CASES, json.loads(first), strict=True):
        assert code == case["exit"], case["name"]
        assert out == (GOLDEN / f"{case['name']}.out").read_text(), case["name"]


@pytest.mark.parametrize(
    "path", sorted((GOLDEN / "inputs").glob("*.alg")), ids=lambda p: p.name
)
def test_parse_print_roundtrip(path):
    P = parse_presentation(path.read_text())
    printed = presentation_to_text(P)
    assert parse_presentation(printed) == P
    # printing is a fixpoint
    assert presentation_to_text(parse_presentation(printed)) == printed


# Runs every golden case through fpalg.cli.run in one fresh interpreter and
# prints the first step after which sympy is loaded, or null.
_SYMPY_PROBE = """
import contextlib, io, json, sys
import fpalg
loaded = "import fpalg" if "sympy" in sys.modules else None
from fpalg.cli import run
for name, argv in json.loads(sys.stdin.read()):
    if loaded:
        break
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        run(argv)
    if "sympy" in sys.modules:
        loaded = name
print(json.dumps(loaded))
"""


def test_no_cli_verb_imports_sympy():
    # sympy is a test dependency only: no verb loads it
    assert {"Q", "Q(t1)"} <= {
        str(parse_presentation(p.read_text()).field)
        for p in (GOLDEN / "inputs").glob("*.alg")
    }
    src = pathlib.Path(fpalg.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    cases = [[case["name"], substituted(case)] for case in CASES]
    proc = subprocess.run(
        [sys.executable, "-c", _SYMPY_PROBE],
        input=json.dumps(cases).encode(),
        env=env,
        capture_output=True,
        timeout=300,
        check=True,
    )
    assert json.loads(proc.stdout) is None
