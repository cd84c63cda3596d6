"""What a CLI process loads and parses before its verdict.

`import fpalg` executes no submodule, each verb loads only the engine
modules it calls, and the parser of a command line that names a verb holds
that verb's subparser alone, which must read exactly as it does in the
full parser.  Option values that begin with '-' are read as values.
"""

import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import fpalg
from fpalg import cli
from fpalg.cli import run

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
SRC = pathlib.Path(fpalg.__file__).resolve().parents[1]

ENGINES = {"fpalg.rewrite", "fpalg.morita", "fpalg.aalpha"}
# verb -> engine modules its run may not load
NOT_LOADED = {
    "parse": ENGINES,
    "print": ENGINES,
    "support": ENGINES,
    "canonicalize": ENGINES,
    "twist": ENGINES,
    "gb": {"fpalg.morita", "fpalg.aalpha"},
    "nf": {"fpalg.morita", "fpalg.aalpha"},
    "member": {"fpalg.morita", "fpalg.aalpha"},
    "hilbert": {"fpalg.morita", "fpalg.aalpha"},
    "generates": {"fpalg.morita", "fpalg.aalpha"},
    "aalpha-iso": {"fpalg.morita"},
    "aalpha-oracle": {"fpalg.morita"},
    "aalpha-orbit": {"fpalg.morita"},
    "matrix": {"fpalg.aalpha"},
    "idem": {"fpalg.aalpha"},
    "full": {"fpalg.aalpha"},
    "corner": {"fpalg.aalpha"},
}

# Standard modules no fpalg module or verb needs: `dataclasses` alone loads
# `inspect`, `ast`, `dis` and `tokenize`, at a cost every CLI process paid.
UNUSED_STDLIB = {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"}

# Prints, as JSON, the fpalg modules loaded after `import fpalg`, every module
# loaded after importing the modules named on stdin and running run(argv) of
# the argv on stdin (when it is not null), and the exit code, in one fresh
# interpreter.  It starts with -S, because a site hook may preload `typing`.
_LOAD_PROBE = """
import contextlib, io, json, sys
import fpalg
after_import = sorted(m for m in sys.modules if m.startswith("fpalg."))
modules, argv = json.loads(sys.stdin.read())
for name in modules:
    __import__(name)
code = None
if argv is not None:
    from fpalg.cli import run
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
print(json.dumps([after_import, sorted(sys.modules), code]))
"""


def _loaded(argv, modules=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _LOAD_PROBE],
        input=json.dumps([list(modules), argv]).encode(),
        env=env,
        capture_output=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def _first_case(verb):
    case = next(c for c in CASES if c["argv"][0] == verb and c["exit"] == 0)
    return [a.replace("{DIR}", str(GOLDEN)) for a in case["argv"]]


def test_the_pins_cover_every_verb():
    assert set(NOT_LOADED) == set(cli._VERBS)


@pytest.mark.parametrize("verb", sorted(NOT_LOADED))
def test_a_verb_loads_only_its_engines(verb):
    after_import, after_run, code = _loaded(_first_case(verb))
    assert after_import == []
    assert code == 0
    assert "fpalg.cli" in after_run
    assert not NOT_LOADED[verb] & set(after_run)
    assert not UNUSED_STDLIB & set(after_run)


def test_no_fpalg_module_loads_the_unused_stdlib():
    modules = sorted(f"fpalg.{p.stem}" for p in (SRC / "fpalg").glob("*.py") if p.stem != "__init__")
    _, loaded, _ = _loaded(None, modules)
    assert [m for m in loaded if m.startswith("fpalg.")] == modules
    assert not UNUSED_STDLIB & set(loaded)


def test_star_import_binds_the_public_names():
    from test_public_surface import PUBLIC_NAMES

    namespace = {}
    exec("from fpalg import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC_NAMES
    assert sorted(fpalg.__all__) == PUBLIC_NAMES


# Eight threads read every public name of a freshly imported fpalg at once,
# with a short switch interval; prints whether each name resolved to one object.
_THREAD_PROBE = """
import sys, threading
sys.setswitchinterval(1e-6)
import fpalg
seen = [[] for _ in range(8)]
start = threading.Barrier(8)
def read(out):
    start.wait()
    out.extend(getattr(fpalg, name) for name in fpalg.__all__)
threads = [threading.Thread(target=read, args=(out,)) for out in seen]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
assert not any(t.is_alive() for t in threads)
print(all(len(out) == len(fpalg.__all__) for out in seen)
      and all(all(a is b for a, b in zip(out, seen[0])) for out in seen))
"""


def test_first_reads_from_many_threads_agree():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True, timeout=120, check=True
    )
    assert proc.stdout == b"True\n"


def test_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'groebner_basis'"):
        fpalg.groebner_basis  # noqa: B018


def test_degree_budget_error_has_one_home():
    from fpalg import morita, scalars

    assert fpalg.DegreeBudgetError is morita.DegreeBudgetError is scalars.DegreeBudgetError


# -- the parser ----------------------------------------------------------------


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _subparser(parser, verb):
    return _subparsers(parser).choices[verb]


@pytest.fixture
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("verb", list(cli._VERBS))
def test_a_verb_alone_parses_and_reads_as_in_the_full_parser(verb, columns):
    alone = cli._build_parser(verb)
    full = cli._build_parser()
    assert _subparser(alone, verb).format_help() == _subparser(full, verb).format_help()
    assert _subparser(alone, verb).format_usage() == _subparser(full, verb).format_usage()
    # the top-level usage, which argparse prints for unrecognized arguments
    assert alone.format_usage() == full.format_usage()
    options = [s for a in _subparser(full, verb)._actions for s in a.option_strings]
    assert options == ["-h", "--help", *cli._options(verb)]


@pytest.mark.parametrize(
    "argv, verb",
    [(["nf", "--help"], "nf"), ([], None), (["--help"], None), (["no-such-verb"], None),
     (["--emit", "nf"], None)],
    ids=["verb", "empty", "help", "unknown", "option-first"],
)
def test_only_a_named_verb_is_built(argv, verb, monkeypatch):
    built = []
    real = cli._build_parser

    def spy(*args):
        parser = real(*args)
        built.append(list(_subparsers(parser).choices))
        return parser

    monkeypatch.setattr(cli, "_build_parser", spy)
    _exit_of(argv)
    assert built == [[verb] if verb else list(cli._VERBS)]


def _exit_of(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_top_level_help_is_unchanged(columns):
    code, out, _ = _exit_of(["--help"])
    assert code == 0
    assert out == (GOLDEN / "fpalg-help.txt").read_text()


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: verb"),
        (["no-such-verb"], "argument verb: invalid choice: 'no-such-verb'"),
        (["print", "--pres", "", "--bogus"], "unrecognized arguments: --bogus"),
    ],
    ids=["no-verb", "unknown-verb", "unknown-option"],
)
def test_usage_errors_are_unchanged(argv, message, columns):
    code, out, err = _exit_of(argv)
    assert (code, out) == (2, "")
    assert err.startswith((GOLDEN / "fpalg-help.txt").read_text().split("\n\n")[0] + "\n")
    assert message in err


# -- option values that begin with '-' ------------------------------------------

NF = ["nf", "--pres", "algebra A over Q generators x1 x2 relations { x1*x2 = 0; }", "--maxdeg", "3"]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (NF + ["--expr", "-x2*x1"], "-x2*x1\n"),
        (NF + ["--ex", "-x2*x1"], "-x2*x1\n"),
        (NF + ["--expr", "-x1*x2 + x2"], "x2\n"),
        (NF + ["--expr", "-1"], "-1\n"),
        (NF + ["--expr", "-"], None),
        (["aalpha-iso", "--alpha", "-t", "--beta", "-t"], "ISO\n"),
    ],
    ids=["expr", "prefix", "sum", "number", "bare-dash", "alpha-and-beta"],
)
def test_a_value_may_begin_with_a_dash(argv, expected):
    code, out, err = _exit_of(argv)
    if expected is None:
        assert (code, out) == (1, "")
        assert err.startswith("parse error:")
    else:
        assert code == 0
        assert out.startswith(expected)


@pytest.mark.parametrize(
    "argv",
    [
        NF + ["--expr", "-h"],
        NF + ["--expr", "--help"],
        NF + ["--expr", "--emit", "data"],
        NF + ["--e", "-x1"],
        NF + ["--expr"],
    ],
    ids=["short-help", "long-help", "option-after-option", "ambiguous-prefix", "no-value"],
)
def test_options_keep_their_meaning(argv):
    # argparse rejects each of these as it did before values could begin with '-'
    code, out, err = _exit_of(argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: fpalg nf")


def test_dash_values_glue_only_after_an_option():
    argv = ["aalpha-iso", "--alpha", "t", "-t", "--beta", "-t", "--k", "-1"]
    assert cli._dash_values(argv, "aalpha-iso") == [
        "aalpha-iso", "--alpha", "t", "-t", "--beta=-t", "--k=-1"
    ]
    # without a named verb there are no options to glue to
    assert cli._dash_values(["--beta", "-t"], None) == ["--beta", "-t"]
