"""fpalg runs on the standard library alone; sympy is a test dependency only.

One fresh interpreter, in which every import of sympy fails, runs each golden
case through fpalg.cli.run and then the forced exact-gcd arithmetic of
tests/test_zpoly.py.  An AST walk checks that no module under src/fpalg/
imports sympy, not even inside a function.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import fpalg

TESTS = pathlib.Path(__file__).resolve().parent
SRC = pathlib.Path(fpalg.__file__).resolve().parent
GOLDEN = TESTS / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())

# Prints, as JSON: (exit code, stdout) per golden case, then whether the
# quotient, product and sum of each gcd-heavy pair agree in value, str and
# hash with and without evaluation points, and the generator counts at which
# the exact gcd ran.
_WITHOUT_SYMPY = """
import contextlib, io, json, random, sys
sys.modules["sympy"] = None  # every import of sympy now raises ImportError
from fpalg import zpoly
from fpalg.cli import run
from randgen import gcd_heavy_pairs

golden = []
for argv in json.loads(sys.stdin.read()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    golden.append([code, out.getvalue()])

pairs = list(gcd_heavy_pairs(random.Random(19)))
heuristic = [(a / b, a * b, a + b) for a, b in pairs]
exact_ngens = set()
exact = zpoly._exact_cofactors

def counted(f, g, k):
    exact_ngens.add(k)
    return exact(f, g, k)

zpoly.HEU_GCD_MAX = 0
zpoly._exact_cofactors = counted
agree = all(
    got == want and str(got) == str(want) and hash(got) == hash(want)
    for (a, b), values in zip(pairs, heuristic)
    for got, want in zip((a / b, a * b, a + b), values)
)
print(json.dumps([golden, agree, sorted(exact_ngens)]))
"""


def test_golden_cases_and_exact_gcd_run_without_sympy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), str(TESTS), env.get("PYTHONPATH")])
    )
    argvs = [[a.replace("{DIR}", str(GOLDEN)) for a in case["argv"]] for case in CASES]
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SYMPY],
        input=json.dumps(argvs).encode(),
        env=env,
        capture_output=True,
        timeout=300,
        check=True,
    )
    golden, agree, exact_ngens = json.loads(proc.stdout)
    for case, (code, out) in zip(CASES, golden, strict=True):
        assert code == case["exit"], case["name"]
        assert out == (GOLDEN / f"{case['name']}.out").read_text(), case["name"]
    assert agree
    assert exact_ngens == [1, 2, 3, 4]


def test_no_module_imports_sympy():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "sympy" for m in modules), path.name
