"""List the src/fpalg statements that no golden or workload traffic reaches.

Runs, in this process under sys.settrace: every golden CLI case through
fpalg.cli.run; the graded, morita and family op lists of perfbench at seeds
101, 7 and 3, each op run and its output checked; and the seeded CLI argv
lists at the same seeds.  Prints `path:line: statement` for every statement
of src/fpalg (docstrings excluded) whose lines were never executed, then
the count of those per module and in total on stderr, and exits 1 if an
op's check fails.  Usage: python tests/traffic_lines.py
"""

import ast
import contextlib
import io
import json
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fpalg"
SEEDS = (101, 7, 3)
hit = set()


def trace(frame, event, arg):
    if frame.f_code.co_filename.startswith(str(SRC)):
        hit.add((frame.f_code.co_filename, frame.f_lineno))
        return trace
    return None


def statements(path):
    """(first line, last line, first line's text) of every statement in the
    file but docstrings: a compound statement counts by its header line, a
    simple one by any of its lines."""
    text = path.read_text()
    source = text.splitlines()
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.stmt) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        last = node.lineno if hasattr(node, "body") else node.end_lineno
        yield node.lineno, last, source[node.lineno - 1].strip()


def run_cli(argv):
    from fpalg.cli import run
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            run(argv)
        except SystemExit:  # an argv that argparse refuses
            pass


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    sys.settrace(trace)  # before any import, so module bodies count too
    from workloads import _cli_seeded, build_ops
    golden = ROOT / "tests" / "golden"
    for case in json.loads((golden / "cases.json").read_text()):
        run_cli([a.replace("{DIR}", str(golden)) for a in case["argv"]])
    failed = []
    for seed in SEEDS:
        for name in ("graded", "morita", "family"):
            for op in build_ops(name, seed):
                if not op.check(op.run()):
                    failed.append(f"{name} seed {seed}: {op.describe()}")
        with tempfile.TemporaryDirectory() as work_dir:
            for _, argv, _ in _cli_seeded(random.Random(f"cli:{seed}"), Path(work_dir)):
                run_cli(argv)
    sys.settrace(None)
    unreached = Counter()
    for path in sorted(SRC.glob("*.py")):
        for first, last, text in sorted(statements(path)):
            if not any((str(path), line) in hit for line in range(first, last + 1)):
                print(f"{path.relative_to(ROOT)}:{first}: {text}")
                unreached[path.stem] += 1
    for failure in failed:
        print(f"check failed: {failure}", file=sys.stderr)
    for module, count in sorted(unreached.items()):
        print(f"unreached in {module}: {count}", file=sys.stderr)
    print(f"unreached in total: {unreached.total()}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
