"""The CLI's exit-code contract, under mutated golden argv.

Every golden case's argv is mutated under a fixed seed: an item deleted,
two neighbouring items swapped, an option's value replaced from a fixed
list, or characters of an inline text changed and the text passed as
--opt=value.  No mutation inserts a digit, merges two digit runs or moves a
value to another option, so no number grows and no run asks for a larger
degree, size or prime than its golden case.  Each run goes through
fpalg.cli.run under a 5 s alarm.  It must end with 0, 1, 2 or 3, argparse's
SystemExit(2) included, let no other exception escape, and print nothing
to stdout when it ends with 1 or 2.
"""

import contextlib
import io
import json
import pathlib
import random
import signal

import pytest

from fpalg.cli import run

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
MUTATIONS_PER_CASE = 22
SECONDS_PER_RUN = 5

VALUES = ("", "-1", "x", "1/0", "e99")
TEXT_OPTIONS = frozenset(
    ["--pres", "--expr", "--elems", "--auto", "--autos", "--check", "--elem", "--alpha", "--beta"]
)
# no digit, so no number grows; no '^', so no exponent appears
NON_DIGITS = " x*+-()/;{}=,e_tz"


def _argv(case):
    return [a.replace("{DIR}", str(GOLDEN)) for a in case["argv"]]


def _mutate_text(text, rng):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(chars) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            chars.insert(k, rng.choice(NON_DIGITS))
        elif k < len(chars):
            if kind == 1:
                chars[k] = rng.choice(NON_DIGITS)
            elif not (0 < k < len(chars) - 1 and chars[k - 1].isdigit() and chars[k + 1].isdigit()):
                del chars[k]
    return "".join(chars)


def _texts(argv):
    """(first index, last index, option) of each inline text in argv."""
    out = []
    for k, item in enumerate(argv):
        option, eq, _ = item.partition("=")
        if eq and option in TEXT_OPTIONS:
            out.append((k, k, option))
        elif item in TEXT_OPTIONS and k + 1 < len(argv):
            out.append((k, k + 1, item))
    return out


def mutations(argv, rng):
    out = []
    while len(out) < MUTATIONS_PER_CASE:
        a = list(argv)
        kind = rng.randrange(4)
        if kind == 0:
            del a[rng.randrange(len(a))]
        elif kind == 1:
            i = rng.randrange(len(a) - 1)
            a[i], a[i + 1] = a[i + 1], a[i]
        elif kind == 2:
            values = [k for k in range(1, len(a)) if a[k - 1].startswith("--")]
            if not values:
                continue
            a[rng.choice(values)] = rng.choice(VALUES)
        else:
            texts = _texts(a)
            if not texts:
                continue
            first, last, option = rng.choice(texts)
            value = a[last].split("=", 1)[1] if first == last else a[last]
            a[first : last + 1] = [f"{option}={_mutate_text(value, rng)}"]
        out.append(a)
    return out


class _Slow(Exception):
    pass


def _alarm(signum, frame):
    raise _Slow


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(SECONDS_PER_RUN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_mutated_argv_keeps_the_exit_code_contract(case):
    rng = random.Random(f"exit-codes:{case['name']}")
    for argv in mutations(_argv(case), rng):
        code, out = _run(argv)
        assert code in (0, 1, 2, 3), argv
        if code in (1, 2):
            assert out == "", argv

