"""A spy on rewrite.groebner at every binding of it.

graded_basis calls rewrite.groebner; morita (for an inhomogeneous base),
the cli and the package hold references of their own, so the spy replaces
each binding that is the real function, and sees every completion.
"""

import fpalg
from fpalg import cli, morita, rewrite


def spy_completions(monkeypatch):
    """The (presentation, maxdeg) of every completion, in call order."""
    calls = []
    real = rewrite.groebner

    def spying(P, maxdeg):
        calls.append((P, maxdeg))
        return real(P, maxdeg)

    for module in (rewrite, morita, cli, fpalg):
        if getattr(module, "groebner", None) is real:
            monkeypatch.setattr(module, "groebner", spying)
    return calls


def degrees_of(calls):
    return [maxdeg for _, maxdeg in calls]
