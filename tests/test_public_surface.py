"""The package surface that the benchmark harness relies on.

perfbench/ imports fpalg names by hand and its tracer rebinds fpalg
functions and methods by name, so removing or renaming one of them would
break the benchmark without failing any engine test.  These checks read the
harness files themselves.  The last test pins the value contract of the
public records: keyword construction, equality, hashing and immutability.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import types

import pytest

import fpalg
from fpalg import (
    CongruenceDecision,
    CongruenceWitness,
    FieldAutomorphism,
    FieldSpec,
    FullnessVerdict,
    GenerationVerdict,
    MatrixPresentation,
    MembershipVerdict,
    ModScalar,
    NormalForm,
    Presentation,
    TruncatedGB,
    groebner,
    parse_presentation,
)

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

PUBLIC_NAMES = [
    "CongruenceDecision",
    "CongruenceWitness",
    "DegreeBudgetError",
    "FieldAutomorphism",
    "FieldSpec",
    "FullnessVerdict",
    "GenerationVerdict",
    "MatrixPresentation",
    "MembershipVerdict",
    "MismatchError",
    "ModScalar",
    "NCPoly",
    "NormalForm",
    "ParseError",
    "Presentation",
    "Scalar",
    "TruncatedGB",
    "apply_automorphism",
    "canonicalize",
    "compose",
    "congruence_check",
    "corner_filtered_dims",
    "decide_form_congruence",
    "deglex_key",
    "filtered_dimension",
    "form_of",
    "graded_dimension",
    "groebner",
    "hilbert_series",
    "ideal_membership",
    "invert",
    "is_full_idempotent",
    "is_generating",
    "is_over_subfield",
    "iso_aalpha",
    "iso_witness",
    "make_aalpha",
    "matrix_presentation",
    "normal_form",
    "orbit_sample",
    "parse_automorphism",
    "parse_poly",
    "parse_presentation",
    "parse_scalar",
    "presentation_to_text",
    "search_iso_degree2",
    "transcendental_support",
    "twist",
    "verify_fullness_certificate",
    "verify_idempotent",
    "verify_iso_witness",
]


def _fpalg_imports(path):
    """(module, name) for every `from fpalg... import name` in a file."""
    tree = ast.parse(path.read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == "fpalg" or node.module.startswith("fpalg.")
        ):
            out.extend((node.module, alias.name) for alias in node.names)
    return out


def test_public_names_are_pinned():
    names = sorted(
        n for n in dir(fpalg)
        if not n.startswith("_") and not isinstance(getattr(fpalg, n), types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_workload_imports_exist():
    imports = _fpalg_imports(PERFBENCH / "workloads.py")
    assert {module for module, _ in imports} == {"fpalg", "fpalg.syntax"}
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for targets in tracer.FUNCTIONS.values():
        for home, attr in targets:
            assert callable(getattr(importlib.import_module(home), attr, None)), f"{home}.{attr}"
    for targets in tracer.METHODS.values():
        for home, cls_name, attr in targets:
            cls = getattr(importlib.import_module(home), cls_name)
            # the tracer patches only methods the class itself defines
            assert attr in vars(cls), f"{home}.{cls_name}.{attr}"


def _fpalg_calls(path):
    """(line, callee, positional count, keyword names) for every call in a
    file of an fpalg name it imports, or of an attribute of one such as
    Scalar.from_int."""
    imported = {name: module for module, name in _fpalg_imports(path)}
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            callee = getattr(importlib.import_module(imported[func.id]), func.id)
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in imported
        ):
            owner = getattr(importlib.import_module(imported[func.value.id]), func.value.id)
            callee = getattr(owner, func.attr, None)
            assert callee is not None, f"line {node.lineno}: {func.value.id}.{func.attr}"
        else:
            continue
        # the harness spells out every argument; a starred one would hide its count
        assert not any(isinstance(a, ast.Starred) for a in node.args), node.lineno
        assert all(k.arg is not None for k in node.keywords), node.lineno
        out.append((node.lineno, callee, len(node.args), [k.arg for k in node.keywords]))
    return out


def test_workload_calls_bind():
    calls = _fpalg_calls(PERFBENCH / "workloads.py")
    assert len(calls) > 50
    for line, callee, positional, keywords in calls:
        signature = inspect.signature(callee)
        try:
            signature.bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError(f"workloads.py line {line}: {callee.__qualname__}{signature}: {exc}")


# -- records ---------------------------------------------------------------------

_Q, _QT = FieldSpec(0), FieldSpec(1)
_P = parse_presentation("algebra A over Q generators x1 x2 relations { x1*x2 = 0; }")
_REL = _P.relations[0]
_GB = groebner(_P, 3)
_SIGMA = FieldAutomorphism.affine(_QT, 0, 2, 1)
_ONE = ((1, 0), (0, 1))

# (record, keyword arguments, fields equality ignores, defaults of the
#  arguments left out, arguments the constructor rejects)
RECORDS = [
    (FieldSpec, {"num_generators": 2}, (), {"num_generators": 0},
     [{"num_generators": -1}]),
    (FieldAutomorphism, {"field": _QT, "forward": _SIGMA.forward, "backward": _SIGMA.backward},
     (), {}, []),
    (ModScalar, {"value": 3, "modulus": 7}, (), {}, [{"value": 1, "modulus": 9}]),
    (Presentation, {"field": _Q, "generators": ("x1", "x2"), "relations": (_REL,), "name": "B"},
     ("name",), {"name": "A"},
     [{"field": _Q, "generators": ("x1", "x2"), "relations": (_REL - _REL,)},
      {"field": _Q, "generators": ("x1", "x1"), "relations": ()}]),
    (TruncatedGB, {"field": _Q, "num_gens": 2, "basis": _GB.basis, "complete_to": 3,
                   "_index": _GB.entries()}, ("_index",), {}, []),
    (MembershipVerdict, {"member": False, "exact": True, "bound": 4}, (), {}, []),
    (GenerationVerdict, {"generating": True, "bound": 2}, (), {}, []),
    (MatrixPresentation, {"base": _P, "n": 2}, ("field", "num_gens"), {},
     [{"base": _P, "n": 0}]),
    (FullnessVerdict, {"full": True, "bound": 3, "certificate": ()}, (), {"certificate": None},
     []),
    (CongruenceWitness, {"q": _ONE, "gamma": 1}, (), {},
     [{"q": ((1, 1), (1, 1)), "gamma": 1}, {"q": _ONE, "gamma": 0}]),
    (CongruenceDecision,
     {"congruent": True, "witness": CongruenceWitness(_ONE, 1), "certificate": None},
     (), {"witness": None, "certificate": None}, []),
    (NormalForm, {"poly": _REL, "verified": True}, (), {}, []),
]


@pytest.mark.parametrize(
    "record, kwargs, ignored, defaults, rejected", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_records_are_immutable_values(record, kwargs, ignored, defaults, rejected):
    a, b = record(**kwargs), record(**kwargs)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != object()
    for name, value in kwargs.items():
        assert getattr(a, name) is value
    kept = {k: v for k, v in kwargs.items() if k not in defaults}
    for name, value in defaults.items():
        assert getattr(record(**kept), name) == value
    for name in [next(iter(kwargs)), "not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, next(iter(kwargs)))
    for bad in rejected:
        with pytest.raises(ValueError):
            record(**bad)
    # the repr names every field but the private ones, arguments first
    shown = [name for name in dict.fromkeys([*kwargs, *ignored]) if not name.startswith("_")]
    assert repr(a) == f"{record.__name__}({', '.join(f'{n}={getattr(a, n)!r}' for n in shown)})"
    if record is NormalForm:
        poly, verified = a
        assert (poly, verified) == a
        return
    # a field other than the stored one breaks equality exactly when compared
    for name in [*kwargs, *ignored]:
        c = record(**kwargs)
        object.__setattr__(c, name, object())
        if name in ignored:
            assert c == a and hash(c) == hash(a)
        else:
            assert c != a
