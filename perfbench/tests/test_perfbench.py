"""The benchmark's own checks: determinism, checkers that catch wrong
answers, and tracing that leaves outputs unchanged."""

import dataclasses

import pytest

import calibrate
import workloads
from tracer import Tracer
from worker import check_runs

IN_PROCESS = ("graded", "morita", "family")


def first_of(ops, kind):
    return next(op for op in ops if op.kind == kind)


@pytest.fixture(scope="module")
def cli_runner(tmp_path_factory):
    return workloads.CliRunner(tmp_path_factory.mktemp("cli"))


@pytest.mark.parametrize("name", IN_PROCESS)
def test_same_seed_same_op_list(name):
    first = [(op.kind, op.describe()) for op in workloads.build_ops(name, 11)]
    again = [(op.kind, op.describe()) for op in workloads.build_ops(name, 11)]
    other = [(op.kind, op.describe()) for op in workloads.build_ops(name, 12)]
    assert first == again
    assert first != other


def test_same_seed_same_cli_op_list(tmp_path, cli_runner):
    def listing(seed, sub):
        work_dir = tmp_path / sub
        ops = workloads.build_ops("cli", seed, cli_runner, work_dir)
        return [(op.kind, op.describe().replace(str(work_dir), "DIR")) for op in ops]

    assert listing(11, "first") == listing(11, "again")
    assert listing(11, "first") != listing(12, "other")


def test_off_by_one_dimension_fails():
    op = first_of(workloads.build_ops("graded", 3), "hilbert")
    dims = op.run()
    assert op.check(dims)
    wrong = dims[:2] + (dims[2] + 1,) + dims[3:]
    assert not op.check(wrong)


def test_wrong_membership_fails():
    for op in workloads.build_ops("graded", 3):
        if op.kind == "member":
            member, exact = op.run()
            assert op.check((member, exact))
            assert not op.check((not member, exact))


def test_flipped_certificate_coefficient_fails():
    op = first_of(workloads.build_ops("morita", 3), "full")
    full, bound, certificate, reverified = op.run()
    assert op.check((full, bound, certificate, reverified))
    (words, coeff), *rest = certificate
    flipped = ((words, -coeff), *rest)
    assert not op.check((full, bound, flipped, reverified))


def test_wrong_idempotent_verdict_fails():
    for op in workloads.build_ops("morita", 3):
        if op.kind == "idem":
            verdict = op.run()
            assert op.check(verdict) and not op.check(not verdict)


def test_missing_congruence_witness_fails():
    ops = [op for op in workloads.build_ops("family", 3) if op.kind == "search"]
    found = ops[0].run()
    assert ops[0].check(found)
    assert any(w is not None for _, _, w in found)
    assert not ops[0].check(tuple((p, b, None) for p, b, _ in found))


def test_wrong_cli_exit_code_fails(tmp_path, cli_runner):
    ops = workloads.build_ops("cli", 3, cli_runner, tmp_path)
    for kind in ("cli:twist-bad-auto", "cli:print"):
        op = first_of(ops, kind)
        result = op.run()
        assert op.check(result)
        assert not op.check(dataclasses.replace(result, code=(result.code + 1) % 4))


def test_failed_check_counts_every_run_of_the_op():
    op = first_of(workloads.build_ops("graded", 3), "hilbert")
    dims = op.run()
    wrong = dims[:-1] + (dims[-1] + 1,)
    failed, reasons = check_runs([op], [(0, wrong, None), (0, wrong, None), (0, None, "boom")])
    assert failed == 3 and reasons


@pytest.mark.parametrize("name", IN_PROCESS)
def test_traced_outputs_equal_untraced(name):
    ops = workloads.build_ops(name, 5)[:12]
    plain = [op.run() for op in ops]
    tracer = Tracer()
    tracer.install(callers=[workloads])
    try:
        traced = [op.run() for op in ops]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.span_count() > 0
    assert all(op.check(out) for op, out in zip(ops, plain))


def test_traced_cli_output_equals_untraced(tmp_path, cli_runner):
    ops = workloads.build_ops("cli", 5, cli_runner, tmp_path)[:4]
    plain = [op.run() for op in ops]
    cli_runner.traced = True
    try:
        traced = [op.run() for op in ops]
    finally:
        cli_runner.traced = False
    assert traced == plain
    assert all(path.is_file() for path in cli_runner.stats_paths)


def test_uninstall_restores_every_binding():
    import fpalg
    import fpalg.morita
    import fpalg.rewrite
    from fpalg.scalars import Scalar

    before = (fpalg.groebner, fpalg.morita.groebner, fpalg.rewrite.Span.add, Scalar.__add__)
    before += (workloads.corner_filtered_dims,)
    tracer = Tracer()
    tracer.install(callers=[workloads])
    assert fpalg.morita.groebner is not before[1]
    assert fpalg.groebner is fpalg.morita.groebner is fpalg.rewrite.groebner
    assert workloads.corner_filtered_dims is fpalg.morita.corner_filtered_dims
    tracer.uninstall()
    after = (fpalg.groebner, fpalg.morita.groebner, fpalg.rewrite.Span.add, Scalar.__add__,
             workloads.corner_filtered_dims)
    assert after == before


def test_speed_track_scales_each_op_by_the_samples_around_it():
    speeds = iter([1.0, 0.5, 0.5, 0.8])
    track = calibrate.SpeedTrack(lambda: next(speeds))
    marks = [track.tick() for _ in range(3)]
    track.tick()
    assert [track.scale(m) for m in marks] == pytest.approx([0.75, 0.5, 0.65])
    assert track.mean() == pytest.approx(0.7)
