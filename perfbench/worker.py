"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py from the root of a checkout.  It imports fpalg from src/,
builds the seeded op list, prints READY (the end of set-up), then runs the
ops back to back in a closed loop with one client until the time is up, and
checks every output after the timed phase.  Untraced, a reference sample
(calibrate.py) is taken before each op and after the last, and the latencies
are reported at reference speed next to the raw ones.  The last stdout line
is a JSON object with the measurements.

With --trace 1 the loop runs with tracer.Tracer installed, and the same op
sequence is then replayed untraced: the replay gives the tracing overhead
and must produce identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_work"


def closed_loop(ops, seconds, before_op=None, speed=None):
    """Run ops round-robin, one at a time, until `seconds` have passed.

    Returns the runs as (op index, output, error), the op latencies and, with
    a calibrate.SpeedTrack, each op's mark in it (else None).  Only the first
    output of each op is kept: a later run of the same op is compared with it
    between ops, outside the op's latency, so memory does not grow with the
    number of runs.  A run whose output differs carries the error "output
    changed between runs".
    """
    runs = []
    latencies = []
    marks = [] if speed is not None else None
    first = {}
    deadline = perf_counter() + seconds
    k = 0
    while perf_counter() < deadline:
        idx = k % len(ops)
        if before_op is not None:
            before_op(k)
        if speed is not None:
            marks.append(speed.tick())
        t0 = perf_counter()
        try:
            out, err = ops[idx].run(), None
        except Exception as exc:  # an op that raises is a failed op
            out, err = None, f"{type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        if err is None:
            if idx not in first:
                first[idx] = out
            elif out != first[idx]:
                err = "output changed between runs"
            out = first[idx]
        runs.append((idx, out, err))
        k += 1
    if speed is not None:
        speed.tick()  # a sample after the last op
    return runs, latencies, marks


def replay(ops, runs):
    """Run the op sequence of a traced phase again, untraced; returns the
    number of outputs that differ from the traced ones and the op time."""
    differ = 0
    busy = 0.0
    for idx, out, err in runs:
        t0 = perf_counter()
        try:
            again = ops[idx].run()
        except Exception:  # counted as a difference below
            again = None
        busy += perf_counter() - t0
        differ += err is None and again != out
    return differ, busy


def check_runs(ops, runs):
    """Failed-run count and the reasons: an exception or changed output
    recorded by the loop, or a failed independent check of the op."""
    verdict = {}
    failed = 0
    reasons = []
    for idx, out, err in runs:
        if err is None and idx not in verdict:
            try:
                verdict[idx] = bool(ops[idx].check(out))
            except Exception as exc:  # a check that cannot run is a failed check
                verdict[idx] = False
                err = f"check raised {type(exc).__name__}: {exc}"
            if not verdict[idx] and err is None:
                err = "wrong answer"
        if err is not None or not verdict[idx]:
            failed += 1
            if err is not None and len(reasons) < 20:
                reasons.append(f"{ops[idx].kind}#{idx}: {err}")
    return failed, reasons


def smoothed_quantile(values, q):
    """Quantile q of sorted values, as the mean of the values ranked within
    a fifth of the smaller tail on either side of q*(n-1): 0.4 to 0.6 for the
    median, 0.88 to 0.92 for p90.

    With a few dozen ops a bare order statistic jumps between neighbouring
    ops whose costs differ by tens of percent; the mean of its neighbours
    does not, and the window stays clear of the extremes.
    """
    n = len(values)
    centre = round(q * (n - 1))
    k = min(max(1, round(n * min(q, 1 - q) / 5)), centre, n - 1 - centre)
    return statistics.fmean(values[centre - k: centre + k + 1])


def mix_stats(runs, latencies):
    """Throughput and latency of the op mix, every op of the list weighted
    equally, so the partial cycle a run ends in does not shift the mix.

    An op's latency is the median of its runs; verdicts_per_s is the rate of
    a closed loop running each op once at its mean latency.
    """
    by_op = {}
    for (idx, _, _), t in zip(runs, latencies):
        by_op.setdefault(idx, []).append(t)
    typical = sorted(statistics.median(ts) for ts in by_op.values())
    p90 = smoothed_quantile(typical, 0.9)
    above = [idx for idx, ts in by_op.items() if statistics.median(ts) > p90]
    return {
        "samples": len(latencies),
        "ops_timed": len(by_op),
        "verdicts_per_s": len(by_op) / sum(statistics.fmean(ts) for ts in by_op.values()),
        "p50_s": smoothed_quantile(typical, 0.5),
        "p90_s": p90,
        "ops_above_p90": len(above),
        "samples_above_p90": sum(len(by_op[idx]) for idx in above),
    }


def environment():
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {
        "python": sys.version.split()[0],
        "sympy": sympy.__version__,
        "sympy_ground_types": GROUND_TYPES,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def per_op(summary, n_ops):
    """Per-layer metrics, each normalised by the number of ops traced."""
    layers = summary["layers"]
    metrics = {}
    for name, rec in layers.items():
        metrics[f"{name}.calls"] = (rec["calls"] / n_ops, "count/op")
        metrics[f"{name}.self_s"] = (rec["self_s"] / n_ops, "s/op")
    g = layers["rewrite.groebner"]
    metrics["rewrite.groebner.total_s"] = (g["total_s"] / n_ops, "s/op")
    metrics["rewrite.groebner.basis_len"] = (summary["groebner_basis_len"] / n_ops, "count/op")
    metrics["rewrite.groebner.distinct_ratio"] = (
        summary["groebner_distinct"] / g["calls"] if g["calls"] else 0.0, "ratio")
    metrics["rewrite.reduce_by_entries.terms_in"] = (summary["reduce_terms_in"] / n_ops, "count/op")
    s = layers["rewrite.span_add"]
    metrics["rewrite.span_add.grew_ratio"] = (
        summary["span_add_grew"] / s["calls"] if s["calls"] else 0.0, "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import_t0 = perf_counter()
    import fpalg.cli  # noqa: F401  (what a fresh CLI process imports)

    import_s = perf_counter() - import_t0
    import calibrate
    import workloads
    # one scratch directory per workload, emptied by every run of it
    work_dir = WORK_DIR / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    runner = workloads.CliRunner(work_dir)
    ops = workloads.build_ops(args.workload, args.seed, runner, work_dir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {"env": environment(), "ops_in_list": len(ops)}
    if not args.trace:
        if args.workload == "cli":
            speed = calibrate.SpeedTrack(lambda: calibrate.process_sample(runner.env))
        else:
            speed = calibrate.SpeedTrack()
        runs, raw, marks = closed_loop(ops, args.seconds, speed=speed)
        latencies = [t * speed.scale(m) for t, m in zip(raw, marks)]
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        result.update(mix_stats(runs, latencies))
        result["raw"] = {k: v for k, v in mix_stats(runs, raw).items()
                         if k in ("verdicts_per_s", "p50_s", "p90_s")}
        result["speed_samples"] = len(speed.samples)
        result["speed_mean"] = speed.mean()
        check_t0 = perf_counter()
        failed, reasons = check_runs(ops, runs)
        result["check_s"] = perf_counter() - check_t0
    else:
        from tracer import Tracer, merge_summaries

        tracer = Tracer()
        tracer.install(callers=[workloads])
        runner.traced = True

        def mark(k):
            tracer.op_id = k

        runs, traced_latencies, _ = closed_loop(ops, args.seconds, mark)
        traced_s = sum(traced_latencies)
        tracer.uninstall()
        runner.traced = False
        mismatched, untraced_s = replay(ops, runs)
        check_t0 = perf_counter()
        failed, reasons = check_runs(ops, runs)
        check_s = perf_counter() - check_t0
        failed += mismatched
        if mismatched:
            reasons.append(f"{mismatched} traced outputs differ from the untraced replay")
        if args.workload == "cli":
            stats = [json.loads(p.read_text()) for p in runner.stats_paths]
            summary = merge_summaries(s["summary"] for s in stats)
            import_samples = [s["import_s"] for s in stats]
            process_samples = traced_latencies
            span_count = sum(s["spans"] for s in stats)
        else:
            summary = tracer.summary()
            import_samples = [import_s]
            process_samples = []
            span_count = tracer.span_count()
            tracer.write(work_dir / "spans.bin")
        n_ops = len(runs)
        metrics = per_op(summary, n_ops)
        metrics["cli.import_s"] = (statistics.median(import_samples), "s")
        metrics["cli.process_s"] = (
            sum(process_samples) / n_ops if process_samples else 0.0, "s/op")
        metrics["oracle.check_s"] = (check_s, "s")
        metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["traced_s"] = traced_s
        result["untraced_s"] = untraced_s
        result["spans"] = span_count
    result["attempted"] = len(runs)
    result["failed"] = failed
    result["failure_reasons"] = reasons
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
