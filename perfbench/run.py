"""fpalg benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload graded --seed 1 --seconds 20 --trace 0

Workloads: graded, morita, family, cli (see workloads.py for what each
stresses and why).  With --trace 0 the run reports the end-to-end metrics,
with --trace 1 the per-layer metrics of a separate traced run.  The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the lines before it carry the environment record and the
sample counts behind the latency percentiles.

setup_s is the time from starting a fresh interpreter to the first timed op
(importing fpalg and sympy, building the seeded inputs).  It is measured on
SETUP_PROBES set-up-only processes and the median is reported.  Like every
timing of the untraced run it is given at reference speed (calibrate.py):
each probe is scaled by fresh-process reference samples taken just before
and just after it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("graded", "morita", "family", "cli")
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170
# Hash randomisation changes set and dict iteration inside sympy, and with it
# the work done; fixing it keeps runs of one commit comparable.
HASH_SEED = "0"

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def worker_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def start_worker(args, extra=()):
    """Start a worker; returns (process, seconds until it printed READY)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready_s = perf_counter() - t0
    if line.strip() != "READY":
        finish(proc)
        raise RuntimeError(f"worker set-up failed (exit {proc.returncode})")
    return proc, ready_s


def finish(proc):
    """Wait for a worker and return its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    return out


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fpalg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, worker_env_record):
    env = {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
    }
    env.update(worker_env_record)
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/fpalg/__init__.py", "tests/randgen.py", "tests/span_oracle.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: run from the root of an fpalg checkout; missing {missing}", file=sys.stderr)
        return 2

    calibrate.pin_to_one_cpu()
    setup_samples = []
    setup_raw = []
    if not args.trace:
        speed = calibrate.SpeedTrack(lambda: calibrate.process_sample(worker_env()))
        speed.tick()
        for _ in range(SETUP_PROBES):
            proc, ready_s = start_worker(args, ["--setup-only"])
            finish(proc)
            setup_raw.append(ready_s)
            setup_samples.append(ready_s * speed.scale(speed.tick() - 1))
    proc, _ = start_worker(args)
    out = finish(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])

    attempted, failed = result["attempted"], result["failed"]
    report = {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else None,
        "failure_reasons": result["failure_reasons"],
        "ops_in_list": result["ops_in_list"],
    }
    if args.trace:
        metrics = result["per_layer"]
        report.update({k: result[k] for k in ("traced_s", "untraced_s", "spans")})
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "verdicts_per_s": result["verdicts_per_s"],
            "verdict_p50_ms": result["p50_s"] * 1e3,
            "verdict_p90_ms": result["p90_s"] * 1e3,
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        report.update({
            "setup_samples_s": setup_samples,
            "setup_raw_s": setup_raw,
            "raw": result["raw"],
            "speed_mean": result["speed_mean"],
            "speed_samples": result["speed_samples"],
            "latency_samples": result["samples"],
            "ops_timed": result["ops_timed"],
            "ops_above_p90": result["ops_above_p90"],
            "samples_above_p90": result["samples_above_p90"],
            "check_s": result["check_s"],
        })
    print(json.dumps({"environment": environment(args, result["env"])}))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
