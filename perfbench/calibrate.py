"""Machine-speed reference for the benchmark's timings.

On a shared virtual machine the speed of a vCPU is not steady: a fixed
pure-Python loop runs either at full speed or at about half of it, in
stretches of tens of milliseconds to minutes, and the share of time at full
speed moves between nothing and nearly all over minutes.  Raw wall times of
two runs of the same code then differ by more than any useful bound.  So
the benchmark runs on one CPU, times a fixed piece of reference work just
before and just after each piece of work it measures, and reports every
timing at reference speed:

    time at reference speed = wall time * mean(nominal time / reference time)

over the reference samples on either side of the work.  The reference work
is of the same kind as the measured work, because the slow stretches do
not slow every kind of work alike (a fresh interpreter's start-up slows by
less than a long-running loop):

  in-process ops   reference_chunk() in the measuring process: Fraction
                   arithmetic with its integer gcds, tuple keys in a dict,
                   a sort;
  fresh processes  (CLI ops, set-up probes) a fresh interpreter importing a
                   fixed set of standard-library modules.

The reference work is the benchmark's own and touches no part of fpalg, so
a change to fpalg moves the scaled times exactly as it moves the wall times;
only the speed of the machine cancels.  Raw wall times are reported next to
the scaled ones.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# Nominal times of the reference work at full speed on a 2-vCPU Intel Xeon
# virtual machine under CPython 3.11.  Fixed constants, so that scaled times
# of different runs compare.
REFERENCE_CHUNK_S = 0.78e-3
REFERENCE_PROCESS_S = 0.11
# A chunk sample is the fastest of this many back-to-back chunks, which drops
# a chunk hit by an interrupt.
CHUNK_REPS = 2
REFERENCE_IMPORTS = (
    "argparse", "dataclasses", "decimal", "email.message", "fractions",
    "http.client", "inspect", "json", "typing", "unittest",
)


def reference_chunk():
    out = 0
    for _ in range(2):
        acc = Fraction(0)
        table = {}
        for i in range(1, 120):
            acc += Fraction(i % 7 + 1, i * i + 1)
            table[(i % 13, i % 5, i)] = acc.numerator % 9973
        out += len(sorted(table, key=lambda k: (table[k], k))) + acc.denominator % 1000
    return out


def sample():
    """One in-process sample: the speed now, as REFERENCE_CHUNK_S over the
    time of a chunk (1.0 at full speed on the reference machine)."""
    best = float("inf")
    for _ in range(CHUNK_REPS):
        t0 = perf_counter()
        reference_chunk()
        best = min(best, perf_counter() - t0)
    return REFERENCE_CHUNK_S / best


def process_sample(env=None):
    """One fresh-process sample: REFERENCE_PROCESS_S over the wall time of a
    fresh interpreter importing REFERENCE_IMPORTS."""
    cmd = [sys.executable, "-c", "import " + ", ".join(REFERENCE_IMPORTS)]
    t0 = perf_counter()
    subprocess.run(cmd, env=env, capture_output=True, timeout=60, check=True)
    return REFERENCE_PROCESS_S / (perf_counter() - t0)


def pin_to_one_cpu():
    """Run this process and the processes it starts on a single CPU, so that
    the reference samples are taken where the measured work runs."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not available on this platform
        pass


class SpeedTrack:
    """A reference sample before each op and one after the last.

    Call tick() just before each op and keep what it returns; scale(mark)
    is then the speed over that op, from the samples just before and just
    after it.  `sampler` takes one sample: sample() for in-process ops,
    process_sample for ops that are fresh processes.
    """

    def __init__(self, sampler=sample):
        self.sampler = sampler
        self.samples = []

    def tick(self):
        self.samples.append(self.sampler())
        return len(self.samples) - 1

    def scale(self, mark):
        return statistics.fmean(self.samples[mark: mark + 2])

    def mean(self):
        return statistics.fmean(self.samples)
