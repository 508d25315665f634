"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload audit --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
repetition twice, plain and instrumented, and prints the per-layer
table instead. The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exits non-zero without a result when the sources are missing, a check
fails to run, or the run leaves a temp file or child process behind.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("audit", "serve", "serve_sharded", "sweep")

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and build the first inputs, then "
                             "exit (what setup_s times)")
    return parser.parse_args(argv)


def measure_setup(args, probe) -> float:
    """Median wall time from starting a fresh interpreter to the point
    where the workload's first timed call would begin, scaled to the
    reference machine speed."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]

    def start():
        t0 = perf_counter()
        subprocess.run(command, check=True, cwd=ROOT)
        return perf_counter() - t0

    times = []
    for _ in range(SETUP_PROBES):
        before = probe.slowdown()
        seconds = start()
        times.append(seconds * 2 / (before + probe.slowdown()))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Largest peak RSS among this process and its reaped children."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def live_children() -> list:
    """Processes (zombies included) whose parent is this process."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        if stat.rsplit(")", 1)[1].split()[1] == me:
            found.append(int(entry))
    return found


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no sources at {SRC}; run from the root of a "
              f"full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import workloads
    from perfbench.probe import SpeedProbe

    if args.setup_probe:
        workloads.rep_seeds(args.workload, args.seed, args.seconds)
        return 0

    scratch = os.path.join(ROOT, ".perfbench-tmp", f"run-{os.getpid()}")
    os.makedirs(scratch)
    # Anything the program puts in a temp directory stays in the checkout.
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = None
    try:
        probe = None if args.trace else SpeedProbe()
        setup_s = None if args.trace else measure_setup(args, probe)
        outcome = workloads.run_workload(args.workload, args.seed,
                                         args.seconds, bool(args.trace),
                                         scratch, probe)
        leftovers = os.listdir(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    children = live_children()
    if leftovers or children:
        print(f"perfbench: run left temp files {leftovers} and child "
              f"processes {children} behind", file=sys.stderr)
        return 3
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    metrics = dict(outcome.metrics)
    if args.trace:
        units = workloads.PER_LAYER_UNITS
    else:
        units = workloads.END_TO_END_UNITS
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
