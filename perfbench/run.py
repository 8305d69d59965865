"""Benchmark of oansim: one workload per invocation, run from a checkout.

    python3 perfbench/run.py --workload scenario_a_top --seed 1 --seconds 10 --trace 0

Workloads: scenario_a_top, scenario_b_top, modem_awgn (see workloads.py).
The workload runs alone in a fresh child process (child.py); this process
only times set-up, watches the child's memory and prints the result.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced call.  The line
before it carries the run's details (calls, environment, config hashes).

Exit code 2, and no result, when the checkout has no ``src/oansim``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

from workloads import NAMES, run_problems  # noqa: E402

#: Fresh interpreters timed per run for setup_s (the median is reported).
SETUP_STARTS = 3
#: Every run must end within this many seconds.
DEADLINE_S = 170.0
RSS_POLL_S = 0.05


def _children(pid: int) -> list[int]:
    kids = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as fh:
                kids.extend(int(p) for p in fh.read().split())
    except OSError:
        pass
    return kids


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_rss_kb(pid: int) -> int:
    """Resident memory of a process and all its descendants."""
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        total += _rss_kb(p)
        todo.extend(_children(p))
    return total


class TreeRssPeak(threading.Thread):
    """Polls the resident memory of a process tree until stopped."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb = 0
        self._done = threading.Event()

    def run(self):
        while not self._done.is_set():
            self.peak_kb = max(self.peak_kb, tree_rss_kb(self.pid))
            self._done.wait(RSS_POLL_S)

    def stop(self):
        self._done.set()
        self.join()


def time_setup(workload: str, seed: int, timeout: float) -> float:
    """Seconds for a fresh interpreter to import oansim and build the config."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(CHILD), "--workload", workload,
                    "--seed", str(seed), "--setup"], cwd=ROOT, check=True,
                   timeout=timeout, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_child(args, traced: bool, seconds: float,
              timeout: float) -> tuple[dict, float]:
    """Run a workload child; returns its output and the tree's peak RSS."""
    cmd = [sys.executable, str(CHILD), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(int(traced))]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sampler = TreeRssPeak(proc.pid)
    sampler.start()
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    finally:
        sampler.stop()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), sampler.peak_kb / 1024.0


def per_layer_metrics(reference: dict, traced: dict) -> dict:
    """The traced child's layer metrics, plus the process counters of the
    untraced reference call and the tracing overhead between the two."""
    ref, call = reference["calls"][0], traced["calls"][0]
    metrics = dict(traced["metrics"])
    metrics["trace.overhead_s"] = [call["run_s"] - ref["run_s"], "s"]
    metrics["process.user_s"] = [ref["user_s"], "s"]
    metrics["process.sys_s"] = [ref["sys_s"], "s"]
    metrics["process.minor_faults"] = [ref["minor_faults"], "count"]
    return metrics


def measure(args, deadline: float) -> tuple[list, dict, float]:
    """Untraced: one child making calls for ``--seconds``.  Traced: one
    untraced call, then the same call traced, each in a fresh child, so
    that their difference is the tracing overhead."""
    plan = [(False, 0.0), (True, 0.0)] if args.trace else [(False, args.seconds)]
    children, peak_mb = [], 0.0
    for traced, seconds in plan:
        child, peak = run_child(args, traced, seconds,
                                deadline - time.perf_counter())
        children.append(child)
        peak_mb = max(peak_mb, peak)
        if child["raised"]:
            break
    calls = [c for child in children for c in child["calls"]]
    if args.trace and len(calls) == 2:
        metrics = per_layer_metrics(*children)
    elif calls and not args.trace:
        wall = sum(c["run_s"] for c in calls)
        cpu = sum(c["user_s"] + c["sys_s"] for c in calls)
        metrics = {
            "run_s": [statistics.median(c["run_s"] for c in calls), "s"],
            "bits_per_s": [statistics.median(c["bits"] / c["run_s"]
                                             for c in calls), "bit/s"],
            "cpu_util": [cpu / wall, "cores"],
        }
    else:
        metrics = {}
    return children, metrics, peak_mb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oansim" / "__init__.py").is_file():
        print(f"no oansim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        setup = [] if args.trace else [
            time_setup(args.workload, args.seed, DEADLINE_S / 2)
            for _ in range(SETUP_STARTS)]
        children, metrics, peak_mb = measure(args, start + DEADLINE_S)
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    # ru_maxrss of waited children is exact per process; the sampler adds
    # concurrent descendants
    peak_mb = max(peak_mb, resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    if not args.trace:
        metrics["peak_rss_mb"] = [peak_mb, "MiB"]
        metrics["setup_s"] = [statistics.median(setup), "s"]

    calls = [c for child in children for c in child["calls"]]
    problems = [p for c in calls for p in c["problems"]]
    problems += run_problems(args.workload, calls, children[0]["info"])
    attempted = sum(child["ops"]["attempted"] for child in children)
    failed = sum(child["ops"]["failed"] for child in children)
    for child in children:
        if child["raised"]:
            problems.append("a call raised")
            if child["ops"]["failed"] == 0:
                # a stage other than demodulation raised
                attempted += 1
                failed += 1
    if problems:
        failed = attempted

    info = dict(children[0]["info"], workload=args.workload,
                trace=args.trace, problems=problems, peak_rss_mb=peak_mb,
                setup_starts_s=setup, wall_s=time.perf_counter() - start,
                calls=[{k: c[k] for k in ("run_s", "bits", "units", "errors",
                                          "record_n")} for c in calls])
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
