"""Run one workload in a fresh interpreter and write its result as JSON.

``run.py`` starts this script with BLAS/OpenMP threads pinned to 1 and
``src`` on ``PYTHONPATH``::

    python3 perfbench/worker.py --workload campaign --seed 1 --seconds 55 \\
        --trace 0 --work .perfbench/run-x --result .perfbench/run-x/result.json

Inputs are made from the seed before any timing starts.  Untraced, the
worker alternates serial and parallel passes while the next one still fits
in ``--seconds`` (each at least once).  Traced, it runs one untraced
serial pass, the same pass traced, and for ``campaign`` one untraced
``--parallel 2`` pass; a wrapped attribute or counter the program no longer
has is returned as ``trace_missing``.  Every pass is checked for
correctness and compared byte for byte with the first pass.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import os
import platform
import resource
import shutil
import sys
import time

import numpy as np
import scipy

import layers
import workloads
from mcmr import clifford
from tracing import Tracer

#: worker processes of the parallel pass
PARALLEL_WORKERS = 2
#: iterations of the host reference kernel (about 0.05 s)
HOST_REFERENCE_LOOPS = 400_000


def _tree(path) -> dict:
    files = {}
    for folder, _, names in os.walk(path):
        for name in names:
            full = os.path.join(folder, name)
            files[os.path.relpath(full, path)] = full
    return files


def same_tree(a, b) -> bool:
    """True when both directories hold the same file names and bytes."""
    fa, fb = _tree(a), _tree(b)
    if fa.keys() != fb.keys():
        return False
    for rel, path in fa.items():
        with open(path, "rb") as ha, open(fb[rel], "rb") as hb:
            if ha.read() != hb.read():
                return False
    return True


class Runner:
    """Times passes of one plan and counts failed operations."""

    def __init__(self, workload: workloads.Workload, plan: workloads.Plan,
                 work: str):
        self.workload = workload
        self.plan = plan
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.correctness: list[str] = []
        self.determinism: list[str] = []
        self.compared = 0
        self._reference: str | None = None
        self._passes = 0

    def time_pass(self, label: str, calls, pool=None):
        """Make every call once; return (seconds, pass dir, failure reasons)."""
        pass_dir = os.path.join(self.work, f"pass{self._passes}-{label}")
        self._passes += 1
        os.makedirs(pass_dir)
        start = time.perf_counter()
        if pool is None:
            reasons = [workloads.run_call(call, pass_dir) for call in calls]
        else:
            reasons = pool.starmap(workloads.run_call,
                                   [(call, pass_dir) for call in calls],
                                   chunksize=1)
        return time.perf_counter() - start, pass_dir, reasons

    def verify(self, label: str, calls, pass_dir: str, reasons) -> None:
        """Check one pass's outputs and compare them with the first pass."""
        for call, reason in zip(calls, reasons):
            self.attempted += len(call.ops)
            if reason is not None:
                self.failed += len(call.ops)
                self.correctness.append(f"{label} {call.name}: {reason}")
                continue
            call_dir = os.path.join(pass_dir, call.name)
            try:
                found = self.workload.check(self.plan, call, call_dir)
            except (OSError, KeyError, ValueError, TypeError) as exc:
                found = {op: f"unreadable output: {exc!r}" for op in call.ops}
            bad = {op for op in call.ops if found.get(op, "not checked")}
            for op in sorted(bad):
                self.correctness.append(f"{label} {op}: {found.get(op, 'not checked')}")
            if self._reference is not None:
                self.compared += 1
                if not same_tree(os.path.join(self._reference, call.name), call_dir):
                    self.determinism.append(f"{label} {call.name}: output differs "
                                            "from the first pass")
                    bad.update(call.ops)
            self.failed += len(bad)
        if self._reference is None:
            self._reference = pass_dir
        else:
            shutil.rmtree(pass_dir)

    def run(self, label: str, calls, pool=None) -> float:
        elapsed, pass_dir, reasons = self.time_pass(label, calls, pool)
        self.verify(label, calls, pass_dir, reasons)
        return elapsed


def _warm(barrier) -> None:
    clifford.superop_table()
    barrier.wait()


def start_pool():
    """Two spawned workers, imported and warmed before any timing."""
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(PARALLEL_WORKERS + 1)
    pool = ctx.Pool(PARALLEL_WORKERS, initializer=_warm, initargs=(barrier,))
    barrier.wait(timeout=120)
    return pool


def host_reference_s() -> float:
    """Time a fixed pure-Python kernel that uses nothing of the program.

    Recorded next to the passes as provenance, not used to scale them: when
    two runs differ, it shows whether the host itself was slower.
    """
    start = time.perf_counter()
    total = 0
    for i in range(HOST_REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def run_untraced(runner: Runner, plan: workloads.Plan, seconds: float) -> dict:
    """Alternate serial and parallel passes until the next one would not fit.

    Each kind is timed at least once.  A workload with short passes first
    makes one untimed warm-up pass, which is still checked and becomes the
    pass the others are compared with.
    """
    clifford.clifford_table()
    clifford.superop_table()
    pool = start_pool() if plan.parallel == "pool" else None
    kinds = (("serial", plan.calls, None), ("parallel", plan.parallel_calls(), pool))
    times = {"serial": [], "parallel": []}
    reference, last = [], {}
    try:
        if plan.warm_up:
            runner.run("warm-up", plan.calls)
        start = time.perf_counter()
        for n in itertools.count():
            label, calls, use_pool = kinds[n % 2]
            if n >= 2 and time.perf_counter() - start + last[label] > seconds:
                break
            if label == "serial":
                reference.append(host_reference_s())
            began = time.perf_counter()
            times[label].append(runner.run(label, calls, use_pool))
            last[label] = time.perf_counter() - began
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    return {"serial_s": times["serial"], "parallel_s": times["parallel"],
            "host_reference_s": reference}


def run_traced(runner: Runner, plan: workloads.Plan, trace_file: str) -> dict:
    untraced = runner.run("serial", plan.calls)
    tracer = Tracer(plan.workload, layers.wraps())
    with tracer:
        traced, pass_dir, reasons = runner.time_pass("traced", plan.calls)
    runner.verify("traced", plan.calls, pass_dir, reasons)
    parallel = None
    if plan.parallel == "program":
        parallel = runner.run("parallel", plan.parallel_calls())
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_dict(), fh)
    return {"layers": layers.metrics(tracer, untraced, traced, parallel),
            "trace_missing": tracer.missing}


def _blas() -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    inputs = os.path.join(args.work, "inputs")
    os.makedirs(inputs)
    plan = workload.prepare(inputs, args.seed)
    runner = Runner(workload, plan, args.work)
    if args.trace:
        result = run_traced(runner, plan, args.trace_file)
    else:
        result = run_untraced(runner, plan, args.seconds)
    result.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "correctness": runner.correctness,
        "determinism": runner.determinism,
        "compared": runner.compared,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "record": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas(),
        },
    })
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
