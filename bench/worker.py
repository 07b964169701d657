"""Runs one workload in a fresh process and prints its raw measurements.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and BLAS
threads pinned to 1.  The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time

import numpy

import calibrate
import conegeo
import golden
import workloads
from conegeo import cli
from tracer import Tracer

# traced items per workload: about ten seconds of traced work on a 2-vCPU host
TRACE_ITEMS = {"circular": 100, "general": 2, "integrate": 60}
MAX_LOGGED_FAILURES = 5


def _checked(check):
    """Run an output check; an output it cannot read fails the check."""
    try:
        return check()
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


class Runner:
    """Runs items, checks every output and counts operations."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = []
        self.cmd_times = {}
        self.cmd_times_ref = {}
        calibrate.kernel()  # the first run pays numpy's lazy set-up
        self.last_cal = calibrate.measure()
        self.bytes_read = 0
        self.bytes_written = 0
        self.rk4_steps = 0

    def _fail(self, index, command, why, wrong):
        self.failed += 1
        self.wrong += wrong
        if len(self.failures) < MAX_LOGGED_FAILURES:
            self.failures.append(f"item {index} {command}: {why}")

    def item(self, index, steps, against_golden=None, count_io=False):
        """Run every step of one item in order, whatever earlier steps did.

        Returns (passed, summed command time, the same at reference host
        speed, mean host-speed scale).  A step fails when it exits non-zero
        or its output fails a check; a failed check on a step that exited 0
        is a wrong output.
        """
        passed = True
        total = total_ref = 0.0
        scales = []
        for step in steps:
            self.attempted += 1
            for path in step.outputs:
                if os.path.exists(path):
                    os.remove(path)
            if self.tracer is not None:
                self.tracer.item = index
            t0 = time.perf_counter()
            rc = cli.main(step.argv)
            dt = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.item = None
            cal = calibrate.measure(dt)
            scales.append(calibrate.REFERENCE_S / (0.5 * (self.last_cal + cal)))
            self.last_cal = cal
            total += dt
            total_ref += dt * scales[-1]
            self.cmd_times.setdefault(step.command, []).append(dt)
            self.cmd_times_ref.setdefault(step.command, []).append(dt * scales[-1])
            why = f"exit status {rc}" if rc != 0 else _checked(step.check)
            if why is None and against_golden is not None:
                why = _checked(lambda: against_golden(step))
            if why is not None:
                self._fail(index, step.command, why, wrong=rc == 0)
                passed = False
            elif count_io:
                self._count_io(step)
        return passed, total, total_ref, sum(scales) / len(scales)

    def _count_io(self, step):
        if "--in" in step.argv:
            self.bytes_read += os.path.getsize(step.argv[step.argv.index("--in") + 1])
        for path in step.outputs:
            self.bytes_written += os.path.getsize(path)
        if step.command == "integrate":
            with open(step.outputs[0], "rb") as fh:
                self.rk4_steps += fh.read().count(b"\n") - 2  # header, initial row

    def loop(self, seed, work, seconds=None, count=None):
        """Closed loop over items 0, 1, ... for `seconds` or for `count` items.

        wall_ref_s adds up each item's wall time, input writing and checks
        included, scaled to reference host speed.
        """
        passed, item_times, item_times_ref = 0, [], []
        start = time.perf_counter()
        wall_ref = 0.0
        index = 0
        while True:
            began = time.perf_counter()
            d = workloads.draw(self.workload, seed, index)
            steps = workloads.WORKLOADS[self.workload](d, work)
            ok, spent, spent_ref, scale = self.item(index, steps, count_io=count is not None)
            wall_ref += (time.perf_counter() - began) * scale
            passed += ok
            item_times.append(spent)
            item_times_ref.append(spent_ref)
            index += 1
            if count is not None and index >= count:
                break
            if seconds is not None and time.perf_counter() - start >= seconds:
                break
        return {"items": index, "passed": passed, "wall_s": time.perf_counter() - start,
                "wall_ref_s": wall_ref, "item_times": item_times,
                "item_times_ref": item_times_ref}


def run_golden(runner, work, write):
    """Run the fixed golden item; compare (or store) every artifact it writes."""
    stats = {"files": 0, "identical": 0, "max_rel_diff": 0.0}

    def against_golden(step):
        for path in step.outputs:
            stats["files"] += 1
            if write:
                golden.write(runner.workload, path)
                stats["identical"] += 1
                continue
            identical, diff = golden.compare(runner.workload, path)
            stats["identical"] += identical
            stats["max_rel_diff"] = max(stats["max_rel_diff"], diff)
            if not diff <= golden.MAX_REL_DIFF:
                return f"{os.path.basename(path)} differs from golden by {diff:.3g}"
        return None

    steps = workloads.WORKLOADS[runner.workload](
        workloads.draw(runner.workload, golden.GOLDEN_SEED, 0), work)
    runner.item(-1, steps, against_golden=against_golden)
    runner.cmd_times.clear()
    runner.cmd_times_ref.clear()
    return stats


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args()

    shutil.rmtree(args.work, ignore_errors=True)
    golden_work = os.path.join(args.work, "golden")
    item_work = os.path.join(args.work, "items")
    os.makedirs(golden_work)
    os.makedirs(item_work)

    tracer = Tracer() if args.trace else None
    runner = Runner(args.workload, tracer)
    out = {"golden": run_golden(runner, golden_work, args.write_golden)}
    if args.trace:
        out["untraced"] = runner.loop(args.seed, item_work, seconds=args.seconds / 2)
        runner.cmd_times.clear()
        runner.cmd_times_ref.clear()
        tracer.install()
        n = TRACE_ITEMS[args.workload]
        traced = runner.loop(args.seed, item_work, count=n)
        out["traced"] = traced
        traced_s = sum(sum(times) for times in runner.cmd_times.values())
        out["layers"] = tracer.summary(n, traced_s)
        out["counts"] = {"cli.bytes_written": runner.bytes_written / n,
                         "curves.bytes_read": runner.bytes_read / n,
                         "geodesics.rk4_steps": runner.rk4_steps / n}
        tracer.save(os.path.join(args.work, "spans.npz"))
    else:
        out["timed"] = runner.loop(args.seed, item_work, seconds=args.seconds)
    out["cmd_times"] = runner.cmd_times
    out["cmd_times_ref"] = runner.cmd_times_ref
    out["attempted"] = runner.attempted
    out["failed"] = runner.failed
    out["wrong"] = runner.wrong
    out["failures"] = runner.failures
    out["versions"] = {"numpy": numpy.__version__, "conegeo": conegeo.__version__}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
