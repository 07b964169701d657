"""conegeo benchmark: drives the real CLI on generated inputs, end to end.

Run from the repository root:

    python3 bench/run.py --workload circular --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``circular`` (closed-form chart, every
subcommand), ``general`` (sampled base cone, Newton chart inversion) and
``integrate`` (5000-step RK4 file written, then read back).  Each is a
closed loop in one fresh worker process: the next item starts when the
previous one ends.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a separate traced run.
End-to-end times are scaled to reference host speed with the kernel in
calibrate.py, timed next to every measured call; the unscaled wall-clock
figures are printed too, with a ``.raw`` suffix.
The metric names, units and directions are declared in BENCHMARK.json at
the repository root.  Human-readable lines come first; the last line of
standard output is one JSON object.  The run exits non-zero without a
result when the checkout has no conegeo sources.
"""

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time

import calibrate

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_LAUNCHES = 15
IMPORTTIME_LAUNCHES = 3
TAIL_MIN_BEYOND = 10
RUN_DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def launch(argv, timeout):
    return subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def measure_setup():
    """Median wall time of a fresh interpreter importing conegeo.cli.

    Returns (raw, at reference host speed); each launch is scaled by the
    calibration kernel timed just before and just after it.
    """
    times, times_ref = [], []
    calibrate.kernel()  # the first run pays numpy's lazy set-up
    cal = calibrate.measure()
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        proc = launch(["-c", "import conegeo.cli"], timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"import conegeo.cli failed: {proc.stderr.strip()}")
        after = calibrate.measure(dt)
        times.append(dt)
        times_ref.append(dt * calibrate.REFERENCE_S / (0.5 * (cal + after)))
        cal = after
    return statistics.median(times), statistics.median(times_ref)


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")


def measure_imports():
    """Median numpy import and conegeo module time from ``-X importtime``.

    import_numpy_s is numpy's cumulative time; import_conegeo_s is the self
    time of conegeo's own modules, which excludes numpy and the stdlib.
    """
    numpy_s, conegeo_s = [], []
    for _ in range(IMPORTTIME_LAUNCHES):
        proc = launch(["-X", "importtime", "-c", "import conegeo.cli"], timeout=60)
        own = cumulative_numpy = 0
        for self_us, cum_us, _, name in _IMPORTTIME.findall(proc.stderr):
            if name == "numpy":
                cumulative_numpy = int(cum_us)
            if name == "conegeo" or name.startswith("conegeo."):
                own += int(self_us)
        numpy_s.append(cumulative_numpy * 1e-6)
        conegeo_s.append(own * 1e-6)
    return statistics.median(numpy_s), statistics.median(conegeo_s)


def tail_percentile(values):
    """Highest whole percentile with at least TAIL_MIN_BEYOND samples above it."""
    n = len(values)
    if n < 2 * TAIL_MIN_BEYOND:
        return None
    p = math.floor(100 * (n - TAIL_MIN_BEYOND) / n)
    rank = math.ceil(p * n / 100)
    return p, sorted(values)[rank - 1]


def cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="ascii") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def end_to_end(raw, setup):
    """Times at reference host speed; the wall-clock originals get a .raw suffix."""
    timed = raw["timed"]
    out = {"failed_ratio": raw["failed"] / raw["attempted"],
           "peak_rss_mb": raw["peak_rss_mb"]}
    for suffix, ref in (("", "_ref"), (".raw", "")):
        items = timed[f"item_times{ref}"]
        out["setup_s" + suffix] = setup[1] if ref else setup[0]
        # every item runs all its steps, so failed items are counted here too
        # and reported by failed / attempted instead
        out["items_per_s" + suffix] = timed["items"] / timed[f"wall{ref}_s"]
        out["item_s.p50" + suffix] = statistics.median(items)
        tail = tail_percentile(items)
        if tail is not None:
            out["item_s.tail" + suffix] = tail[1]
        for cmd, times in raw[f"cmd_times{ref}"].items():
            out[f"{cmd}_s{suffix}"] = statistics.median(times)
    record = {"items": timed["items"], "passed_items": timed["passed"],
              "item_s.tail_percentile": f"p{tail[0]}" if tail else None,
              "item_samples": len(items)}
    return out, record


def per_layer(raw, imports):
    layers = dict(raw["layers"])
    layers.update(raw["counts"])
    untraced, traced = raw["untraced"], raw["traced"]
    layers["curves.frenet_per_item"] = layers["curves.frenet_apparatus.calls"]
    layers["trace_overhead_ratio"] = ((traced["wall_ref_s"] / traced["items"])
                                      / (untraced["wall_ref_s"] / untraced["items"]))
    layers["setup.import_numpy_s"], layers["setup.import_conegeo_s"] = imports
    layers["golden.identical_files"] = raw["golden"]["identical"]
    layers["golden.max_rel_diff"] = raw["golden"]["max_rel_diff"]
    record = {"untraced_items": untraced["items"], "traced_items": traced["items"],
              "spans": layers.pop("spans")}
    return layers, record


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("circular", "general", "integrate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--write-golden", action="store_true",
                    help="store this build's golden artifacts instead of comparing")
    args = ap.parse_args()
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "conegeo", "cli.py")):
        print(f"error: no conegeo sources under {SRC}", file=sys.stderr)
        return 2
    e2e_spec, layer_spec = declared_metrics()

    work = os.path.join(WORK, args.workload)
    imports = measure_imports() if args.trace else None
    argv = [os.path.join(BENCH, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", work]
    if args.write_golden:
        argv.append("--write-golden")
    try:
        proc = launch(argv, timeout=RUN_DEADLINE_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        print(f"error: worker ran past {RUN_DEADLINE_S:.0f} s", file=sys.stderr)
        return 2
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"error: worker exited with status {proc.returncode}", file=sys.stderr)
        return 2
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics, record = per_layer(raw, imports)
        spec = layer_spec
    else:
        metrics, record = end_to_end(raw, measure_setup())
        spec = e2e_spec
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": raw["attempted"], "failed": raw["failed"],
        "wrong_outputs": raw["wrong"],
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": raw["versions"]["numpy"],
        "conegeo": raw["versions"]["conegeo"], "git_commit": git_commit(),
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "golden": raw["golden"],
    })

    units = {m["name"]: m["unit"] for m in e2e_spec + layer_spec}
    units["failed_ratio"] = "ratio"
    units["peak_rss_mb"] = "MB"
    for name, value in metrics.items():
        unit = units.get(name.removesuffix(".raw"), "1/s" if "per_s" in name else "s")
        note = ""
        if name.startswith("item_s.tail"):
            note = f" ({record['item_s.tail_percentile']} of {record['item_samples']} items)"
        print(f"{args.workload:10s} {name:52s} {value:.6g} {unit}{note}")
    for failure in raw["failures"]:
        print(f"failed: {failure}")
    print("record: " + json.dumps(record, sort_keys=True))
    with open(os.path.join(work, f"record-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": metrics}, fh, indent=1, sort_keys=True)

    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": raw["wrong"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
