"""One unit of a workload in a fresh interpreter.

Usage: python3 perfbench/unit.py WORKLOAD SEED MODE SPANS_PATH

Sets up the workload's inputs, times its requests, and checks each output
as soon as its clock stops.  Calibration slices run throughout set-up and
requests (calibration.py); the set-up time and each request's time are
divided by the slowdown measured while they ran, and the measured times are
reported too.  The calibration holds only while mclex runs in this process:
if the requests used child processes (`compute_edges` with workers), the
unit reports its measured times instead, and its peak memory adds the
largest child's.  With MODE 1 the requests run under the tracer, whose
spans go to SPANS_PATH, the tracer's own cost per span is timed, and a
sample of kernel arguments is replayed through both kernel backends.
MODE is 0 (untraced), 1 (traced) or setup, which stops after the set-up.
Prints one JSON object as its last line.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

START_NS = time.perf_counter_ns()
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

from calibration import Calibrator  # noqa: E402

CALIBRATOR = Calibrator()
CALIBRATOR.start()

import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def parity(samples):
    """Replay sampled kernel calls through the Python and C backends."""
    try:
        compiled = importlib.import_module("mclex._closure_c")
    except ImportError:
        return {"status": "C unavailable", "replayed": 0, "mismatches": 0}
    python = importlib.import_module("mclex._closure_py")
    replayed = mismatches = 0
    for kernel, calls in samples.items():
        for args, kwargs in calls:
            replayed += 1
            want = getattr(python, kernel)(*args, **kwargs)
            mismatches += getattr(compiled, kernel)(*args, **kwargs) != want
    return {"status": "compared", "replayed": replayed, "mismatches": mismatches}


def child_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main(workload, seed, mode, spans_path):
    clock = CALIBRATOR.clock_ns
    import workloads  # imports mclex: part of the set-up time

    import mclex

    if not Path(mclex.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"mclex imported from {mclex.__file__}, not from {SRC}")
    setup, run, check = workloads.WORKLOADS[workload]
    inputs, setup_failures = setup(seed)
    setup_s = (clock() - START_NS) / 1e9
    setup_slices = len(CALIBRATOR.slices)
    if mode == "setup":
        CALIBRATOR.stop()
        print(json.dumps({
            "backend": mclex.BACKEND,
            "setup_s": setup_s / CALIBRATOR.slowdown(0, setup_slices),
            "setup_failures": setup_failures,
            "requests": [],
            "measured_setup_s": setup_s,
        }))
        return

    tracer = None
    if mode == "1":
        from tracer import Tracer

        tracer = Tracer(seed, clock=clock)
        tracer.install()
    requests = []
    kept = {}

    def call(label, fn, *args, **kwargs):
        first, t0 = len(CALIBRATOR.slices), clock()
        out = fn(*args, **kwargs)
        seconds = (clock() - t0) / 1e9
        last = len(CALIBRATOR.slices)
        # checked at once, so that no output outlives its request
        failures, summary = check(inputs, label, out, kept)
        requests.append((label, seconds, first, last, failures, summary))
        return out

    child_cpu = child_cpu_s()
    try:
        run(inputs, call)
    finally:
        if tracer:
            tracer.uninstall()
    child_cpu = child_cpu_s() - child_cpu
    if tracer:
        from tracer import wrapper_cost_ns

        first = len(CALIBRATOR.slices)
        costs = wrapper_cost_ns(clock)
        cost_slices = first, len(CALIBRATOR.slices)
    CALIBRATOR.stop()
    rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024

    # Worker processes load both cores and slow the slices down, not the
    # work: a unit whose requests used them reports its measured times.
    calibrated = child_cpu == 0

    def slowdown(first=0, last=None):
        return CALIBRATOR.slowdown(first, last) if calibrated else 1.0

    checked = [{"label": label, "ms": seconds * 1e3 / slowdown(first, last),
                "failures": failures, "summary": summary}
               for label, seconds, first, last, failures, summary in requests]
    result = {
        "backend": mclex.BACKEND,
        "setup_s": setup_s / slowdown(0, setup_slices),
        "setup_failures": setup_failures,
        "wall_s": sum(req["ms"] for req in checked) / 1e3,
        "peak_rss_mb": rss_mb,
        "requests": checked,
        "calibrated": calibrated,
        "child_cpu_s": child_cpu,
        "slowdown": CALIBRATOR.slowdown(),
        "slices": len(CALIBRATOR.slices),
        "measured_setup_s": setup_s,
        "measured_wall_s": sum(request[1] for request in requests),
    }
    if tracer:
        from tracer import layer_metrics, overhead_ns

        unit_slowdown = slowdown()
        result["layers"] = {
            name: value / unit_slowdown if name.endswith((".s", "_s")) else value
            for name, value in layer_metrics(tracer.spans).items()
        }
        result["layers"]["trace.overhead_s"] = (
            overhead_ns(tracer.spans, *costs) / 1e9 / slowdown(*cost_slices))
        result["wrapper_ns"] = costs
        result["spans"] = len(tracer.spans)
        result["parity"] = parity(tracer.samples)
        tracer.write(spans_path)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4])
