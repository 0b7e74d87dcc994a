"""mclex benchmark: end-to-end and per-layer metrics for four workloads.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

A run starts fresh single-threaded interpreters (perfbench/unit.py), one
per unit of the workload, for as long as another unit fits into --seconds,
and at least once.  Every unit of a run gets the same seeded inputs.  With
--trace 0 it reports the end-to-end metrics: medians over the units, and
percentiles over the requests, each request's latency being its median over
the units.  Times are in seconds at a reference machine speed (see
calibration.py); the run record keeps the measured ones.  With --trace 1
every unit is traced, and it reports the per-layer metrics (medians over
the units), the tracing overhead among them.  Every output is checked; the last line of standard output is
the JSON result, and the full record goes to perfbench/out/.  --all runs
every workload in both modes and prints every metric with its unit.
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
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from stats import percentile  # noqa: E402
from tracer import metric_specs  # noqa: E402

WORKLOADS = ("classify", "hasse", "localize", "certify")
# what one timed request is in each workload
REQUESTS = {
    "classify": "one window's classify",
    "hasse": "one window's compute_edges and transitive_reduction",
    "localize": "one step of the enumerate command (classify, JSON, DOT, one subposet)",
    "certify": "one implication query: decide, recorded decide, JSON round trip, replay",
}
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
)
# the run length BENCHMARK.json sets
RUN_SECONDS = 28
# a run must end within this many seconds, whatever --seconds says
RUN_LIMIT_S = 170
# units of an untraced run that only set up
SETUP_UNITS = 4


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mclex").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_unit(workload, seed, mode, timeout):
    """One unit in a fresh interpreter; returns (result or None, error).
    mode is "0" or "1" for an untraced or traced unit, or "setup"."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("MCLEX_CHECKPOINT_DIR", None)  # a unit must not write checkpoints
    cmd = [sys.executable, str(HERE / "unit.py"), workload, str(seed), mode,
           str(OUT / f"spans-{workload}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"unit timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def run_units(workload, seed, seconds, trace):
    """Units while another fits into `seconds`, and at least one.  An
    untraced run first makes SETUP_UNITS units that only set up, so that
    setup_s is a median even when one unit fills the run."""
    start = time.monotonic()
    units = []
    for _ in range(0 if trace else SETUP_UNITS):
        result, error = run_unit(workload, seed, "setup", RUN_LIMIT_S / 4)
        units.append({"result": result, "error": error})
        if error:
            return units
    while True:
        t0 = time.monotonic()
        timeout = max(1.0, RUN_LIMIT_S - (t0 - start))
        result, error = run_unit(workload, seed, "1" if trace else "0", timeout)
        last = time.monotonic() - t0
        units.append({"result": result, "error": error})
        if error:
            break
        elapsed = time.monotonic() - start
        if elapsed + last > seconds:
            break
    return units


def tally(units):
    """(attempted, failed, failure messages): every request, every set-up,
    every parity replay and every unit that did not finish counts."""
    attempted = failed = 0
    messages = []
    for i, unit in enumerate(units):
        result = unit["result"]
        if result is None:
            attempted += 1
            failed += 1
            messages.append(f"unit {i}: {unit['error']}")
            continue
        attempted += 1 + len(result["requests"])
        if result["setup_failures"]:
            failed += 1
            messages += [f"unit {i} set-up: {m}" for m in result["setup_failures"]]
        for req in result["requests"]:
            if req["failures"]:
                failed += 1
                messages += [f"unit {i} {req['label']}: {m}" for m in req["failures"]]
        parity = result.get("parity")
        if parity:
            attempted += parity["replayed"]
            failed += parity["mismatches"]
            if parity["mismatches"]:
                messages.append(f"unit {i}: {parity['mismatches']} backend mismatches")
    return attempted, failed, messages


def end_to_end(done, setups):
    """Medians over the units, and setup_s over the set-up-only units too;
    the latency of a request is its median over the units, which all make
    the same requests."""
    by_label = {}
    for r in done:
        for req in r["requests"]:
            by_label.setdefault(req["label"], []).append(req["ms"])
    latencies = [statistics.median(ms) for ms in by_label.values()]
    return {
        "setup_s": statistics.median([r["setup_s"] for r in done + setups]),
        "wall_s": statistics.median([r["wall_s"] for r in done]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in done]),
        "query_p50_ms": percentile(latencies, 50),
        "query_p95_ms": percentile(latencies, 95),
    }, len(latencies)


def per_layer(done):
    return {name: statistics.median([r["layers"][name] for r in done])
            for name in done[0]["layers"]}


def certify_record(done):
    """The sampled queries and their verdict mix, from the first unit."""
    queries = [req["summary"] for req in done[0]["requests"]]
    true = sum(q["verdict"] for q in queries)
    return {"verdict_mix": {"true": true, "false": len(queries) - true}, "queries": queries}


def bench(workload, seed, seconds, trace):
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": commit(), "src_sha256": source_digest(), "request": REQUESTS[workload],
    }
    OUT.mkdir(exist_ok=True)
    units = run_units(workload, seed, seconds, trace)
    attempted, failed, messages = tally(units)
    finished = [u["result"] for u in units if u["result"] is not None]
    done = [r for r in finished if r["requests"]]
    setups = [r for r in finished if not r["requests"]]
    info["backend"] = sorted({r["backend"] for r in done})
    info["units"] = len(units)
    info["calibrated"] = all(r["calibrated"] for r in done)
    if trace and done:
        info["parity"] = done[-1]["parity"]["status"]
    record = {"info": info, "attempted": attempted, "failed": failed, "failures": messages}
    metrics = {}
    ok = bool(done)
    if ok and trace:
        values = per_layer(done)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _better in metric_specs()}
    elif ok:
        values, info["requests_per_unit"] = end_to_end(done, setups)
        info["setups"] = len(done) + len(setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    if done and workload == "certify":
        record.update(certify_record(done))
        info["verdict_mix"] = record["verdict_mix"]
    record["units"] = [{k: v for k, v in r.items() if k != "requests"} for r in done]
    record["setups"] = [r["setup_s"] for r in setups]
    record["requests"] = [[{k: req[k] for k in ("label", "ms", "failures")}
                           for req in r["requests"]] for r in done]
    record["metrics"] = metrics
    with open(OUT / f"{workload}-s{seed}-t{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"info": info}))
    for message in messages:
        print("FAILED " + message)
    result = {"correct": ok and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return result


def run_all(seed, seconds):
    """Every workload in both modes, each run in its own interpreter."""
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=2 * RUN_LIMIT_S)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            summary[f"{workload}/trace{trace}"] = result
            print(f"== {workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"{workload:9s} {name:48s} {metric['value']:14.6g} {metric['unit']}")
    with open(OUT / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mclex" / "__init__.py").is_file():
        print(f"perfbench: no mclex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    bench(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
