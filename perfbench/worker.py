"""Benchmark worker: one fresh interpreter per measurement.

It imports pinchlab from the checkout's src/, builds one workload's inputs,
prints "ready" (the end of set-up), runs whole rounds until the given time
has passed and prints one JSON line with the timings and the outputs of the
first round. Later rounds must repeat the first one's outputs exactly.

With --trace 1 it records spans, then runs one probe round of each other
workload and a few cold-start probes, so that every traced run reports every
per-layer metric, and writes the spans next to its run directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import inputs
import workloads as wl
from spans import NullRecorder, SpanRecorder

# code for a fresh interpreter; each prints the seconds it measured
COLD_START = {
    "import.pinchlab_s": "import time; t = time.perf_counter(); import pinchlab; "
                         "print(time.perf_counter() - t)",
    # on top of numpy, which pinchlab needs either way
    "import.scipy_interpolate_s": "import time, numpy; t = time.perf_counter(); "
                                  "import scipy.interpolate; print(time.perf_counter() - t)",
    "congruence.surface_data_s": "import time, pinchlab; t = time.perf_counter(); "
                                 "[pinchlab.surface_data(n) for n in range(3, 2001)]; "
                                 "print(time.perf_counter() - t)",
}
COLD_REPEATS = 3


def run_rounds(workload: str, state, rec, seconds: float) -> dict:
    """Whole rounds until ``seconds`` have passed; at least one."""
    walls, jobs, errors, mismatched = [], [], [], set()
    first = None
    start = time.perf_counter()
    while True:
        rnd = wl.Round(rec)
        t0 = time.perf_counter()
        wl.ROUND[workload](rnd, state)
        walls.append(time.perf_counter() - t0)
        out = wl.OUTPUTS[workload](rnd.raw)
        text = json.dumps(out, sort_keys=True)
        if first is None:
            first, first_text, first_errors = out, text, sorted(rnd.errors)
        elif text != first_text or sorted(rnd.errors) != first_errors:
            mismatched.add(len(walls))
        jobs.append(rnd.jobs)
        errors.append(rnd.errors)
        if time.perf_counter() - start >= seconds:
            break
    return {"walls": walls, "jobs": jobs, "errors": errors, "outputs": first,
            "mismatched_rounds": sorted(mismatched)}


def _median(values):
    return statistics.median(values) if values else float("nan")


def _cold_start() -> dict:
    out = {}
    for name, code in COLD_START.items():
        samples = []
        for _ in range(COLD_REPEATS):
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, timeout=120, check=True)
            samples.append(float(proc.stdout.strip()))
        out[name] = _median(samples)
    return out


def layer_metrics(rec: SpanRecorder, cli_jobs: list[list[dict]], candidates: dict,
                  cold: dict) -> dict:
    def med(name, **attrs):
        return _median([s["end"] - s["start"] for s in rec.select(name, **attrs)])

    def total(spans):
        return sum(s["end"] - s["start"] for s in spans)

    m = dict(cold)
    m["congruence.min_hyperbolic_trace_s"] = med("congruence.min_hyperbolic_trace")
    m["congruence.search_candidates"] = sum(candidates.values())
    for size in ("1e3", "1e6", "1e7", "1e13"):
        m[f"convergence.plancherel_sum_{size}_s"] = med("convergence.plancherel_sum", size=size)
    classify = rec.select("convergence.classify_schedule")
    for rule in ("reciprocal", "exponential", "superexponential"):
        m[f"convergence.classify_schedule_{rule}_s"] = med(
            "convergence.classify_schedule", rule=rule)
    m["convergence.rows_per_s"] = sum(s["attrs"]["rows"] for s in classify) / total(classify)
    sandwich = rec.select("convergence.sandwich_bounds")
    m["convergence.sandwich_bounds_us"] = 1e6 * total(sandwich) / sum(
        s["attrs"]["calls"] for s in sandwich)

    m["traceformula.transform_profile_s"] = med("traceformula.transform_profile")
    m["traceformula.plancherel_integral_s"] = med("traceformula.plancherel_integral")
    integrals = {s["id"] for s in rec.select("traceformula.plancherel_integral")}
    h_spans = rec.select("traceformula.h")
    points = {i: 0 for i in integrals}
    for s in h_spans:
        if s["parent"] in points:
            points[s["parent"]] += s["attrs"]["points"]
    m["traceformula.h_evals"] = _median(list(points.values()))
    m["traceformula.h_us_per_point"] = 1e6 * total(h_spans) / sum(
        s["attrs"]["points"] for s in h_spans)
    for route in ("exact", "bracket"):
        m[f"traceformula.geometric_side_{route}_s"] = med("traceformula.geometric_side",
                                                          route=route)
    m["traceformula.vanishing_series_s"] = med("traceformula.vanishing_series",
                                               j_max=inputs.SWEEP_J_MAX)

    flat = [j for jobs in cli_jobs for j in jobs if "subcommand" in j]
    for sub in ("survey", "schedule", "systole"):
        mine = [j for j in flat if j["subcommand"] == sub]
        timed = [j for j in mine if "handler_s" in j]
        m[f"cli.process_s.{sub}"] = _median([j["s"] for j in mine])
        m[f"cli.handler_s.{sub}"] = _median([j["handler_s"] for j in timed])
        m[f"cli.overhead_s.{sub}"] = _median([j["s"] - j["handler_s"] for j in timed])
    m["cli.output_bytes"] = _median(
        [sum(j.get("output_bytes", 0) for j in jobs) for jobs in cli_jobs])
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    rec = SpanRecorder() if args.trace else NullRecorder()
    specs = {args.workload: inputs.make(args.workload, args.seed)}
    states = {args.workload: wl.SETUP[args.workload](specs[args.workload], args.rundir, rec)}
    print("ready", flush=True)
    if args.setup_only:
        return 0

    own = run_rounds(args.workload, states[args.workload], rec, args.seconds)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-batch" else resource.RUSAGE_SELF
    result = {
        "own": own,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,  # KiB on Linux
        "specs": specs,
    }
    if args.trace:
        probes = {}
        for other in inputs.WORKLOADS:
            if other == args.workload:
                continue
            # the trace-pairing probe takes one support: one spectral integral
            # alone takes 12 s or more
            specs[other] = (inputs.trace_pairing(args.seed, supports=(1.0,))
                            if other == "trace-pairing" else inputs.make(other, args.seed))
            states[other] = wl.SETUP[other](specs[other], args.rundir, rec)
            probes[other] = run_rounds(other, states[other], rec, 0.0)
        wl.min_trace_per_box(states["cli-batch"], rec)
        cli_jobs = (own if args.workload == "cli-batch" else probes["cli-batch"])["jobs"]
        result["probes"] = probes
        result["layers"] = layer_metrics(rec, cli_jobs, states["cli-batch"]["candidates"],
                                         _cold_start())
        rec.write(os.path.join(os.path.dirname(os.path.abspath(args.rundir)),
                               f"trace-{args.workload}-seed{args.seed}.json"))
    if "cli-batch" in states:
        result["candidates"] = states["cli-batch"]["candidates"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
