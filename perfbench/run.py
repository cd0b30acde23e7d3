"""pinchlab benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload trace-pairing --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it measures the package under src/.
Set-up is timed from the start of a fresh interpreter to the first timed
job, several times, and reported as the median. The workload then runs whole
rounds in a worker process for at least --seconds. Every output of the first
round is checked against perfbench/oracles.py or a property the method must
have, and later rounds must repeat it exactly. The last line of standard
output is {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5  # fresh interpreters timed to "ready"; one of them runs the workload
# The run ends at --seconds plus these margins, or fails: one round past
# --seconds (the longest, trace-pairing, takes about 30 s) and the set-up
# samples; with --trace 1 also the probe rounds and cold starts (60-80 s).
ROUND_MARGIN_S = 70.0
PROBES_MARGIN_S = 85.0
RUNS_DIR = ".perfbench_runs"
# BLAS and OpenMP threads, for the workers and every CLI process they start
THREAD_PINS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def start_worker(args, rundir: str, env: dict, setup_only: bool):
    """Start a worker; return it and the seconds until it printed "ready"."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--rundir", rundir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("the worker stopped during set-up")
    return proc, ready


def run_worker(args, rundir: str, deadline: float):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"), **THREAD_PINS)
    setups = []

    def setup_only():
        proc, ready = start_worker(args, rundir, env, setup_only=True)
        proc.communicate(timeout=60)
        setups.append(ready)

    # half the set-up samples before the workload and half after, so that
    # the median spans the run rather than one stretch of machine load
    for _ in range(SETUP_SAMPLES // 2):
        setup_only()
    proc, ready = start_worker(args, rundir, env, setup_only=False)
    setups.append(ready)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("the worker ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"the worker exited with {proc.returncode}")
    for _ in range(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2):
        setup_only()
    return json.loads(stdout.strip().splitlines()[-1]), setups


def check(workload: str, spec: dict, rounds: dict, candidates, acc) -> tuple[int, int, list]:
    """Attempted and failed operations of a run, and the faults no known
    fault explains."""
    errors = rounds["errors"]
    n_rounds = len(errors)
    outputs = rounds["outputs"]
    if workload == "trace-pairing":
        bad = checks.check_trace_pairing(spec, outputs, acc)
    elif workload == "schedule-sweep":
        bad = checks.check_schedule_sweep(spec, outputs, acc)
    else:
        bad = checks.check_cli_batch(spec, outputs, candidates)
    attempted = n_rounds * (len(outputs) + len(errors[0]))
    failed = sum(len(e) for e in errors) + n_rounds * len(bad)
    faults = [f"{key}: {why}" for key, why in {**errors[0], **bad}.items()
              if not checks.is_known_fault(workload, spec, key, why)]
    faults += [f"round {r} differs from round 1" for r in rounds["mismatched_rounds"]]
    for key, why in {**errors[0], **bad}.items():
        print(f"perfbench: {workload}: failed {key}: {why}", file=sys.stderr)
    return attempted, failed, faults


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    margin = ROUND_MARGIN_S + args.trace * PROBES_MARGIN_S
    deadline = time.perf_counter() + args.seconds + margin

    if not os.path.isfile(os.path.join("src", "pinchlab", "__init__.py")):
        return fail("no src/pinchlab here; run from the root of a pinchlab checkout")
    try:
        with open("BENCHMARK.json") as fh:
            bench = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    os.makedirs(RUNS_DIR, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR)
    try:
        result, setups = run_worker(args, rundir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    acc = checks.Accuracy()
    own = result["own"]
    attempted, failed, faults = check(args.workload, result["specs"][args.workload], own,
                                      result.get("candidates"), acc)
    for other, rounds in result.get("probes", {}).items():
        _, _, probe_faults = check(other, result["specs"][other], rounds,
                                   result.get("candidates"), acc)
        faults += [f"{other} probe: {f}" for f in probe_faults]
    for f in faults:
        print(f"perfbench: unexpected failure: {f}", file=sys.stderr)

    if args.trace:
        # against wall_s of an untraced run, this gives the tracing overhead
        print(f"perfbench: traced round wall {statistics.median(own['walls']):.4f} s",
              file=sys.stderr)
        values = dict(result["layers"], **acc.values)
        wanted = bench["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(own["walls"]),
            "job_p50_s": statistics.median(j["s"] for jobs in own["jobs"] for j in jobs),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    unmeasured = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if unmeasured:  # a layer no call reached, because its operations failed
        return fail(f"no measurement for {', '.join(unmeasured)}")
    print(json.dumps({"correct": not faults, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
