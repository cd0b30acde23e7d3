"""One round of each workload, run inside the worker against pinchlab.

A round runs the same jobs on the same inputs every time. A job is one call
a user makes (one support's pairing, one schedule call, one ladder sum, one
CLI invocation) and is made of operations, each of which either returns an
output or fails. Every operation runs inside a span named after the pinchlab
layer it enters; with tracing off the span is a no-op.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import subprocess
import sys
import time

import numpy as np

import pinchlab as pl


class Round:
    """Jobs, outputs and failures of one round."""

    def __init__(self, rec) -> None:
        self.rec = rec
        self.jobs: list[dict] = []
        self.raw: dict[str, object] = {}
        self.errors: dict[str, str] = {}

    @contextlib.contextmanager
    def job(self, name: str):
        """Time one job; yields its record for extra fields."""
        record = {"name": name}
        with self.rec.span("job", job=name):
            t0 = time.perf_counter()
            try:
                yield record
            finally:
                record["s"] = time.perf_counter() - t0
                self.jobs.append(record)

    def op(self, key: str, layer: str, fn, **attrs):
        """Run one operation; keep its result, or its failure, under ``key``."""
        try:
            with self.rec.span(layer, **attrs):
                value = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.errors[key] = f"{type(exc).__name__}: {exc}"
            return None
        self.raw[key] = value
        return value


def _certified(v) -> dict:
    return {"value": float(v), "radius": v.radius}


# ------------------------------------------------------------ trace-pairing

def setup_trace_pairing(spec: dict, rundir: str, rec) -> list[dict]:
    cases = []
    for case in spec["cases"]:
        ladders = [
            dict(lad, ladder=pl.pinch_ladder(lad["t"], case["radius"], spec["multiplicity"]))
            for lad in case["ladders"]
        ]
        cases.append({"S": case["S"], "phi": pl.bump(case["S"]), "ladders": ladders})
    return cases


def _counting_h(profile, rec):
    """The profile with h_batch, through which plancherel_integral evaluates
    h, wrapped in a span that counts points."""
    batch = profile.h_batch

    def h_batch(r):
        with rec.span("traceformula.h", points=int(np.size(r))):
            return batch(r)

    return dataclasses.replace(profile, h_batch=h_batch)


def round_trace_pairing(rnd: Round, cases: list[dict]) -> None:
    for case in cases:
        S = case["S"]
        with rnd.job(f"pairing S={S}"):
            profile = rnd.op(f"transform_profile S={S}", "traceformula.transform_profile",
                             lambda: pl.transform_profile(case["phi"]), S=S)
            if profile is None:
                continue
            if rnd.rec.enabled:
                profile = _counting_h(profile, rnd.rec)
            rnd.op(f"plancherel_integral S={S}", "traceformula.plancherel_integral",
                   lambda: pl.plancherel_integral(profile), S=S)
            for lad in case["ladders"]:
                route = "exact" if lad["ladder"].count <= 4_000_000 else "bracket"
                rnd.op(f"geometric_side S={S} {lad['size']}", "traceformula.geometric_side",
                       lambda: pl.geometric_side(lad["ladder"], profile), route=route)


def outputs_trace_pairing(raw: dict) -> dict:
    out = {}
    for key, value in raw.items():
        if key.startswith("transform_profile"):
            L = value.g_support
            out[key] = {"g_support": L, "g": [float(value.g(L * j / 8.0)) for j in range(9)]}
        else:
            out[key] = _certified(value)
    return out


# ------------------------------------------------------------ schedule-sweep

def setup_schedule_sweep(spec: dict, rundir: str, rec) -> dict:
    schedules = {}
    for s in spec["schedules"]:
        if s["rule"] == "explicit":
            schedules[s["name"]] = pl.Schedule.explicit(s["name"], s["levels"], s["pinch"])
        else:
            schedules[s["name"]] = pl.Schedule.from_rule(s["name"], s["levels"], s["rule"])
    ladders = {
        s["size"]: pl.pinch_ladder(s["t"], spec["radius"], spec["multiplicity"])
        for s in spec["sums"]
    }
    return {"schedules": schedules, "ladders": ladders, "radius": spec["radius"],
            "j_max": spec["j_max"], "phi": pl.bump(spec["vanishing_support"]),
            "vanishing": spec["vanishing"]}


def round_schedule_sweep(rnd: Round, sw: dict) -> None:
    radius, j_max = sw["radius"], sw["j_max"]
    for name, schedule in sw["schedules"].items():
        with rnd.job(f"classify_schedule {name}"):
            rnd.op(f"classify_schedule {name}", "convergence.classify_schedule",
                   lambda: pl.classify_schedule(schedule, radius, j_max), rule=name,
                   rows=min(j_max, len(schedule.levels)))
    for name, schedule in sw["schedules"].items():
        # one job per schedule: a single call takes microseconds
        with rnd.job(f"sandwich_bounds {name}"):
            rnd.op(f"sandwich_bounds {name}", "convergence.sandwich_bounds",
                   lambda: [pl.sandwich_bounds(n, t, radius)
                            for n, t in zip(schedule.levels, schedule.pinch_lengths)],
                   calls=len(schedule.levels))
    for size, ladder in sw["ladders"].items():
        with rnd.job(f"plancherel_sum {size}"):
            rnd.op(f"plancherel_sum {size}", "convergence.plancherel_sum",
                   lambda: pl.plancherel_sum(ladder, radius), size=size)
    # one job per schedule: the cut superexponential call belongs to the job
    # of the full one, so that the 17 jobs of a round put the median job
    # inside a group of like jobs rather than between two groups
    for name in dict.fromkeys(v["schedule"] for v in sw["vanishing"]):
        with rnd.job(f"vanishing_series {name}"):
            for v in sw["vanishing"]:
                if v["schedule"] == name:
                    rnd.op(f"vanishing_series {v['key']}", "traceformula.vanishing_series",
                           lambda: pl.vanishing_series(sw["schedules"][name], sw["phi"],
                                                       v["j_max"]),
                           rule=name, j_max=v["j_max"])


def outputs_schedule_sweep(raw: dict) -> dict:
    out = {}
    for key, value in raw.items():
        kind = key.split()[0]
        if kind == "classify_schedule":
            out[key] = {
                "rows": [dataclasses.astuple(r) for r in value.rows],
                "plancherel_verdict": value.plancherel_verdict,
                "bs_verdict": value.bs_verdict,
            }
        elif kind == "sandwich_bounds":
            out[key] = [list(b) for b in value]
        elif kind == "plancherel_sum":
            out[key] = _certified(value)
        else:
            out[key] = [dataclasses.astuple(r) for r in value]
    return out


# ------------------------------------------------------------ cli-batch

def setup_cli_batch(spec: dict, rundir: str, rec) -> dict:
    paths = {}
    for name, doc in spec["configs"].items():
        paths[name] = os.path.join(rundir, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    commands = [
        dict(c, argv=[a.format(**paths) for a in c["argv"]]) for c in spec["commands"]
    ]
    candidates = {}
    for box in spec["boxes"]:
        with rec.span("congruence.search_size_estimate"):
            candidates[f"{box['level']}x{box['entry_bound']}"] = pl.search_size_estimate(
                box["level"], box["entry_bound"])
    return {"commands": commands, "candidates": candidates, "boxes": spec["boxes"]}


def _invoke(argv: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "pinchlab.cli", *argv],
        capture_output=True, text=True, timeout=120, check=False,
    )
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def round_cli_batch(rnd: Round, cli: dict) -> None:
    for cmd in cli["commands"]:
        with rnd.job(cmd["key"]) as record:
            result = rnd.op(cmd["key"], "cli.process", lambda: _invoke(cmd["argv"]),
                            subcommand=cmd["argv"][0])
        if result is not None and "--format" in cmd["argv"] and result["code"] == 0:
            record["handler_s"] = json.loads(result["stdout"])["meta"]["wall_clock_s"]
        if result is not None:
            record["subcommand"] = cmd["argv"][0]
            record["output_bytes"] = len(result["stdout"].encode())


def outputs_cli_batch(raw: dict) -> dict:
    """CSV text as printed; JSON documents without their wall-clock field,
    the only part of the output allowed to change between runs."""
    out = {}
    for key, value in raw.items():
        entry = {"code": value["code"], "stderr": value["stderr"]}
        if key.endswith("json") and value["code"] == 0:
            doc = json.loads(value["stdout"])
            doc["meta"].pop("wall_clock_s")
            entry["doc"] = doc
        else:
            entry["text"] = value["stdout"]
        out[key] = entry
    return out


def min_trace_per_box(cli: dict, rec) -> None:
    """The systole search in process, once per box, for its layer time."""
    for box in cli["boxes"]:
        with rec.span("congruence.min_hyperbolic_trace", **box):
            pl.min_hyperbolic_trace(box["level"], box["entry_bound"])


SETUP = {"trace-pairing": setup_trace_pairing, "schedule-sweep": setup_schedule_sweep,
         "cli-batch": setup_cli_batch}
ROUND = {"trace-pairing": round_trace_pairing, "schedule-sweep": round_schedule_sweep,
         "cli-batch": round_cli_batch}
OUTPUTS = {"trace-pairing": outputs_trace_pairing, "schedule-sweep": outputs_schedule_sweep,
           "cli-batch": outputs_cli_batch}
