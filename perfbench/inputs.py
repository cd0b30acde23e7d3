"""Workload inputs as plain data, made from the seed alone.

The worker turns these into pinchlab objects during set-up; the checker
reads the same data to build its references. The seed moves pinch lengths
and box sizes within each size class (by at most 5%), so every seed does
about the same work. Standard library only: the worker imports this module
inside the timed set-up.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("trace-pairing", "schedule-sweep", "cli-batch")

# trace-pairing: S = 1 encloses phi(0) = 1/e; S = 0.75 misses it by about
# 58x, a known fault of transform_profile (its kernel error is not charged to
# the radius). S = 2 and 4 miss narrowly and differ between machines, so they
# are left out; so is S = 0.25, which encloses like S = 1 and would add 12 s
# to every run.
SUPPORTS = (0.75, 1.0)
# rungs inside the kernel support: geometric_side sums up to 4e6 of them
# exactly and brackets longer ladders
PAIRING_RUNGS = (("1e2", 1e2), ("1e4", 1e4), ("1e6", 1e6), ("1e7", 1e7), ("1e10", 1e10))
MULTIPLICITY = 12  # the pinched pairs of the level-7 surface

SWEEP_RADIUS = 1.0
SWEEP_J_MAX = 2000
RULE_SCHEDULES = (("reciprocal", 3, 2000), ("exponential", 3, 20), ("superexponential", 3, 10))
# plancherel_sum sums up to 1e7 rungs exactly, then a 1e6 head plus a tail
SUM_RUNGS = (("1e3", 1e3), ("1e6", 1e6), ("1e7", 1e7), ("1e7+", 1e7), ("1e9", 1e9), ("1e13", 1e13))
VANISHING_SUPPORT = 1.0
# (key, schedule, j_max) of each vanishing_series call. The full
# superexponential series is a known fault: it raises at N = 6, in the
# bracket route of geometric_side. Its rows N = 3..5 are checked through the
# call cut at j_max = 3.
VANISHING_SERIES = (("reciprocal", "reciprocal", SWEEP_J_MAX),
                    ("exponential", "exponential", SWEEP_J_MAX),
                    ("superexponential", "superexponential", SWEEP_J_MAX),
                    ("superexponential 3..5", "superexponential", 3))

# systole boxes of about 1-2 s each: (level, entry bound before jitter)
SYSTOLE_BOXES = ((3, 1500), (5, 3000), (7, 4500))


def pinch_rule(rule: str, n: int) -> float:
    return {"reciprocal": 1.0 / n, "exponential": math.exp(-float(n)),
            "superexponential": math.exp(-float(n * n))}[rule]


def _shrink(rng: random.Random) -> float:
    """A factor in (0.95, 1]."""
    return 1.0 - 0.05 * rng.random()


def trace_pairing(seed: int, supports=SUPPORTS) -> dict:
    rng = random.Random(f"trace-pairing/{seed}")
    cases = []
    for S in supports:
        radius = math.acosh(1.0 + 0.5 * S)  # the kernel support
        ladders = [
            {"size": size, "t": radius / (rungs * _shrink(rng))}
            for size, rungs in PAIRING_RUNGS
        ]
        cases.append({"S": S, "radius": radius, "ladders": ladders})
    return {"cases": cases, "multiplicity": MULTIPLICITY}


def schedule_sweep(seed: int) -> dict:
    rng = random.Random(f"schedule-sweep/{seed}")
    schedules = [
        {"name": rule, "rule": rule, "levels": list(range(lo, hi + 1)),
         "pinch": [pinch_rule(rule, n) for n in range(lo, hi + 1)]}
        for rule, lo, hi in RULE_SCHEDULES
    ]
    levels = sorted(rng.sample(range(3, 61), 12))
    pinch = sorted((10.0 ** rng.uniform(-6.0, math.log10(0.3)) for _ in levels), reverse=True)
    schedules.append({"name": "explicit", "rule": "explicit", "levels": levels, "pinch": pinch})
    sums = []
    for size, rungs in SUM_RUNGS:
        if size == "1e7+":  # just past the exact limit: head plus tail
            t = 1.0 / (rungs * (1.001 + 0.049 * rng.random()))
        else:
            t = 1.0 / (rungs * _shrink(rng))
        sums.append({"size": size, "t": t})
    return {
        "radius": SWEEP_RADIUS, "j_max": SWEEP_J_MAX, "schedules": schedules,
        "sums": sums, "multiplicity": MULTIPLICITY, "vanishing_support": VANISHING_SUPPORT,
        "vanishing": [{"key": key, "schedule": name, "j_max": j_max}
                      for key, name, j_max in VANISHING_SERIES],
    }


def cli_batch(seed: int) -> dict:
    rng = random.Random(f"cli-batch/{seed}")
    rec = {"name": "reciprocal-walk", "levels": {"kind": "range", "start": 3, "stop": 2000},
           "pinch": {"rule": "reciprocal"}}
    exp = {"name": "exponential-walk", "levels": {"kind": "range", "start": 3, "stop": 20},
           "pinch": {"rule": "exponential"}}
    survey_small = ["survey", "--n-min", "3", "--n-max", "12"]
    sched_rec = ["schedule", "--config", "{rec}", "--radius", "1.0", "--j-max", "2000"]
    # CSV commands repeat within a round so that their bytes can be compared.
    # Four of the eleven invocations are the same schedule run, so the median
    # job is one of them, not a boundary between unlike jobs.
    commands = [
        {"key": "survey 3..12 csv #1", "argv": survey_small},
        {"key": "survey 3..12 csv #2", "argv": survey_small},
        {"key": "survey 3..2000 json",
         "argv": ["survey", "--n-min", "3", "--n-max", "2000", "--format", "json"]},
        *({"key": f"schedule reciprocal csv #{i}", "argv": sched_rec} for i in range(1, 5)),
        {"key": "schedule exponential json",
         "argv": ["schedule", "--config", "{exp}", "--radius", "1.0", "--j-max", "2000",
                  "--format", "json"]},
    ]
    boxes = []
    for level, bound in SYSTOLE_BOXES:
        bound = round(bound * _shrink(rng))
        boxes.append({"level": level, "entry_bound": bound})
        commands.append({
            "key": f"systole {level}x{bound} json",
            "argv": ["systole", "--level", str(level), "--entry-bound", str(bound),
                     "--format", "json"],
        })
    return {"configs": {"rec": rec, "exp": exp}, "commands": commands, "boxes": boxes}


def make(workload: str, seed: int) -> dict:
    return {"trace-pairing": trace_pairing, "schedule-sweep": schedule_sweep,
            "cli-batch": cli_batch}[workload](seed)
