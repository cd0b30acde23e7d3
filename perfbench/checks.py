"""Checks of every workload output against oracles.py or a required property.

Each check function takes the workload's inputs and the outputs of its first
round (later rounds must repeat them exactly) and returns the failed
operations, each with a reason, plus the accuracy figures the traced run
reports. Operations that raised are failures already and are not passed in.
Every comparison is written so that a NaN fails it.
"""

from __future__ import annotations

import csv
import io
import math
import re

import mpmath

import oracles as orc
from inputs import pinch_rule

GEO_RTOL = 1e-9  # geometric sides: |value - reference| <= radius + GEO_RTOL |reference|
FLOAT_RTOL = 1e-14  # closed forms recomputed here (systole, area, 3/(2 pi N), ...)
PHI0 = math.exp(-1.0)  # the bump at 0: what the spectral integral must enclose
# The spectral miss at S = 0.75 is 1.9e-9; a miss above this is no longer
# the known fault.
SPECTRAL_MISS_LIMIT = 1e-8
BRACKET_HEAD = 10**6  # rungs geometric_side sums exactly before it brackets the tail
SCHEDULE_VERDICTS = {"reciprocal": "vanishing", "exponential": "bounded away from zero",
                     "superexponential": "divergent"}
CLI_VERDICTS = {"reciprocal-walk": "vanishing", "exponential-walk": "bounded away from zero"}


def _close(a: float, b: float, rtol: float = FLOAT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _certified(value: float, radius: float) -> bool:
    return math.isfinite(value) and math.isfinite(radius) and radius >= 0.0


def _encloses(value: float, radius: float, ref) -> bool:
    return _certified(value, radius) and abs(mpmath.mpf(value) - ref) <= radius


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _spectral_miss(spec: dict, why: str) -> bool:
    """The S = 0.75 fault: a value is returned and misses 1/e by more than
    its radius, since transform_profile does not charge its kernel error to
    the radius, but by no more than SPECTRAL_MISS_LIMIT."""
    m = re.fullmatch(r"misses 1/e by (\S+), radius \S+", why)
    return m is not None and _number(m[1]) <= SPECTRAL_MISS_LIMIT


def _bracket_depth(spec: dict, why: str) -> bool:
    """The superexponential fault: the bracket route of geometric_side
    integrates from (BRACKET_HEAD + 1) t to the g support, and
    adaptive_integral passes bisection depth 60 there for t below about
    1e-11. The first such row is N = 6, t = exp(-36)."""
    m = re.fullmatch(r"NumericsError: adaptive bisection exceeded depth 60 on \[(\S+), (\S+)\]",
                     why)
    if m is None:
        return False
    t = pinch_rule("superexponential", 6)
    return (_close(_number(m[1]), (BRACKET_HEAD + 1) * t)
            and _close(_number(m[2]), orc.g_support(spec["vanishing_support"])))


# The only operations allowed to fail, both on inputs the seed does not move,
# each with the one way it may fail: a test of the reason its check or its
# exception gave.
KNOWN_FAULTS = {
    "trace-pairing": {"plancherel_integral S=0.75": _spectral_miss},
    "schedule-sweep": {"vanishing_series superexponential": _bracket_depth},
    "cli-batch": {},
}


def is_known_fault(workload: str, spec: dict, key: str, why: str) -> bool:
    matches = KNOWN_FAULTS[workload].get(key)
    return matches is not None and matches(spec, why)


class Accuracy:
    """Running maxima of the accuracy figures."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.values[name] = max(self.values.get(name, 0.0), float(value))


# ------------------------------------------------------------ trace-pairing

def check_trace_pairing(spec: dict, out: dict, acc: Accuracy) -> dict:
    bad = {}
    mult = spec["multiplicity"]
    for case in spec["cases"]:
        S = case["S"]
        L = orc.g_support(S)
        key = f"transform_profile S={S}"
        if key in out:
            prof = out[key]
            g_ref = orc.kernel_g(S, [L * j / 8.0 for j in range(9)])
            if not _close(prof["g_support"], L):
                bad[key] = f"g support {prof['g_support']!r}, expected {L!r}"
            elif not all(abs(a - b) <= GEO_RTOL * g_ref[0] for a, b in zip(prof["g"], g_ref)):
                bad[key] = "g differs from the reference kernel"
        key = f"plancherel_integral S={S}"
        if key in out:
            v, r = out[key]["value"], out[key]["radius"]
            acc.add("traceformula.spectral_abs_error", abs(v - PHI0))
            acc.add("traceformula.spectral_radius", r)
            if not _certified(v, r):
                bad[key] = f"value {v!r}, radius {r!r}"
            elif not abs(v - PHI0) <= r:
                bad[key] = f"misses 1/e by {abs(v - PHI0)!r}, radius {r!r}"
        for lad in case["ladders"]:
            key = f"geometric_side S={S} {lad['size']}"
            if key not in out:
                continue
            v, r = out[key]["value"], out[key]["radius"]
            ref = orc.geometric_reference(S, lad["t"], orc.ladder_count(lad["t"], case["radius"]),
                                          mult)
            acc.add("traceformula.geometric_rel_radius", r / abs(v))
            if not (_certified(v, r) and abs(v - ref) <= r + GEO_RTOL * abs(ref)):
                bad[key] = f"{v!r} vs reference {ref!r}, radius {r!r}"
    return bad


# ------------------------------------------------------------ schedule-sweep

def _valid(n: int, t: float, radius: float) -> bool:
    """Every geodesic up to ``radius`` is a pinched one: t < 1/2 and both the
    crossing bound 2 asinh(1/sinh(t/2)) and the distorted half systole
    acosh((N^2 - 2)/2) / (1 + 5t^2/4) exceed the radius."""
    crossing = 2.0 * math.asinh(1.0 / math.sinh(0.5 * t))
    half_systole = math.acosh((n * n - 2) / 2.0) / (1.0 + 1.25 * t * t)
    return t < 0.5 and min(crossing, half_systole) > radius


def _sampled(rows: list) -> list:
    return sorted({0, len(rows) // 2, len(rows) - 1})


def check_rows(sched: dict, rows: list, radius: float) -> str | None:
    """Rows (j, N, t, pairs, genus, volume, bs_ratio, pl_sum, pl_sum_radius,
    pl_norm, lower, upper, valid) of classify_schedule or the schedule CLI."""
    if len(rows) != len(sched["levels"]):
        return f"{len(rows)} rows for {len(sched['levels'])} levels"
    for i, row in enumerate(rows):
        j, n, t, pairs, genus, volume, bs, pl_sum, rad, norm, lower, upper, valid = row
        inv = orc.level_invariants(sched["levels"][i])
        if (j, n) != (i + 1, sched["levels"][i]) or not _close(t, sched["pinch"][i]):
            return f"row {i + 1} is for level {n}, t = {t!r}"
        if pairs != inv["pairs"] or genus != inv["genus"] + inv["pairs"]:
            return f"level {n}: pairs {pairs}, genus {genus}"
        if not _close(volume, inv["area"]):
            return f"level {n}: volume {volume!r}, expected {inv['area']!r}"
        if valid != _valid(n, t, radius):
            return f"level {n}, t = {t!r}: valid is {valid}"
        if not valid:
            continue
        if not _close(bs, 3.0 / (2.0 * math.pi * n) if t <= radius else 0.0):
            return f"level {n}: bs_ratio {bs!r}"
        if not _close(norm, pl_sum / volume, 1e-15):
            return f"level {n}: pl_norm is not pl_sum / volume"
        slack = rad / volume
        if not (lower <= norm + slack and norm - slack <= upper):
            return f"level {n}: pl_norm {norm!r} outside [{lower!r}, {upper!r}]"
    for i in _sampled(rows):
        if not rows[i][12]:
            continue
        t, pl_sum, rad = rows[i][2], rows[i][7], rows[i][8]
        ref = rows[i][3] * orc.ladder_reference(t, orc.ladder_count(t, radius))
        if not _encloses(pl_sum, rad, ref):
            return f"row {i + 1}: pl_sum {pl_sum!r} does not enclose {float(ref)!r}"
    return None


def check_schedule_sweep(spec: dict, out: dict, acc: Accuracy) -> dict:
    bad = {}
    R, mult = spec["radius"], spec["multiplicity"]
    for sched in spec["schedules"]:
        name = sched["name"]
        key = f"classify_schedule {name}"
        rows = out.get(key, {}).get("rows")
        if rows is not None:
            problem = check_rows(sched, rows, R)
            want = SCHEDULE_VERDICTS.get(name)
            if problem is None and want and out[key]["plancherel_verdict"] != want:
                problem = f"verdict {out[key]['plancherel_verdict']!r}, expected {want!r}"
            if problem:
                bad[key] = problem
        key = f"sandwich_bounds {name}"
        if key in out:
            for i, (lo, up) in enumerate(out[key]):
                n, t = sched["levels"][i], sched["pinch"][i]
                pairs = orc.level_invariants(n)["pairs"]
                lo_ref = R / math.sinh(0.5 * R) * pairs * -math.log(t)
                up_ref = 2.0 * pairs * (math.log(R / t) + 1.0)
                if not (_close(lo, lo_ref, 1e-13) and _close(up, up_ref, 1e-13)):
                    bad[key] = f"level {n}: bounds ({lo!r}, {up!r})"
                    break
                if rows is None or not rows[i][12]:
                    continue
                pl_sum, rad = rows[i][7], rows[i][8]
                if not (lo <= pl_sum + rad and pl_sum - rad <= up):
                    bad[key] = f"level {n}: pl_sum {pl_sum!r} outside ({lo!r}, {up!r})"
                    break
    for s in spec["sums"]:
        key = f"plancherel_sum {s['size']}"
        if key not in out:
            continue
        v, r = out[key]["value"], out[key]["radius"]
        ref = mult * orc.ladder_reference(s["t"], orc.ladder_count(s["t"], R))
        acc.add("convergence.ladder_rel_radius_max", r / abs(v))
        acc.add("convergence.ladder_err_over_radius_max", float(abs(mpmath.mpf(v) - ref)) / r)
        if not _encloses(v, r, ref):
            bad[key] = f"{v!r} does not enclose {float(ref)!r} (radius {r:.3g})"
    S = spec["vanishing_support"]
    L = orc.g_support(S)
    schedules = {s["name"]: s for s in spec["schedules"]}
    for v in spec["vanishing"]:
        key = f"vanishing_series {v['key']}"
        if key in out:
            problem = _check_vanishing(schedules[v["schedule"]], v["j_max"], out[key], S, L)
            if problem:
                bad[key] = problem
    return bad


def _check_vanishing(sched: dict, j_max: int, rows: list, S: float, L: float) -> str | None:
    levels = sched["levels"][:j_max]
    if len(rows) != len(levels):
        return f"{len(rows)} rows for {len(levels)} levels"
    for i, (j, n, t, value, valid) in enumerate(rows):
        if (j, n) != (i + 1, levels[i]) or valid != _valid(n, t, L):
            return f"row {i + 1}: level {n}, valid {valid}"
        if valid and not math.isfinite(value):
            return f"row {i + 1}: level {n}, value {value!r}"
    checked = range(len(rows)) if len(rows) <= 20 else _sampled(rows) + [len(rows) // 4]
    for i in checked:
        _, n, t, value, valid = rows[i]
        if not valid:
            continue
        inv = orc.level_invariants(n)
        ref = orc.geometric_reference(S, t, orc.ladder_count(t, L), inv["pairs"]) / inv["area"]
        if not abs(value - ref) <= GEO_RTOL * abs(ref):
            return f"level {n}: {value!r} vs reference {ref!r}"
    values = [r[3] for r in rows]
    vanishing = values[-1] < 0.5 * values[len(values) // 3]
    if sched["rule"] == "reciprocal" and not vanishing:
        return "the reciprocal series does not vanish"
    if sched["rule"] == "exponential" and vanishing:
        return "the exponential series is not bounded away from zero"
    return None


# ------------------------------------------------------------ cli-batch

def _cell(text):
    if text in ("true", "false"):
        return text == "true"
    if text is None or text == "nan":
        return math.nan
    if isinstance(text, (bool, int, float)):
        return text
    try:
        return int(text)
    except ValueError:
        return float(text)


def _survey_problem(rows: list[dict], n_min: int, n_max: int) -> str | None:
    if [int(r["N"]) for r in rows] != list(range(n_min, n_max + 1)):
        return "wrong levels"
    for r in rows:
        n = int(r["N"])
        inv = orc.level_invariants(n)
        exact = (int(r["index_d"]), int(r["genus"]), int(r["cusps"]),
                 int(r["compacted_genus"]))
        if exact != (inv["index_d"], inv["genus"], inv["cusps"], inv["genus"] + inv["pairs"]):
            return f"level {n}: invariants {exact}"
        if not (_close(float(r["systole"]), inv["systole"])
                and _close(float(r["area"]), inv["area"])
                and r["area"] == r["compacted_volume"]):
            return f"level {n}: systole or area"
    return None


def _schedule_config(doc: dict) -> dict:
    lv = doc["levels"]
    levels = list(range(lv["start"], lv["stop"] + 1))
    rule = doc["pinch"]["rule"]
    return {"levels": levels, "rule": rule, "pinch": [pinch_rule(rule, n) for n in levels]}


def _cli_problem(spec: dict, argv: list, res: dict, candidates: dict) -> str | None:
    if res["code"] != 0 or res["stderr"]:
        return f"exit {res['code']}: {res['stderr'][-300:]}"
    if "doc" in res:
        rows, doc = res["doc"]["rows"], res["doc"]
    else:
        lines = res["text"].splitlines()
        body = [ln for ln in lines if not ln.startswith("#")]
        rows = list(csv.DictReader(io.StringIO("\n".join(body) + "\n")))
        doc = {"footer": [ln for ln in lines if ln.startswith("#")]}

    def arg(flag):
        return argv[argv.index(flag) + 1]

    if argv[0] == "survey":
        return _survey_problem(rows, int(arg("--n-min")), int(arg("--n-max")))
    if argv[0] == "schedule":
        cfg = spec["configs"]["rec" if "{rec}" in argv else "exp"]
        table = [tuple(_cell(r[c]) for c in r) for r in rows]
        problem = check_rows(_schedule_config(cfg), table, float(arg("--radius")))
        verdict = (doc["verdicts"]["plancherel"] if "verdicts" in doc
                   else doc["footer"][0].split(": ", 1)[1])
        if problem is None and verdict != CLI_VERDICTS[cfg["name"]]:
            problem = f"verdict {verdict!r}"
        return problem
    level, bound = int(arg("--level")), int(arg("--entry-bound"))
    if len(rows) != 1:
        return f"{len(rows)} rows"
    row = rows[0]
    if row["min_abs_trace"] != level * level - 2 or row["passed"] is not True:
        return f"minimal trace {row['min_abs_trace']}, expected {level * level - 2}"
    if row["candidates"] != candidates[f"{level}x{bound}"]:
        return (f"{row['candidates']} candidates, search_size_estimate says "
                f"{candidates[f'{level}x{bound}']}")
    return None


def check_cli_batch(spec: dict, out: dict, candidates: dict) -> dict:
    bad = {}
    texts = {}
    for cmd in spec["commands"]:
        key = cmd["key"]
        if key not in out:
            continue
        if "text" in out[key]:
            texts.setdefault(key.split(" #")[0], []).append((key, out[key]["text"]))
        try:
            problem = _cli_problem(spec, cmd["argv"], out[key], candidates)
        except (KeyError, IndexError, ValueError) as exc:  # output of the wrong shape
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem:
            bad[key] = problem
    for group in texts.values():
        for key, text in group[1:]:
            if text != group[0][1]:
                bad[key] = f"CSV bytes differ from {group[0][0]}"
    return bad
