"""Command-line front door: survey tables, systole falsification, schedule
classification, and the spectral-identity self-check, emitted as
deterministic CSV or JSON.

Floats are serialized with 17 significant digits in lowercase scientific
notation so golden files are byte-stable across IEEE-754 platforms; the only
nondeterministic field is meta.wall_clock_s in JSON output. Files are written
atomically (temp file + rename). Exit codes: 0 success, 1 identity or
assertion failure, 2 usage, 3 refused as infeasible.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time

from . import __version__
from .congruence import (
    min_hyperbolic_trace,
    search_size_estimate,
    surface_data,
    witness_matrix,
)
from .convergence import Schedule, classify_schedule
from .errors import PinchlabError
from .traceformula import bump, plancherel_integral, transform_profile

_SEARCH_CAP = 10**10  # refuse systole searches projected beyond this many candidates


class _UsageError(Exception):
    pass


class _Refusal(Exception):
    pass


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "nan"
    return f"{x:.16e}"


def _csv_text(columns: list[str], rows: list[dict], footer: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            v = row[col]
            if isinstance(v, bool):
                cells.append("true" if v else "false")
            elif isinstance(v, int):
                cells.append(str(v))
            elif isinstance(v, float):
                cells.append(_fmt_float(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    lines.extend(footer)
    return "\n".join(lines) + "\n"


def _json_cell(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, float):
        return None if math.isnan(v) else _fmt_float(v)
    return v


def _json_text(columns, rows, extra: dict, command: str, params: dict, wall: float) -> str:
    doc = {"rows": [{col: _json_cell(row[col]) for col in columns} for row in rows]}
    doc.update(extra)
    doc["meta"] = {
        "version": __version__,
        "command": command,
        "config": params,
        "wall_clock_s": wall,
    }
    return json.dumps(doc, indent=2) + "\n"


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pinchlab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cmd_survey(params: dict):
    n_min, n_max = params["n_min"], params["n_max"]
    if not 3 <= n_min <= n_max <= 10**4:
        raise _UsageError(
            f"need 3 <= n-min <= n-max <= 10000, got n-min={n_min}, n-max={n_max}"
        )
    columns = [
        "N", "index_d", "genus", "cusps", "systole", "area",
        "compacted_genus", "compacted_volume",
    ]
    rows = []
    for n in range(n_min, n_max + 1):
        sd = surface_data(n)
        pairs = sd.cusps // 2
        rows.append({
            "N": sd.level,
            "index_d": sd.index_d,
            "genus": sd.genus,
            "cusps": sd.cusps,
            "systole": sd.systole,
            "area": sd.area,
            "compacted_genus": sd.genus + pairs,
            "compacted_volume": sd.area,
        })
    return columns, rows, {}, [], 0


def _cmd_systole(params: dict):
    level, bound = params["level"], params["entry_bound"]
    if level < 3:
        raise _UsageError(f"level must be >= 3, got {level}")
    if bound < level * level:
        raise _UsageError(
            f"entry-bound must be >= N^2 = {level * level} so the witness lies "
            f"in the box, got {bound}"
        )
    candidates = search_size_estimate(level, bound)
    if candidates > _SEARCH_CAP:
        raise _Refusal(
            f"projected {candidates} candidates exceeds the cap {_SEARCH_CAP}; "
            "shrink entry-bound"
        )
    found = min_hyperbolic_trace(level, bound)
    expected = level * level - 2
    w = witness_matrix(level)
    passed = found == expected
    columns = [
        "level", "entry_bound", "candidates", "min_abs_trace", "expected_trace",
        "witness_a", "witness_b", "witness_c", "witness_d", "passed",
    ]
    rows = [{
        "level": level,
        "entry_bound": bound,
        "candidates": candidates,
        "min_abs_trace": -1 if found is None else found,
        "expected_trace": expected,
        "witness_a": w.a,
        "witness_b": w.b,
        "witness_c": w.c,
        "witness_d": w.d,
        "passed": passed,
    }]
    return columns, rows, {}, [], 0 if passed else 1


def _require_field(doc: dict, path: str, key: str):
    if not isinstance(doc, dict) or key not in doc:
        raise _UsageError(f"config is missing field '{path}{key}'")
    return doc[key]


def _schedule_from_config(doc) -> Schedule:
    name = _require_field(doc, "", "name")
    if not isinstance(name, str):
        raise _UsageError("config field 'name' must be a string")
    levels_spec = _require_field(doc, "", "levels")
    kind = _require_field(levels_spec, "levels.", "kind")
    if kind == "explicit":
        levels = _require_field(levels_spec, "levels.", "values")
        if not isinstance(levels, list):
            raise _UsageError("config field 'levels.values' must be a list")
    elif kind == "range":
        start = _require_field(levels_spec, "levels.", "start")
        stop = _require_field(levels_spec, "levels.", "stop")
        step = levels_spec.get("step", 1)
        for label, v in (("start", start), ("stop", stop), ("step", step)):
            if isinstance(v, bool) or not isinstance(v, int):
                raise _UsageError(f"config field 'levels.{label}' must be an integer")
        if step < 1:
            raise _UsageError("config field 'levels.step' must be >= 1")
        levels = list(range(start, stop + 1, step))
    else:
        raise _UsageError(
            f"config field 'levels.kind' must be 'explicit' or 'range', got {kind!r}"
        )
    if not levels:
        raise _UsageError("config produced an empty levels list")
    pinch_spec = _require_field(doc, "", "pinch")
    rule = _require_field(pinch_spec, "pinch.", "rule")
    try:
        if rule == "explicit":
            values = _require_field(pinch_spec, "pinch.", "values")
            if not isinstance(values, list):
                raise _UsageError("config field 'pinch.values' must be a list")
            return Schedule.explicit(name, levels, [float(v) for v in values])
        return Schedule.from_rule(name, levels, rule)
    except PinchlabError as exc:
        raise _UsageError(f"config rejected: {exc}") from exc


def _cmd_schedule(params: dict):
    path = params["config"]
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config {path!r} is not valid JSON: {exc}") from exc
    schedule = _schedule_from_config(doc)
    radius, j_max = params["radius"], params["j_max"]
    if not (math.isfinite(radius) and radius > 0.0):
        raise _UsageError(f"radius must be a positive finite real, got {radius}")
    if j_max < 1:
        raise _UsageError(f"j-max must be >= 1, got {j_max}")
    report = classify_schedule(schedule, radius, j_max)
    columns = [
        "j", "N", "t", "b_pairs", "genus", "volume", "bs_ratio",
        "pl_sum", "pl_sum_err", "pl_norm", "lower", "upper", "valid",
    ]
    rows = [{
        "j": row.j,
        "N": row.level,
        "t": row.pinch,
        "b_pairs": row.b_pairs,
        "genus": row.genus,
        "volume": row.volume,
        "bs_ratio": row.bs_ratio,
        "pl_sum": row.pl_sum,
        "pl_sum_err": row.pl_sum_radius,
        "pl_norm": row.pl_norm,
        "lower": row.lower,
        "upper": row.upper,
        "valid": row.valid,
    } for row in report.rows]
    footer = [
        f"# plancherel: {report.plancherel_verdict}",
        f"# bs: {report.bs_verdict}",
    ]
    extra = {"verdicts": {
        "plancherel": report.plancherel_verdict,
        "bs": report.bs_verdict,
    }}
    return columns, rows, extra, footer, 0


def _cmd_trace_check(params: dict):
    raw = params["supports"]
    try:
        supports = [float(x) for x in raw.split(",") if x.strip()]
    except ValueError as exc:
        raise _UsageError(f"cannot parse supports list {raw!r}: {exc}") from exc
    if not supports:
        raise _UsageError("supports list is empty")
    tol = params["tol"]
    if not (math.isfinite(tol) and tol > 0.0):
        raise _UsageError(f"tol must be > 0, got {tol}")
    columns = ["S", "integral", "integral_radius", "phi0", "abs_error", "passed"]
    rows = []
    all_ok = True
    for s in supports:
        phi0 = math.exp(-1.0)
        try:
            profile = transform_profile(bump(s, 1.0))
            value = plancherel_integral(profile)
            err = abs(float(value) - phi0)
            ok = err <= tol
            row = {
                "S": float(s), "integral": float(value),
                "integral_radius": value.radius, "phi0": phi0,
                "abs_error": err, "passed": ok,
            }
        except PinchlabError:
            ok = False
            row = {
                "S": float(s), "integral": math.nan, "integral_radius": math.nan,
                "phi0": phi0, "abs_error": math.nan, "passed": False,
            }
        all_ok = all_ok and ok
        rows.append(row)
    return columns, rows, {}, [], 0 if all_ok else 1


_HANDLERS = {
    "survey": _cmd_survey,
    "systole": _cmd_systole,
    "schedule": _cmd_schedule,
    "trace-check": _cmd_trace_check,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    parser = argparse.ArgumentParser(
        prog="pinchlab",
        description="Pinched congruence surfaces: invariants, spectra, and convergence reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("survey", parents=[common],
                       help="level invariants over a range of N")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)

    p = sub.add_parser("systole", parents=[common],
                       help="exhaustive minimal-trace check against N^2 - 2")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--entry-bound", type=int, required=True)

    p = sub.add_parser("schedule", parents=[common],
                       help="classify a pinch schedule from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--j-max", type=int, required=True)

    p = sub.add_parser("trace-check", parents=[common],
                       help="spectral-identity self-check for bump profiles")
    p.add_argument("--supports", required=True,
                   help="comma-separated support values, e.g. 0.5,1,4")
    p.add_argument("--tol", type=float, required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    params = {
        k: v for k, v in vars(args).items() if k not in ("command", "out", "format")
    }
    start = time.perf_counter()
    try:
        columns, rows, extra, footer, code = _HANDLERS[args.command](params)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _Refusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except PinchlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - start
    if args.format == "csv":
        text = _csv_text(columns, rows, footer)
    else:
        text = _json_text(columns, rows, extra, args.command, params, wall)
    _write_output(args.out, text)
    return code


if __name__ == "__main__":
    sys.exit(main())
