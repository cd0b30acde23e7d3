"""Command-line front door: survey tables, the systole check, schedule
classification, and the spectral-identity self-check, emitted as
deterministic CSV or JSON.

Floats are serialized with 17 significant digits in lowercase scientific
notation so golden files are byte-stable across IEEE-754 platforms; the only
nondeterministic field is meta.wall_clock_s in JSON output. Files are written
atomically (temp file + rename). Exit codes: 0 success, 1 identity or
assertion failure, 2 usage.

Each handler returns its rows, its verdicts and its exit code. A row is a
dict whose keys, in order, are the columns, so the CSV header and the JSON
row keys are read from the rows themselves; ``schedule`` takes its keys from
the ScheduleRow fields. The verdicts are one dict of name to verdict, printed
as ``# name: verdict`` lines after the CSV rows and under "verdicts" in JSON
when there are any.

Each subcommand's entry in ``_HANDLERS`` names its handler and the module
that handler imports: ``congruence`` for ``survey`` and ``systole``, which
run on the exact layer alone, ``convergence`` for ``schedule``, whose
criterion sums are pure Python, and ``traceformula`` for ``trace-check``.
Only ``trace-check`` imports numpy. ``main`` imports that
module before it starts the clock, so meta.wall_clock_s is the handler's
time without the import.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
import time

from . import __version__
from .errors import PinchlabError

class _UsageError(Exception):
    pass


def _fmt_float(x: float) -> str:
    return f"{x:.16e}"  # "nan" for a NaN of either sign


def _csv_text(rows: list[dict], verdicts: dict) -> str:
    lines = [",".join(rows[0])]
    for row in rows:
        cells = []
        for v in row.values():
            if isinstance(v, bool):
                cells.append("true" if v else "false")
            elif isinstance(v, float):
                cells.append(_fmt_float(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    lines.extend(f"# {name}: {verdict}" for name, verdict in verdicts.items())
    return "\n".join(lines) + "\n"


def _json_cell(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, float):
        return None if math.isnan(v) else _fmt_float(v)
    return v


def _json_text(rows, verdicts: dict, command: str, params: dict, wall: float) -> str:
    doc = {"rows": [{col: _json_cell(v) for col, v in row.items()} for row in rows]}
    if verdicts:
        doc["verdicts"] = verdicts
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
    import tempfile  # only the --out path pays for it

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
    from .congruence import surface_data

    n_min, n_max = params["n_min"], params["n_max"]
    if not 3 <= n_min <= n_max <= 10**4:
        raise _UsageError(
            f"need 3 <= n-min <= n-max <= 10000, got n-min={n_min}, n-max={n_max}"
        )
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
    return rows, {}, 0


def _cmd_systole(params: dict):
    from .congruence import min_hyperbolic_trace, search_size_estimate, witness_matrix

    level, bound = params["level"], params["entry_bound"]
    if level < 3:
        raise _UsageError(f"level must be >= 3, got {level}")
    if bound < level * level:
        raise _UsageError(
            f"entry-bound must be >= N^2 = {level * level} so the witness lies "
            f"in the box, got {bound}"
        )
    candidates = search_size_estimate(level, bound)
    found = min_hyperbolic_trace(level, bound)
    expected = level * level - 2
    w = witness_matrix(level)
    passed = found == expected
    rows = [{
        "level": level,
        "entry_bound": bound,
        "candidates": candidates,
        "min_abs_trace": found,
        "expected_trace": expected,
        "witness_a": w.a,
        "witness_b": w.b,
        "witness_c": w.c,
        "witness_d": w.d,
        "passed": passed,
    }]
    return rows, {}, 0 if passed else 1


def _require_field(doc: dict, path: str, key: str):
    if not isinstance(doc, dict) or key not in doc:
        raise _UsageError(f"config is missing field '{path}{key}'")
    return doc[key]


def _schedule_from_config(doc):
    from .convergence import Schedule

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
            # JSON numbers only: true is not the length 1.0, nor the string "0.5" a length
            if not isinstance(values, list) or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
                raise _UsageError("config field 'pinch.values' must be a list of numbers")
            return Schedule.explicit(name, levels, values)
        return Schedule.from_rule(name, levels, rule)
    except PinchlabError as exc:
        raise _UsageError(f"config rejected: {exc}") from exc


# the ScheduleRow fields whose CSV and JSON columns carry another name
_SCHEDULE_COLUMNS = {"level": "N", "pinch": "t", "pl_sum_radius": "pl_sum_err"}


def _cmd_schedule(params: dict):
    from .convergence import classify_schedule

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
    columns = [_SCHEDULE_COLUMNS.get(field, field) for field in vars(report.rows[0])]
    rows = [dict(zip(columns, vars(row).values())) for row in report.rows]
    verdicts = {"plancherel": report.plancherel_verdict, "bs": report.bs_verdict}
    return rows, verdicts, 0


def _cmd_trace_check(params: dict):
    from .traceformula import bump, plancherel_integral, transform_profile

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
    phi0 = math.exp(-1.0)
    rows = []
    for s in supports:
        integral = radius = math.nan
        try:
            value = plancherel_integral(transform_profile(bump(s, 1.0)))
            integral, radius = float(value), value.radius
        except PinchlabError:
            pass
        err = abs(integral - phi0)
        rows.append({"S": s, "integral": integral, "integral_radius": radius, "phi0": phi0,
                     "abs_error": err, "passed": err <= tol})
    return rows, {}, 0 if all(row["passed"] for row in rows) else 1


# each subcommand's handler, and the module it imports, loaded before its clock starts
_HANDLERS = {
    "survey": (_cmd_survey, ".congruence"),
    "systole": (_cmd_systole, ".congruence"),
    "schedule": (_cmd_schedule, ".convergence"),
    "trace-check": (_cmd_trace_check, ".traceformula"),
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
                       help="minimal trace N^2 - 2 and its witness in an entry box")
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
    handler, module = _HANDLERS[args.command]
    importlib.import_module(module, __package__)
    start = time.perf_counter()
    try:
        rows, verdicts, code = handler(params)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except PinchlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - start
    if args.format == "csv":
        text = _csv_text(rows, verdicts)
    else:
        text = _json_text(rows, verdicts, args.command, params, wall)
    _write_output(args.out, text)
    return code


if __name__ == "__main__":
    sys.exit(main())
