import json
import math
import re
from pathlib import Path

import pytest

from pinchlab import DomainError, __version__, cli, surface_data
from pinchlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused(capsys, *argv):
    """The stderr of a refused input: exit 2, nothing on stdout, and one
    usage error line."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("usage error: "), (code, out, err)
    assert err.count("\n") == 1, err
    return err


def parse_csv(text):
    lines = text.strip().split("\n")
    body = [ln for ln in lines if not ln.startswith("#")]
    footer = [ln for ln in lines if ln.startswith("#")]
    header = body[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in body[1:]]
    return header, rows, footer


def scrub_wall_clock(doc):
    doc = json.loads(doc)
    doc["meta"].pop("wall_clock_s")
    return doc


# ---------------------------------------------------------------- survey

def test_survey_csv(capsys):
    code, out, err = run(capsys, "survey", "--n-min", "3", "--n-max", "7")
    assert code == 0 and err == ""
    header, rows, footer = parse_csv(out)
    assert header == ["N", "index_d", "genus", "cusps", "systole", "area",
                      "compacted_genus", "compacted_volume"]
    assert footer == []
    assert [r["N"] for r in rows] == ["3", "4", "5", "6", "7"]
    seven = rows[-1]
    assert seven["index_d"] == "336" and seven["genus"] == "3" and seven["cusps"] == "24"
    # the two volume columns agree to the byte
    for r in rows:
        assert r["area"] == r["compacted_volume"]
        assert re.fullmatch(r"-?\d\.\d{16}e[+-]\d{2,3}", r["area"])


def test_survey_json(capsys):
    code, out, _ = run(capsys, "survey", "--n-min", "5", "--n-max", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["command"] == "survey"
    assert isinstance(doc["meta"]["wall_clock_s"], float)
    (row,) = doc["rows"]
    assert row["index_d"] == 120
    assert float(row["systole"]) == pytest.approx(surface_data(5).systole, rel=1e-16)


def test_survey_bounds_checked(capsys):
    assert "n-min" in refused(capsys, "survey", "--n-min", "5", "--n-max", "4")
    refused(capsys, "survey", "--n-min", "2", "--n-max", "4")
    refused(capsys, "survey", "--n-min", "3", "--n-max", "100000")


# ---------------------------------------------------------------- systole

def test_systole_pass(capsys):
    code, out, _ = run(capsys, "systole", "--level", "3", "--entry-bound", "90")
    assert code == 0
    _, rows, _ = parse_csv(out)
    (row,) = rows
    assert row["min_abs_trace"] == "7" and row["expected_trace"] == "7"
    assert row["passed"] == "true"
    assert (row["witness_a"], row["witness_b"], row["witness_c"], row["witness_d"]) == (
        "-8", "3", "-3", "1")


def test_systole_large_box_passes(capsys):
    code, out, _ = run(capsys, "systole", "--level", "200", "--entry-bound", "4000000")
    assert code == 0
    _, rows, _ = parse_csv(out)
    (row,) = rows
    assert row["min_abs_trace"] == "39998" and row["passed"] == "true"


def test_systole_entry_bound_beyond_int64(capsys):
    code, out, _ = run(capsys, "systole", "--level", "3", "--entry-bound", str(10**20))
    assert code == 0
    _, rows, _ = parse_csv(out)
    (row,) = rows
    assert row["candidates"] == "66666666666666666664"
    assert row["min_abs_trace"] == "7" and row["passed"] == "true"


def test_systole_rejects_small_bound(capsys):
    # the library's rules, in its words: a refused input, not a failed check
    err = refused(capsys, "systole", "--level", "5", "--entry-bound", "24")
    assert "entry_bound must be >= N^2 = 25" in err
    err = refused(capsys, "systole", "--level", "2", "--entry-bound", "100")
    assert "level must be >= 3" in err


# ---------------------------------------------------------------- schedule

RECIP = {
    "name": "recip",
    "levels": {"kind": "range", "start": 3, "stop": 40},
    "pinch": {"rule": "reciprocal"},
}


def write_config(tmp_path, doc):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_schedule_csv(capsys, tmp_path):
    cfg = write_config(tmp_path, RECIP)
    code, out, _ = run(capsys, "schedule", "--config", cfg, "--radius", "1.0",
                       "--j-max", "100")
    assert code == 0
    header, rows, footer = parse_csv(out)
    assert header == ["j", "N", "t", "b_pairs", "genus", "volume", "bs_ratio",
                      "pl_sum", "pl_sum_err", "pl_norm", "lower", "upper", "valid"]
    assert len(rows) == 38
    assert rows[0]["j"] == "1" and rows[0]["N"] == "3"
    assert all(r["valid"] == "true" for r in rows)
    assert len(footer) == 2
    assert footer[0].startswith("# plancherel: ")
    assert footer[1] == "# bs: vanishing"
    for r in rows[:3]:
        n = int(r["N"])
        assert float(r["bs_ratio"]) == pytest.approx(3.0 / (2.0 * math.pi * n), rel=1e-15)
        assert float(r["lower"]) <= float(r["pl_norm"]) <= float(r["upper"])


def test_schedule_explicit_pinch(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "name": "handpicked",
        "levels": {"kind": "explicit", "values": [5, 7]},
        "pinch": {"rule": "explicit", "values": [0.2, 0.1]},
    })
    code, out, _ = run(capsys, "schedule", "--config", cfg, "--radius", "1.0", "--j-max", "5")
    assert code == 0
    _, rows, _ = parse_csv(out)
    assert [r["N"] for r in rows] == ["5", "7"]
    assert float(rows[0]["t"]) == 0.2


def test_schedule_config_errors(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    err = refused(capsys, "schedule", "--config", str(bad), "--radius", "1", "--j-max", "5")
    assert "not valid JSON" in err

    cfg = write_config(tmp_path, {"name": "x", "pinch": {"rule": "reciprocal"}})
    err = refused(capsys, "schedule", "--config", cfg, "--radius", "1", "--j-max", "5")
    assert "levels" in err

    cfg = write_config(tmp_path, {
        "name": "x",
        "levels": {"kind": "range", "start": 3, "stop": 10},
        "pinch": {"rule": "quartic"},
    })
    err = refused(capsys, "schedule", "--config", cfg, "--radius", "1", "--j-max", "5")
    assert "config rejected" in err

    err = refused(capsys, "schedule", "--config", str(tmp_path / "missing.json"),
                  "--radius", "1", "--j-max", "5")
    assert "cannot read config" in err

    # each malformed field exits 2 and is named: the CLI's own rules in its
    # words, the values Schedule judges in the library's
    pinch = {"rule": "reciprocal"}
    for doc, field in [
        ({"name": 7, "levels": RECIP["levels"], "pinch": pinch}, "schedule name"),
        ({"name": "x", "levels": {"kind": "explicit", "values": 5}, "pinch": pinch},
         "levels must be a sequence"),
        ({"name": "x", "levels": {"kind": "range", "start": "3", "stop": 10}, "pinch": pinch},
         "'levels.start'"),
        ({"name": "x", "levels": {"kind": "range", "start": 3, "stop": 10, "step": 0},
          "pinch": pinch}, "'levels.step'"),
        ({"name": "x", "levels": {"kind": "list", "values": [5]}, "pinch": pinch},
         "'levels.kind'"),
        ({"name": "x", "levels": {"kind": "range", "start": 10, "stop": 5}, "pinch": pinch},
         "at least one level"),
        ({"name": "x", "levels": {"kind": "range", "start": 3, "stop": 10},
          "pinch": {"rule": ["reciprocal"]}}, "unknown pinch rule"),
        ({"name": "x", "levels": {"kind": "explicit", "values": [5, 7]},
          "pinch": {"rule": "explicit", "values": "0.5,0.5"}}, "pinch_lengths"),
        # a strong pseudoprime to every base the factoring tries: refused, not a failed check
        ({"name": "x", "levels": {"kind": "explicit", "values": [3317044064679887385961981]},
          "pinch": pinch}, "cannot factor level"),
    ]:
        cfg = write_config(tmp_path, doc)
        err = refused(capsys, "schedule", "--config", cfg, "--radius", "1", "--j-max", "5")
        assert field in err, (doc, err)


@pytest.mark.parametrize("bad", ["abc", None, [1], True], ids=["string", "null", "list", "bool"])
def test_schedule_rejects_non_numeric_pinch_values(capsys, tmp_path, bad):
    # a usage error (exit 2), not a traceback; true is not the length 1.0
    cfg = write_config(tmp_path, {
        "name": "handpicked",
        "levels": {"kind": "explicit", "values": [5, 7]},
        "pinch": {"rule": "explicit", "values": [bad, 0.1]},
    })
    err = refused(capsys, "schedule", "--config", cfg, "--radius", "1.0", "--j-max", "5")
    assert "config rejected: pinch length" in err


def test_schedule_rejects_bad_radius(capsys, tmp_path):
    cfg = write_config(tmp_path, RECIP)
    err = refused(capsys, "schedule", "--config", cfg, "--radius", "-1", "--j-max", "5")
    assert "radius" in err
    err = refused(capsys, "schedule", "--config", cfg, "--radius", "1", "--j-max", "0")
    assert "j_max" in err


# ---------------------------------------------------------------- trace-check

def test_trace_check_passes(capsys):
    code, out, _ = run(capsys, "trace-check", "--supports", "1", "--tol", "1e-4")
    assert code == 0
    _, rows, _ = parse_csv(out)
    (row,) = rows
    assert row["passed"] == "true"
    assert float(row["abs_error"]) <= 1e-4
    assert float(row["phi0"]) == pytest.approx(math.exp(-1.0), rel=1e-16)


def test_trace_check_failure_exit(capsys):
    # an impossible tolerance flips the per-row flag and the exit code
    code, out, _ = run(capsys, "trace-check", "--supports", "1", "--tol", "1e-15")
    assert code == 1
    _, rows, _ = parse_csv(out)
    assert rows[0]["passed"] == "false"
    # a support the library refuses, and one past the reach of h, give a failure row
    for support in ("-1", "1e41"):
        code, out, _ = run(capsys, "trace-check", "--supports", support, "--tol", "1e-6")
        assert code == 1
        _, rows, _ = parse_csv(out)
        assert rows[0]["integral"] == "nan" and rows[0]["passed"] == "false"


def test_trace_check_usage_errors(capsys):
    refused(capsys, "trace-check", "--supports", "1,two", "--tol", "1e-6")
    refused(capsys, "trace-check", "--supports", "", "--tol", "1e-6")
    refused(capsys, "trace-check", "--supports", "1", "--tol", "0")


# ---------------------------------------------------------------- plumbing

def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert capsys.readouterr().out == ""
    assert main(["not-a-command"]) == 2
    assert capsys.readouterr().out == ""


def test_output_file_atomic(capsys, tmp_path):
    target = tmp_path / "report.csv"
    code, out, _ = run(capsys, "survey", "--n-min", "3", "--n-max", "4",
                       "--out", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    header, rows, _ = parse_csv(text)
    assert len(rows) == 2
    assert not list(tmp_path.glob(".pinchlab-*"))
    # a failed rename leaves no temp file behind
    occupied = tmp_path / "occupied"
    occupied.mkdir()
    with pytest.raises(IsADirectoryError):
        main(["survey", "--n-min", "3", "--n-max", "4", "--out", str(occupied)])
    assert not list(tmp_path.glob(".pinchlab-*"))


def test_library_error_exits_2(capsys, monkeypatch):
    # a refusal from the library is a refused input, like the CLI's own
    def refuse(params):
        raise DomainError("refused")

    monkeypatch.setitem(cli._HANDLERS, "survey", (refuse, ".congruence"))
    code, out, err = run(capsys, "survey", "--n-min", "3", "--n-max", "4")
    assert (code, out, err) == (2, "", "usage error: refused\n")


def test_csv_deterministic(capsys, tmp_path):
    cfg = write_config(tmp_path, RECIP)
    argv = ["schedule", "--config", cfg, "--radius", "1.0", "--j-max", "10"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_json_deterministic_up_to_wall_clock(capsys, tmp_path):
    cfg = write_config(tmp_path, RECIP)
    argv = ["schedule", "--config", cfg, "--radius", "1.0", "--j-max", "10",
            "--format", "json"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert scrub_wall_clock(first) == scrub_wall_clock(second)
    doc = scrub_wall_clock(first)
    assert doc["verdicts"]["bs"] == "vanishing"
    assert all(isinstance(r["pl_norm"], str) for r in doc["rows"])


EXPONENTIAL = {
    "name": "exp",
    "levels": {"kind": "range", "start": 3, "stop": 20},
    "pinch": {"rule": "exponential"},
}


@pytest.mark.parametrize("argv", [
    ["survey", "--n-min", "3", "--n-max", "12"],
    ["systole", "--level", "5", "--entry-bound", "100"],
    ["schedule", "--config", "{config}", "--radius", "1", "--j-max", "20"],
    ["trace-check", "--supports", "0.5,1e41", "--tol", "1e-9"],
], ids=["survey", "systole", "schedule", "trace-check"])
def test_csv_and_json_name_the_same_columns_and_verdicts(capsys, tmp_path, argv):
    argv = [a.format(config=write_config(tmp_path, EXPONENTIAL)) for a in argv]
    _, csv_text, _ = run(capsys, *argv)
    _, json_text, _ = run(capsys, *argv, "--format", "json")
    header, _, footer = parse_csv(csv_text)
    doc = json.loads(json_text)
    assert header == list(doc["rows"][0])
    assert footer == [f"# {k}: {v}" for k, v in doc.get("verdicts", {}).items()]


def test_package_version_matches_pyproject(capsys):
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert version == __version__
    _, out, _ = run(capsys, "survey", "--n-min", "3", "--n-max", "3", "--format", "json")
    assert json.loads(out)["meta"]["version"] == version
