"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py            # oracles against brute force, ~10 s
    python3 perfbench/selfcheck.py --reports  # also one short run per workload and
                                              # trace mode, about 4 minutes

Each oracle in oracles.py is held against a computation that needs no
cleverness: a count of SL(2, Z/N), the golden invariant table, a direct
mpmath sum, mpmath quadrature and a direct sum of the reference kernel.
``--reports`` runs perfbench/run.py from the current directory (the root of a
checkout) and checks that each report parses, names every metric of
BENCHMARK.json with its unit, and counts attempted and failed operations.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import subprocess
import sys

import mpmath
import numpy as np

import checks
import inputs
import oracles as orc

GOLDEN = {3: (24, 0, 4), 5: (120, 0, 12), 7: (336, 3, 24), 11: (1320, 26, 60)}


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"selfcheck failed: {what}")


def check_index() -> None:
    for n in range(2, 11):
        count = sum(1 for a, b, c, d in itertools.product(range(n), repeat=4)
                    if (a * d - b * c) % n == 1 % n)
        require(orc.sl2_order(n) == count, (n, count))
    for n, (d, genus, cusps) in GOLDEN.items():
        inv = orc.level_invariants(n)
        require((inv["index_d"], inv["genus"], inv["cusps"]) == (d, genus, cusps), (n, inv))
    for n in range(3, 400):
        inv = orc.level_invariants(n)
        # Gauss-Bonnet: area pi d / 6 = 2 pi (2 genus - 2 + cusps)
        require(inv["index_d"] == 12 * (2 * inv["genus"] - 2 + inv["cusps"]), n)


def check_ladder_reference() -> None:
    for t in (1.0 / 1000.3, 1e-3 / 0.97):
        direct = orc.ladder_reference(t, 1000)  # 1000 rungs: term by term
        euler_maclaurin = orc.ladder_reference(t, 1000, head=50)
        require(abs(direct - euler_maclaurin) <= mpmath.mpf(10) ** -18 * direct, t)


def check_kernel() -> None:
    for S in (0.25, 1.0):
        L = orc.g_support(S)
        for u in (0.0, 0.3 * L, 0.7 * L, 0.95 * L):
            x0 = 4.0 * math.sinh(0.5 * u) ** 2

            def integrand(s):
                w = 1 - ((x0 + s * s) / S) ** 2
                return 2 * mpmath.exp(-1 / w) if w > 0 else mpmath.mpf(0)

            ref = float(mpmath.quad(integrand, [0, mpmath.sqrt(S - x0)]))
            mine = float(orc.kernel_g(S, u)[0])
            require(abs(mine - ref) <= 1e-13 * ref, (S, u, mine, ref))


def check_geometric_reference() -> None:
    S, mult = 1.0, 3
    L = orc.g_support(S)
    t = L / 200_003.7
    count = orc.ladder_count(t, L)
    direct = 0.0
    for lo in range(1, count + 1, 20_000):
        k = np.arange(lo, min(lo + 20_000, count + 1), dtype=float)
        direct += math.fsum(orc.kernel_g(S, k * t) / (2.0 * np.sinh(0.5 * k * t)))
    direct *= mult * t
    tail = orc.geometric_reference(S, t, count, mult)
    require(abs(direct - tail) <= 1e-12 * direct, (direct, tail))


def check_known_faults() -> None:
    """Each known fault is excused only in its one failure mode."""
    spec = inputs.schedule_sweep(1)
    L = orc.g_support(spec["vanishing_support"])

    def depth(lo):
        return f"NumericsError: adaptive bisection exceeded depth 60 on [{lo!r}, {L!r}]"

    t6, t7 = (inputs.pinch_rule("superexponential", n) for n in (6, 7))
    cases = [
        ("schedule-sweep", "vanishing_series superexponential", depth(1000001 * t6), True),
        ("schedule-sweep", "vanishing_series superexponential", depth(1000001 * t7), False),
        ("schedule-sweep", "vanishing_series superexponential", "NumericsError: other", False),
        ("schedule-sweep", "vanishing_series superexponential 3..5", depth(1000001 * t6), False),
        ("trace-pairing", "plancherel_integral S=0.75", "misses 1/e by 1.86e-09, radius 3.2e-11",
         True),
        ("trace-pairing", "plancherel_integral S=0.75", "misses 1/e by 2e-08, radius 3.2e-11",
         False),
        ("trace-pairing", "plancherel_integral S=0.75", "value nan, radius 3.2e-11", False),
        ("trace-pairing", "plancherel_integral S=0.75", "misses 1/e by x, radius 3.2e-11",
         False),
        ("trace-pairing", "plancherel_integral S=0.75", "ValueError: boom", False),
        ("trace-pairing", "plancherel_integral S=1.0", "misses 1/e by 1e-12, radius 1e-13",
         False),
    ]
    for workload, key, why, known in cases:
        require(checks.is_known_fault(workload, spec, key, why) == known, (key, why))
    nan = float("nan")
    tp = inputs.trace_pairing(1, supports=(1.0,))
    acc = checks.Accuracy()
    for v, r in ((nan, 1e-11), (math.exp(-1.0), nan), (math.exp(-1.0), math.inf)):
        bad = checks.check_trace_pairing(tp, {"plancherel_integral S=1.0":
                                              {"value": v, "radius": r}}, acc)
        require("plancherel_integral S=1.0" in bad, (v, r))


def check_reports() -> None:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    for workload in bench["workloads"]:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = subprocess.run(
                [*bench["command"], "--workload", workload["name"], "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=180, check=True)
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            where = f"{workload['name']} --trace {trace}"
            require(set(report) == {"correct", "attempted", "failed", "metrics"}, where)
            require(report["correct"] is True, where)
            require(isinstance(report["attempted"], int) and report["attempted"] >= 1, where)
            require(isinstance(report["failed"], int) and 0 <= report["failed"], where)
            require([m["name"] for m in wanted] == list(report["metrics"]), where)
            for m in wanted:
                got = report["metrics"][m["name"]]
                require(got["unit"] == m["unit"], (where, m["name"]))
                require(isinstance(got["value"], (int, float)), (where, m["name"]))
                require(math.isfinite(got["value"]), (where, m["name"]))
            print(f"report ok: {where}: attempted {report['attempted']}, "
                  f"failed {report['failed']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--reports", action="store_true")
    args = ap.parse_args()
    steps = [check_index, check_ladder_reference, check_kernel, check_geometric_reference,
             check_known_faults]
    if args.reports:
        steps.append(check_reports)
    for fn in steps:
        fn()
        print(f"ok: {fn.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
