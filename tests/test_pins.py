"""Regression pins: the bytes of the ``schedule`` CSV and the bits of
``plancherel_sum``, first recorded from the code as it stood before the
ladder sums were shared with the geometric side; every column but ``candidates``
of the ``systole`` CSV, recorded before the systole search stopped walking
the traces; and the bytes of the ``trace-check`` CSV. A change that moves
any of them must say why.

The ``trace-check`` bytes were re-recorded when the rule for h began to read
the kernel through ``profile.g``, the baby/giant-step evaluator, instead of a
Clenshaw sum of its own. ``integral`` and ``abs_error`` kept their bits;
``integral_radius`` moved at S = 0.25, 1 and 4, by at most 1.3e-6 relative,
through the term |B_128 - B_64| of the Fermi moment.

The bits of ``vanishing_series`` and ``geometric_side`` were recorded from
the code as it stood before the ladder engine took blocks of ladders, when
each ladder still made its own engine call.

The ``trace-check``, ``vanishing_series`` and ``geometric_side`` bits were
re-recorded when ``transform_profile`` began to form 2 cosh(u) - 2 at its
nodes as 4 sinh(u/2)^2, which does not cancel at small u (below S = 1e-16
the old form lost phi(0) entirely). Every kernel value moved in its last
bits. In ``trace-check`` the radii moved by -3.9% to +1.1% (+1.1% at
S = 1) and every value stayed within its radius of phi(0). The
``geometric_side`` values moved by at most 4.5e-16 relative and their radii
by -2.3% to +0.6%.

The ``geometric_side`` entry at t = 1e-3 once pinned that ladder written out
as a list of geodesic classes, summed term by term. When the class-list
route was deleted it was re-keyed to the ladder itself, with bits recorded
from the ladder route before the deletion: the values are the same bits,
and the radii 2.2% (S = 0.75) and 2.5% (S = 1) wider: both charge the same
kernel error, and the ladder route's roundoff also charges the rounding of
each rung's argument k t.

The ``geometric_side`` radius at (S, rungs) = (1.0, 1025) was re-recorded,
one ulp wider, when the derivative series of the kernel were kept in
x = u/L and scaled by (t/L)^i at the tail ends, instead of being divided by
L six times and scaled by t^i (the division overflowed at supports below
about 1e-110). The bounds on the derivatives round differently; every value
and every other radius kept its bits.

The ``schedule`` CSV bytes and the ``plancherel_sum`` bits were re-recorded
when the criterion sums left numpy: a ladder of up to 128 rungs is summed
whole with math.exp and math.expm1, and a longer one as a head of 32 rungs
and an order-10 Euler-Maclaurin tail, where it was a numpy head of 128 and
an order-6 tail. Every re-recorded value lies within 0.3 of its old radius
of the old value and every verdict line held. No radius grew, except by
1 to 3 ulp on 18 whole ladders (libm's weights and a plain sum of the
moment round differently from numpy's), and ``plancherel_sum`` at
(t, R) = (0.45, 1000), 0.23% wider: the order-10 remainder at rung 33 is
3.3e-17 per pair, where the order-6 one at rung 129 was 8.5e-21. The kernel pins (``vanishing_series``,
``geometric_side``, ``trace-check``) kept their bits.

The kernel pins were recorded on one code path, and hold only on it: numpy's
X86_V4 (AVX-512) loops, which ``np.show_runtime()`` lists as found with
X86_V3, AVX512_ICL and AVX512_SPR, and numpy's bundled OpenBLAS on its
SkylakeX kernel. With ``NPY_DISABLE_CPU_FEATURES=X86_V4,AVX512_ICL,AVX512_SPR``
numpy takes its AVX2 loops, and 6 of the 22 pins here fail: the three
``vanishing_series``, both ``geometric_side`` and the ``trace-check`` CSV;
``OPENBLAS_CORETYPE=Haswell`` added fails the same 6. The criterion pins
(``schedule`` and ``plancherel_sum``) use no numpy and hold on both paths,
and with glibc's libm forced onto its non-FMA variants
(``GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2_Usable,-FMA_Usable``) all 22 hold.
Every other test of the suite, enclosures, oracles and acceptance checks
among them, passes on each of these paths."""

import hashlib
import json
import math

import pytest

from pinchlab import (Schedule, bump, geometric_side, pinch_ladder, plancherel_sum,
                      transform_profile, vanishing_series)
from pinchlab.cli import main

# sha256 of the CSV of ``schedule`` over levels 3..stop, keyed by (rule, stop, radius)
SCHEDULE_CSV_SHA256 = {
    ("reciprocal", 400, 0.5): "232b14ac031b72a18aec3fdba42ff2a039e6999e0fd150c47eac7fcf55b32884",
    ("reciprocal", 400, 1.0): "c9082aa63a9fb43fbdd65cd57b03d39321d3108284b4ce195e2162b001d7a08e",
    ("reciprocal", 400, 2.0): "c1389fdc078ddcd5bd59c14aeb074cc2238f3dc412cafc1e3a25f2ca18dc302d",
    ("exponential", 20, 0.5): "5af85ef970b7e98490d77feb651cf995359df36bb74237af28ebb65cdbb08d07",
    ("exponential", 20, 1.0): "cd00ca47390ac55d20ddfc0203e400cbd27394c229b8cc6114070faccc0b2245",
    ("exponential", 20, 2.0): "508b7c244e63c99d5a8a03cef9a41dfc11536d142512a8b084688fd0ca3cc972",
    ("superexponential", 10, 0.5): "78be09667c76f75dea5ed8d74fda8e3782c33ac22fbdfc36f1712930bf6ac333",
    ("superexponential", 10, 1.0): "7a0f93ffa30e6f01b20b1464153c2c5cf65a6b0de1da5788bddc56d3fbea9932",
    ("superexponential", 10, 2.0): "b32b2bdcbc47fd33d4d60dd0a35af479ac2a26d04d30f56ec6bf41d0d46966aa",
    ("reciprocal", 2000, 1.0): "df3915a481af296bcef3fa26b03f503b70f770fc1e7778dd816b5b31ec0203ad",
}

# (float.hex of the value, float.hex of the radius) of plancherel_sum over a
# ladder of multiplicity 6, keyed by (t, radius): the grid of the mpmath test
PLANCHEREL_SUM_HEX = {
    (0.45, 0.5): ("0x1.7cc76ed03748cp+3", "0x1.b715f894e6264p-46"),
    (0.45, 1.0): ("0x1.1b397648f42f2p+4", "0x1.493445c40c770p-45"),
    (0.45, 2.0): ("0x1.80b1ec40cf3fcp+4", "0x1.c51a8f6366e46p-45"),
    (0.45, 1000.0): ("0x1.0938a3452566dp+5", "0x1.68a08fdce69e9p-44"),
    (0.1, 0.5): ("0x1.b534897d7f600p+4", "0x1.f1d419bde2f5cp-45"),
    (0.1, 1.0): ("0x1.1703fcf9c6e02p+5", "0x1.3fcc4f6059070p-44"),
    (0.1, 2.0): ("0x1.51765f4cd4a50p+5", "0x1.86f9fec839ec7p-44"),
    (0.1, 1000.0): ("0x1.998c68315bc0ap+5", "0x1.035756342c892p-43"),
    (0.001, 0.5): ("0x1.45ce51cdf6071p+6", "0x1.be2e3785d579ap-43"),
    (0.001, 1.0): ("0x1.6650e2dc333f7p+6", "0x1.b71c19313008dp-43"),
    (0.001, 2.0): ("0x1.84c7297b9a3f2p+6", "0x1.afe2c61f9b98ep-43"),
    (0.001, 1000.0): ("0x1.a9d21bad220e5p+6", "0x1.a1f9c4867b001p-43"),
    (1e-07, 0.5): ("0x1.7fed69c840edbp+7", "0x1.848efedf20121p-42"),
    (1e-07, 1.0): ("0x1.9031d3d6fde3ep+7", "0x1.8109dd626731ep-42"),
    (1e-07, 2.0): ("0x1.9f6e9b029e27cp+7", "0x1.7d6f4b8e2c338p-42"),
    (1e-07, 1000.0): ("0x1.b1f562a1ab1a3p+7", "0x1.767cc0a277d8dp-42"),
    (2.061153622438558e-09, 0.5): ("0x1.dd17d53a3175ap+7", "0x1.ca6ecaa1b4296p-42"),
    (2.061153622438558e-09, 1.0): ("0x1.ed5c3f5ddefc8p+7", "0x1.c6e9a93e037dfp-42"),
    (2.061153622438558e-09, 2.0): ("0x1.fc990694107d1p+7", "0x1.c34f177737ad8p-42"),
    (2.061153622438558e-09, 1000.0): ("0x1.078fe71de58fcp+8", "0x1.bc5c8c980558cp-42"),
    (1e-13, 0.5): ("0x1.65bff46993d6cp+8", "0x1.3e9e6c9941a40p-41"),
    (1e-13, 1.0): ("0x1.6de2297b36536p+8", "0x1.3cdbdbe7c3ea1p-41"),
    (1e-13, 2.0): ("0x1.75808d1666b64p+8", "0x1.3b0e930481b80p-41"),
    (1e-13, 1000.0): ("0x1.7ec3f0ea358aep+8", "0x1.37954d951426ap-41"),
    (1e-300, 0.5): ("0x1.02fed2b4901b6p+13", "0x1.87a3236379502p-37"),
    (1e-300, 1.0): ("0x1.033fe45d1d2f5p+13", "0x1.8786fa5861749p-37"),
    (1e-300, 2.0): ("0x1.037cd779f6b26p+13", "0x1.876a25ca2d518p-37"),
    (1e-300, 1000.0): ("0x1.03c6f29895290p+13", "0x1.8732917336787p-37"),
}

# sha256 of the ``trace-check`` CSV over these supports at tol 1e-9
TRACE_CHECK_SUPPORTS = "0.25,0.5,0.75,1,2,4,8"
TRACE_CHECK_CSV_SHA256 = "506d5b51bdc43949512726f04fbb831c710c93f3536b72b99dbba4ee2373f8bd"

# sha256 of the ``float.hex`` of the normalized column of ``vanishing_series``
# over reciprocal 3..2000, one row a line, keyed by the support S of bump(S)
VANISHING_SERIES_SHA256 = {
    0.25: "f8fa38ee7de76b2fbca280a4bc06b8e6146b1baf544503e28dbf204742266299",
    1.0: "879befc2880fefac1ac3d483b9875d162340a1d0ae31726bc2f10366cce7ea4b",
    8.0: "a3b6b82a6db9c33ec693196ddff804272b7b9e2bce30a3903531da1c21f52d53",
}

# (float.hex of the value, float.hex of the radius) of geometric_side against
# bump(S), keyed by (S, rungs): a ladder of multiplicity 12 at t = L/(rungs + 1/2)
# out to the support L, which has that many rungs (about 1e299 for the last);
# "t = 1e-3" is the ladder of that pinch length out to L
GEOMETRIC_SIDE_HEX = {
    (0.75, 100): ("0x1.b145c6093d164p+4", "0x1.2a57f34a50f03p-42"),
    (0.75, 1024): ("0x1.4507ec2b89864p+5", "0x1.b33963cf94d88p-42"),
    (0.75, 1025): ("0x1.45139524146eep+5", "0x1.d7de9f16912d2p-42"),
    (0.75, 10**6): ("0x1.43327e5b52608p+6", "0x1.fec2848ac898fp-41"),
    (0.75, 10**10): ("0x1.0d18b163c0ddbp+7", "0x1.a1b5a77008067p-40"),
    (0.75, 10**299): ("0x1.f63d0c8c9009bp+11", "0x1.4720452be337bp-35"),
    (0.75, "t = 1e-3"): ("0x1.3bd1576a5b0c2p+5", "0x1.a79d883d4d4e8p-42"),
    (1.0, 100): ("0x1.f49c0ae1e7bf2p+4", "0x1.80f36b2be9ef0p-42"),
    (1.0, 1024): ("0x1.7777d93538d3fp+5", "0x1.189e6c6a6f89fp-41"),
    (1.0, 1025): ("0x1.77854ff493406p+5", "0x1.2efce54a95712p-41"),
    (1.0, 10**6): ("0x1.7545fda7e9616p+6", "0x1.430e263ffde34p-40"),
    (1.0, 10**10): ("0x1.36c3b6f61eea8p+7", "0x1.0849d459e5a84p-39"),
    (1.0, 10**299): ("0x1.21f7fe740e7e6p+12", "0x1.a3ff6bee4da65p-35"),
    (1.0, "t = 1e-3"): ("0x1.74193f7e38d8fp+5", "0x1.163f8f8ba6e8ap-41"),
}

# the ``systole`` CSV row without its ``candidates`` column, keyed by (level, entry bound)
SYSTOLE_COLUMNS = ("level,entry_bound,min_abs_trace,expected_trace,"
                   "witness_a,witness_b,witness_c,witness_d,passed")
SYSTOLE_ROWS = {
    (3, 1450): "3,1450,7,7,-8,3,-3,1,true",
    (5, 2000): "5,2000,23,23,-24,5,-5,1,true",
    (5, 2900): "5,2900,23,23,-24,5,-5,1,true",
    (7, 4400): "7,4400,47,47,-48,7,-7,1,true",
    (12, 3000): "12,3000,142,142,-143,12,-12,1,true",
}


@pytest.mark.parametrize("rule,stop,radius", sorted(SCHEDULE_CSV_SHA256))
def test_schedule_csv_bytes_pinned(capsys, tmp_path, rule, stop, radius):
    cfg = tmp_path / "schedule.json"
    cfg.write_text(json.dumps({"name": rule, "pinch": {"rule": rule},
                               "levels": {"kind": "range", "start": 3, "stop": stop}}))
    code = main(["schedule", "--config", str(cfg), "--radius", repr(radius),
                 "--j-max", "10000"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SCHEDULE_CSV_SHA256[rule, stop, radius]


def test_plancherel_sum_bits_pinned():
    grid = [(t, r) for t in (0.45, 0.1, 1e-3, 1e-7, math.exp(-20.0), 1e-13, 1e-300)
            for r in (0.5, 1.0, 2.0, 1e3)]
    assert sorted(grid) == sorted(PLANCHEREL_SUM_HEX)
    for t, r in grid:
        val = plancherel_sum(pinch_ladder(t, r, 6), r)
        assert (float(val).hex(), val.radius.hex()) == PLANCHEREL_SUM_HEX[t, r], (t, r)


@pytest.mark.parametrize("S", sorted(VANISHING_SERIES_SHA256))
def test_vanishing_series_bits_pinned(S):
    schedule = Schedule.from_rule("reciprocal", range(3, 2001), "reciprocal")
    rows = vanishing_series(schedule, bump(S), 10000)
    stream = "\n".join(row.normalized.hex() for row in rows)
    assert hashlib.sha256(stream.encode()).hexdigest() == VANISHING_SERIES_SHA256[S]


@pytest.mark.parametrize("S", [0.75, 1.0])
def test_geometric_side_bits_pinned(S):
    profile = transform_profile(bump(S))
    L = profile.g_support
    for key, pinned in GEOMETRIC_SIDE_HEX.items():
        if key[0] != S:
            continue
        rungs = key[1]
        if rungs == "t = 1e-3":
            spectrum = pinch_ladder(1e-3, L, 12)
        else:
            spectrum = pinch_ladder(L / (rungs + 0.5), L, 12)
            assert rungs == 10**299 or spectrum.count == rungs
        side = geometric_side(spectrum, profile)
        assert (float(side).hex(), side.radius.hex()) == pinned, key


def test_trace_check_csv_bytes_pinned(capsys):
    code = main(["trace-check", "--supports", TRACE_CHECK_SUPPORTS, "--tol", "1e-9"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TRACE_CHECK_CSV_SHA256


@pytest.mark.parametrize("level,bound", sorted(SYSTOLE_ROWS))
def test_systole_row_pinned(capsys, level, bound):
    code = main(["systole", "--level", str(level), "--entry-bound", str(bound)])
    header, row = capsys.readouterr().out.splitlines()
    assert code == 0
    keep = [i for i, col in enumerate(header.split(",")) if col != "candidates"]
    assert ",".join(header.split(",")[i] for i in keep) == SYSTOLE_COLUMNS
    assert ",".join(row.split(",")[i] for i in keep) == SYSTOLE_ROWS[level, bound]
