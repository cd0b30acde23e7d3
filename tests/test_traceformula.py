import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from pinchlab import (
    DomainError,
    Schedule,
    TestFunction,
    TransformProfile,
    bump,
    compacted_surface,
    geometric_side,
    pinch_ladder,
    plancherel_integral,
    plancherel_sum,
    short_spectrum,
    transform_profile,
    validity_check,
    vanishing_series,
)
from pinchlab.convergence import _rung_length
from pinchlab.traceformula import _BLOCK, _GEO_GAUSS, _GEO_HEAD, _giant_split, _split_series

mp.mp.dps = 50

# ---------------------------------------------------------------- references
# Built from numpy alone, on another rule than the package's 128-point one:
# 16 Gauss-Legendre panels of 64 nodes each in y = s / s_max over (0, 1).
_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)
_PANELS = 16
_REF_Y = ((np.arange(_PANELS)[:, None] + 0.5 * (_GL_X[None, :] + 1.0)) / _PANELS).ravel()
_REF_W = np.tile(0.5 * _GL_W / _PANELS, _PANELS)
_DIRECT_LIMIT = 10**5  # reference ladders up to this many rungs are summed term by term
_EM_HEAD = 2000  # rungs summed term by term in front of the reference's Euler-Maclaurin tail


def reference_kernel(S, u):
    """g(u) = 2 * integral over s in (0, sqrt(S - v)) of phi(v + s^2) ds,
    v = 2 cosh u - 2, for the unit bump of support S, by a 1024-point
    composite Gauss-Legendre rule; zero once v reaches S."""
    u = np.atleast_1d(np.abs(np.asarray(u, dtype=float)))
    out = np.empty(u.size)
    for lo in range(0, u.size, 2048):
        v = 2.0 * np.cosh(u[lo : lo + 2048]) - 2.0
        s_max = np.sqrt(np.maximum(S - v, 0.0))
        x = (v[:, None] + (s_max[:, None] * _REF_Y[None, :]) ** 2) / S
        w = 1.0 - x * x
        inside = w > 0.0
        phi = np.where(inside, np.exp(-1.0 / np.where(inside, w, 1.0)), 0.0)
        out[lo : lo + 2048] = 2.0 * s_max * (phi @ _REF_W)
    return out


def _ref_summand(S, t, k):
    """t g(k t) / sinh(k t / 2) over an array of rungs k."""
    u = k * t
    return t * reference_kernel(S, u) / np.sinh(0.5 * u)


def reference_geometric(S, t, count, multiplicity):
    """(multiplicity / 2) * sum over k = 1..count of t g(k t)/sinh(k t/2) with
    the reference kernel.

    Up to _DIRECT_LIMIT rungs the sum is direct. Longer ladders must cover
    the support; their terms from _EM_HEAD on follow Euler-Maclaurin, with
    the integral of g(u)/sinh(u/2) taken in s = log u (constant to machine
    precision below u = e^-40, composite Gauss-Legendre above) and the
    derivative corrections at _EM_HEAD by central differences. The terms at
    the far end vanish with all their derivatives, since g is flat there.
    """
    L = math.acosh(1.0 + 0.5 * S)
    if count <= _DIRECT_LIMIT:
        k = np.arange(1.0, count + 1.0)
        return 0.5 * multiplicity * math.fsum(_ref_summand(S, t, k).tolist())
    assert count * t >= L - t, "the Euler-Maclaurin reference needs a covering ladder"
    head = math.fsum(_ref_summand(S, t, np.arange(1.0, _EM_HEAD)).tolist())
    a = float(_EM_HEAD)
    near = _ref_summand(S, t, a + np.arange(-2.0, 3.0))
    d1 = (near[0] - 8.0 * near[1] + 8.0 * near[3] - near[4]) / 12.0
    d3 = (near[4] - 2.0 * near[3] + 2.0 * near[1] - near[0]) / 2.0
    s_lo, s_hi = math.log(a * t), math.log(L)
    flat = max(s_lo, -40.0)
    # below e^-40, g(u) u / sinh(u/2) is 2 g(0) to machine precision
    integral = 2.0 * float(reference_kernel(S, 0.0)[0]) * (flat - s_lo)
    # g varies on the last few units of s, and is flat towards its edge at L
    bend = max(flat, s_hi - 4.0)
    edges = np.concatenate([np.linspace(flat, bend, 33)[:-1], np.linspace(bend, s_hi, 97)])
    x, w = np.polynomial.legendre.leggauss(24)
    half = 0.5 * np.diff(edges)
    s = (edges[:-1, None] + half[:, None] * (x[None, :] + 1.0)).ravel()
    u = np.exp(s)
    vals = reference_kernel(S, u) * u / np.sinh(0.5 * u) * (half[:, None] * w[None, :]).ravel()
    integral += math.fsum(vals.tolist())
    tail = integral + 0.5 * near[2] - d1 / 12.0 + d3 / 720.0
    return 0.5 * multiplicity * (head + tail)


@pytest.fixture(scope="module")
def profile1():
    return transform_profile(bump(1.0))


@pytest.fixture(scope="module")
def spectral1(profile1):
    return plancherel_integral(profile1)


# ---------------------------------------------------------------- test function

def test_bump_values():
    phi = bump(1.0)
    assert phi(0.0) == math.exp(-1.0)
    assert phi(1.0) == 0.0
    assert phi(0.5) == pytest.approx(math.exp(-4.0 / 3.0), rel=1e-15)
    assert phi(7.3) == 0.0


def test_bump_amplitude_and_support():
    phi = bump(4.0, amplitude=2.5)
    assert phi(0.0) == 2.5 * math.exp(-1.0)
    assert phi(2.0) == pytest.approx(2.5 * math.exp(-4.0 / 3.0), rel=1e-15)
    out = phi(np.array([0.0, 3.5, 4.0, 5.0]))
    assert out[0] > 0.0 and out[1] > 0.0
    assert out[2] == 0.0 and out[3] == 0.0
    with pytest.raises(DomainError):
        bump(0.0)
    with pytest.raises(DomainError):
        bump(-2.0)


def test_test_function_support_enforced():
    with pytest.raises(DomainError, match="beyond the stated support"):
        TestFunction(evaluator=lambda u: 1.0, support_bound=1.0)
    # scalar-only: it cannot take the array the kernel is built from
    with pytest.raises(DomainError, match="must take a float array"):
        TestFunction(evaluator=lambda u: math.inf if u == 0.0 else 0.0, support_bound=1.0)
    with pytest.raises(DomainError, match="to a finite one"):
        TestFunction(evaluator=lambda u: np.where(np.asarray(u) == 0.0, math.inf, 0.0),
                     support_bound=1.0)


@pytest.mark.parametrize("evaluator", [
    lambda u: math.exp(-1 / (1 - u * u)) if u < 1 else 0.0,
    lambda u: 0.0,
    lambda u: math.inf if u == 0.0 else 0.0,
], ids=["bump", "zero", "inf-at-0"])
def test_test_function_refuses_scalar_only_evaluators(evaluator):
    # each is a fine function of a float, but the kernel calls phi once on
    # a 2-d array; refused where the test function is made, not in the build
    with pytest.raises(DomainError, match="float array"):
        TestFunction(evaluator=evaluator, support_bound=1.0)


@pytest.mark.parametrize("value", [np.zeros((2, 33)), "0", [0.0]])
def test_test_function_refuses_values_that_are_not_reals(value):
    # beyond the support each value is read as a real, so an evaluator that
    # gives an array, text or a list for a float raises DomainError, not ValueError
    with pytest.raises(DomainError, match="must be a real"):
        TestFunction(evaluator=lambda u: value, support_bound=1.0)


# ---------------------------------------------------------------- g

def test_g_zero_beyond_support(profile1):
    edge = math.acosh(1.5)
    for r in (edge, edge + 1e-9, 2.0, 30.0, 600.0):
        assert profile1.g(r) == 0.0
        assert profile1.g(-r) == 0.0
    assert reference_kernel(1.0, edge + 1e-9)[0] == 0.0


def test_g_passes_nan_through(profile1):
    # NaN is no point of the real line; reading it as "beyond the support"
    # would turn a bad input into a plausible 0
    assert math.isnan(profile1.g(math.nan))
    vals = profile1.g(np.array([0.5, math.nan, -math.nan, 2.0]))
    assert np.isnan(vals).tolist() == [False, True, True, False]
    assert vals[0] == profile1.g(0.5) and vals[3] == 0.0
    assert profile1.g(math.inf) == 0.0 and profile1.g(-math.inf) == 0.0
    # reals past the float range lie beyond the support too
    assert profile1.g(10**400) == 0.0 and profile1.g(-10**400) == 0.0


def test_g_reads_lists_as_it_reads_reals(profile1):
    # an integer past the float range lies beyond the support inside a list
    # too, and a list gives the bits of the float array
    assert profile1.g([10**400, 0.5, -(10**400)]).tolist() == [0.0, profile1.g(0.5), 0.0]
    points = [0.1, 0.5, 0.9, 3]
    assert profile1.g(points).tobytes() == profile1.g(np.array(points, dtype=float)).tobytes()
    for nested in (tuple(points), np.array(points, dtype=object)):
        assert profile1.g(nested).tobytes() == profile1.g(points).tobytes()
    assert profile1.g([points[:2], points[2:]]).tolist() == [profile1.g(points).tolist()[:2],
                                                             profile1.g(points).tolist()[2:]]
    assert profile1.g(np.array([0, 2])).tolist() == [profile1.g(0.0), 0.0]


def test_g_at_zero_against_quad():
    for S in (0.5, 1.0, 4.0):
        ref, _ = quad(lambda s: math.exp(-1.0 / (1.0 - (s * s / S) ** 2)),
                      0.0, math.sqrt(S), epsabs=1e-14, epsrel=1e-14)
        assert abs(transform_profile(bump(S)).g(0.0) - 2.0 * ref) <= 1e-13


def test_g_scales_with_amplitude():
    r = 0.3
    base = transform_profile(bump(1.0)).g(r)
    assert transform_profile(bump(1.0, amplitude=3.0)).g(r) == pytest.approx(3.0 * base,
                                                                              rel=1e-14)


AMPLITUDES = [1e-323, 1e-321, 1e-318, 1e-315, 1e-310, 1e-300, 1.0, 1e290, 1e299, 1e306,
              1e307, 1e308]


@pytest.mark.parametrize("S", [0.25, 1.0, 8.0])
def test_amplitude_extremes_enclose_or_raise_domain_error(S):
    # subnormal amplitudes round each product to a multiple of the smallest
    # float, and huge ones overflow: each side must enclose its reference,
    # a/e or a times the side at amplitude 1, or raise DomainError naming
    # the overflow, which no amplitude up to 1e290 may do
    base = transform_profile(bump(S))
    L = base.g_support
    spectra = [pinch_ladder(1e-3, L, 3), pinch_ladder(1e-8, L, 3), pinch_ladder(0.3 * L, L, 3),
               pinch_ladder(L / 50, L, 3)]
    refs = [geometric_side(spectrum, base) for spectrum in spectra]
    misses, refusals = [], []
    for a in AMPLITUDES:
        sides = [(plancherel_integral, a / math.e, 0.0)]
        sides += [(lambda p, s=spectrum: geometric_side(s, p), a * float(ref), a * ref.radius)
                  for spectrum, ref in zip(spectra, refs)]
        for i, (side, ref, ref_radius) in enumerate(sides):
            try:
                value = side(transform_profile(bump(S, a)))
            except DomainError as exc:
                refusals.append((a, i, str(exc)))
                continue
            if not abs(float(value) - ref) <= value.radius + ref_radius:
                misses.append((a, i, float(value), value.radius, ref))
    assert misses == []
    assert all(a > 1e290 and "overflows the float range" in msg for a, _, msg in refusals)


@pytest.mark.parametrize("S", [0.25, 1.0, 8.0])
def test_public_profile_attributes_are_finite_or_raise_domain_error(S):
    # every public attribute, read or called at u = L/2 and r = 1, with
    # numpy's overflow warnings raised as errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (1e-323, 1.0, 1e308):
            try:
                profile = transform_profile(bump(S, a))
            except DomainError:
                continue
            args = {"g": 0.5 * profile.g_support, "h": 1.0, "h_batch": np.array([1.0])}
            for name in (name for name in dir(profile) if not name.startswith("_")):
                try:
                    value = getattr(profile, name)
                    if callable(value):
                        value = value(args[name])
                except DomainError:
                    continue
                assert np.isfinite(value).all(), (a, name)


def test_kernel_past_the_float_range_names_phi0():
    with pytest.raises(DomainError, match=r"overflows the float range at phi\(0\) = 3\.67"):
        transform_profile(bump(100.0, 1e308))


def test_g_nonincreasing():
    profile = transform_profile(bump(2.0))
    vals = profile.g(np.linspace(0.0, math.acosh(2.0), 301))
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------- profile

def test_profile_matches_direct_g(profile1):
    L = profile1.g_support
    assert L == pytest.approx(math.acosh(1.5), rel=1e-15)
    grid = np.linspace(0.0, L * 0.999, 17)
    for r, ref in zip(grid, reference_kernel(1.0, grid)):
        assert abs(profile1.g(r) - ref) <= profile1.kernel_error
    assert profile1.g(L) == 0.0
    assert profile1.g(10.0) == 0.0


@pytest.mark.parametrize("S", [0.25, 1.0, 8.0])
def test_profile_kernel_error_covers_reference(S):
    # the stated kernel error is an estimate; hold it against the reference
    # kernel on a grid much finer than the series' 128 nodes
    profile = transform_profile(bump(S))
    grid = np.linspace(0.0, profile.g_support, 4001)
    miss = float(np.max(np.abs(profile.g(grid) - reference_kernel(S, grid))))
    assert miss <= profile.kernel_error <= 1e-12 * profile.g(0.0)


def test_profile_metadata(profile1):
    assert profile1.coefficients.shape == (128,)
    assert 0.0 < profile1.kernel_error <= 1e-13
    # g(0) is the alternating sum of the even Chebyshev coefficients
    signs = (-1.0) ** np.arange(128)
    assert profile1.g(0.0) == pytest.approx(float(signs @ profile1.coefficients), rel=1e-14)


def test_profile_stores_only_what_it_cannot_derive(profile1):
    # the benchmark's traced run counts h points by replacing h_batch; every
    # reading of h, the spectral integral's and profile.h alike, must see it
    assert [f.name for f in dataclasses.fields(TransformProfile)] == [
        "g_support", "coefficients", "h_batch"]
    points = []

    def counting(r):
        points.append(np.size(r))
        return profile1.h_batch(r)

    replaced = dataclasses.replace(profile1, h_batch=counting)
    base, wrapped = plancherel_integral(profile1), plancherel_integral(replaced)
    assert float(wrapped).hex() == float(base).hex()
    assert wrapped.radius.hex() == base.radius.hex()
    assert sum(points) == 128 + 64
    assert replaced.h(0.5) == profile1.h(0.5)
    assert points[-1] == 1
    assert replaced.g(0.5) == profile1.g(0.5)
    assert replaced.kernel_error == profile1.kernel_error


# ---------------------------------------------------------------- h

# Run in a fresh interpreter under a given BLAS thread count: the kernel
# evaluator's matrix product must not let one point's bits depend on the
# others, whatever the column count. Unpadded, pieces of 1 to 100 points gave
# other bits than the same points inside a larger product.
_SPLIT_ELEMENTWISE = """
import numpy as np
from pinchlab import bump, transform_profile
from pinchlab.traceformula import _giant_split, _split_series

profile = transform_profile(bump(1.0))
split, L = _giant_split(profile.coefficients), profile.g_support
rng = np.random.default_rng(13)
sizes = (0, 1, 2, 3, 4, 5, 9, 17, 33, 100, 1152, 5000, 20000)
pieces = [rng.uniform(0.0, 1.0, n) for n in sizes]
whole = _split_series(split, np.concatenate(pieces))
parts = [_split_series(split, piece) for piece in pieces]
assert whole.tobytes() == np.concatenate(parts).tobytes()
g_whole = profile.g(L * np.concatenate(pieces))
assert g_whole.tobytes() == np.concatenate([profile.g(L * p) for p in pieces]).tobytes()
for i in (0, 5, 1000, 4999):
    x = pieces[11][i]
    for single in (_split_series(split, np.asarray(x)), _split_series(split, np.float64(x))):
        assert np.ndim(single) == 0 and float(single).hex() == float(parts[11][i]).hex()
    start = sum(sizes[:11]) + i
    for u in (L * x, np.asarray(L * x), np.float64(L * x)):
        assert profile.g(u).hex() == float(g_whole[start]).hex()
print("elementwise")
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_split_series_is_elementwise(threads):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _SPLIT_ELEMENTWISE], cwd=root,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout.strip() == "elementwise"


# Run in a fresh interpreter under a given BLAS thread count: the geometric
# sides of a schedule's rows go through the kernel engine in blocks, and no
# row's bits may depend on the rows it shares a block with. Each row is
# compared with a call of its own (a block of one) with the blocks at their
# own size, at one row and at the whole schedule; each criterion sum of
# classify_schedule, which takes no blocks, with its own plancherel_sum. The
# rows hold two invalid ones in front, rung counts 0 and 1, counts at both
# edges of the criterion's whole ladders (128) and of the geometric head
# (1024), and t = 1e-300 in the block of t = 0.3; j_max = 7 cuts the block
# in its middle.
_BLOCK_INDEPENDENT = """
from pinchlab import (Schedule, bump, classify_schedule, compacted_surface, geometric_side,
                      pinch_ladder, plancherel_sum, transform_profile, vanishing_series)
from pinchlab import traceformula

phi = bump(0.1)
profile = transform_profile(phi)
L = profile.g_support
pinches = [0.6, 0.5, 0.45, 0.3] + [L / (n + 0.5) for n in (128, 129, 1024, 1025)] + [1e-300]
schedule = Schedule.explicit("edges", range(3, 3 + len(pinches)), pinches)
counts = [pinch_ladder(t, L, 1).count for t in pinches[2:]]
assert counts[:6] == [0, 1, 128, 129, 1024, 1025] and counts[6] > 10**299, counts


def own_rows(j_max):
    rows = []
    for level, t in list(zip(schedule.levels, schedule.pinch_lengths))[:j_max]:
        if t >= 0.5:
            rows.append((False, "nan", "nan", "nan"))
            continue
        surface = compacted_surface(level, t)
        ladder = pinch_ladder(t, L, surface.pinched_count)
        s = plancherel_sum(ladder, L)
        side = float(geometric_side(ladder, profile)) / surface.volume
        rows.append((True, float(s).hex(), s.radius.hex(), side.hex()))
    return rows


def block_rows(j_max):
    report = classify_schedule(schedule, L, j_max)
    series = vanishing_series(schedule, phi, j_max)
    return [(row.valid, row.pl_sum.hex(), row.pl_sum_radius.hex(), side.normalized.hex())
            for row, side in zip(report.rows, series)]


for j_max in (len(pinches), 7):
    own = own_rows(j_max)
    assert [row[0] for row in own] == [False] * 2 + [True] * (j_max - 2)
    # vanishing_series groups its ladders by traceformula._blocks: at its own
    # size, at one ladder a block (a zero-rung row joins the next) and at the
    # whole schedule
    for block in (traceformula._BLOCK, 1, 10**9):
        traceformula._BLOCK = block
        assert block_rows(j_max) == own, (j_max, block)
print("independent")
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_schedule_rows_do_not_depend_on_their_block(threads):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _BLOCK_INDEPENDENT], cwd=root,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout.strip() == "independent"


@pytest.mark.parametrize("S", [0.25, 1.0, 8.0, 64.0, 1e4, 1e6])
def test_split_series_against_mpmath(S):
    # the evaluator stays within the 8 ulp of the coefficient sum that
    # kernel_error charges for roundoff, against a 40-digit Clenshaw sum of
    # the same series
    coefficients = transform_profile(bump(S)).coefficients
    x = np.concatenate([[0.0, 1.0], np.random.default_rng(17).uniform(0.0, 1.0, 100)])
    values = _split_series(_giant_split(coefficients), x)
    allowance = 8.0 * np.finfo(float).eps * float(np.sum(np.abs(coefficients)))
    cs = [mp.mpf(float(c)) for c in coefficients]
    with mp.workdps(40):
        for xi, value in zip(x.tolist(), values.tolist()):
            y2 = 4 * mp.mpf(xi) ** 2 - 2
            b1 = b2 = mp.mpf(0)
            for c in cs[:0:-1]:
                b1, b2 = y2 * b1 - b2 + c, b1
            ref = y2 / 2 * b1 - b2 + cs[0]
            assert abs(value - ref) <= allowance, (xi, value)


def test_h_at_zero_is_g_mass(profile1):
    ref, _ = quad(profile1.g, 0.0, profile1.g_support, epsabs=1e-13, epsrel=1e-13)
    assert abs(profile1.h(0.0) - 2.0 * ref) <= 1e-12


def test_h_even_bit_identical(profile1):
    for r in (0.0, 0.37, 1.0, 4.5, 80.0):
        assert profile1.h(r) == profile1.h(-r)


def test_h_fast_path_matches_adaptive(profile1):
    # h(r) = 2 int_0^L g(u) cos(r u) du, by QUADPACK's cosine-weighted rule
    L = profile1.g_support
    for r in (0.0, 0.5, 0.999, 1.0, 2.7, 10.0, 100.0):
        ref, _ = quad(profile1.g, 0.0, L, weight="cos", wvar=r, epsabs=1e-13, limit=200)
        assert abs(profile1.h(r) - 2.0 * ref) <= 1e-11


def test_h_batch_matches_scalar(profile1):
    # batched matvec products may reassociate, so ask for ulp-level agreement
    # rather than bit equality across different batch shapes
    grid = np.concatenate([np.linspace(0.0, 3.0, 23), np.geomspace(3.0, 300.0, 17)])
    batch = profile1.h_batch(grid)
    for r, v in zip(grid, batch):
        assert v == pytest.approx(profile1.h(float(r)), rel=1e-12, abs=1e-15)


def test_h_refuses_aliased_reach(profile1):
    # the 384-point cosine rule aliases once r * g_support passes about 1370;
    # at r = 2000 it returned -2.9e-2 where the transform is about -2e-10
    with pytest.raises(DomainError):
        profile1.h(2000.0)
    with pytest.raises(DomainError):
        profile1.h_batch(np.array([1.0, -2000.0]))
    edge = 1300.0 / profile1.g_support
    assert abs(profile1.h(edge)) <= 1e-9


def test_h_bounded_by_l1(profile1):
    mass, _ = quad(lambda u: abs(profile1.g(u)), 0.0, profile1.g_support,
                   epsabs=1e-13, epsrel=1e-13, limit=200)
    for r in np.geomspace(0.1, 1000.0, 25):
        assert abs(profile1.h(r)) <= 2.0 * mass * (1.0 + 1e-12)


# ---------------------------------------------------------------- spectral side

def test_spectral_integral_recovers_phi0(spectral1):
    assert abs(float(spectral1) - math.exp(-1.0)) <= 1e-6
    assert spectral1.radius <= 1e-6


def test_spectral_integral_against_compact_oracle(profile1, spectral1):
    # second route through the pairing: push the spectral density onto g,
    # which turns the oscillatory r-integral into a one-dimensional integral
    # against W(u) = cosh(u/2)/(4 sinh^2(u/2)) - 1/u^2 plus a boundary term
    L = profile1.g_support
    g0 = profile1.g(0.0)

    def w_kernel(u):
        if u < 1e-3:
            return 1.0 / 24.0 - 7.0 * u * u / 1920.0
        return math.cosh(0.5 * u) / (4.0 * math.sinh(0.5 * u) ** 2) - 1.0 / (u * u)

    def integrand(u):
        return (profile1.g(u) - g0) / (u * u) + profile1.g(u) * w_kernel(u)

    val, quad_err = quad(integrand, 0.0, L, epsabs=1e-11, epsrel=1e-11, limit=400)
    oracle = (g0 / L - val) / math.pi
    assert abs(float(spectral1) - oracle) <= 5e-9 + quad_err


@pytest.mark.parametrize("S", [0.25, 0.5, 0.75, 1.0, 2.0, 4.0, 8.0])
def test_spectral_integral_encloses_phi0(S):
    value = plancherel_integral(transform_profile(bump(S)))
    assert abs(float(value) - math.exp(-1.0)) <= value.radius <= 1e-9


@pytest.mark.parametrize("S", [64.0, 1e3, 1e6])
def test_spectral_integral_encloses_phi0_large_support(S):
    value = plancherel_integral(transform_profile(bump(S)))
    assert abs(float(value) - math.exp(-1.0)) <= value.radius <= 1e-4


def test_spectral_integral_encloses_phi0_across_small_supports():
    # the supports run from the float floor up; below S = 1 the kernel's
    # nodes sit at v = 2 cosh(beta) - 2 near 0, where that difference cancels
    misses = []
    for S in np.geomspace(1e-300, 200.0, 201):
        value = plancherel_integral(transform_profile(bump(S)))
        if not abs(float(value) - math.exp(-1.0)) <= value.radius:
            misses.append((float(S), float(value), value.radius))
    assert not misses, f"{len(misses)} supports miss 1/e, first {misses[:3]}"


def test_spectral_integral_refuses_aliased_support():
    # g_support = 115.1 puts r = 14 past the reach of h
    with pytest.raises(DomainError):
        plancherel_integral(transform_profile(bump(1e50)))


# ---------------------------------------------------------------- geometric side

def test_geometric_side_empty(profile1):
    # a ladder whose first rung lies past its radius has no rungs
    ladder = pinch_ladder(0.3, 0.2, 4)
    assert ladder.count == 0
    val = geometric_side(ladder, profile1)
    assert float(val) == 0.0 and val.radius == 0.0


def test_geometric_side_single_class(profile1):
    # one rung, at length 0.5 inside the support L = 0.962, where g does not vanish
    ladder = pinch_ladder(0.5, 0.5, 1)
    assert ladder.count == 1
    val = geometric_side(ladder, profile1)
    w = float(mp.mpf("0.5") / (2 * mp.sinh(mp.mpf("0.25"))))
    assert float(val) == pytest.approx(w * profile1.g(0.5), rel=1e-14)
    assert val.radius >= profile1.kernel_error * w


def termwise_side(profile, t, count, mult):
    """(mult/2) sum over k = 1..count of t g(k t)/sinh(k t/2) with the
    package's kernel, term by term in math.fsum, and the summed weights
    mult t/sinh(k t/2)."""
    lengths = [_rung_length(t, k) for k in range(1, count + 1)]
    weights = [mult * t / math.sinh(0.5 * u) for u in lengths]
    return (math.fsum(0.5 * w * profile.g(u) for w, u in zip(weights, lengths)),
            math.fsum(weights))


def test_geometric_side_list_against_fsum(profile1):
    ladder = pinch_ladder(0.07, 0.9, 4)
    val = geometric_side(ladder, profile1)
    ref, _ = termwise_side(profile1, 0.07, ladder.count, 4)
    assert float(val) == pytest.approx(ref, rel=1e-13)


def test_geometric_side_ladder_matches_list(profile1):
    ladder = pinch_ladder(0.01, 0.9, 6)
    fast = geometric_side(ladder, profile1)
    slow, weights = termwise_side(profile1, 0.01, ladder.count, 6)
    assert float(fast) == pytest.approx(slow, rel=1e-12)
    assert abs(float(fast) - slow) <= fast.radius
    # the radius charges the kernel error, so it encloses the reference kernel's sum
    ref = reference_geometric(1.0, 0.01, ladder.count, 6)
    assert abs(float(fast) - ref) <= fast.radius
    assert fast.radius >= 0.5 * profile1.kernel_error * weights


@pytest.fixture(scope="module")
def grid_profiles():
    return {S: transform_profile(bump(S)) for S in (0.25, 0.75, 1.0, 4.0, 8.0)}


@pytest.mark.parametrize("t", [1e-2, 1e-3, 1e-4, 1e-8, 1e-300])
@pytest.mark.parametrize("S", [0.25, 0.75, 1.0, 4.0, 8.0])
def test_geometric_side_encloses_reference(grid_profiles, S, t):
    profile = grid_profiles[S]
    ladder = pinch_ladder(t, profile.g_support, 12)
    side = geometric_side(ladder, profile)
    ref = reference_geometric(S, t, ladder.count, 12)
    assert abs(float(side) - ref) <= side.radius <= 1e-12 * float(side)


def test_geometric_side_termwise_sandwich(profile1):
    # g is nonincreasing, so the side is pinned between the extreme g values
    # times half the criterion sum
    for t in (0.05, 0.003):
        ladder = pinch_ladder(t, 0.9, 2)
        gs = float(geometric_side(ladder, profile1))
        pl = float(plancherel_sum(ladder, 0.9))
        top = _rung_length(t, ladder.count)
        lo = 0.5 * profile1.g(top) * pl
        hi = 0.5 * profile1.g(0.0) * pl
        assert lo * (1.0 - 1e-9) <= gs <= hi * (1.0 + 1e-9)


def test_geometric_side_bracket_route(profile1):
    # past the head the rungs follow Euler-Maclaurin; check the whole ladder
    # against brute-force summation of the same kernel
    t = 1e-6
    ladder = pinch_ladder(t, 1.0, 2)
    val = geometric_side(ladder, profile1)
    n_eff = int(profile1.g_support * (1.0 + 1e-12) / t)
    k = np.arange(1.0, n_eff + 1.0)
    acc = 2.0 * math.fsum((t / (2.0 * np.sinh(0.5 * k * t)) * profile1.g(k * t)).tolist())
    assert abs(float(val) - acc) <= val.radius + 1e-9 * acc
    assert val.radius <= 1e-12 * float(val)


def test_geometric_side_huge_ladder_is_cheap(profile1):
    ladder = pinch_ladder(math.exp(-20.0), 1.0, 12)
    val = geometric_side(ladder, profile1)
    assert float(val) > 0.0
    assert val.radius <= 1e-6 * float(val)


def test_geometric_side_ladder_needs_profile():
    # a bare kernel callable is refused
    with pytest.raises(DomainError):
        geometric_side(pinch_ladder(1e-7, 1.0, 2), lambda r: 1.0)


@pytest.mark.parametrize("rungs", [1100, 200_000])
@pytest.mark.parametrize("S", [64.0, 1e4, 1e6])
def test_geometric_side_large_support_against_direct_sum(S, rungs):
    # every rung of the same series kernel, summed directly; the kernel
    # charge is left out of the radius, since both sides share the kernel
    profile = transform_profile(bump(S))
    L = profile.g_support
    ladder = pinch_ladder(L / rungs, L, 12)
    side = geometric_side(ladder, profile)
    t = ladder.pinch_length
    u = np.arange(1.0, ladder.count + 1.0) * t
    direct = 6.0 * math.fsum((t * profile.g(u) / np.sinh(0.5 * u)).tolist())
    kernel_charge = 0.5 * profile.kernel_error * float(plancherel_sum(ladder, L))
    assert abs(float(side) - direct) <= side.radius - kernel_charge


# ---------------------------------------------------------------- series

def test_vanishing_series_reciprocal_prefix():
    phi = bump(1.0)
    sched = Schedule.from_rule("recip", range(3, 13), "reciprocal")
    rows = vanishing_series(sched, phi, 20)
    assert [row.level for row in rows] == list(range(3, 13))
    assert all(row.valid for row in rows)
    vals = [row.normalized for row in rows]
    assert all(v > 0.0 for v in vals)
    assert vals[-1] < vals[0]


def test_vanishing_series_flags_uncertified_rows():
    # widen the support until the integration radius outruns the floor
    phi = bump(2.0 * math.cosh(1.6) - 2.0)
    sched = Schedule.explicit("wide", [3, 5], [0.45, 0.2])
    rows = vanishing_series(sched, phi, 10)
    assert not rows[0].valid and math.isnan(rows[0].normalized) and math.isnan(rows[0].radius)
    assert rows[1].valid and math.isfinite(rows[1].normalized) and rows[1].radius > 0.0


def test_vanishing_series_superexponential():
    # t = exp(-N^2) reaches 10^43 rungs at N = 10
    sched = Schedule.from_rule("super", range(3, 11), "superexponential")
    rows = vanishing_series(sched, bump(1.0), 10)
    assert [row.level for row in rows] == list(range(3, 11))
    assert all(row.valid for row in rows)
    L = math.acosh(1.5)
    for row in rows:
        pairs = compacted_surface(row.level, row.pinch).pinched_count
        count = pinch_ladder(row.pinch, L, pairs).count
        ref = reference_geometric(1.0, row.pinch, count, pairs)
        volume = compacted_surface(row.level, row.pinch).volume
        assert row.normalized == pytest.approx(ref / volume, rel=1e-12)


def _per_row(schedule, phi, j_max):
    """vanishing_series one row at a time, through geometric_side: the hex
    of each row's value and radius over the volume, "nan" on invalid rows."""
    profile = transform_profile(phi)
    L = profile.g_support
    rows = []
    for level, t in list(zip(schedule.levels, schedule.pinch_lengths))[:j_max]:
        if not validity_check(level, t, L):
            rows.append(("nan", "nan"))
            continue
        side = geometric_side(short_spectrum(level, t, L), profile)
        volume = compacted_surface(level, t).volume
        rows.append(((float(side) / volume).hex(), (side.radius / volume).hex()))
    return rows


def _hex_rows(rows):
    return [(row.normalized.hex(), row.radius.hex()) for row in rows]


def _kernel_point_count(schedule, S):
    """The kernel points of a schedule's valid rows: each ladder's head
    rungs, and the nodes of its tail rule if it has a tail."""
    L = transform_profile(bump(S)).g_support
    counts = [short_spectrum(level, t, L).count
              for level, t in zip(schedule.levels, schedule.pinch_lengths)
              if validity_check(level, t, L)]
    return sum(n if n <= _GEO_HEAD else _GEO_HEAD + _GEO_GAUSS for n in counts)


def test_vanishing_series_batches_match_per_row_blocks():
    # about 77k kernel points, so the rows span several blocks
    sched = Schedule.from_rule("recip", range(3, 401), "reciprocal")
    assert _kernel_point_count(sched, 1.0) > 2 * _BLOCK
    rows = vanishing_series(sched, bump(1.0), 1000)
    assert _hex_rows(rows) == _per_row(sched, bump(1.0), 1000)


def test_vanishing_series_batches_match_per_row_empty_ladder():
    # at S = 0.1 the support L = 0.315 ends below the first rung of level 3
    sched = Schedule.from_rule("recip", range(3, 60), "reciprocal")
    L = transform_profile(bump(0.1)).g_support
    assert short_spectrum(3, 1.0 / 3.0, L).count == 0
    rows = vanishing_series(sched, bump(0.1), 100)
    assert rows[0].valid and rows[0].normalized == 0.0
    assert _hex_rows(rows) == _per_row(sched, bump(0.1), 100)


def test_vanishing_series_batches_match_per_row_invalid_rows():
    # the validity floor only grows along a schedule (levels rise, pinch
    # lengths do not), so invalid rows lead; a wide support makes five of
    # them, and the valid rows behind them span several blocks and end on a
    # partial one
    phi = bump(2.0 * math.cosh(3.2) - 2.0)
    pinches = [0.45] * 4 + [0.45 * 0.75**j for j in range(53)]
    sched = Schedule.explicit("wide", range(3, 3 + len(pinches)), pinches)
    assert _kernel_point_count(sched, phi.support_bound) > 2 * _BLOCK
    rows = vanishing_series(sched, phi, 1000)
    assert [row.valid for row in rows] == [False] * 5 + [True] * 52
    assert _hex_rows(rows) == _per_row(sched, phi, 1000)


def test_vanishing_series_respects_j_max():
    rows = vanishing_series(Schedule.from_rule("r", range(3, 50), "reciprocal"),
                            bump(1.0), 4)
    assert [row.j for row in rows] == [1, 2, 3, 4]
