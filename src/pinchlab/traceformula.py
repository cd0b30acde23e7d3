"""Test-function transforms and both sides of the trace-formula identity.

A smooth compactly supported profile phi on [0, infinity) determines the
geometric-side kernel g (an integral of phi over a horocyclic variable) and
the spectral-side multiplier h (the Fourier cosine dual of g). The identity
anchoring everything here is that the spectral integral of h against the
plane's spectral density recovers phi(0); the geometric side pairs g with a
length spectrum. Both evaluations return a value with an error radius.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import InitVar, dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .certified import CertifiedValue
from .convergence import (
    _EPS,
    _TINY,
    PinchLadder,
    _assemble,
    _ladder_count,
    _require_finite_scale,
    _schedule_rows,
    _tail,
)
from .errors import DomainError, _as_real, _read_real, _require_positive
from .hyperbolic import _NORMAL_MIN, _acosh1p

_DEGREE = 255  # of the kernel's Chebyshev series; g is even, so only T_0, T_2, ..., T_254
_TERMS = (_DEGREE + 1) // 2  # even coefficients, and interpolation nodes in [0, L]
_CHOP = 8  # trailing coefficients behind the chopping estimate
_GEO_HEAD = 1024  # rungs of a geometric side summed term by term before Euler-Maclaurin
_GEO_ORDER = 6  # Euler-Maclaurin order of a geometric tail
_HEAD_RUNGS = np.arange(1.0, _GEO_HEAD + 1.0)  # rung numbers for a head of up to 1024 rungs
_BLOCK = 1 << 14  # kernel points per block of ladders, which bounds the temporaries
_GEO_GAUSS = 128  # Gauss-Legendre nodes of the tail integral; exact to degree 255
_R_SPLIT = 14.0  # 2r/(e^(2 pi r) + 1) is below 1e-36 past here
_H_REACH = 1300.0  # largest r * g_support for h; the 384-point rule aliases from about 1370
_BABY = 16  # baby steps T_0 .. T_15 of the kernel evaluator, in y = 2x^2 - 1
_GIANT = _TERMS // _BABY  # its giant steps T_0 .. T_7 in z = T_16(y)
_CHUNK = 2048  # points per matrix product of the kernel evaluator
_PAD = 64  # its column counts are padded to a multiple of this
_TAIL_FLOOR = 4096  # _TINY charged for the subnormal rounding of a tail (see _block_sides)

# The positive half of the 2 * _TERMS Chebyshev points of the first kind, and
# the matrix taking g there to the even coefficients (a cosine transform; the
# angles are reduced exactly, in integers, before the cosine)
_NODES = np.cos((2 * np.arange(_TERMS) + 1) * (math.pi / (4 * _TERMS)))
_TO_COEFFICIENTS = np.cos(
    (np.outer(2 * np.arange(_TERMS), 2 * np.arange(_TERMS) + 1) % (8 * _TERMS))
    * (math.pi / (4 * _TERMS))
) / (_TERMS / 2)
_TO_COEFFICIENTS[0] *= 0.5
_ORDERS = np.arange(_DEGREE)  # T_0 .. T_254: the full series of g and its derivatives
_SIGNS = (-1.0) ** np.arange(_TERMS)  # T_2j(0)
# int_0^1 T_2j'(x)/x dx = 2j I_j, with I_j = int_0^(pi/2) sin(2j a)/cos(a) da
# = 2 sum_(i <= j) (-1)^(j - i)/(2i - 1)
_LOG_MOMENTS = 4.0 * np.arange(_TERMS) * _SIGNS * np.append(
    0.0, np.cumsum(_SIGNS[1:] / (2.0 * np.arange(1, _TERMS) - 1.0)))
_LOG_MOMENT_SUM = float(np.sum(np.abs(_LOG_MOMENTS)))


def _fsum(terms) -> float:
    """math.fsum, but NaN where the sum overflows the float range or meets
    infinities of both signs, so that the caller's check of its result can
    name the cause."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.nan


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Smooth profile phi on [0, infinity) vanishing at and beyond support_bound.

    The evaluator maps a float array to a finite float array of the same
    shape: the kernel is built from one call on a 2-d array."""

    __test__ = False  # "test function" is analytic vocabulary; keep pytest away

    evaluator: Callable[[np.ndarray], np.ndarray]
    support_bound: float

    def __post_init__(self) -> None:
        s = _require_positive("support_bound", self.support_bound)
        object.__setattr__(self, "support_bound", s)
        # Python floats reach inf past the float range, where numpy would warn;
        # each value must read as a real, so an array for a float raises too
        for u in (s + i * (s / 8.0) for i in range(9)):
            if _read_real(f"evaluator({u})", self.evaluator(u)) != 0.0:
                raise DomainError(f"evaluator({u}) != 0 beyond the stated support {s}")
        grid = np.linspace(0.0, s, 33)
        try:
            values = np.asarray(self.evaluator(grid), dtype=float)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"the evaluator must take a float array: {exc}") from None
        if values.shape != grid.shape or not np.isfinite(values).all():
            raise DomainError(f"the evaluator must map a float array of shape {grid.shape} "
                              f"inside the support to a finite one, got {values!r}")

    def __call__(self, u):
        return self.evaluator(u)


def bump(S, amplitude=1.0) -> TestFunction:
    """The standard smooth bump amplitude * exp(-1/(1 - (u/S)^2)) on [0, S)."""
    S = _require_positive("S", S)
    amplitude = _as_real("amplitude", amplitude)

    def phi(u):
        x = np.asarray(u, dtype=float) / S
        w = 1.0 - x * x
        inside = w > 0.0
        out = np.where(inside, amplitude * np.exp(-1.0 / np.where(inside, w, 1.0)), 0.0)
        if out.ndim == 0:
            return float(out)
        return out

    return TestFunction(evaluator=phi, support_bound=S)


def _giant_split(coefficients: np.ndarray) -> np.ndarray:
    """The _GIANT x _BABY matrix R with sum_k coefficients[k] T_k(y) =
    sum_i R_i(y) T_16i(y), R_i(y) = sum_j R[i, j] T_j(y).

    Top down, T_(16i + j) = 2 T_j T_16i - T_(16i - j) moves each coefficient
    of block i >= 1 into R[i, j] = 2 c_(16i + j), less c_(16i + j) on
    c_(16i - j) of the block below; block 0 keeps what is left. The sum of
    |R| stays within 0.16% of that of the coefficients for S = 0.25 to 1e6.
    """
    c = np.array(coefficients, dtype=float)
    split = np.empty((_GIANT, _BABY))
    for i in range(_GIANT - 1, 0, -1):
        top = c[_BABY * i + 1 : _BABY * (i + 1)]
        split[i, 1:] = 2.0 * top
        c[_BABY * (i - 1) + 1 : _BABY * i] -= top[::-1]
        split[i, 0] = c[_BABY * i]
    split[0] = c[:_BABY]
    return split


def _split_series(split: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j c_j T_2j(x) from the split R of c (``_giant_split``), after
    Paterson and Stockmeyer (SIAM J. Comput. 1973); x is a float array.

    Each chunk of up to _CHUNK points takes the baby steps V = T_0..T_15
    of y = 2x^2 - 1 by their recurrence, one matrix product Q = R @ V, and
    Clenshaw's recurrence in z = T_16(y) over the 8 rows of Q: about 60
    numpy calls per chunk, whatever the number of coefficients. The
    column count is padded to a multiple of _PAD, since OpenBLAS sends
    leftover columns through other micro-kernels, whose bits differ; padded,
    every value is independent of the other points of the call.
    """
    flat = x.ravel()
    out = np.empty(flat.size)
    for lo in range(0, flat.size, _CHUNK):
        piece = flat[lo : lo + _CHUNK]
        n = piece.size
        baby = np.empty((_BABY, -(-n // _PAD) * _PAD))
        y2 = np.zeros(baby.shape[1])  # 2y = 4x^2 - 2; 0 on the padding
        np.square(piece, out=y2[:n])
        y2[:n] *= 4.0
        y2[:n] -= 2.0
        baby[0] = 1.0
        np.multiply(y2, 0.5, out=baby[1])
        for j in range(1, _BABY - 1):
            np.multiply(y2, baby[j], out=baby[j + 1])
            baby[j + 1] -= baby[j - 1]
        z = y2 * baby[-1]
        z -= baby[-2]
        q = split @ baby
        # Clenshaw in z, in place on the rows of q
        z2, tmp = z + z, np.empty_like(z)
        q[-2] += np.multiply(z2, q[-1], out=tmp)
        for i in range(_GIANT - 3, 0, -1):
            q[i] += np.multiply(z2, q[i + 1], out=tmp)
            q[i] -= q[i + 2]
        np.multiply(z, q[1], out=tmp)
        tmp -= q[2]
        tmp += q[0]
        out[lo : lo + n] = tmp[:n]
    return out.reshape(x.shape)


def _derivative(a: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the derivative of sum a_k T_k on [-1, 1],
    padded to the length of a: b_j = sum of 2m a_m over m > j with m - j
    odd, halved at j = 0."""
    w = 2.0 * np.arange(a.size) * a
    odd = np.append(np.cumsum(w[1::2][::-1])[::-1], 0.0)  # sums over odd m >= 2i + 1
    even = np.append(np.cumsum(w[0::2][::-1])[::-1], 0.0)  # sums over even m >= 2i
    b = np.empty(a.size)
    b[0::2] = odd[: b[0::2].size]
    b[1::2] = even[1 : 1 + b[1::2].size]
    b[0] *= 0.5
    return b


def _nested_reals(name: str, u):
    """u read as ``errors._read_real`` reads a real, or, for a list, a tuple
    or an array, the nested lists of such reads. Unlike numpy, it never
    reads the bytes of a buffer as numbers."""
    if isinstance(u, np.ndarray):
        u = u.tolist()
    if isinstance(u, (list, tuple)):
        return [_nested_reals(name, x) for x in u]
    return _read_real(name, u)


def _abs_reals(name: str, u) -> np.ndarray:
    """|u| as a float array, for ``g`` and ``h_batch``. Arrays of numbers
    are read as they stand; anything else through ``_nested_reals``, so text
    and truth values raise DomainError, and so do lists of unequal lengths."""
    if isinstance(u, np.ndarray) and u.dtype.kind in "fiu":
        return np.abs(u.astype(float, copy=False))
    try:
        return np.abs(np.array(_nested_reals(name, u), dtype=float))
    except ValueError:  # lists of unequal lengths
        raise DomainError(f"{name} must be a real or an array of reals, got {u!r}") from None


@dataclass(frozen=True, eq=False)
class TransformProfile:
    """The packaged (g, h) pair for one test function.

    Only ``g_support``, ``coefficients`` and ``h_batch`` are stored. The
    rest is derived from them and computed on first use: the methods ``g``
    and ``h``, the cached ``kernel_error``, and private caches for ``g``
    and the geometric side.

    g is the even Chebyshev series sum_j coefficients[j] T_2j(u/L) on
    [-L, L], L = ``g_support``, and zero at and beyond L; NaN gives NaN.
    ``kernel_error`` is an estimate, not a bound, of its distance to the
    exact kernel: twice the sum of the last 8 coefficients (the trailing
    plateau, after Aurentz and Trefethen, "Chopping a Chebyshev series", ACM
    TOMS 2017) plus a few ulp of the coefficient sum for roundoff, and an
    absolute charge for rounding in the subnormal range, which vanishes in
    rounding at normal amplitudes. It reads
    only the coefficients, so it does not see errors in the sampled values
    of g that the coefficients interpolate. Past the float range it raises
    DomainError naming the kernel's scale, as ``h_batch`` does. The
    geometric side reads g and its derivatives in x = u/L from
    ``_ladder_series``. ``h_batch`` is the cosine transform of g by a fixed
    rule, accurate to about 1e-12 absolute while |r| * g_support stays at or
    below 1300; past that the rule aliases and it raises DomainError. ``h``
    is ``h_batch`` at one point, so a ``dataclasses.replace`` of ``h_batch``
    reaches ``h`` too.

    ``g`` takes a real or an array and sums the series by baby and giant
    steps (``_split_series``), so an array call gives the bits of a call per
    point; the rule for h reads g at its 384 nodes through it. ``g`` and
    ``h_batch`` read their arguments as ``errors._read_real`` reads a real,
    also inside nested lists (``_abs_reals``): text and truth values raise
    DomainError, and a real past the float range lies beyond the support,
    where g is 0, and beyond the reach of h. Arrays of numbers are read as
    they stand.
    """

    g_support: float
    coefficients: np.ndarray
    h_batch: Callable[[np.ndarray], np.ndarray]

    def g(self, u):
        L = self.g_support
        arr = _abs_reals("u", u)
        out = np.where(arr >= L, 0.0, _split_series(self._split, np.minimum(arr, L) / L))
        if out.ndim == 0:
            return float(out)
        return out

    def h(self, r: float) -> float:
        return float(self.h_batch(np.asarray([abs(_as_real("r", r))]))[0])

    @cached_property
    def kernel_error(self) -> float:
        c = self.coefficients
        # the last two terms charge rounding in the subnormal range: each
        # coefficient's floor, and up to 512 _TINY in the evaluator's steps
        with np.errstate(over="ignore"):
            error = (2.0 * float(np.sum(np.abs(c[-_CHOP:])))
                     + 8.0 * _EPS * float(np.sum(np.abs(c))) + _TERMS * self._floor + 512.0 * _TINY)
        if not math.isfinite(error):
            raise _overflow(c)
        return error

    @cached_property
    def _floor(self) -> float:
        """A bound on what rounding in the subnormal range moves each
        coefficient, where a product errs by up to _TINY/2 whatever its size.
        g at a node sums 128 such products times 2 s_max <= 2 sqrt(S), and a
        coefficient sums 128 products of the g values with rows of summed
        magnitude below 2, so it errs by at most (257 sqrt(S) + 65) _TINY."""
        return (514.0 * math.sinh(0.5 * self.g_support) + 65.0) * _TINY  # sqrt(S) = 2 sinh(L/2)

    @cached_property
    def _ladder_series(self) -> np.ndarray:
        """g, dg/dx, ..., d^6g/dx^6 in x = u/L, as the columns of full
        Chebyshev series in T_k(x), k = 0..254. In x, not in u: the i-th
        derivative in u is L^-i times the one in x, and at small supports,
        where L is about sqrt(S), that leaves the float range."""
        columns = [np.zeros(_DEGREE)]
        columns[0][0::2] = self.coefficients
        for _ in range(6):
            columns.append(_derivative(columns[-1]))
        return np.stack(columns, axis=1)

    @cached_property
    def _split(self) -> np.ndarray:
        return _giant_split(self.coefficients)

    @cached_property
    def _g0(self) -> float:
        """g(0), the series at x = 0."""
        return float(_SIGNS @ self.coefficients)

    @cached_property
    def _series_sups(self) -> tuple[float, ...]:
        """Bounds on |g|, |dg/dx|, ..., |d^6g/dx^6| in x = u/L: the
        coefficient sums of their series, as |T_k| <= 1."""
        return tuple(np.sum(np.abs(self._ladder_series), axis=0).tolist())


def _overflow(coefficients: np.ndarray) -> DomainError:
    """The DomainError for a sum past the float range, naming the kernel's scale."""
    scale = float(np.max(np.abs(coefficients)))
    return DomainError(f"the sum overflows the float range at a kernel scale of {scale:.6g} "
                       "(the largest |coefficient|); scale the test function down")


def _certified(value: float, radius: float, profile: TransformProfile) -> CertifiedValue:
    """A side of the identity, or DomainError naming the kernel's scale when
    the sum overflowed on the way. The public calls that reach it let numpy
    overflow silently, under np.errstate."""
    if not (math.isfinite(value) and math.isfinite(radius)):
        raise _overflow(profile.coefficients)
    return CertifiedValue(value, radius)


@np.errstate(over="ignore", invalid="ignore")
def transform_profile(phi: TestFunction) -> TransformProfile:
    """Evaluate g once on 128 Chebyshev points of [0, L] and package its
    series with the rule for h.

    Each value g(u) = 2 int_0^(s_max) phi(2 cosh u - 2 + s^2) ds takes a
    128-point Gauss-Legendre rule in s. 2 cosh u - 2 is formed as
    4 sinh^2(u/2): the difference cancels for small u, and small supports
    put every node there. The values fix the 128 even coefficients of the
    degree-255 interpolant on the Chebyshev points of [-L, L]. h(r) is the
    cosine integral of that series by a 384-point Gauss-Legendre rule on
    the support, one route for every r. A kernel past the float range, at
    its coefficients or at the nodes of that rule, raises DomainError that
    names phi(0), the amplitude of a bump times 1/e. A support below the
    normal range, where the nodes are subnormal, raises DomainError too.
    """
    if not isinstance(phi, TestFunction):
        raise DomainError(f"phi must be a TestFunction, got {phi!r}")
    S = phi.support_bound
    if S < _NORMAL_MIN:
        raise DomainError(f"support {S!r} is below the normal float range, {_NORMAL_MIN!r}")
    L = _acosh1p(0.5 * S)
    beta = L * _NODES
    v = 4.0 * np.sinh(0.5 * beta) ** 2
    s_max = np.sqrt(np.maximum(S - v, 0.0))
    xi, wq = _gauss_legendre(128)
    xi = 0.5 * (xi + 1.0)
    wq = 0.5 * wq
    u_grid = v[:, None] + (s_max[:, None] ** 2) * (xi[None, :] ** 2)
    gvals = 2.0 * s_max * (np.asarray(phi.evaluator(u_grid)) @ wq)
    coefficients = _TO_COEFFICIENTS @ gvals

    xg, wg = _gauss_legendre(384)
    xg = 0.5 * L * (xg + 1.0)

    def h_batch(r) -> np.ndarray:
        r = _abs_reals("r", r)
        flat = r.ravel()
        if flat.size and not float(flat.max()) * L <= _H_REACH:
            raise DomainError(f"h needs |r| * g_support <= {_H_REACH:g}, got |r| = "
                              f"{float(flat.max())!r} with g_support = {L!r}")
        out = np.empty(flat.size)
        with np.errstate(over="ignore", invalid="ignore"):
            # blocked to bound the temporaries
            for blk in range(0, flat.size, 256):
                out[blk : blk + 256] = 2.0 * (np.cos(np.outer(flat[blk : blk + 256], xg)) @ wg_g)
        if not np.isfinite(out).all():
            raise _overflow(coefficients)
        return out.reshape(r.shape)

    profile = TransformProfile(g_support=L, coefficients=coefficients, h_batch=h_batch)
    wg_g = 0.5 * L * wg * profile.g(xg)  # the nodes lie inside (0, L)
    if not (np.isfinite(coefficients).all() and np.isfinite(wg_g).all()):
        raise DomainError(f"the kernel of phi overflows the float range at phi(0) = "
                          f"{phi(0.0)!r}; scale the test function down")
    return profile


def _fermi_moment(h_batch: Callable, n: int) -> tuple[float, float]:
    """integral over [0, _R_SPLIT] of 2 r h(r)/(e^(2 pi r) + 1) by n-point
    Gauss-Legendre, and the sum of the magnitudes of its terms."""
    x, w = _gauss_legendre(n)
    r = 0.5 * _R_SPLIT * (x + 1.0)
    terms = _R_SPLIT * w * r * h_batch(r) / (np.exp(2.0 * math.pi * r) + 1.0)
    return _fsum(terms.tolist()), float(np.sum(np.abs(terms)))


@np.errstate(over="ignore", invalid="ignore")
def plancherel_integral(profile: TransformProfile) -> CertifiedValue:
    """Spectral integral (1/2 pi) * int_0^inf h(r) tanh(pi r) r dr.

    For a profile built from a test function phi this recovers phi(0). With
    r tanh(pi r) = r - 2r/(e^(2 pi r) + 1) the integral is (A - B)/2 pi:
    A = int_0^inf r h(r) dr = -2 int_0^L g'(u)/u du, exact on the kernel
    series (g'(u)/u is an even polynomial), and
    B = int_0^inf 2r h(r)/(e^(2 pi r) + 1) dr by a 128-point rule on
    [0, 14] through ``profile.h_batch``.

    The radius has six parts. Three are estimates: the kernel error as A
    sees it, twice what the last 8 series terms add to A (A weighs T_2j
    about 6j/L, so it is the part most sensitive to the chopping); the
    change in B from a 64-point rule; and the roundoff, a few ulp per summed
    term. Two are bounds given the kernel error: B moves by at most
    L kernel_error/12 when g does by kernel_error, since |delta h| <=
    2 L kernel_error and int 2r/(e^(2 pi r) + 1) dr = 1/24; and the tail of
    B past r = 14, from |h| <= 2 int |g| <= 2 L sum |c_j|. The sixth is the
    absolute charge for rounding in the subnormal range, where the
    roundoff's few ulp no longer cover a product: the coefficients' floor
    weighed by |_LOG_MOMENTS| in A, and what B and the last steps round.
    A sum past the float range raises DomainError naming the kernel's scale.
    """
    L = profile.g_support
    terms = profile.coefficients * _LOG_MOMENTS
    a_value = -2.0 / L * _fsum(terms.tolist())
    a_chop = 4.0 / L * float(np.sum(np.abs(terms[-_CHOP:])))
    a_size = 2.0 / L * float(np.sum(np.abs(terms)))
    b_fine, b_size = _fermi_moment(profile.h_batch, 128)
    b_coarse, _ = _fermi_moment(profile.h_batch, 64)
    h_sup = 2.0 * L * float(np.sum(np.abs(profile.coefficients)))
    # int_R^inf 2r e^(-2 pi r) dr = e^(-2 pi R) (R/pi + 1/(2 pi^2))
    tail = h_sup * math.exp(-2.0 * math.pi * _R_SPLIT) * (_R_SPLIT / math.pi + 0.5 / math.pi**2)
    b_kernel = L * profile.kernel_error / 12.0
    roundoff = 8.0 * _EPS * (a_size + b_size + h_sup)
    # rounding in the subnormal range: A weighs the coefficients' floor by
    # |_LOG_MOMENTS| and rounds 128 products; B and the value round up to 256 _TINY
    floor = 2.0 / L * (_LOG_MOMENT_SUM * profile._floor + 64.0 * _TINY) + 256.0 * _TINY
    scale = 1.0 / (2.0 * math.pi)
    value = scale * (a_value - b_fine)
    radius = scale * (a_chop + abs(b_fine - b_coarse) + b_kernel + tail + roundoff + floor)
    return _certified(value, radius, profile)


def _rung_weights(t, k: np.ndarray) -> np.ndarray:
    """t/sinh(k t/2) over an array of rungs k, written as 2t e^-y/(1 - e^-2y)
    with y = k t/2, so that long rungs underflow to 0 and nothing overflows;
    t is a float, or an array of the t of each rung."""
    y = k * (-0.5 * t)
    return t * (np.exp(y) / np.expm1(y + y)) * -2.0


def _blocks(sizes: list[int]) -> list[slice]:
    """Runs of consecutive ladders for ``_block_sides``, given the points
    each ladder brings: a run closes at the ladder that takes its points to
    _BLOCK or past, and the last run takes what is left."""
    ends = list(itertools.accumulate(sizes, initial=0))  # points before each ladder
    blocks, start = [], 0
    while start < len(sizes):
        stop = min(bisect.bisect_left(ends, ends[start] + _BLOCK), len(sizes))
        blocks.append(slice(start, stop))
        start = stop
    return blocks


def _block_sides(ladders: list, profile: TransformProfile) -> list[CertifiedValue]:
    """(mult/2) sum over the rungs inside the support of t g(k t)/sinh(k t/2)
    for each ladder (t, n, mult) of a block, n its rungs inside the support.

    This is the kernel engine: for each ladder, the sum of f(k) = g(k t) w(k),
    w(k) = t/sinh(k t/2), over k = 1..n through ``convergence._assemble``,
    the assembly the criterion sum shares. The first _GEO_HEAD rungs are
    summed term by term; the tail, k = a..b, follows Euler-Maclaurin to
    order 6, cut at the support L, where g vanishes. One ``profile.g`` call
    takes the block's kernel points: the head rungs k t, ladder after ladder
    (a block of one needs no gathering), and then the nodes of each tail's
    Gauss rule. A tail also takes g and its first three derivatives at its
    two ends, from the derivative series in x = u/L (one cosine matrix for
    the block), and the bounds on the first six, ``_series_sups``, all times
    (t/L)^i to make them derivatives in k. A ladder with a tail has
    t/L < 1/1024, so no scaled value overflows, however small L; and the tail
    integral int g(u)/sinh(u/2) du over [a t, b t]. That integral is
    2 g(0) log(b/a) plus a 128-point Gauss-Legendre rule for the rest:
    2 (g(u) - g(0))/u, a polynomial of degree 253 on the series that the
    rule integrates exactly, and g(u) (1/sinh(u/2) - 2/u), which is analytic.

    The head weights and the rule's terms are formed for the block at once.
    Each ladder is then summed on its own slice: by math.fsum, which rounds
    correctly, and by numpy's sums and dot products over the contiguous
    slice, which round as they do on the ladder alone; its tail is scalar
    work. g is elementwise (``_split_series`` pads its matrix products), so
    no ladder's bits depend on its block.

    The radius adds ``kernel_error`` times the summed weights: the engine's
    sum at g = 1 over the same rungs, head and cap, from the same weights and
    end derivatives, with its radius. Its head is summed by numpy's pairwise
    sum, not by fsum: that sum only scales the kernel charge, itself an
    estimate. It adds a _TINY for each head product and _TAIL_FLOOR of them
    for a tail, for rounding in the subnormal range. The tail's count is an
    estimate: the rule rounds 384 products, and the end corrections about
    2000 _TINY, the derivative series amplifying their rounding by up to
    (2 * 254^2 t/L)^3 <= 126^3 before the weights and 1/720 damp it. A sum
    past the float range raises DomainError: naming the multiplicity where
    it times the summed weights passes that range, else the kernel's scale.
    """
    L = profile.g_support
    ts, counts = [t for t, _, _ in ladders], [n for _, n, _ in ladders]
    heads = [min(n, _GEO_HEAD) for n in counts]
    starts = [0, *itertools.accumulate(heads)]
    if len(ladders) == 1:
        k, at = _HEAD_RUNGS[: heads[0]], ts[0]
    else:
        k, at = np.concatenate([_HEAD_RUNGS[:n] for n in heads]), np.repeat(ts, heads)
    # each ladder's rung numbers are _HEAD_RUNGS[:head], so the gathered ones
    # need not be held through the kernel call
    points, weights = k * at, _rung_weights(at, k)
    del k, at
    n_head = points.size
    tails = [_tail(t, n, _GEO_HEAD, _GEO_ORDER, 1, L) for t, n in zip(ts, counts)]
    tailed = [i for i, (_, tail) in enumerate(tails) if tail is not None]
    if tailed:
        # the last rung may pass L by the cutoff grace; g vanishes there
        spans = [tails[i][1][:2] for i in tailed]
        lo, hi = np.array(spans).T
        x, wq = _gauss_legendre(_GEO_GAUSS)
        nodes = lo[:, None] + (0.5 * (hi - lo))[:, None] * (x + 1.0)
        points = np.concatenate([points, nodes.ravel()])
    values = profile.g(points)
    kernels = [None] * len(ladders)
    if tailed:
        g0 = profile._g0
        # the engine takes t^i g^(i), the derivatives in the rung number, and
        # the series give L^i g^(i), the derivatives in x = u/L
        scales = np.array([[(ts[i] / L) ** p for p in range(7)] for i in tailed])
        series = (np.cos(np.outer(np.arccos(np.array(spans).ravel() / L), _ORDERS))
                  @ profile._ladder_series)
        ends = (series.reshape(-1, 2, 7)[:, :, :4] * scales[:, None, :4]).tolist()
        bounds = (scales * np.array(profile._series_sups)).tolist()
        w = (0.5 * (hi - lo))[:, None] * wq
        g_rule, csch_rule = values[n_head:].reshape(nodes.shape), 1.0 / np.sinh(0.5 * nodes)
        # the two parts of each term of the rule cancel; the size counts both
        parts = memoryview((w * (g_rule * csch_rule - 2.0 * g0 / nodes)).ravel())
        sizes = np.abs(g_rule) * csch_rule + 2.0 * abs(g0) / nodes
        for row, (i, (a, b)) in enumerate(zip(tailed, spans)):
            log_part = 2.0 * g0 * math.log(counts[i] / (_GEO_HEAD + 1) if b < L else L / a)
            rule = _fsum(parts[_GEO_GAUSS * row : _GEO_GAUSS * (row + 1)])
            kernels[i] = (ends[row], bounds[row],
                          (log_part + rule, abs(log_part) + float(np.dot(w[row], sizes[row]))))
    terms = weights * values[:n_head]
    magnitudes = np.abs(terms)
    view = memoryview(terms)
    sides = []
    for i, ((t, n, mult), (underflow, tail)) in enumerate(zip(ladders, tails)):
        head = slice(starts[i], starts[i + 1])
        rungs, unit, m = _HEAD_RUNGS[: heads[i]], weights[head], magnitudes[head]
        value, remainder, roundoff = _assemble(
            t, _fsum(view[head]), float(np.add.reduce(m)), float(np.dot(m, rungs)), underflow,
            tail, kernels[i])
        weight_sum = float(np.add.reduce(unit))
        weight_sum, weight_remainder, weight_roundoff = _assemble(
            t, weight_sum, weight_sum, float(np.dot(unit, rungs)), underflow, tail)
        _require_finite_scale(mult, weight_sum)
        kernel_charge = profile.kernel_error * (weight_sum + (weight_remainder + weight_roundoff))
        # rounding in the subnormal range: a _TINY for each head term, and
        # _TAIL_FLOOR of them for the tail's rule and end corrections
        floor = _TINY * (heads[i] + (_TAIL_FLOOR if tail is not None else 0))
        value *= 0.5 * mult
        sides.append(_certified(
            value, 0.5 * mult * (remainder + roundoff + kernel_charge + floor) + _EPS * abs(value),
            profile))
    return sides


@np.errstate(over="ignore", invalid="ignore")
def geometric_side(spectrum, profile: TransformProfile) -> CertifiedValue:
    """Length-spectrum side over a pinch ladder: the sum of multiplicity *
    t / (2 sinh(k t/2)) * g(k t) over its rungs, with g the kernel of
    ``profile``.

    The ladder goes through the kernel engine, which shares only its
    assembly, ``convergence._assemble``, with ``plancherel_sum``: the first
    1024 rungs term by term, the rest by Euler-Maclaurin on the kernel
    series, with the tail integral taken as
    2 g(0) log(b/a) plus a Gauss rule. The radius charges ``kernel_error``
    times the summed weights. The Euler-Maclaurin remainder is a proven
    bound for the series kernel; the kernel error and the roundoff (a few
    ulp per computed term, plus the rounding of its argument) are
    estimates. A spectrum that is not a PinchLadder raises DomainError, and
    so does a sum past the float range: one whose multiplicity times the
    summed weights passes it names the multiplicity, any other the
    kernel's scale.
    """
    if not isinstance(profile, TransformProfile):
        raise DomainError(f"profile must be a TransformProfile, got {profile!r}")
    if not isinstance(spectrum, PinchLadder):
        raise DomainError(f"spectrum must be a PinchLadder, got {type(spectrum).__name__}")
    t = spectrum.pinch_length
    count = min(spectrum.count, _ladder_count(t, profile.g_support))
    return _block_sides([(t, count, spectrum.multiplicity)], profile)[0]


@dataclass(frozen=True)
class VanishingRow:
    """One schedule entry of the normalized geometric side and its
    ``radius``, both divided by the surface volume; NaN when the support
    radius defeats the validity floor.

    ``radius`` is set at construction but is not a dataclass field, so
    ``dataclasses.astuple`` still gives the five fields that callers unpack.
    """

    j: int
    level: int
    pinch: float
    normalized: float
    valid: bool
    radius: InitVar[float]

    def __post_init__(self, radius: float) -> None:
        object.__setattr__(self, "radius", radius)


@np.errstate(over="ignore", invalid="ignore")
def vanishing_series(schedule, phi: TestFunction, j_max) -> list[VanishingRow]:
    """Normalized geometric side along a schedule, at radius = the g-support.

    Rows where the complete-spectrum guarantee fails are flagged, not fatal.
    Sub-exponential pinch rules drive the series to zero; exponential ones
    hold it away from zero.
    """
    profile = transform_profile(phi)
    entries = _schedule_rows(schedule, profile.g_support, j_max)
    ladders = [(t, count, surface.pinched_count)
               for _, _, t, surface, count in entries if count is not None]
    # each ladder's kernel points: its head rungs, and its tail rule's nodes
    sizes = [n if n <= _GEO_HEAD else _GEO_HEAD + _GEO_GAUSS for _, n, _ in ladders]
    sides = iter([(float(side), side.radius) for block in _blocks(sizes)
                  for side in _block_sides(ladders[block], profile)])
    rows = []
    for j, level, t, surface, count in entries:
        value, radius = next(sides) if count is not None else (math.nan, math.nan)
        rows.append(VanishingRow(j, level, t, value / surface.volume, count is not None,
                                 radius / surface.volume))
    return rows
