"""Reference computations made apart from pinchlab.

Nothing here imports pinchlab. Each oracle takes another route than the
package does, so that agreement means something:

- exact invariants of the level-N surface come from the order of
  SL(2, Z/N) and the Riemann-Hurwitz form of the genus;
- ladder sums of t/sinh(k t/2) come from mpmath at 30 digits, summed
  directly or by Euler-Maclaurin with the closed-form antiderivative;
- the kernel g of a bump test function comes from a double-exponential
  rule in the variable x of phi (pinchlab uses Gauss-Legendre in sqrt(x)),
  and the geometric ladder sum from a direct head plus a midpoint
  Euler-Maclaurin tail.

``perfbench/selfcheck.py`` checks each of these against brute force.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

CUTOFF_SLACK = Fraction(1, 10**12)  # the ladder cutoff grace pinchlab documents
DE_STEP, DE_REACH = 1.0 / 32.0, 4.2  # double-exponential rule: step and reach in tau
KERNEL_CHUNK = 4096  # points of u per matrix product in kernel_g
GEO_HEAD = 2000  # rungs summed directly before the Euler-Maclaurin tail


def prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def sl2_order(n: int) -> int:
    """|SL(2, Z/N)| = N^3 prod_{p | N} (1 - 1/p^2)."""
    value = Fraction(n) ** 3
    for p in prime_factors(n):
        value *= Fraction(p * p - 1, p * p)
    return int(value)


def level_invariants(n: int) -> dict:
    """Index, genus, cusps, systole and area of the level-N surface, N >= 3.

    The projective index is mu = |SL(2, Z/N)| / 2; for N >= 3 the group is
    torsion free with mu / N cusps, so Riemann-Hurwitz gives
    genus = 1 + mu/12 - mu/(2N).
    """
    d = sl2_order(n)
    mu = Fraction(d, 2)
    genus = 1 + mu / 12 - mu / (2 * n)
    cusps = mu / n
    return {
        "index_d": d,
        "genus": int(genus),
        "cusps": int(cusps),
        "pairs": int(cusps) // 2,
        "systole": 2.0 * math.acosh((n * n - 2) / 2.0),
        "area": math.pi * d / 6.0,
    }


def ladder_count(t: float, radius: float) -> int:
    return math.floor(Fraction(radius) * (1 + CUTOFF_SLACK) / Fraction(t))


# ------------------------------------------------------------ ladder sums

_DPS = 30


def ladder_reference(t: float, count: int, head: int = 1000) -> mpmath.mpf:
    """sum_{k=1}^{count} t / sinh(k t / 2) in mpmath.

    Up to ``head`` rungs the sum is taken term by term. Beyond, the terms
    from ``head`` on are summed by Euler-Maclaurin with the exact
    antiderivative 2 log tanh(k t / 4) and four Bernoulli corrections; the
    remainder is below 1e-20 of the sum for head >= 50.
    """
    with mpmath.workdps(_DPS):
        tm = mpmath.mpf(t)

        def f(k):
            return tm / mpmath.sinh(k * tm / 2)

        if count <= head:
            return mpmath.fsum(f(k) for k in range(1, count + 1))
        m, n = mpmath.mpf(head), mpmath.mpf(count)

        def antiderivative(k):
            return 2 * mpmath.log(mpmath.tanh(k * tm / 4))

        total = mpmath.fsum(f(k) for k in range(1, head))
        total += antiderivative(n) - antiderivative(m) + (f(m) + f(n)) / 2
        for j in range(1, 5):
            order = 2 * j - 1
            corr = mpmath.diff(f, n, order) - mpmath.diff(f, m, order)
            total += mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * corr
        return +total


# ------------------------------------------------------------ kernel g

def _de_rule():
    """Double-exponential nodes y on (0, 1) with their weights."""
    tau = np.arange(-DE_REACH, DE_REACH + 0.5 * DE_STEP, DE_STEP)
    z = math.pi * np.sinh(tau)
    y = 1.0 / (1.0 + np.exp(-z))
    one_minus_y = 1.0 / (1.0 + np.exp(z))
    return y, DE_STEP * math.pi * np.cosh(tau) * y * one_minus_y


_Y, _W = _de_rule()
_W_OVER_SQRT_Y = _W / np.sqrt(_Y)


def bump_phi(S: float, x: np.ndarray) -> np.ndarray:
    w = 1.0 - (x / S) ** 2
    inside = w > 0.0
    return np.where(inside, np.exp(-1.0 / np.where(inside, w, 1.0)), 0.0)


def g_support(S: float) -> float:
    """The kernel vanishes once 2 cosh u - 2 reaches S."""
    return math.acosh(1.0 + 0.5 * S)


def kernel_g(S: float, u) -> np.ndarray:
    """g(u) = integral over x in (x0, S) of phi(x) / sqrt(x - x0),
    x0 = 4 sinh(u/2)^2, for the unit bump phi of support S.

    With x = x0 + (S - x0) y this is sqrt(S - x0) * integral over (0, 1) of
    phi(x) y^(-1/2) dy, taken by the double-exponential rule, which absorbs
    the y^(-1/2) endpoint and the flat edge of phi.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.zeros(u.shape)
    for lo in range(0, u.size, KERNEL_CHUNK):
        x0 = 4.0 * np.sinh(0.5 * u[lo : lo + KERNEL_CHUNK]) ** 2
        span = np.maximum(S - x0, 0.0)
        x = x0[:, None] + span[:, None] * _Y[None, :]
        out[lo : lo + KERNEL_CHUNK] = np.sqrt(span) * (bump_phi(S, x) @ _W_OVER_SQRT_Y)
    return out


def _geo_weight(S: float, u: np.ndarray) -> np.ndarray:
    """w(u) = g(u) / (2 sinh(u/2)), the geometric summand per unit length."""
    return kernel_g(S, u) / (2.0 * np.sinh(0.5 * u))


def _de_integral(f, a: float, b: float) -> float:
    """Integral of f over (a, b) by the double-exponential rule."""
    x = a + (b - a) * _Y
    return (b - a) * float(np.dot(_W, f(x)))


def geometric_reference(S: float, t: float, count: int, multiplicity: int) -> float:
    """sum_{k=1}^{count} multiplicity * t g(k t) / (2 sinh(k t / 2)).

    Terms past the support L vanish. Up to GEO_HEAD rungs the sum is direct.
    When the ladder covers the support and is longer, the terms after
    GEO_HEAD are a midpoint Euler-Maclaurin sum from a = (GEO_HEAD + 1/2) t:
    the integral of w over (a, L), taken in log u, plus (t^2 / 24) w'(a).
    The next term, 7 t^4 w'''(a) / 5760, is about 5e-16 of g(0).
    """
    L = g_support(S)
    n_cover = ladder_count(t, L)
    if min(count, n_cover) <= GEO_HEAD:
        k = np.arange(1, min(count, n_cover) + 1, dtype=float)
        return multiplicity * t * math.fsum(_geo_weight(S, k * t))
    if count < n_cover:
        raise ValueError("the Euler-Maclaurin tail needs a ladder that covers the support")
    k = np.arange(1, GEO_HEAD + 1, dtype=float)
    head_sum = t * math.fsum(_geo_weight(S, k * t))
    a = (GEO_HEAD + 0.5) * t

    def in_log_u(s):
        u = np.exp(s)
        return _geo_weight(S, u) * u

    integral = _de_integral(in_log_u, math.log(a), math.log(L))
    step = 1e-3 * a
    offsets = np.array([-2.0, -1.0, 1.0, 2.0]) * step
    w = _geo_weight(S, a + offsets)
    w_prime = (w[0] - 8.0 * w[1] + 8.0 * w[2] - w[3]) / (12.0 * step)
    return multiplicity * (head_sum + integral + t * t / 24.0 * w_prime)
