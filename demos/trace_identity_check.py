"""Both sides of the trace-formula pairing, evaluated with error bars.

A smooth bump phi determines a kernel g on lengths and a multiplier h on
frequencies. The spectral integral of h against the plane's density must
return phi(0); the geometric side pairs g with a pinch ladder and vanishes
or not depending on how fast the ladder's core length shrinks.
"""

import math

from pinchlab import (
    Schedule,
    bump,
    geometric_side,
    plancherel_integral,
    short_spectrum,
    transform_profile,
    vanishing_series,
)

S = 0.5
phi = bump(S)
profile = transform_profile(phi)
L = profile.g_support

print(f"bump support S = {S}, kernel support L = arccosh(1 + S/2) = {L:.6f}")
print(f"g(0) = {profile.g(0.0):.10f}, g vanishes beyond L: g(L + 0.01) = "
      f"{profile.g(L + 0.01)}")
print(f"h(0) = twice the kernel mass = {profile.h(0.0):.10f}")
print(f"h decays: h(5) = {profile.h(5.0):.3e}, h(50) = {profile.h(50.0):.3e}")

print()
value = plancherel_integral(profile)
target = phi(0.0)
print("spectral side, certified:")
print(f"  integral = {float(value):.12f} +/- {value.radius:.1e}")
print(f"  phi(0)   = {target:.12f}")
print(f"  error    = {abs(float(value) - target):.2e}")

print()
print("geometric side along a pinch ladder at level 5:")
for t in (0.2, 0.05, 0.01):
    ladder = short_spectrum(5, t, L)
    side = geometric_side(ladder, profile)
    print(f"  t = {t:<5g} classes = {ladder.count:5d}  side = {float(side):.8f}")

# the normalized version is the vanishing diagnostic: dividing by the
# volume kills it along the reciprocal schedule
print()
rows = vanishing_series(Schedule.from_rule("recip", range(3, 201), "reciprocal"),
                        phi, 200)
print("normalized geometric side, reciprocal schedule:")
for row in (rows[0], rows[9], rows[97], rows[-1]):
    print(f"  N = {row.level:4d}: {row.normalized:.6e}")
print(f"sup |g| = {profile.g(0.0):.6f}; the series heads to zero while the")
print("exponential schedule (not shown) would hold it at a positive level.")
