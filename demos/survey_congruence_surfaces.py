"""Survey the principal congruence covers and their pinched compactifications.

Walks the torsion-free levels, prints the exact invariants (index, genus,
cusp count, systole), and checks the systole trace against its witness
matrix in a small entry box. Every number here is exact integer arithmetic
except the two lengths.
"""

import math

from pinchlab import (
    compacted_surface,
    is_in_gamma,
    min_hyperbolic_trace,
    search_size_estimate,
    surface_data,
    witness_matrix,
)

print("level   index    genus   cusps   systole        area/pi")
for n in range(3, 13):
    sd = surface_data(n)
    print(f"{n:5d} {sd.index_d:7d} {sd.genus:7d} {sd.cusps:7d}"
          f"   {sd.systole:<12.8f} {sd.area / math.pi:10.4f}")

print()
print("Pinching the cusp pairs and doubling gives a closed surface whose")
print("genus jumps by half the cusp count while the area is unchanged:")
for n in (3, 5, 7, 11):
    sd = surface_data(n)
    surf = compacted_surface(n, 0.05)
    print(f"  N={n:2d}: genus {sd.genus:2d} -> {surf.genus:3d}, "
          f"{surf.pinched_count} pinched curves, volume = {surf.volume / math.pi:.1f}*pi")

print()
print("Every level-N trace is 2 mod N^2, so the minimal |trace| over a bounded")
print("entry box is N^2 - 2, attained by the witness of the one trace 2 - N^2:")
for n in (3, 4, 5):
    bound = 10 * n * n
    count = search_size_estimate(n, bound)
    found = min_hyperbolic_trace(n, bound)
    w = witness_matrix(n)
    ok = is_in_gamma(w, n) and found == n * n - 2
    print(f"  N={n}: {count} diagonal entries a of that trace in |entries| <= {bound}, "
          f"min |trace| = {found}, witness ({w.a}, {w.b}; {w.c}, {w.d}) "
          f"{'confirmed' if ok else 'MISMATCH'}")

# the witness realizes the bound, so the shortest geodesic has length
# 2*arccosh((N^2 - 2)/2); at N = 11 that is already past 9.5
print()
print(f"systole at N=11: {surface_data(11).systole:.6f}")
