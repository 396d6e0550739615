"""Walk through the stabilization analysis of a small three-generator ideal.

Run with: python demos/01_analyze.py
"""

from stairpow import MonomialIdeal, persistence_profile, serialize_terms, stable_decomposition

# I = (y^2, x^2*y, x^3), written as (x-degree, y-degree) pairs.
I = MonomialIdeal.of((0, 2), (2, 1), (3, 0))
print(f"I = {serialize_terms(I)}   mu(I) = {I.mu}")

# The persistent generators are the vertices of the strict lower-left hull
# of the exponent set.  Here x^2*y sits on the chord between y^2 and x^3,
# so only the two extremes persist into every power.
profile = persistence_profile(I)
print(f"persistent generators        P = {profile.persistent}")
print(f"weakly persistent generators W = {profile.weakly_persistent}")
print(f"delta_P = {profile.delta_P}, d_P = {profile.d_P}, D_P = {profile.D_P}")

# The stabilization exponent s = D_P + r + 1, with r the smaller of the two
# stabilization radii at D_P: from I^s on, every power is assembled from
# fixed components and mu(I^n) is exactly linear in n.
print(f"r_x = {profile.r_x}, r_y = {profile.r_y}, r = {profile.r}, s = {profile.s}")
dec = stable_decomposition(I)
print(f"D = {dec.D}, r = {dec.r}, s = {dec.s}  (splitting axis: {dec.axis.name})")

print("\nComponents of I^s (repeated verbatim in every higher power):")
for i, comp in enumerate(dec.components):
    print(f"  C_{i} = {serialize_terms(comp)}")
for i, mid in enumerate(dec.middles, start=1):
    print(f"  H_{i} = {serialize_terms(mid)}")
print(f"boundary points h_0..h_(k+1): {dec.boundary_points}")
