"""Powers of a two-generator ideal times a fixed ideal stabilize into bands.

For S = (y^v, x^u)^(r+1) * J with r large enough, the generators of every
higher power S_l = (y^v, x^u)^(r+1+l) * J split into three bands L, M, R:
L shifts straight up, R shifts straight right, and the middle band M is
copied l times along the diagonal.  These are the glued components of the
single pair y^v, x^u -- the one-segment case of the general fast power
assembly -- and their link point is the pivot where the bands meet.

Run with: python demos/05_segments.py
"""

from stairpow import MonomialIdeal, glued_components, glued_power, naive_power
from stairpow.ideals import Axis

J = MonomialIdeal.of((0, 4), (1, 2), (3, 1), (4, 0))
u, v = 3, 2
r = -(-J.dist(Axis.Y) // v)  # smallest admissible r
glued = glued_components(((0, v), (u, 0)), J, r)
((alpha, beta),) = glued.link_points
print(f"J = {J.gens}, (u, v) = ({u}, {v}), r = {r}")
print(f"segment pivot (alpha, beta) = ({alpha}, {beta})")

base = glued_power(glued, 0)
L = [f for f in base.gens if f[1] >= beta]
M = [f for f in base.gens if beta <= f[1] < beta + v]
R = [f for f in base.gens if f[1] < beta]
print(f"|L| = {len(L)}, |M| = {len(M)}, |R| = {len(R)}  (L and M overlap)")

pair = MonomialIdeal.of((0, v), (u, 0))
for ell in range(4):
    fast = glued_power(glued, ell)
    slow = naive_power(pair, r + 1 + ell) * J
    assert fast.gens == slow.gens
    print(f"l = {ell}: mu = {fast.mu}  (matches the naive product)")
print(f"mu grows by |M| = {len(M)} per step, as the banded picture predicts")
