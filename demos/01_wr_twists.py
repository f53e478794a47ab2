"""Constructing well-rounded twists of ideal lattices.

An ideal I of the ring of integers of Q(sqrt(D)) embeds as a planar lattice
via the two real embeddings.  Twisting by a totally positive alpha = t + sqrt(D)
rescales the two coordinates independently; for some ideals a single rational
t* makes the canonical basis vectors equal-length shortest vectors, i.e. the
twisted lattice well-rounded (WR).  Everything below is exact rational
arithmetic — the floats are only for display.
"""

import math

from quadtwist import (
    CanonicalIdeal,
    is_wr,
    ring_of_integers,
    successive_minima,
    wr_twist,
)


def show(I):
    v = wr_twist(I)
    print(f"ideal (a={I.a}, b={I.b}, g={I.g}) in Q(sqrt({I.D})):")
    if not v.wr_twistable:
        print(f"  not WR twistable: {v.reason}\n")
        return
    print(f"  t*     = {v.t_star}")
    print(f"  alpha  = {v.alpha}")
    l1, l2 = successive_minima(v.gram)
    cos = v.gram.g12 / v.gram.g11
    print(f"  Gram   = {v.gram}")
    print(f"  lambda1^2 = lambda2^2 = {l1}  (~ {math.sqrt(l1):.6f}^2)")
    print(f"  cosine of basis angle = {cos}  (~ {float(cos):.6f})")
    assert is_wr(v.gram) and l1 == l2
    print()


# A WR-twistable ideal with a large denominator in t*.
show(CanonicalIdeal(139, 9, 7, 1))

# The D = 1 (mod 4) analogue, with basis (a, b + (1 - sqrt(D))/2).
show(CanonicalIdeal(141, 5, 4, 1))

# The full ring of integers is WR twistable only for D = 5, where the twist
# by 5 + sqrt(5) is actually orthogonal (square lattice).
show(ring_of_integers(5))

# A generic ring of integers fails: the closed form forces a non-positive t.
show(ring_of_integers(7))

# The verdict is decidable for every canonical ideal; scan a small family.
print("WR-twistable ideals with D <= 30, a <= 10:")
from quadtwist import enumerate_canonical, is_squarefree

for D in range(2, 31):
    if not is_squarefree(D):
        continue
    for I in enumerate_canonical(D, 10):
        v = wr_twist(I)
        if v.wr_twistable:
            print(f"  D={D:3d} (a={I.a}, b={I.b}, g={I.g})  t* = {v.t_star}")
