"""Deciding stable twistability exactly.

A planar lattice is stable when its determinant is at most lambda1^4, i.e. no
sublattice is denser than the lattice itself.  For a twist family
alpha = t + sqrt(D) the stable region in t is a finite union of intervals with
quadratic-surd endpoints; the feasibility set is computed exactly and a
simplest rational witness is extracted by continued fractions.
"""

from quadtwist import (
    CanonicalIdeal,
    gram_of_twist,
    is_stable,
    is_wr,
    ring_of_integers,
    stable_twist,
    QuadElem,
)


def show(I):
    fr = stable_twist(I)
    print(f"ideal (a={I.a}, b={I.b}, g={I.g}) in Q(sqrt({I.D})):")
    if not fr.feasible_real:
        print("  no stable twist exists\n")
        return
    for iv in fr.intervals:
        print(f"  stable t-interval: {iv}")
    if fr.witness_t is None:
        print(f"  (the single point t = {fr.intervals[0].lo} is stable, but "
              "stable_twist searches only the interior of the set for a "
              "witness)\n")
        return
    print(f"  simplest rational witness: t = {fr.witness_t}")
    G = gram_of_twist(I, QuadElem(I.D, fr.witness_t, 1))
    print(f"  Gram at witness = {G}")
    print(f"  is_stable = {is_stable(G)}, is_wr = {is_wr(G)}")
    assert is_stable(G)
    print()


# Two large-discriminant ideals that are stable twistable (at t = 63 and
# t = 611 respectively) but provably never WR twistable.
show(CanonicalIdeal(1327, 39, 38, 1))
show(CanonicalIdeal(125173, 183, 182, 1))

# For the ring of integers of Q(sqrt(5)) the stable set degenerates to a
# single point t = 5 — exactly the orthogonal twist alpha = 5 + sqrt(5),
# which is WR and so stable, though stable_twist reports no witness there.
show(ring_of_integers(5))

# And for most rings of integers the stable set is empty.
show(ring_of_integers(7))
