"""Tracing the similarity-class orbit of a twist family.

As t runs over (sqrt(D), oo) the similarity class of the twisted lattice
traces a closed curve in the fundamental domain of the modular surface
(coordinates x = g12/g11 and y^2 = det/g11^2 after reduction, so
x^2 + y^2 >= 1 and 0 <= x <= 1/2).  The curve crosses the well-rounded locus
x^2 + y^2 = 1 finitely many times; each crossing is certified by a basis with
negative F-invariant.
"""

from quadtwist import (
    CanonicalIdeal,
    orthogonal_only,
    ring_of_integers,
    sample_orbit,
    wr_intersection_classes,
)


def show_orbit(I, n=12):
    print(f"orbit of (a={I.a}, b={I.b}, g={I.g}) in Q(sqrt({I.D})):")
    print(f"  {'s':>12}  {'x':>10}  {'y^2':>10}  wr  stable")
    for s in sample_orbit(I, n):
        print(f"  {s.s:12.5f}  {float(s.tau.x):10.6f}  "
              f"{float(s.tau.y_sq):10.6f}  {int(s.is_wr)}   {int(s.is_stable)}")
    n_classes, values = wr_intersection_classes(I)
    print(f"  WR-locus crossing classes: {n_classes}, "
          f"F-values {sorted(values)}")
    print()


# The golden ring: a single crossing class, at the orthogonal (square) point.
show_orbit(ring_of_integers(5))

# Z[sqrt(2)]: again one class, the crossing basis has opposite norms +-1.
show_orbit(ring_of_integers(2))

# A WR-twistable ideal: the orbit touches the WR locus at t*.
show_orbit(CanonicalIdeal(139, 9, 7, 1), n=16)

# Which rings meet the WR locus only at the square similarity class?
# Exactly those with Delta_K - 4 a perfect square (checked for D < 1000).
from quadtwist import is_squarefree

sq_only = [D for D in range(2, 150) if is_squarefree(D) and orthogonal_only(D)]
print(f"square-class-only fields, D < 150: {sq_only}")
