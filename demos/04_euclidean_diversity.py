"""Covering thickness, minimum product distance and Euclidean bounds.

The twists of an ideal lattice all have full diversity; their minimum product
distance is governed by the smallest |N(z)| over the ideal, computed exactly
from the cycle of the attached indefinite binary quadratic form.  Minimizing
the covering thickness tau over the twist family sharpens the classical
Euclidean-minimum bound M(K) <= (Delta_K / 16)^(1/2) to
M(K) <= tau_min^2 * Delta_K / 4 per ideal.
"""

import math

from quadtwist import (
    CanonicalIdeal,
    HEXAGONAL_THICKNESS_SQ,
    QuadElem,
    d_min_sq_twist,
    euclidean_bounds,
    is_squarefree,
    min_abs_norm,
    ring_of_integers,
    tau_min_search,
)

# --- minimum absolute norm and product distance -----------------------------

I = CanonicalIdeal(10, 3, 1, 1)  # non-principal ideal of norm 3
r = min_abs_norm(I)
print(f"min |N(z)| over (a=3, b=1) in Q(sqrt(10)): {r.m} "
      f"at z = {r.witness} (attains ideal norm: {r.attains_ideal_norm})")

alpha = QuadElem(10, 7, 1)
d2 = d_min_sq_twist(I, alpha)
print(f"squared minimum product distance of the twist by {alpha}: {d2} "
      f"(~ {math.sqrt(float(d2)):.6f}^2)\n")

# --- thickness minimization --------------------------------------------------

for D in (2, 5, 10):
    ring = ring_of_integers(D)
    t = tau_min_search(ring)
    tau = math.sqrt(float(t.exact_tau_sq_at_argmin))
    print(f"D={D}: certified covering thickness tau <= {tau:.6f} "
          f"at t = {t.argmin_t}  (hexagonal floor "
          f"{math.sqrt(float(HEXAGONAL_THICKNESS_SQ)):.6f})")
print()

# --- Euclidean certificates ---------------------------------------------------

print("fields certified Euclidean by the discriminant bound (D <= 60):")
for D in range(2, 61):
    if not is_squarefree(D):
        continue
    rep = euclidean_bounds(D)
    if rep.euclidean_certified:
        print(f"  D={D:2d}: M(K) <= {rep.field_bound:.6f} < 1")

# The per-ideal refinement for the golden ring.
ring5 = ring_of_integers(5)
t5 = tau_min_search(ring5)
rep5 = euclidean_bounds(5, ring5, t5.exact_tau_sq_at_argmin)
print(f"\nrefined bound for O_K, D=5: M(K) <= {rep5.ideal_bound:.6f} "
      f"(< 1: {rep5.ideal_bound_lt_one})")
