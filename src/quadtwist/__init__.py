"""Exact arithmetic for well-rounded and stable twists of ideal lattices
from real quadratic fields."""

from types import ModuleType as _ModuleType

from .quadfield import (
    CertificateError,
    InvalidFieldError,
    QuadElem,
    Surd,
    check_field,
    discriminant,
    fundamental_unit,
    is_squarefree,
    surd_compare,
)
from .ideals import (
    CanonicalBasisError,
    CanonicalIdeal,
    enumerate_canonical,
    ring_of_integers,
    validate_canonical,
)
from .lattice2 import (
    Gram2,
    SimilarityPoint,
    UnimodularMap,
    gram_of_twist,
    hermite_thickness_sq,
    is_lagrange_reduced,
    is_paper_reduced,
    is_stable,
    is_wr,
    lagrange_reduce,
    minima_brute_force,
    similarity_point,
    successive_minima,
)
from .twist import (
    FeasibilityReport,
    Interval,
    TwistVerdict,
    raw_stable_polynomials,
    simplest_rational_in,
    stable_bound_filter,
    stable_twist,
    wr_bound_filter,
    wr_twist,
)
from .geodesic import (
    F_invariant,
    GeodesicSample,
    orthogonal_only,
    sample_orbit,
    wr_intersection_classes,
)
from .applications import (
    EuclideanBoundReport,
    HEXAGONAL_THICKNESS_SQ,
    NormSearchResult,
    ThicknessSearchResult,
    d_min_sq_twist,
    euclidean_bounds,
    form_minimum,
    min_abs_norm,
    tau_min_search,
)

__version__ = "1.0.0"

# The public names are those the imports above bind; the submodules, bound
# as attributes of the package, are not among them.
__all__ = [name for name, value in dict(globals()).items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
