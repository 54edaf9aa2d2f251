"""Exact verification of the chord construction on plane cubic curves.

The curve is y^2 z = x^3 + a x^2 z + b x z^2 with zero O = [0:1:0] and the
2-torsion point beta = (0, 0); the chord construction sends each point p to
the line through p and p + beta in the dual plane.  This package computes
the map and its closed-form image cubic exactly (over the rationals or a
small prime field) and machine-checks the statements about it: incidence,
the image-cubic identity, two-to-one fibers, the flex correspondence, the
2-isogeny quotient identification, and the degree of the translation
variant.
"""

from .chord import (
    CubicInvariants,
    DualPoint,
    TernaryForm,
    chord_cubic,
    chord_map,
    cubic_invariants,
    line_through,
    weierstrass_form,
)
from .curve import (
    CurveParams,
    CurvePoint,
    beta,
    enumerate_points,
    group_add,
    is_on_curve,
    point_order,
    reduce_params,
    scalar_mul,
    three_torsion_flexes,
    translate_by_beta,
    two_torsion_points,
    validate_curve,
)
from .plane import (
    MinDegree,
    evaluate_form,
    find_flexes_over_Fp,
    hessian_cubic,
    is_flex,
    min_interpolating_degree,
    smooth_over_Fp,
)
from .poly import MultiPoly, reduce_mod_curve
from .scalars import PrimeField, PrimeFieldScalar, squares_table
from .verify import (
    FpContext,
    Report,
    run_full_suite,
    sample_params,
    verify_chord_incidence_symbolic,
    verify_cross_checks,
    verify_degree_remark,
    verify_fibers,
    verify_flex_correspondence,
    verify_identity_symbolic,
    verify_quotient,
)

__version__ = "0.1.0"
