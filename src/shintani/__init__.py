"""Exact signed-cone calculus on invertible rational matrices, pairing
into formal Laurent-quotient series, and special values of Dirichlet and
real quadratic L-functions at non-positive integers."""

from . import errors
from .cocycle_core import CocycleChecker, sigma_eval, tau_cocycle
from .cone_algebra import ConeCombo, OpenSimplicialCone, act, sigma_decompose
from .exactnum import (
    CoeffElem,
    CoeffRing,
    MPoly,
    QQ,
    Rat,
    bernoulli_number,
    bernoulli_poly,
    cyclotomic_poly,
)
from .lvalues import (
    DirichletChar,
    RealQuadField,
    SCoeffs,
    build_real_quad,
    dirichlet_L_closed,
    dirichlet_L_via_cocycle,
    fundamental_unit,
    l_value_from_s_coeffs,
    quad_L_value,
    s_coeffs,
    trivial_quad_schwartz,
)
from .ordered_field import OrderedElem, compare, iota, leading_monomial, sign_mpoly
from .solomon_hu import (
    MSeries,
    QuotSeries,
    SchwartzFn,
    laurent_coeff_1var,
    pair_cone,
    pair_combo,
    parallelotope_points,
    reduce_to_power_series,
    symmetric_laurent_coeff,
)

__version__ = "0.1.0"
