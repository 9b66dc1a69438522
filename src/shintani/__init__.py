"""Exact signed-cone calculus on invertible rational matrices, pairing
into formal Laurent-quotient series, and special values of Dirichlet and
real quadratic L-functions at non-positive integers."""

from . import errors
from .cocycle_core import (
    CocycleChecker,
    closed_form_sigma_n2,
    coboundary_tau_half,
    cvalue,
    dvalue,
    moment_vector,
    sigma_eval,
    sigma_function,
    solomon_s,
    tau_cocycle,
    tau_transport,
)
from .cone_algebra import (
    ConeCombo,
    OpenSimplicialCone,
    act,
    combo_eval,
    lex_positive_region,
    sigma_decompose,
)
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
    phi_map,
    reduce_to_power_series,
    symmetric_laurent_coeff,
    translate,
)

__version__ = "0.1.0"
