"""Exact local Asai / Rankin-Selberg L-factors and mirabolic periods.

Everything is exact arithmetic over the Gaussian rationals: truncated
power series and canonical rational functions in t = q_F^-s, and the
Whittaker torus values as monomials c * q_F^(m/2), pairs (c, m) of a
Gaussian rational and an int. The package computes closed-form local
L-factors, spherical and essential Whittaker torus values, and the
lattice sums whose expansions, matched against the closed forms, verify
the period identities.
"""

from .localfields import AddCharData, FieldPair, conductor_zero_shift, trace_conductor
from .lfactors import asai_L, asai_L_multiplicative, rs_L, tate_L
from .periods import (
    PeriodReport,
    flicker_series,
    mirabolic_series,
    rs_series,
    verify_c_pi,
    verify_theorem1,
)
from .ratfunc import RatFunc, reconstruct, series_of
from .scalars import GaussRat
from .segments import (
    GenericRep,
    MultChar,
    NotGenericError,
    Segment,
    UnramifiedModule,
    conductor,
    contragredient,
    is_conjugate_selfdual,
    is_generic,
    pi_u,
    standard_order,
)
from .series import Poly, Series
from .whittaker import essential_value, schur, spherical_value

__version__ = "0.1.0"

__all__ = [
    "AddCharData",
    "FieldPair",
    "GaussRat",
    "GenericRep",
    "MultChar",
    "NotGenericError",
    "PeriodReport",
    "Poly",
    "RatFunc",
    "Segment",
    "Series",
    "UnramifiedModule",
    "asai_L",
    "asai_L_multiplicative",
    "conductor",
    "conductor_zero_shift",
    "contragredient",
    "essential_value",
    "flicker_series",
    "is_conjugate_selfdual",
    "is_generic",
    "mirabolic_series",
    "pi_u",
    "reconstruct",
    "rs_L",
    "rs_series",
    "schur",
    "series_of",
    "spherical_value",
    "standard_order",
    "tate_L",
    "trace_conductor",
    "verify_c_pi",
    "verify_theorem1",
]
