"""Closed-form local L-factors as exact rational functions.

Conventions: the uniform series variable is t = q_F^(-s). The
Rankin-Selberg factor is native in t_E = q_E^(-s), which equals t^2
for unramified pairs and t for ramified ones (t_E = t^f in general);
the factor (1 - c*t_E^k) is (1 - c*t^(f*k)), and the CLI's lfactor
report spreads its t_E coefficients to t. All factories return
canonical reduced RatFunc values and also expose their factor lists
(coefficient c and power k per factor 1 - c*t^k). Each factor list
becomes a RatFunc in one RatFunc.from_factors call: a Kronecker-packed
product of scaled Gaussian integers (ratfunc.packed_product), two or
four small-by-big int products per factor, and one division per
coefficient; the factor lists and the returned RatFunc keep GaussRat
coefficients. The Kable check, like the CLI's multiplicativity suite,
compares two joined factor lists with ratfunc.same_product: one packed
product per side, compared digit by digit, with no RatFunc, Poly or
GaussRat per coefficient.
"""

from __future__ import annotations

from itertools import combinations

from .ratfunc import RatFunc, eval_at, same_product
from .scalars import GaussRat
from .segments import GenericRep, UnramifiedModule, is_unramified_rep, pi_u

FactorList = list[tuple[GaussRat, int]]


def asai_factor_list(mod: UnramifiedModule) -> FactorList:
    """Denominator factors of the Asai factor of an unramified module."""
    a = mod.satake
    r = len(a)
    factors: FactorList = []
    if mod.fp.ramified:
        for i in range(r):
            for j in range(i, r):
                factors.append((a[i] * a[j], 1))
    else:
        for i in range(r):
            factors.append((a[i], 1))
        for i in range(r):
            for j in range(i + 1, r):
                factors.append((a[i] * a[j], 2))
    return factors


def asai_L(mod: UnramifiedModule) -> RatFunc:
    """Asai L-factor of an unramified module, in t = q_F^(-s)."""
    return RatFunc.from_factors(asai_factor_list(mod))


def rs_factor_list(m1: UnramifiedModule, m2: UnramifiedModule) -> FactorList:
    if m1.fp != m2.fp:
        raise ValueError("modules live over different field pairs")
    return [(x * y, 1) for x in m1.satake for y in m2.satake]


def rs_L(m1: UnramifiedModule, m2: UnramifiedModule) -> RatFunc:
    """Rankin-Selberg L-factor of two unramified modules, in t_E."""
    return RatFunc.from_factors(rs_factor_list(m1, m2))


def tate_L(value_at_unif: GaussRat, power: int) -> RatFunc:
    """Tate factor 1/(1 - value * t^power) of an unramified character;
    a power below 1 raises ValueError."""
    return RatFunc.from_factors([(value_at_unif, power)])


def asai_multiplicative_factor_list(mod: UnramifiedModule) -> FactorList:
    """Denominator factors of the Asai factor by the standard-module
    product formula: rank-one Asai factors (Tate factors of the
    restrictions to F*) and the Rankin-Selberg factors of the distinct
    pairs."""
    fp = mod.fp
    # x^e is the value of the character restricted to F*; the rank-one
    # pieces are sigma-fixed, so a pair's factor is 1 - x*y*t_E, t_E = t^f
    factors: FactorList = [(x**fp.e, 1) for x in mod.satake]
    factors += [(x * y, fp.f) for x, y in combinations(mod.satake, 2)]
    return factors


def asai_L_multiplicative(mod: UnramifiedModule) -> RatFunc:
    """Asai factor assembled from the standard-module product formula,
    as one product of its factor list."""
    return RatFunc.from_factors(asai_multiplicative_factor_list(mod))


def closed_form_for(rep: GenericRep) -> RatFunc:
    """Closed form of the mirabolic period series: the Asai factor of
    the unramified support, times (1 - omega_pi(unif_F) t^n) when the
    representation is unramified (the Tate factor L(ns, omega_pi|F*)
    of the central character moves to the other side), reduced. Built
    by from_factors, it keeps those factor lists unreduced, for the
    period check (ratfunc.series_mismatch)."""
    mod = pi_u(rep)
    numerator = [(mod.omega_at_unif(), rep.n)] if is_unramified_rep(rep) else []
    return RatFunc.from_factors(asai_factor_list(mod), numerator)


def lattice_value_at(rep: GenericRep, s: int, cf: RatFunc | None = None) -> GaussRat:
    """Exact value of the mirabolic period at integer s >= 1: the reduced
    closed form at t = q_F^(-s), so a pole that the central Tate factor
    cancels is no pole. Raises ZeroDivisionError on a pole. Pass cf when
    the caller has already built closed_form_for(rep)."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    if cf is None:
        cf = closed_form_for(rep)
    return eval_at(cf, GaussRat.scaled(1, 0, rep.fp.q_F ** s))


def lstar_at_1(rep: GenericRep, cf: RatFunc | None = None) -> GaussRat:
    """Normalized value at the edge point s=1, lattice_value_at(rep, 1,
    cf); raises ValueError on a pole."""
    try:
        return lattice_value_at(rep, 1, cf)
    except ZeroDivisionError:
        raise ValueError("non-holomorphic at s=1") from None


def kable_factorization_check(mod: UnramifiedModule) -> bool:
    """Rankin-Selberg self-pairing against the twisted-tensor square:
    RS(pi, pi^sigma) must equal Asai(pi) * Asai(pi twisted by the
    unramified quadratic character). Unramified pairs only."""
    if mod.fp.ramified:
        raise ValueError("the quadratic twist character is ramified here: out of scope")
    # unramified modules are sigma-fixed, and t_E = t^2
    lhs = [(c, 2 * k) for c, k in rs_factor_list(mod, mod)]
    return same_product(lhs, asai_factor_list(mod) + asai_factor_list(mod.twist_by_sign()))
