"""Lattice-sum period integrals and theorem-level verification reports.

The three integrals in scope (the twisted-tensor integral against the
standard lattice Schwartz function, the mirabolic period, and the
Rankin-Selberg pairing) all collapse under the Iwasawa decomposition
to sums over dominant cocharacter lattices, with all compact volumes
normalized to one. At each lattice point the Whittaker values are
delta^(1/2) times Schur polynomials (Shintani's formula), and the
modulus weight of the Iwasawa measure is exactly the inverse of those
half powers: every power of q cancels termwise, which leaves plain
sums of Schur values (the Littlewood and Cauchy sums). All three
integrals are therefore one Schur-sum kernel with different ranks and
scalings. Each sum is truncated by total t-degree, which is exact:
every omitted term has strictly larger degree. Analytic continuation
goes through the closed form: a truncated series that matches it to
order num_deg + den_deg + 1 or beyond determines it (Pade uniqueness),
and its exact value is taken there, never by summing at a point.
Rational reconstruction runs only on a mismatch, to report which
rational function the series is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .lfactors import closed_form_for, lstar_at_1, rs_L
from .ratfunc import RatFunc, eval_at, reconstruct, series_of
from .rational import rat
from .scalars import AlgNum, GaussRat
from .segments import (
    GenericRep,
    UnramifiedModule,
    contragredient,
    epsilon_twist_sign,
    is_conjugate_selfdual,
    is_unramified_rep,
    pi_u,
)
from .series import Series
from .whittaker import clear_denominators, h_table, jacobi_trudi


def _partitions(total: int, max_parts: int, cap: int | None = None):
    """Weakly decreasing positive tuples with sum total, at most
    max_parts parts; () for total 0."""
    if total == 0:
        yield ()
        return
    if max_parts <= 0:
        return
    first = total if cap is None else min(total, cap)
    for head in range(first, 0, -1):
        for tail in _partitions(total - head, max_parts - 1, head):
            yield (head,) + tail


def _schur_sum(
    alpha: Sequence[GaussRat],
    k: int,
    e: int,
    order: int,
    beta: Sequence[GaussRat] | None = None,
) -> Series:
    """Series whose coefficient d is the sum over partitions lam of d
    with at most k parts of s_(e*lam)(alpha) * s_lam(beta), the beta
    factor left out when beta is None.

    This is every lattice sum of the module: the Iwasawa modulus weight
    q^(modulus exponent) at a lattice point is the inverse of the
    delta^(1/2) in Shintani's formula for the Whittaker values there,
    so no power of q survives in any term. The Satake denominators are
    cleared once per variable set (alpha = a/D, beta = b/D_b), each
    Schur value is an int-pair Jacobi-Trudi determinant on one complete
    homogeneous table per variable set, and coefficient d is the integer
    sum divided once, by D^(e*d) * D_b^d.
    """
    den, a = clear_denominators(alpha)
    h = h_table(a, e * order + k)
    if beta is None:
        den_b, hb = 1, None
    else:
        den_b, b = clear_denominators(beta)
        hb = h_table(b, order + k)
    coeffs = []
    for d in range(order + 1):
        sr = si = 0
        for lam in _partitions(d, k):
            tr, ti = jacobi_trudi(h, [e * x for x in lam])
            if hb is not None and (tr or ti):
                br, bi = jacobi_trudi(hb, lam)
                tr, ti = tr * br - ti * bi, tr * bi + ti * br
            sr += tr
            si += ti
        den_d = den ** (e * d) * den_b ** d
        coeffs.append(GaussRat(rat(sr, den_d), rat(si, den_d)))
    return Series(coeffs)


def flicker_series(mod: UnramifiedModule, order: int) -> Series:
    """Twisted-tensor integral of the spherical vector against the unit
    lattice function, as a truncated series in t = q_F^(-s).

    Iwasawa form: sum over dominant lam >= 0 in Z^r of the spherical
    value at e*lam times q_F^(modulus exponent of lam) times t^|lam|,
    which is the sum of s_(e*lam) over partitions of length <= r.
    """
    return _schur_sum(mod.satake, mod.r, mod.fp.e, order)


def mirabolic_series(rep, order: int) -> Series:
    """Mirabolic period sum over the F-points of the (n-1)-torus, with
    the determinant twist |det|^(s-1), as a series in t = q_F^(-s).

    Accepts a GenericRep or a bare UnramifiedModule (n = r). The
    essential vector is supported on the first r torus entries of the
    unramified support, so both the spherical route (r = n) and the
    essential-vector route (r < n) sum s_(e*lam) over partitions of
    length <= min(r, n-1).
    """
    if isinstance(rep, UnramifiedModule):
        mod, n = rep, rep.r
    elif isinstance(rep, GenericRep):
        mod, n = pi_u(rep), rep.n
    else:
        raise TypeError("expected GenericRep or UnramifiedModule")
    return _schur_sum(mod.satake, min(mod.r, n - 1), mod.fp.e, order)


def rs_series(m1: UnramifiedModule, m2: UnramifiedModule, order: int) -> Series:
    """Rankin-Selberg pairing of the two spherical vectors over the
    E-points of the (n-1)-torus, as a series in t_E = q_E^(-s): the
    Cauchy sum of s_lam(alpha) * s_lam(beta) over lam of length <= n-1."""
    if m1.fp != m2.fp:
        raise ValueError("modules live over different field pairs")
    if m1.r != m2.r + 1:
        raise ValueError("rank mismatch: need modules of ranks n and n-1")
    return _schur_sum(m1.satake, m2.r, 1, order, m2.satake)


@dataclass
class PeriodReport:
    """Outcome of one period computation against its closed form."""

    series: Series
    expected: Series  # the closed form expanded to the same order
    reconstructed: RatFunc | None
    closed_form: RatFunc
    match: bool
    value_at_1: AlgNum | None  # None encodes a pole at the edge point


def verify_theorem1(rep: GenericRep, order: int) -> PeriodReport:
    """Check the mirabolic period series against its closed form.

    The report carries the truncated series, the closed form's expansion
    to the same order, the rational function the series determines
    (None when no function within the closed form's degree bounds fits),
    the closed form, the match flag, and the exact edge value (None on a
    pole). A matching series certifies the closed form by Pade
    uniqueness: order >= num_deg + den_deg + 1, so any other p/q within
    the bounds that fits has p*den - num*q of degree <= num_deg + den_deg
    vanishing to a higher order, hence zero. Reconstruction therefore
    runs only on a mismatch, to report what the series actually is.
    """
    cf = closed_form_for(rep)
    bounds = (cf.num_degree, cf.den_degree)
    if order < bounds[0] + bounds[1] + 1:
        raise ValueError(
            "order %d too small to certify reconstruction with bounds %r" % (order, bounds)
        )
    series = mirabolic_series(rep, order)
    expected = series_of(cf, order)
    match = series == expected
    if match:
        rec = cf
    else:
        try:
            rec = reconstruct(series, bounds[0], bounds[1])
        except ValueError:
            rec = None
    try:
        v1 = lstar_at_1(rep, cf)
    except ValueError:
        v1 = None
    return PeriodReport(series, expected, rec, cf, match, v1)


def verify_c_pi(rep: GenericRep) -> bool:
    """Endpoint check that the two natural invariant forms agree.

    Preconditions: the representation must be conjugate-self-dual.
    Verifies that the unramified supports of the representation and its
    contragredient coincide as multisets, that their edge values agree,
    and, over a ramified pair, that the quadratic epsilon twisting sign
    is +1 (the even-conductor obstruction vanishes).
    """
    if not is_conjugate_selfdual(rep):
        raise ValueError("not distinguished-compatible")
    dual = contragredient(rep)
    own = sorted(((v.re, v.im) for v in pi_u(rep).satake))
    other = sorted(((v.re, v.im) for v in pi_u(dual).satake))
    if own != other:
        return False
    if lstar_at_1(rep) != lstar_at_1(dual):
        return False
    if rep.fp.ramified:
        if epsilon_twist_sign(rep, GaussRat(-1)) != GaussRat(1):
            return False
    return True


def essential_rs_check(rep: GenericRep, t_module: UnramifiedModule, order: int) -> bool:
    """Rankin-Selberg pairing of an unramified representation against a
    rank n-1 module agrees with the closed-form factor through the
    requested order."""
    if not is_unramified_rep(rep):
        raise ValueError("out of scope: the pairing is modeled for unramified reps only")
    mod = pi_u(rep)
    return rs_series(mod, t_module, order) == series_of(rs_L(mod, t_module), order)


def lattice_value_at(rep: GenericRep, s: int) -> AlgNum:
    """Exact closed-form value of the mirabolic period at integer s >= 1,
    t = q_F^(-s). Raises ZeroDivisionError on a pole."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    t0 = GaussRat(rat(1, rep.fp.q_F)) ** s
    return eval_at(closed_form_for(rep), t0)
