"""Schur polynomial engines and Whittaker torus values.

schur (Jacobi-Trudi) is cross-checked against the bialternant quotient
and against a brute-force semistandard-tableau enumeration kept here as
an independent oracle.
"""

import itertools
import random

import pytest

from asaiperiods.rational import rat
from asaiperiods.scalars import GaussRat
from asaiperiods.localfields import FieldPair
from asaiperiods.segments import GenericRep, MultChar, Segment, UnramifiedModule, pi_u
from asaiperiods.whittaker import (
    essential_value,
    is_dominant,
    modulus_exponent,
    schur,
    spherical_value,
)
from iwasawa import schur_bialternant

UFP = FieldPair(2, False)
RFP = FieldPair(2, True, 1)


def g(p, q=1):
    return GaussRat(rat(p, q))


# -- oracle: sum of monomials over semistandard Young tableaux ----------


def ssyt_schur(lam, alpha):
    """Brute-force s_lam(alpha): enumerate SSYT of shape lam with entries
    in 1..len(alpha), weakly increasing rows, strictly increasing cols."""
    m = len(alpha)
    lam = [x for x in lam if x > 0]
    if not lam:
        return g(1)
    cells = [(r, c) for r, row_len in enumerate(lam) for c in range(row_len)]
    total = g(0)
    for filling in itertools.product(range(1, m + 1), repeat=len(cells)):
        tab = {cell: v for cell, v in zip(cells, filling)}
        ok = True
        for (r, c), v in tab.items():
            if c + 1 < lam[r] and tab[(r, c + 1)] < v:
                ok = False
                break
            if r + 1 < len(lam) and lam[r + 1] > c and tab[(r + 1, c)] <= v:
                ok = False
                break
        if ok:
            mono = g(1)
            for v in filling:
                mono = mono * alpha[v - 1]
            total = total + mono
    return total


# -- schur ---------------------------------------------------------------


def test_schur_empty_and_row():
    a, b = g(2), g(1, 3)
    assert schur((0, 0), (a, b)) == g(1)
    assert schur((1, 0), (a, b)) == a + b
    assert schur((2, 1), (a, b)) == a * a * b + a * b * b


def test_schur_rejects_non_dominant():
    with pytest.raises(ValueError, match="not dominant"):
        schur((0, 1), (g(1), g(2)))


def test_schur_negative_entries_via_shift():
    # s_(0,-1)(a,b) = (ab)^-1 * s_(1,0)(a,b)
    a, b = g(3), g(5)
    got = schur((0, -1), (a, b))
    assert got == (a + b) / (a * b)


def test_schur_matches_ssyt_oracle():
    rng = random.Random(808)
    for _ in range(25):
        m = rng.randint(1, 3)
        alpha = tuple(g(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(m))
        lam = sorted((rng.randint(0, 4) for _ in range(m)), reverse=True)
        expected = ssyt_schur(lam, alpha)
        assert schur(tuple(lam), alpha) == expected


def test_schur_matches_bialternant():
    rng = random.Random(909)
    for _ in range(25):
        m = rng.randint(2, 4)
        # bialternant needs distinct alpha values
        vals = rng.sample(range(2, 30), m)
        alpha = tuple(g(v, rng.randint(1, 3)) for v in vals)
        lam = tuple(sorted((rng.randint(-2, 5) for _ in range(m)), reverse=True))
        assert schur(lam, alpha) == schur_bialternant(lam, alpha)


def test_schur_bialternant_rejects_repeats():
    with pytest.raises(ValueError, match="distinct"):
        schur_bialternant((1, 0), (g(2), g(2)))


def test_schur_pieri_like_identity():
    # s_(1,0)^2 = s_(2,0) + s_(1,1)
    a, b = g(2), g(7, 2)
    e1 = schur((1, 0), (a, b))
    assert e1 * e1 == schur((2, 0), (a, b)) + schur((1, 1), (a, b))


# -- modulus_exponent ----------------------------------------------------


def test_modulus_exponent_values():
    assert modulus_exponent((0, 0, 0)) == 0
    assert modulus_exponent((1, 0)) == 1
    assert modulus_exponent((2, 1, 0)) == 4
    assert modulus_exponent(()) == 0


def test_modulus_exponent_central_shift_invariance():
    # sum of weights (m+1-2i) is 0, so adding a constant changes nothing
    lam = (3, 1, -2)
    shifted = tuple(x + 7 for x in lam)
    assert modulus_exponent(lam) == modulus_exponent(shifted)


# -- spherical_value -----------------------------------------------------


# values are (c, m) pairs for c * q_F^(m/2); a half power q_E^(h/2) is
# m = f*h: h on a ramified pair, 2h on an unramified one


def test_spherical_value_at_origin_is_one():
    mod = UnramifiedModule(UFP, (g(3), g(1, 3)))
    assert spherical_value(mod, (0, 0)) == (g(1), 0)


def test_spherical_value_off_cone_is_zero():
    mod = UnramifiedModule(UFP, (g(3), g(1, 3)))
    assert spherical_value(mod, (0, 1)) == (g(0), 0)
    # a dominant lam with a vanishing Schur value is the same zero
    mod = UnramifiedModule(UFP, (g(1), g(-1)))
    assert spherical_value(mod, (1, 0)) == (g(0), 0)


def test_spherical_value_gl1():
    mod = UnramifiedModule(UFP, (g(5),))
    assert spherical_value(mod, (3,)) == (g(125), 0)


def test_spherical_value_explicit_gl2():
    # r=2, lam=(1,0): q_E^(-1/2) * s_(1,0); unramified q_E = q_F^2 so
    # the half power is the integer power q_F^-1
    mod = UnramifiedModule(UFP, (g(3), g(1, 3)))
    assert spherical_value(mod, (1, 0)) == (g(10, 3), -2)


def test_spherical_value_ramified_half_power():
    # ramified: q_E = q_F = 2, modulus exponent 1 gives a genuine sqrt(2)
    mod = UnramifiedModule(RFP, (g(3), g(1, 3)))
    assert spherical_value(mod, (1, 0)) == (g(10, 3), -1)
    assert spherical_value(mod, (2, 0)) == (g(91, 9), -2)


def test_spherical_central_twist():
    # lam + c*(1,..,1) multiplies the value by (prod alpha)^c exactly
    mod = UnramifiedModule(UFP, (g(2), g(7, 3)))
    prod = g(2) * g(7, 3)
    for lam in ((0, 0), (2, 1), (3, 0)):
        base = spherical_value(mod, lam)
        for c in (1, 2, -1):
            shifted = tuple(x + c for x in lam)
            assert spherical_value(mod, shifted) == (base[0] * prod**c, base[1])


def test_spherical_value_empty_module():
    mod = UnramifiedModule(UFP, ())
    assert spherical_value(mod, ()) == (g(1), 0)


# -- essential_value -----------------------------------------------------


def steinberg(fp):
    return GenericRep(fp, (Segment(MultChar.unramified(g(1)), 2),))


def test_essential_origin_is_one():
    rep = steinberg(UFP)
    assert essential_value(rep, (0,)) == (g(1), 0)


def test_essential_steinberg_positive_torus():
    # r=1, n=2: value at lam=(h) is q_E^(-h/2) = q_F^(-h), unramified
    rep = steinberg(UFP)
    assert essential_value(rep, (1,)) == (g(1), -2)  # 1/2
    assert essential_value(rep, (2,)) == (g(1), -4)  # 1/4


def test_essential_steinberg_ramified_pair():
    rep = steinberg(RFP)  # q_E = q_F = 2
    assert essential_value(rep, (1,)) == (g(1), -1)  # 1/sqrt(2)
    assert essential_value(rep, (2,)) == (g(1), -2)  # 1/2
    assert essential_value(rep, (3,)) == (g(1), -3)


def test_essential_vanishing_conditions():
    # mixed rep: one unramified singleton (r=1) plus a ramified char, n=2... use n=3
    ram = MultChar("eta", 1, g(2), "eta", g(2))
    rep = GenericRep(UFP, (Segment(MultChar.unramified(g(5)), 1), Segment(ram, 2)))
    assert rep.n == 3
    r = pi_u(rep).r
    assert r == 1
    # lam_2 must be 0 (r < 2 < n)
    assert essential_value(rep, (1, 1)) == (g(0), 0)
    # lam_r negative kills it too
    assert essential_value(rep, (-1, 0)) == (g(0), 0)
    # valid point: lam=(2,0): sph((2,)) * q_E^(-2*(3-1)/2) = 25 * 4^-2
    assert essential_value(rep, (2, 0)) == (g(25), -8)


def test_essential_rejects_unramified_rep():
    rep = GenericRep(UFP, (Segment(MultChar.unramified(g(3)), 1),))
    with pytest.raises(ValueError, match="spherical_value"):
        essential_value(rep, ())


def test_essential_length_check():
    rep = steinberg(UFP)
    with pytest.raises(ValueError, match="n-1"):
        essential_value(rep, (0, 0))


def test_is_dominant():
    assert is_dominant((3, 1, 1, 0))
    assert not is_dominant((1, 2))
    assert is_dominant(())
