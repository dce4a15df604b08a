"""Closed-form L-factors: Asai in both ramification types, Rankin-Selberg,
Tate factors, the product-formula assembly, edge values, and the
factorization of the self-pairing."""

import random

import pytest

from asaiperiods.rational import rat
from asaiperiods.scalars import GaussRat
from asaiperiods.series import Poly
from asaiperiods.ratfunc import RatFunc, eval_at
from asaiperiods.localfields import FieldPair
from asaiperiods.segments import (
    GenericRep,
    MultChar,
    Segment,
    UnramifiedModule,
    contragredient,
    precedes,
)
from asaiperiods.lfactors import (
    asai_L,
    asai_L_multiplicative,
    asai_factor_list,
    closed_form_for,
    kable_factorization_check,
    lattice_value_at,
    lstar_at_1,
    rs_L,
    tate_L,
)
from asaiperiods import corpus, segments

UFP = FieldPair(2, False)
RFP = FieldPair(2, True, 1)


def g(p, q=1, ip=0, iq=1):
    return GaussRat(rat(p, q), rat(ip, iq))


def om(c, k=1):
    return Poly.one_minus(c if isinstance(c, GaussRat) else g(c), k)


def umod(fp, *vals):
    return UnramifiedModule(fp, tuple(v if isinstance(v, GaussRat) else g(v) for v in vals))


# -- asai_L --------------------------------------------------------------


def test_asai_empty_module_is_one():
    assert asai_L(umod(UFP)) == RatFunc.one()


def test_asai_unramified_pair_closed_form():
    got = asai_L(umod(UFP, g(3), g(1, 3)))
    want = RatFunc(Poly([1]), om(3) * om(g(1, 3)) * om(1, 2))
    assert got == want


def test_asai_ramified_pair_closed_form():
    got = asai_L(umod(RFP, g(2), g(1, 2)))
    want = RatFunc(Poly([1]), om(4) * om(1) * om(g(1, 4)))
    assert got == want


def test_asai_permutation_invariant():
    rng = random.Random(111)
    for fp in (UFP, RFP):
        vals = [corpus.rand_gauss(rng) for _ in range(4)]
        mods = [UnramifiedModule(fp, tuple(p)) for p in ([vals[i] for i in idx] for idx in (
            (0, 1, 2, 3), (3, 2, 1, 0), (1, 3, 0, 2)))]
        assert asai_L(mods[0]) == asai_L(mods[1]) == asai_L(mods[2])


def test_asai_denominator_degree_counts():
    rng = random.Random(222)
    for r in range(6):
        mu = corpus.rand_module(rng, UFP, r)
        assert asai_L(mu).den_degree <= r + r * (r - 1)
        factors = asai_factor_list(mu)
        assert sum(k for _, k in factors) == r + r * (r - 1)
        mr = corpus.rand_module(rng, RFP, r)
        assert sum(k for _, k in asai_factor_list(mr)) == r * (r + 1) // 2


# -- rs_L ----------------------------------------------------------------


def test_rs_gl1_times_gl1():
    a, b = g(3), g(5, 7)
    got = rs_L(umod(UFP, a), umod(UFP, b))
    assert got == RatFunc(Poly([1]), om(a * b))


def test_rs_empty_module_is_one():
    assert rs_L(umod(UFP), umod(UFP, g(2))) == RatFunc.one()
    assert rs_L(umod(UFP, g(2)), umod(UFP)) == RatFunc.one()


def test_rs_two_by_one():
    a, b = g(2), g(3)
    got = rs_L(umod(UFP, a, a.inverse()), umod(UFP, b))
    want = RatFunc(Poly([1]), om(a * b) * om(b / a))
    assert got == want


def test_rs_variable_conversion():
    a, b = g(2), g(3)
    native = rs_L(umod(UFP, a), umod(UFP, b))
    # unramified: t_E = t^2
    assert native.substitute_power(UFP.f) == RatFunc(Poly([1]), om(a * b, 2))
    ram_native = rs_L(umod(RFP, a), umod(RFP, b))
    assert ram_native.substitute_power(RFP.f) == ram_native


def test_rs_field_pair_mismatch():
    with pytest.raises(ValueError):
        rs_L(umod(UFP, g(2)), umod(RFP, g(2)))


# -- tate_L --------------------------------------------------------------


def test_tate_factors():
    assert tate_L(g(1), 2) == RatFunc(Poly([1]), om(1, 2))
    assert tate_L(g(1), 1) == RatFunc(Poly([1]), om(1))
    assert tate_L(g(-1), 1) == RatFunc(Poly([1]), om(-1))
    with pytest.raises(ValueError):
        tate_L(g(1), 0)


# -- multiplicativity ----------------------------------------------------


def test_multiplicative_unramified_pair():
    a, b = g(3), g(5)
    got = asai_L_multiplicative(umod(UFP, a, b))
    want = RatFunc(Poly([1]), om(a) * om(b) * om(a * b, 2))
    assert got == want
    assert got == asai_L(umod(UFP, a, b))


def test_multiplicative_ramified_pair():
    a, b = g(3), g(5)
    got = asai_L_multiplicative(umod(RFP, a, b))
    want = RatFunc(Poly([1]), om(a * a) * om(b * b) * om(a * b))
    assert got == want
    assert got == asai_L(umod(RFP, a, b))


def test_multiplicative_rank_one():
    a = g(7, 3)
    assert asai_L_multiplicative(umod(UFP, a)) == RatFunc(Poly([1]), om(a))
    assert asai_L_multiplicative(umod(RFP, a)) == RatFunc(Poly([1]), om(a * a))


def test_multiplicative_agrees_randomized():
    rng = random.Random(333)
    for i in range(40):
        fp = corpus.rand_field(rng, ramified=bool(i % 2))
        mod = corpus.rand_module(rng, fp, rng.randint(0, 5))
        assert asai_L(mod) == asai_L_multiplicative(mod)


def test_multiplicative_builds_no_module(monkeypatch):
    # the pair factors come straight from the Satake values
    rng = random.Random(1414)
    mods = [corpus.rand_module(rng, corpus.rand_field(rng, bool(r % 2)), r) for r in range(7)]
    built = []
    init = segments.UnramifiedModule.__init__
    monkeypatch.setattr(segments.UnramifiedModule, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    for mod in mods:
        assert asai_L_multiplicative(mod) == RatFunc.from_factors(asai_factor_list(mod))
    assert built == []


def asai_multiplicative_running_product(mod):
    """The product formula as a running RatFunc product, the reference."""
    fp = mod.fp
    out = RatFunc.one()
    for x in mod.satake:
        out = out * tate_L(x**fp.e, 1)
    for i in range(mod.r):
        for j in range(i + 1, mod.r):
            pair = rs_L(umod(fp, mod.satake[i]), umod(fp, mod.satake[j]))
            out = out * pair.substitute_power(fp.f)
    return out


def test_multiplicative_one_product_matches_running_product():
    rng = random.Random(1212)
    for ramified in (False, True):
        for r in range(8):
            fp = corpus.rand_field(rng, ramified)
            mod = corpus.rand_module(rng, fp, r)
            assert asai_L_multiplicative(mod) == asai_multiplicative_running_product(mod), (fp, r)


def test_kable_one_product_matches_product_of_asai_factors():
    rng = random.Random(1313)
    for r in range(8):
        mod = corpus.rand_module(rng, corpus.rand_field(rng, False), r)
        twist = mod.twist_by_sign()
        old_rhs = asai_L(mod) * asai_L(twist)
        new_rhs = RatFunc.from_factors(asai_factor_list(mod) + asai_factor_list(twist))
        assert new_rhs == old_rhs
        assert old_rhs == rs_L(mod, mod).substitute_power(2)
        assert kable_factorization_check(mod)
    with pytest.raises(ValueError, match="out of scope"):
        kable_factorization_check(corpus.rand_module(rng, corpus.rand_field(rng, True), 3))


# -- lstar_at_1 ----------------------------------------------------------


def unitary_pair():
    return GenericRep(UFP, (
        Segment(MultChar.unramified(g(3, 5, 4, 5)), 1),
        Segment(MultChar.unramified(g(3, 5, -4, 5)), 1),
    ))


def test_lstar_unitary_example():
    rep = unitary_pair()
    # intermediate values from the closed forms at t=1/2
    mod = UnramifiedModule(UFP, tuple(s.rho.at_unif for s in rep.segments))
    assert eval_at(asai_L(mod), g(1, 2)) == g(80, 39)
    assert eval_at(tate_L(g(1), 2), g(1, 2)) == g(4, 3)
    assert lstar_at_1(rep) == g(20, 13)


def test_lstar_steinberg():
    rep = GenericRep(UFP, (Segment(MultChar.unramified(g(1)), 2),))
    assert lstar_at_1(rep) == g(2)


def test_lstar_empty_unramified_support():
    c = MultChar("eta", 1, g(2), "eta", g(2))
    rep = GenericRep(RFP, (Segment(c, 1),))
    assert lstar_at_1(rep) == g(1)


def test_lstar_central_factor_cancels_asai_pole():
    # the Asai factor has a pole at t = 1/q_F in both cases; the central
    # factor (1 - omega(unif_F) t^n) of the closed form cancels it
    gl1 = GenericRep(UFP, (Segment(MultChar.unramified(g(2)), 1),))
    assert lstar_at_1(gl1) == g(1)
    gl2 = GenericRep(UFP, (Segment(MultChar.unramified(g(8)), 1),
                           Segment(MultChar.unramified(g(1, 2)), 1)))
    assert lstar_at_1(gl2) == g(-4, 9)


def test_lstar_pole_raises():
    # alpha = q_E = 4 restricts to 4 on F*, so 1 - 4t vanishes at t = 1/4... use q_F=4
    fp = FieldPair(4, False)
    rep = GenericRep(fp, (Segment(MultChar.unramified(g(4)), 1),
                          Segment(MultChar.unramified(g(3)), 1)))
    with pytest.raises(ValueError, match="non-holomorphic"):
        lstar_at_1(rep)
    # the one evaluator under it reports the pole as ZeroDivisionError
    with pytest.raises(ZeroDivisionError):
        lattice_value_at(rep, 1)


def test_lstar_is_the_lattice_value_at_s_1():
    rng = random.Random(1515)
    reps = []
    for i in range(30):
        fp = corpus.rand_field(rng, ramified=bool(i % 2))
        reps += [corpus.csd_rep(rng, fp), corpus.ramified_rep(rng, fp)]
    for rep in reps:
        cf = closed_form_for(rep)
        assert lattice_value_at(rep, 1, cf) == lstar_at_1(rep, cf) == lstar_at_1(rep)


# -- kable factorization ---------------------------------------------------


def test_kable_gl1_difference_of_squares():
    assert kable_factorization_check(umod(UFP, g(5)))


def test_kable_pair():
    assert kable_factorization_check(umod(UFP, g(3), g(1, 3)))


def test_kable_randomized():
    rng = random.Random(444)
    for _ in range(100):
        mod = corpus.rand_module(rng, corpus.rand_field(rng, False), rng.randint(0, 4))
        assert kable_factorization_check(mod)


def test_kable_rejects_ramified_pair():
    with pytest.raises(ValueError, match="out of scope"):
        kable_factorization_check(umod(RFP, g(2)))


# -- pole criterion vs segment precedence ---------------------------------


def test_rs_pole_at_qE_inverse_iff_precedes():
    # GL(1) x GL(1): rs_L(chi, chi') has a pole at t_E = 1/q_E iff
    # chi precedes the contragredient of chi'
    rng = random.Random(555)
    q_E = UFP.q_E
    t0 = g(1, q_E)
    for _ in range(40):
        e1, e2 = rng.randint(-2, 2), rng.randint(-2, 2)
        extra = rng.choice((g(1), g(3), g(1, 3)))
        a = g(q_E) ** e1
        b = (g(q_E) ** e2) * extra
        chi = Segment(MultChar.unramified(a), 1)
        chi_p = Segment(MultChar.unramified(b), 1)
        rf = rs_L(umod(UFP, a), umod(UFP, b))
        try:
            eval_at(rf, t0)
            has_pole = False
        except ZeroDivisionError:
            has_pole = True
        dual = contragredient(GenericRep(UFP, (chi_p,))).segments[0]
        assert has_pole == precedes(chi, dual, q_E)
