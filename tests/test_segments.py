"""Segment combinatorics: precedence, genericity, ordering, involutions,
unramified support extraction, conductor and epsilon bookkeeping."""

import random

import pytest

from asaiperiods.rational import rat
from asaiperiods.scalars import GaussRat
from asaiperiods.localfields import FieldPair
from asaiperiods.segments import (
    GenericRep,
    MultChar,
    NotGenericError,
    Segment,
    UnramifiedModule,
    asai_holomorphic_witness,
    conductor,
    contragredient,
    epsilon_twist_sign,
    is_conjugate_selfdual,
    is_generic,
    is_unramified_rep,
    pi_u,
    precedes,
    standard_order,
)
from asaiperiods import corpus

# q_E = 4: keeps the (3, 1/3) fixtures unlinked (1/9 is not a power of q_E)
UFP = FieldPair(2, False)
RFP = FieldPair(3, True, 1)  # q_E = 3


def g(p, q=1, ip=0, iq=1):
    return GaussRat(rat(p, q), rat(ip, iq))


def uchar(p, q=1, ip=0, iq=1):
    return MultChar.unramified(GaussRat(rat(p, q), rat(ip, iq)))


def useg(p, q=1, k=1, ip=0, iq=1):
    return Segment(uchar(p, q, ip, iq), k)


def rchar(label, at, sigma_label=None, sigma_at=None, cond=1):
    sl = sigma_label if sigma_label is not None else label
    sa = sigma_at if sigma_at is not None else at
    return MultChar(label, cond, at, sl, sa)


# -- MultChar -----------------------------------------------------------


def test_multchar_unramified_constraints():
    with pytest.raises(ValueError):
        MultChar("triv", 1, GaussRat(rat(1)), "triv", GaussRat(rat(1)))
    with pytest.raises(ValueError):
        MultChar("chi", 0, GaussRat(rat(1)), "chi", GaussRat(rat(1)))
    with pytest.raises(ValueError):
        MultChar.unramified(GaussRat(rat(0)))


def test_multchar_sigma_fixed_when_unramified():
    c = uchar(5)
    assert c.sigma() == c
    assert c.inverse().at_unif == GaussRat(rat(1, 5))


def test_sigma_is_involution_on_ramified_data():
    c = rchar("eta", GaussRat(rat(2)), "etaSig", GaussRat(rat(3)))
    assert c.sigma().sigma() == c
    assert c.sigma().at_unif == GaussRat(rat(3))


# -- precedes -----------------------------------------------------------


def test_precedes_spec_instances():
    q_E = UFP.q_E
    # l range {2} when k2=2, k1=1: ratio must be q_E^-2
    assert precedes(useg(1), useg(1, q_E * q_E, k=2), q_E)
    # adjacent singletons: l=1
    assert precedes(useg(1), useg(1, q_E), q_E)
    assert not precedes(useg(1, q_E), useg(1), q_E)


def test_precedes_matches_the_twist_chain_and_takes_any_length():
    # d1 precedes d2 when rho2 = rho1 * |.|^(-l) for some l in
    # [max(1, k2 - k1 + 1), k2]: the chain of twists, walked out
    rng = random.Random(74)
    for fp in (UFP, RFP):
        q_E = fp.q_E
        step = GaussRat(rat(1, q_E))
        for _ in range(200):
            k1, k2 = rng.randint(1, 4), rng.randint(1, 4)
            base = corpus.rand_gauss(rng)
            ratio = rng.choice((step ** rng.randint(-1, 6), -step, step * GaussRat(rat(1, 2)),
                                GaussRat(rat(0), rat(1, q_E))))
            d1, d2 = Segment(MultChar.unramified(base), k1), Segment(MultChar.unramified(base * ratio), k2)
            walked = any(ratio == step ** l for l in range(max(1, k2 - k1 + 1), k2 + 1))
            assert precedes(d1, d2, q_E) == walked
    far = 10 ** 12  # no walk over the chain: this returns at once
    assert precedes(useg(1, k=far), useg(1, UFP.q_E ** 5, k=far), UFP.q_E)
    assert not precedes(useg(1, k=far), useg(3, k=far), UFP.q_E)


def precedes_by_division(d1, d2, q_E):
    """The definition by division, the reference: rho2 / rho1 = q_E^(-j)
    with j in [max(1, k2 - k1 + 1), k2]."""
    if d1.rho.unit_label != d2.rho.unit_label:
        return False
    ratio = d2.rho.at_unif / d1.rho.at_unif
    if ratio.im or ratio.re.numerator != 1:
        return False
    den, j = ratio.re.denominator, 0
    while den % q_E == 0:
        den //= q_E
        j += 1
    return den == 1 and max(1, d2.k - d1.k + 1) <= j <= d2.k


def test_precedes_without_division_matches_the_division_definition():
    # rho1 = ratio * rho2 over real, pure-imaginary (re == 0) and
    # complex rho2, for ratios that are linked powers and near misses
    for fp in (UFP, RFP):
        q_E = fp.q_E
        q = GaussRat(rat(q_E))
        bases = (g(5, 3), g(0, 1, 1, 3), g(0, 1, -7, 2), g(2, 7, -3, 5), g(1, 1, 1, 1))
        ratios = {
            "q_E": q, "q_E^2": q * q, "q_E^3": q ** 3, "j = 0": g(1),
            "-q_E": -q, "q_E i": q * g(0, 1, 1, 1), "2 q_E": q * g(2),
            "1/q_E": GaussRat(rat(1, q_E)), "q_E/2": q * GaussRat(rat(1, 2)),
        }
        for b in bases:
            for name, ratio in ratios.items():
                for k1 in range(1, 4):
                    for k2 in range(1, 4):
                        d1, d2 = Segment(MultChar.unramified(ratio * b), k1), Segment(MultChar.unramified(b), k2)
                        want = precedes_by_division(d1, d2, q_E)
                        assert precedes(d1, d2, q_E) == want, (fp, b, name, k1, k2)
                        assert precedes(d2, d1, q_E) == precedes_by_division(d2, d1, q_E)
                        if name != "q_E" and k1 == k2 == 1:
                            assert not want, name
            assert precedes(Segment(MultChar.unramified(q * b), 1), Segment(MultChar.unramified(b), 1), q_E)
            # 1/q_E is a power of q_E in the wrong direction: d2 precedes d1
            lo = Segment(MultChar.unramified(b * GaussRat(rat(1, q_E))), 1)
            assert not precedes(lo, Segment(MultChar.unramified(b), 1), q_E)
            assert precedes(Segment(MultChar.unramified(b), 1), lo, q_E)


def test_precedes_needs_equal_imaginary_ratio():
    # real parts q_E apart, imaginary parts not: the ratio is not real
    q_E = UFP.q_E
    assert not precedes(useg(q_E, ip=5), useg(1, ip=1), q_E)
    assert not precedes(useg(q_E, ip=-q_E), useg(1, ip=1), q_E)
    assert precedes(useg(q_E, ip=q_E), useg(1, ip=1), q_E)
    # pure-imaginary on both sides, the branch where a.re == b.re == 0
    assert precedes(useg(0, ip=4, iq=3), useg(0, ip=1, iq=3), q_E)
    assert not precedes(useg(0, ip=-4, iq=3), useg(0, ip=1, iq=3), q_E)


def test_precedes_needs_same_unit_label():
    a = Segment(rchar("x", GaussRat(rat(1))), 1)
    b = useg(1, UFP.q_E)
    assert not precedes(a, b, UFP.q_E)
    assert not precedes(b, a, UFP.q_E)


def test_precedes_l_range_bounds():
    q_E = UFP.q_E
    # k1=2, k2=1: l range is {1} only
    assert precedes(useg(1, 1, k=2), useg(1, q_E), q_E)
    assert not precedes(useg(1, 1, k=2), useg(1, q_E * q_E), q_E)
    # k1=1, k2=3: l range {3}
    assert precedes(useg(1), useg(1, q_E**3, k=3), q_E)
    assert not precedes(useg(1), useg(1, q_E, k=3), q_E)


# -- is_generic ---------------------------------------------------------


def test_is_generic_spec_instances():
    q_E = UFP.q_E
    assert is_generic([useg(1)], q_E)
    assert not is_generic([useg(1), useg(1, q_E)], q_E)
    assert is_generic([useg(1), useg(1, q_E**3)], q_E)


def test_generic_rep_rejects_linked():
    with pytest.raises(NotGenericError):
        GenericRep(UFP, (useg(1), useg(1, UFP.q_E)))


# -- standard_order -----------------------------------------------------


def test_standard_order_forced_swap():
    q_E = UFP.q_E
    lo, hi = useg(1, q_E), useg(1)
    assert standard_order([hi, lo], q_E) == [lo, hi]
    # hi precedes lo is false, lo precedes hi is true: lo must come first


def test_standard_order_stable_on_unlinked():
    a, b = useg(2), useg(5)
    assert standard_order([a, b], UFP.q_E) == [a, b]
    assert standard_order([b, a], UFP.q_E) == [b, a]


def test_standard_order_empty():
    assert standard_order([], UFP.q_E) == []


def test_standard_order_no_earlier_precedes_later():
    rng = random.Random(404)
    q_E = UFP.q_E
    for _ in range(30):
        segs = [useg(q_E ** rng.randint(0, 3), k=rng.randint(1, 2))
                for _ in range(rng.randint(1, 5))]
        ordered = standard_order(segs, q_E)
        assert sorted(map(id, ordered)) == sorted(map(id, segs))
        for i in range(len(ordered)):
            for j in range(i + 1, len(ordered)):
                assert not precedes(ordered[i], ordered[j], q_E)


# -- involutions --------------------------------------------------------


def test_contragredient_spec_instances():
    rep = GenericRep(UFP, (useg(3, k=2),))
    assert contragredient(rep).segments[0].rho.at_unif == GaussRat(rat(1, 3))
    assert contragredient(contragredient(rep)) == rep
    z = GenericRep(UFP, (Segment(uchar(0, 1, 1, 1), 1),))  # alpha = i
    assert contragredient(z).segments[0].rho.at_unif == GaussRat(rat(0), rat(-1))


def test_sigma_twist_fixes_unramified():
    rep = GenericRep(UFP, (useg(7, k=2),))
    assert [s.sigma() for s in rep.segments] == list(rep.segments)
    assert rep.twisted_duals == contragredient(rep).segments


def test_sigma_twist_involution_on_ramified():
    c = rchar("eta", GaussRat(rat(2)), "etaSig", GaussRat(rat(5)))
    seg = Segment(c, 1)
    assert c.sigma().sigma() == c and c.sigma() != c
    assert seg.sigma().sigma() == seg and seg.sigma() != seg


def test_involutions_commute():
    c = rchar("eta", GaussRat(rat(2)), "etaSig", GaussRat(rat(5)))
    rep = GenericRep(RFP, (Segment(c, 1), useg(3)))
    assert [s.contragredient().sigma() for s in rep.segments] == [
        s.sigma().contragredient() for s in rep.segments]
    assert rep.twisted_duals == tuple(s.sigma() for s in contragredient(rep).segments)


# -- is_conjugate_selfdual ----------------------------------------------


def test_csd_spec_instances():
    assert is_conjugate_selfdual(GenericRep(UFP, (useg(3), useg(1, 3))))
    assert not is_conjugate_selfdual(GenericRep(UFP, (useg(3),)))
    assert is_conjugate_selfdual(GenericRep(UFP, (useg(1, 1, k=2),)))


def test_twisted_duals_built_once_per_representation(monkeypatch):
    # cli segments asks both questions of one representation
    calls = []
    contragredient_of = Segment.contragredient

    def counted(seg):
        calls.append(seg)
        return contragredient_of(seg)

    monkeypatch.setattr(Segment, "contragredient", counted)
    rng = random.Random(1212)
    for ramified in (False, True):
        rep = corpus.csd_rep(rng, corpus.rand_field(rng, ramified))
        calls.clear()
        assert is_conjugate_selfdual(rep)
        assert asai_holomorphic_witness(rep)
        assert calls == list(rep.segments)
        assert rep.twisted_duals == tuple(contragredient_of(s).sigma() for s in rep.segments)


def test_csd_corpus_generators_produce_csd():
    rng = random.Random(505)
    for ramified in (False, True):
        fp = corpus.rand_field(rng, ramified)
        for _ in range(10):
            rep = corpus.csd_rep(rng, fp)
            assert is_conjugate_selfdual(rep)


# -- pi_u ---------------------------------------------------------------


def test_pi_u_steinberg():
    mod = pi_u(GenericRep(UFP, (useg(1, 1, k=2),)))
    assert mod.r == 1
    assert mod.satake == (GaussRat(rat(1)),)


def test_pi_u_all_ramified_is_empty():
    c = rchar("eta", GaussRat(rat(2)))
    mod = pi_u(GenericRep(RFP, (Segment(c, 1),)))
    assert mod.r == 0
    assert mod.satake == ()


def test_pi_u_mixed_collects_and_orders():
    c = rchar("eta", GaussRat(rat(2)))
    rep = GenericRep(UFP, (useg(5), Segment(c, 1), useg(1, 2, k=2)))
    mod = pi_u(rep)
    # |5|^2 = 25 > |1/2|^2: ascending order puts 1/2 first
    assert mod.satake == (GaussRat(rat(1, 2)), GaussRat(rat(5)))


def test_pi_u_of_unramified_rep_is_whole_rep():
    rep = GenericRep(UFP, (useg(3), useg(1, 3)))
    assert is_unramified_rep(rep)
    assert pi_u(rep).r == 2


def test_unramified_module_ordering_invariant():
    mod = corpus.rand_module(random.Random(1), UFP, 5)
    for i in range(mod.r - 1):
        assert mod.satake[i].abs2() <= mod.satake[i + 1].abs2()


def test_unramified_module_order_is_the_stable_rational_norm_order():
    # the integer norms over one common denominator order the values as
    # the rational |alpha|^2 does, and equal norms (3 and -3, 3i; 1/2
    # and i/2, (3 + 4i)/10) keep their construction order
    rng = random.Random(1211)
    ties = [g(3), g(-1, 2, 1, 2), g(0, 1, 3), g(1, 2), g(-3), g(0, 1, 1, 2), g(3, 10, 2, 5)]
    for vals in [ties] + [[corpus.rand_gauss(rng) for _ in range(rng.randint(2, 7))]
                          for _ in range(40)]:
        rng.shuffle(vals)
        want = tuple(sorted(vals, key=lambda v: v.abs2()))
        assert UnramifiedModule(UFP, tuple(vals)).satake == want


# -- conductor ----------------------------------------------------------


def test_conductor_values():
    assert conductor(GenericRep(UFP, (useg(3), useg(1, 3)))) == 0
    assert conductor(GenericRep(UFP, (useg(1, 1, k=2),))) == 1
    c = rchar("eta", GaussRat(rat(2)), cond=2)
    assert conductor(GenericRep(RFP, (Segment(c, 3),))) == 6


def test_conductor_additive_over_segments():
    c = rchar("eta", GaussRat(rat(2)), cond=1)
    rep = GenericRep(UFP, (useg(1, 1, k=2), Segment(c, 2)))
    assert conductor(rep) == 1 + 2


# -- epsilon_twist_sign --------------------------------------------------


def test_epsilon_twist_sign():
    minus = GaussRat(rat(-1))
    plus = GaussRat(rat(1))
    even = GenericRep(RFP, (Segment(rchar("eta", GaussRat(rat(2)), cond=2), 1),))
    assert conductor(even) == 2
    assert epsilon_twist_sign(even, minus) == plus
    steinberg = GenericRep(UFP, (useg(1, 1, k=2),))
    assert epsilon_twist_sign(steinberg, minus) == minus
    assert epsilon_twist_sign(steinberg, plus) == plus


def test_epsilon_parity_matches_conductor_parity():
    rng = random.Random(606)
    minus = GaussRat(rat(-1))
    for _ in range(20):
        rep = corpus.ramified_rep(rng, corpus.rand_field(rng, bool(rng.getrandbits(1))))
        sign = epsilon_twist_sign(rep, minus)
        expect = GaussRat(rat(1)) if conductor(rep) % 2 == 0 else minus
        assert sign == expect


# -- asai_holomorphic_witness --------------------------------------------


def test_witness_spec_instances():
    assert asai_holomorphic_witness(GenericRep(UFP, (useg(3), useg(1, 3))))
    assert asai_holomorphic_witness(GenericRep(UFP, (useg(1, 1, k=2),)))


def test_witness_requires_csd():
    with pytest.raises(ValueError, match="conjugate-self-dual"):
        asai_holomorphic_witness(GenericRep(UFP, (useg(3),)))


def test_witness_true_on_csd_corpus():
    rng = random.Random(707)
    for ramified in (False, True):
        fp = corpus.rand_field(rng, ramified)
        for _ in range(25):
            assert asai_holomorphic_witness(corpus.csd_rep(rng, fp))
