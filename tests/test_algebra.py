"""Exact arithmetic layer: Gaussian rationals, polynomials, truncated
series, canonical rational functions."""

import itertools
import math
import random

import pytest

from asaiperiods.rational import parse_ratio, rat, ratio_str
from asaiperiods.ratfunc import (
    RatFunc,
    _solve_exact,
    eliminate,
    eval_at,
    reconstruct,
    same_product,
    series_of,
)
from asaiperiods.scalars import GAUSS_ONE, GaussRat
from asaiperiods.series import (
    Poly,
    Series,
    _gauss_div_exact,
    _gauss_gcd,
    clear_denominators,
    clear_gaussian_denominators,
    poly_gcd,
)


def g(p, q=1):
    return GaussRat(rat(p, q))


def gi(re_p, re_q, im_p, im_q):
    return GaussRat(rat(re_p, re_q), rat(im_p, im_q))


def one_minus(c, k=1):
    # factor 1 - c*t^k as a Poly
    return Poly.one_minus(c if isinstance(c, GaussRat) else g(c), k)


# -- oracle: plain coefficient convolution, independent of Poly/Series --

def convolve(a, b, order):
    out = []
    for k in range(order + 1):
        acc = g(0)
        for i in range(k + 1):
            if i < len(a) and k - i < len(b):
                acc = acc + a[i] * b[k - i]
        out.append(acc)
    return out


def geometric(c, order):
    return [c**k for k in range(order + 1)]


# -- rationals ----------------------------------------------------------


def test_rat_str_and_parse_round_trip():
    # the "p/q" text of the descriptor format, on int pairs
    assert ratio_str(3, 6) == "1/2"
    assert ratio_str(-4, 1) == "-4/1"
    assert parse_ratio("7/3") == (7, 3)
    assert parse_ratio("-5") == (-5, 1)
    assert parse_ratio(ratio_str(-22, 7)) == (-22, 7)


def test_parse_rat_rejects_zero_denominator():
    with pytest.raises(ValueError):
        parse_ratio("1/0")


# -- GaussRat -----------------------------------------------------------


def test_gauss_basic_arithmetic():
    z = gi(1, 1, 2, 1)  # 1 + 2i
    w = gi(3, 1, -1, 1)  # 3 - i
    assert z * w == gi(5, 1, 5, 1)
    assert z + w == gi(4, 1, 1, 1)
    assert (z / w) * w == z
    assert z.conj() == gi(1, 1, -2, 1)
    assert z.abs2() == rat(5)


def test_gauss_pow_and_inverse():
    z = gi(3, 5, 4, 5)  # unit circle: 3/5 + 4/5 i
    assert z.abs2() == rat(1)
    assert z * z.conj() == GaussRat(rat(1))
    assert z**0 == GaussRat(rat(1))
    assert z**-2 == (z**2).inverse()


def test_gauss_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        g(1) / g(0)


# -- ring laws on randomized inputs ------------------------------------


def rand_gauss(rng):
    return GaussRat(rat(rng.randint(-6, 6), rng.randint(1, 4)),
                    rat(rng.randint(-6, 6), rng.randint(1, 4)))


def test_ring_laws_gauss():
    rng = random.Random(101)
    for _ in range(50):
        a, b, c = (rand_gauss(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + GaussRat(rat(0)) == a
        assert a * GaussRat(rat(1)) == a


# -- Poly ---------------------------------------------------------------


def test_poly_mul_and_strip():
    p = Poly([1, -3])  # 1 - 3t
    q = Poly([g(1), g(-1, 3)])  # 1 - t/3
    prod = p * q
    assert prod.coeff(0) == g(1)
    assert prod.coeff(1) == g(-10, 3)
    assert prod.coeff(2) == g(1)
    # zero polynomial strips to the empty tuple, degree -1
    assert (p - p).degree == -1
    assert (p - p).coeff(0) == g(0)


def test_poly_divmod_exact():
    a = Poly([1, 0, -1])  # 1 - t^2
    b = Poly([1, -1])  # 1 - t
    quo, rem = divmod(a, b)
    assert rem == Poly([0])
    assert quo == Poly([1, 1])
    assert quo * b == a


def test_poly_gcd_common_factor():
    common = Poly([1, -2])
    a = common * Poly([1, 1])
    b = common * Poly([1, 3])
    d = poly_gcd(a, b)
    # monic normalization: gcd of 1-2t is t - 1/2
    assert d.degree == 1
    _, rem_a = divmod(a, d)
    _, rem_b = divmod(b, d)
    assert rem_a == Poly([0]) and rem_b == Poly([0])


def test_poly_eval_horner():
    p = Poly([1, -3, 2])
    val = p(g(1, 2))
    assert val == g(0)  # 1 - 3/2 + 2/4


# -- the coefficient ring is Q(i) -----------------------------------------


def test_series_and_poly_refuse_sqrt_components():
    # Whittaker values (c, m) are monomials in sqrt(q_F), not scalars
    for bad in ((g(1), 1), (g(1), 0), 0.5):
        with pytest.raises(TypeError):
            Series([bad])
        with pytest.raises(TypeError):
            Poly([g(1), bad])
        with pytest.raises(TypeError):
            Poly.one_minus(bad)
        with pytest.raises(TypeError):
            Poly([1, 2]) * bad
        with pytest.raises(TypeError):
            eval_at(RatFunc(Poly([1]), one_minus(2)), bad)


def test_coefficients_are_gauss_rationals():
    p = Poly([1, rat(1, 2), g(3)]) * Poly.one_minus(gi(1, 2, 1, 3), 2)
    s = Series((1, rat(2, 3), gi(1, 1, -1, 1))) * Series((g(1), g(2), g(3)))
    rf = RatFunc(Poly([1, 1]), one_minus(3) * one_minus(gi(0, 1, 1, 2)))
    coeffs = list(p.coeffs) + list(s.coeffs) + list(rf.num.coeffs) + list(rf.den.coeffs)
    coeffs += list(series_of(rf, 6).coeffs) + [p(g(1, 2)), eval_at(rf, g(1, 5))]
    assert all(type(c) is GaussRat for c in coeffs)


# -- Series -------------------------------------------------------------


def test_series_truncating_arithmetic():
    a = Series(tuple(g(1) for _ in range(5)))
    b = Series(tuple(g(k) for k in range(3)))
    assert (a + b).order == 2
    assert (a * b).order == 2
    prod = a * b
    # (1+t+t^2)(0+t+2t^2) truncated: 0, 1, 3
    assert [x.re for x in prod.coeffs] == [rat(0), rat(1), rat(3)]


def test_series_first_mismatch():
    a = Series((GAUSS_ONE, GAUSS_ONE, GAUSS_ONE))
    b = Series((GAUSS_ONE, GAUSS_ONE, g(2)))
    assert a.first_mismatch(b) == 2
    assert a.first_mismatch(a) is None


# -- series_of ----------------------------------------------------------


def test_series_of_geometric():
    rf = RatFunc(Poly([1]), one_minus(1))
    s = series_of(rf, 3)
    assert [x.re for x in s.coeffs] == [rat(1)] * 4


def test_series_of_cancelling_factor():
    # (1 - t^2)/(1 - t) reduces to 1 + t
    rf = RatFunc(Poly([1, 0, -1]), one_minus(1))
    s = series_of(rf, 2)
    assert [x.re for x in s.coeffs] == [rat(1), rat(1), rat(0)]


def test_series_of_two_geometric_factors_vs_convolution_oracle():
    rf = RatFunc(Poly([1]), one_minus(3) * one_minus(g(1, 3)))
    s = series_of(rf, 8)
    expected = convolve(geometric(g(3), 8), geometric(g(1, 3), 8), 8)
    assert list(s.coeffs) == expected
    # order-2 values, frozen from the oracle: 1, 10/3, 91/9
    assert s.coeffs[1].re == rat(10, 3)
    assert s.coeffs[2].re == rat(91, 9)


def test_series_of_triple_product_vs_oracle():
    den = one_minus(3) * one_minus(g(1, 3)) * one_minus(1, 2)
    rf = RatFunc(Poly([1]), den)
    s = series_of(rf, 10)
    pair = convolve(geometric(g(3), 10), geometric(g(1, 3), 10), 10)
    sq = [g(1) if k % 2 == 0 else g(0) for k in range(11)]
    expected = convolve(pair, sq, 10)
    assert list(s.coeffs) == expected


def test_ratfunc_pole_at_origin_rejected():
    with pytest.raises(ValueError, match="pole at t=0"):
        RatFunc(Poly([1]), Poly([0, 1]))


# -- eval_at ------------------------------------------------------------


def test_eval_geometric_at_half():
    rf = RatFunc(Poly([1]), one_minus(1))
    assert eval_at(rf, g(1, 2)) == g(2)


def test_eval_unitary_denominator_at_half():
    den = Poly([g(1), g(-6, 5), g(1)]) * Poly([1, 0, -1])
    rf = RatFunc(Poly([1]), den)
    val = eval_at(rf, g(1, 2))
    assert val == g(80, 39)
    # float cross-check
    approx = 1.0 / ((1 - 6 / 5 * 0.5 + 0.25) * (1 - 0.25))
    assert math.isclose(float(val.re), approx, rel_tol=1e-12)


def test_eval_at_pole_raises():
    rf = RatFunc(Poly([1]), one_minus(1))
    with pytest.raises(ZeroDivisionError, match="pole at evaluation point"):
        eval_at(rf, g(1))


# -- reconstruct --------------------------------------------------------


def test_reconstruct_geometric():
    s = Series(tuple(GAUSS_ONE for _ in range(5)))
    rf = reconstruct(s, 0, 1)
    assert rf == RatFunc(Poly([1]), one_minus(1))


def test_reconstruct_round_trip_degree_four():
    den = one_minus(3) * one_minus(g(1, 3)) * one_minus(1, 2)
    rf = RatFunc(Poly([1]), den)
    s = series_of(rf, 12)
    assert reconstruct(s, 0, 4) == rf


def test_reconstruct_inconsistent_series():
    coeffs = tuple(g(c) for c in (1, 0, 0, 0, 5))
    with pytest.raises(ValueError, match="reconstruction inconsistent"):
        reconstruct(Series(coeffs), 0, 1)


def test_reconstruct_bounds_above_true_degrees():
    # bounds (3, 5) on a (0, 2) function: the denominator system is rank
    # deficient, free variables stay 0, and the result reduces to rf
    rf = RatFunc(Poly([1]), one_minus(2) * one_minus(g(1, 3)))
    assert reconstruct(series_of(rf, 12), 3, 5) == rf
    num = Poly([g(1), gi(0, 1, 2, 3)])
    rf2 = RatFunc(num, one_minus(gi(1, 2, -1, 5)))
    assert reconstruct(series_of(rf2, 10), 2, 4) == rf2


def test_reconstruct_inconsistent_past_the_pivots():
    # rows after the last pivot carry a nonzero right-hand side
    coeffs = tuple(g(c) for c in (1, 1, 1, 1, 1, 1, 7))
    with pytest.raises(ValueError, match="reconstruction inconsistent"):
        reconstruct(Series(coeffs), 0, 2)


def test_reconstruct_polynomial_with_zero_den_degree():
    s = Series(tuple(g(c) for c in (1, 2, 3, 0, 0, 0)))
    assert reconstruct(s, 2, 0) == RatFunc(Poly([1, 2, 3]))
    with pytest.raises(ValueError, match="reconstruction inconsistent"):
        reconstruct(Series(tuple(g(c) for c in (1, 2, 3, 0, 4))), 2, 0)


def test_reconstruct_order_too_small():
    s = Series((GAUSS_ONE, GAUSS_ONE))
    with pytest.raises(ValueError, match="too small"):
        reconstruct(s, 2, 3)


def test_reconstruct_random_round_trips():
    rng = random.Random(303)
    for _ in range(20):
        dn = rng.randint(0, 2)
        dd = rng.randint(1, 3)
        num = Poly([rand_gauss(rng) for _ in range(dn + 1)])
        den_factors = Poly([1])
        for _ in range(dd):
            c = rand_gauss(rng)
            den_factors = den_factors * Poly([g(1), c])
        if num == Poly([0]):
            continue
        rf = RatFunc(num, den_factors)
        order = rf.num_degree + rf.den_degree + 3
        back = reconstruct(series_of(rf, order), rf.num_degree, rf.den_degree)
        assert back == rf
        assert series_of(back, order) == series_of(rf, order)


def leibniz_det(mat):
    """Sum over permutations of signed products: the determinant by its
    definition, with the sign from the inversion count."""
    n = len(mat)
    total = g(0)
    for perm in itertools.permutations(range(n)):
        term = g(1)
        for i, j in enumerate(perm):
            term = term * mat[i][j]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


def determinant(mat):
    pivots, det = eliminate([list(r) for r in mat], len(mat))
    assert (len(pivots) == len(mat)) == (not det.is_zero()), (mat, pivots)
    return det


def test_elimination_determinant_of_vandermonde():
    # rows (a^(m-1), ..., a, 1): the determinant is prod_{i<j} (a_i - a_j),
    # its sign set by the row order
    rng = random.Random(2525)
    for m in range(1, 7):
        for _ in range(4):
            alpha = []
            while len(alpha) < m:
                a = rand_gauss(rng)
                if a not in alpha:
                    alpha.append(a)
            want = g(1)
            for i in range(m):
                for j in range(i + 1, m):
                    want = want * (alpha[i] - alpha[j])
            assert determinant([[a ** (m - 1 - j) for j in range(m)] for a in alpha]) == want


def test_elimination_determinant_swaps_rows_for_a_zero_pivot():
    assert determinant([[g(0), g(1)], [g(1), g(0)]]) == g(-1)
    assert determinant([[g(0), g(2), g(1)], [g(3), g(1), g(0)], [g(1), g(0), g(4)]]) == g(-25)
    rng = random.Random(77)
    for m in range(2, 6):
        for _ in range(6):
            mat = [[rand_gauss(rng) if rng.random() < 0.6 else g(0) for _ in range(m)]
                   for _ in range(m)]
            mat[0][0] = g(0)
            assert determinant(mat) == leibniz_det(mat), mat


def test_elimination_determinant_of_singular_and_empty_matrices():
    a, b = gi(1, 2, -1, 3), gi(2, 1, 0, 1)
    row0, row1 = [g(1), g(2), gi(0, 1, 1, 1)], [g(3), g(0), g(5)]
    mat = [row0, row1, [a * x + b * y for x, y in zip(row0, row1)]]
    pivots, det = eliminate([list(r) for r in mat], 3)
    assert det == g(0) and pivots == [0, 1]
    assert eliminate([[g(1), g(2)], [g(2), g(4)]], 2) == ([0], g(0))
    assert determinant([[g(0), g(1)], [g(0), g(3)]]) == g(0)
    assert eliminate([], 0) == ([], GAUSS_ONE)


def test_solve_exact_on_zero_columns():
    assert _solve_exact([[], []], [g(0), g(0)]) == []
    assert _solve_exact([[], []], [g(0), gi(0, 1, 1, 2)]) is None
    assert _solve_exact([], []) == []


# -- scaled Gaussian-integer paths against GaussRat schoolbook oracles --
#
# Poly.__mul__, RatFunc.from_factors and series_of run on (re, im) int
# pairs over a common denominator; each is checked here against the
# schoolbook computation on GaussRat values, on coefficients with large
# coprime denominators, complex and negative parts.

BIG = [
    gi(-7, 2**61 - 1, 5, 3**20),
    gi(10**30 + 7, 11, -13, 17**5),
    gi(0, 1, -1, 9),
    g(-4, 25),
    gi(3, 8, 1, 2),
    g(2**89 - 1, 10**12 + 39),
    gi(-1, 1, 1, 1),
]


def schoolbook_mul(a, b):
    """Coefficient list of the product, on GaussRat, trailing zeros stripped."""
    out = [g(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    while out and out[-1].is_zero():
        out.pop()
    return out


def schoolbook_series(num, den, order):
    """Coefficients 0..order of num/den by the GaussRat recurrence."""
    inv = den[0].inverse()
    out = []
    for k in range(order + 1):
        acc = num[k] if k < len(num) else g(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc = acc - den[j] * out[k - j]
        out.append(acc * inv)
    return out


def random_poly(rng, degree):
    return [rng.choice(BIG + [g(0), g(1), g(rng.randint(-9, 9), rng.randint(1, 9))])
            for _ in range(degree + 1)]


def test_poly_mul_matches_schoolbook():
    rng = random.Random(1109)
    for _ in range(60):
        a = random_poly(rng, rng.randint(0, 6))
        b = random_poly(rng, rng.randint(0, 6))
        assert list((Poly(a) * Poly(b)).coeffs) == schoolbook_mul(Poly(a).coeffs, Poly(b).coeffs)


def test_series_mul_matches_convolution_to_the_shorter_order():
    # series of unequal orders, with zero and large coefficients: the
    # integer product that Series shares with Poly, truncated
    rng = random.Random(2203)
    for _ in range(60):
        a = random_poly(rng, rng.randint(0, 6))
        b = random_poly(rng, rng.randint(0, 6))
        got = Series(a) * Series(b)
        assert list(got.coeffs) == convolve(a, b, min(len(a), len(b)) - 1)


def test_poly_mul_zero_and_constant_operands():
    p = Poly(BIG)
    for c in BIG + [g(1), g(-1)]:
        assert (Poly([c]) * p).coeffs == tuple(c * x for x in BIG)
        assert (p * Poly([c])).coeffs == tuple(x * c for x in BIG)
    assert Poly([BIG[0]]) * Poly([BIG[1]]) == Poly([BIG[0] * BIG[1]])
    for zero in (Poly.zero(), Poly([0, 0])):
        assert (zero * p).is_zero() and (p * zero).is_zero()
        assert (zero * zero).is_zero()


def test_from_factors_matches_schoolbook():
    rng = random.Random(2203)
    cases = [[], [(BIG[0], 1)], [(c, 2) for c in BIG], [(c, k) for c in BIG for k in (1, 2, 3)]]
    for _ in range(30):
        cases.append([(rng.choice(BIG), rng.choice((1, 2, 3, 4))) for _ in range(rng.randint(1, 8))])
    # c = -M: every coefficient positive, the top one prod M; c = +M: alternating signs
    ms = [rng.randint(1, 10**6) for _ in range(9)]
    for k in (1, 2, 3, 4):
        cases += [[(g(-m), k) for m in ms], [(g(m), k) for m in ms]]
    # purely imaginary and zero c, alone and mixed in
    cases += [[(gi(0, 1, m, 7), k) for m, k in zip(ms, (1, 2, 3, 4, 1))],
              [(g(0), k) for k in (1, 2, 3, 4)],
              [(g(0), 2), (BIG[1], 1), (gi(0, 1, -5, 3), 4), (g(0), 1), (BIG[3], 3)]]
    # 49 factors, a rank-7 by rank-7 Rankin-Selberg list
    xs = [gi(rng.randint(-9, 9), 3, rng.randint(-9, 9), 11) for _ in range(7)]
    ys = [g(rng.choice((-1, 1)) * rng.randint(5, 9), 4) for _ in range(7)]
    cases.append([(x * y, 1) for x in xs for y in ys])
    # bound B = prod(1 + |Re b| + |Im b|), b = c*D^k, on either side of
    # 2^(8j), where no digit width may fall a byte short, and of 2^(8j-1),
    # where the width steps up a byte
    for j in (1, 2, 3, 5):
        for bound in (2 ** (8 * j) - 1, 2 ** (8 * j) + 1, 2 ** (8 * j - 1) - 1, 2 ** (8 * j - 1) + 1):
            m = bound - 1
            cases += [[(g(-m), 1)], [(g(m), 3)], [(gi(-1, 1, 1 - m, 1), 2)],
                      [(g(-m), 1), (g(0), 1)], [(g(m), 2), (g(0), 4)],
                      [(g(-m, m + 1), 1)]]  # over D = m + 1, prime to m: b = -m
    for factors in cases:
        den = [g(1)]
        for c, k in factors:
            den = schoolbook_mul(den, [g(1)] + [g(0)] * (k - 1) + [-c])
        rf = RatFunc.from_factors(factors)
        assert rf.num == Poly.one() and list(rf.den.coeffs) == den


def test_same_product_is_ratfunc_equality():
    # (f1, f2, whether their products are equal), each also checked
    # against RatFunc equality and with the lists swapped
    rng = random.Random(2929)
    i = gi(0, 1, 1, 1)
    cases = []
    for _ in range(40):  # shuffled equal lists, c = 0 among them
        f1 = [(rng.choice(BIG + [g(0)]), rng.randint(1, 4)) for _ in range(rng.randint(0, 8))]
        f2 = f1[:]
        rng.shuffle(f2)
        cases.append((f1, f2, True))
    for a in BIG + [g(3, 7), gi(1, 2, -5, 3)]:
        for k in (1, 2):
            two = [(a, k), (-a, k)]  # 1 - a^2 t^(2k), over D
            four = two + [(i * a, k), (-i * a, k)]  # 1 - a^4 t^(4k), over D
            # equal products over different D: D^2 and D^4 on the right
            cases += [(two, [(a * a, 2 * k)], True), (four, [(a**4, 4 * k)], True)]
            # the products differ only in the top coefficient, in its
            # real or its imaginary part
            for e in (g(1, 5), gi(0, 1, 1, 5)):
                cases += [(two, [(a * a + e, 2 * k)], False), (four, [(a**4 + e, 4 * k)], False)]
        tail = [(rng.choice(BIG), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
        # c = 0 factors lengthen a list and leave its product; a factor of
        # higher power than the rest raises the total degree
        cases += [(tail, tail + [(g(0), 3)], True), ([(g(0), 1)] + tail, tail, True),
                  ([(g(0), 2)], [], True), (tail, tail + [(a, 9)], False),
                  (tail + [(g(0), 1)], tail + [(a, 1)], False)]
    for f1, f2, equal in cases:
        assert (RatFunc.from_factors(f1) == RatFunc.from_factors(f2)) == equal
        assert same_product(f1, f2) == equal and same_product(f2, f1) == equal


def test_from_factors_refuses_power_zero():
    with pytest.raises(ValueError, match="powers"):
        RatFunc.from_factors([(g(2), 1), (g(3), 0)])


def test_series_of_non_integral_numerator_constant():
    # 1/2 - t/3 over (1 - 5t/7)(1 - (2+i)t^2/3): coefficient k is not
    # integral over D^k, the numerator's constant term already needs D
    num = Poly([g(1, 2), g(-1, 3)])
    den = one_minus(g(5, 7)) * one_minus(gi(2, 3, 1, 3), 2)
    rf = RatFunc(num, den)
    assert list(series_of(rf, 12).coeffs) == schoolbook_series(rf.num.coeffs, rf.den.coeffs, 12)
    for c in (g(1, 2), gi(-3, 10, 7, 4), BIG[1]):
        rf = RatFunc(Poly([c]), Poly([1]))
        assert list(series_of(rf, 3).coeffs) == [c, g(0), g(0), g(0)]


def test_series_of_matches_schoolbook():
    rng = random.Random(3307)
    for _ in range(40):
        den = RatFunc.from_factors([(rng.choice(BIG), rng.choice((1, 2, 3)))
                                    for _ in range(rng.randint(0, 4))]).den
        num = Poly(random_poly(rng, rng.randint(0, 3)))
        if num.is_zero():
            continue
        rf = RatFunc(num, den)
        order = rng.randint(0, 14)
        want = schoolbook_series(rf.num.coeffs, rf.den.coeffs, order)
        assert list(series_of(rf, order).coeffs) == want


# -- oracle: Euclid over Q(i), independent of the subresultant sequence --

def euclid_gcd(a, b):
    """Monic gcd by the Euclidean algorithm over GaussRat."""
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    if a.is_zero():
        return a
    return a * a.coeffs[-1].inverse()


def euclid_degrees(a, b):
    """Degrees of the Euclidean remainder sequence, a and b included."""
    out = [a.degree, b.degree]
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
        out.append(b.degree)
    return out


def gcd_poly(rng, degree):
    """A random polynomial of exactly this degree."""
    low = [rng.choice(BIG + [g(0), g(1), gi(rng.randint(-9, 9), rng.randint(1, 9),
                                            rng.randint(-9, 9), rng.randint(1, 9))])
           for _ in range(degree)]
    return Poly(low + [rng.choice(BIG + [g(1), gi(0, 1, 2, 1)])])


def test_poly_gcd_zero_and_constant_arguments():
    p = Poly([g(3), gi(1, 2, -1, 5), g(6)])
    assert poly_gcd(Poly.zero(), Poly.zero()).is_zero()
    for a, b in ((Poly.zero(), p), (p, Poly.zero())):
        assert poly_gcd(a, b) == euclid_gcd(a, b) == p * g(1, 6)
    for c in (g(5), BIG[1], g(-1, 3)):
        assert poly_gcd(p, Poly([c])) == poly_gcd(Poly([c]), p) == Poly.one()
        assert poly_gcd(Poly.zero(), Poly([c])) == Poly.one()
        assert poly_gcd(Poly([c]), Poly([c])) == Poly.one()


def test_poly_gcd_large_denominators():
    common = Poly([BIG[0], BIG[1], g(1)])
    a = common * Poly([BIG[2], BIG[0]]) * Poly([g(1), BIG[3]])
    b = common * Poly([BIG[1], g(1), BIG[4]])
    assert poly_gcd(a, b) == euclid_gcd(a, b) == common
    assert poly_gcd(a, Poly([BIG[2], BIG[0]])) == \
        Poly([BIG[2], BIG[0]]) * BIG[0].inverse()


def test_poly_gcd_shared_by_no_single_factor():
    # 1 - 4t^2 = (1 - 2t)(1 + 2t) and 1 - 8t^3 = (1 - 2t)(1 + 2t + 4t^2)
    a = Poly([1, 0, -4])
    b = Poly([1, 0, 0, -8])
    assert poly_gcd(a, b) == poly_gcd(b, a) == Poly([g(-1, 2), g(1)])


def test_poly_gcd_remainder_degrees_skip():
    # A = Q*B + R with deg R two to four below deg B, all times a
    # planted common factor: the second step of the sequence skips degrees
    rng = random.Random(4441)
    skipped = 0
    for _ in range(40):
        common = gcd_poly(rng, rng.randint(0, 2))
        b = gcd_poly(rng, rng.randint(4, 6))
        r = gcd_poly(rng, b.degree - rng.randint(2, 4))
        a = gcd_poly(rng, rng.randint(1, 2)) * b + r
        a, b = a * common, b * common
        degs = euclid_degrees(a, b)
        skipped += any(x - y >= 2 for x, y in zip(degs[1:], degs[2:]) if y >= 0)
        assert poly_gcd(a, b) == euclid_gcd(a, b)
        assert poly_gcd(b, a) == euclid_gcd(a, b)
    assert skipped >= 30


def test_poly_gcd_matches_euclid_on_planted_factors():
    rng = random.Random(5003)
    for _ in range(150):
        common = gcd_poly(rng, rng.randint(0, 3))
        a = gcd_poly(rng, rng.randint(0, 5)) * common
        b = gcd_poly(rng, rng.randint(0, 5)) * common
        want = euclid_gcd(a, b)
        assert want.degree >= common.degree
        assert poly_gcd(a, b) == want
        assert poly_gcd(b, a) == want


def test_gaussian_division_refuses_a_remainder():
    assert _gauss_div_exact((10, 5), (2, 1)) == (5, 0)
    assert _gauss_div_exact((-12, 8), (4, 0)) == (-3, 2)
    for a, b in (((11, 5), (2, 1)), ((10, 6), (4, 0)), ((1, 0), (1, 1))):
        with pytest.raises(ArithmeticError):
            _gauss_div_exact(a, b)


# -- Gaussian gcd and the least Gaussian denominator, against brute force --


def norm(z):
    return z[0] * z[0] + z[1] * z[1]


def divides(z, w):
    """z | w in Z[i], for z != 0: w * conj(z) is N(z) times a Gaussian integer."""
    n = norm(z)
    return (w[0] * z[0] + w[1] * z[1]) % n == 0 and (w[1] * z[0] - w[0] * z[1]) % n == 0


def gaussian_points(bound):
    """Every nonzero Gaussian integer of norm at most bound."""
    r = math.isqrt(bound)
    return [(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1) if 0 < x * x + y * y <= bound]


def small_gaussian(rng):
    """A small Gaussian integer: real-only, imaginary-only, a unit, or any."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-12, 12), 0
    if kind == 1:
        return 0, rng.randint(-12, 12)
    if kind == 2:
        return rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
    return rng.randint(-9, 9), rng.randint(-9, 9)


def test_gaussian_gcd_matches_common_divisors():
    rng = random.Random(2401)
    pairs = [(small_gaussian(rng), small_gaussian(rng)) for _ in range(150)]
    # associates (times i, -1, -i), and multiples of a shared factor
    for a in ((3, 2), (-4, 1), (0, 6), (5, 0), (1, 1)):
        pairs += [(a, (-a[1], a[0])), (a, (-a[0], -a[1])), (a, (a[1], -a[0]))]
        pairs.append(((a[0] * 2 - a[1], a[1] * 2 + a[0]), (a[0] * 3 + a[1], a[1] * 3 - a[0])))
    pairs += [((0, 0), (0, 0)), ((0, 0), (-3, 4)), ((7, 0), (0, 0))]
    for a, b in pairs:
        got = _gauss_gcd(a, b)
        if a == b == (0, 0):
            assert got == (0, 0)
            continue
        assert divides(got, a) and divides(got, b), (a, b, got)
        # every common divisor divides the gcd, so the gcd has the largest norm
        for z in gaussian_points(max(norm(a), norm(b))):
            if divides(z, a) and divides(z, b):
                assert divides(z, got), (a, b, got, z)


def value(nr, ni, den):
    return GaussRat.scaled(nr, ni, den)


def denominator_cases(rng):
    """Lists of Satake-like values: inverses of Gaussian integers over
    split primes (5, 13, 17) and their products, real-only and
    imaginary-only values, Gaussian integers, and random mixes."""
    inverses = [value(a, -b, a * a + b * b) for a, b in ((1, 1), (2, 1), (3, 2), (1, 4), (4, 1), (3, 4), (1, 8))]
    yield inverses[:3]
    yield [inverses[1], inverses[1].conj()]
    yield [value(rng.randint(-9, 9) or 1, 0, rng.randint(1, 30)) for _ in range(3)]
    yield [value(0, rng.randint(1, 9), rng.randint(1, 30)) for _ in range(3)]
    yield [value(3, -4, 1), value(0, 1, 1), value(-2, 0, 1)]
    yield [value(1, 2, 5), value(1, -2, 5)]
    yield []
    for _ in range(60):
        vals = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(3)
            if kind == 0:
                vals.append(rng.choice(inverses) * value(rng.randint(-3, 3) or 1, rng.randint(-2, 2), 1))
            elif kind == 1:
                vals.append(value(rng.randint(-9, 9), rng.randint(-9, 9) or 1, rng.randint(1, 12)))
            else:
                vals.append(value(rng.randint(-9, 9) or 1, 0, rng.randint(1, 12)))
        yield vals


def clears(z, vals):
    """z * v in Z[i] for every value v."""
    return all(divides((v.den, 0), (z[0] * v.nr - z[1] * v.ni, z[0] * v.ni + z[1] * v.nr))
               for v in vals)


def test_least_gaussian_denominator_matches_brute_force():
    rng = random.Random(2402)
    routes = set()
    for vals in denominator_cases(rng):
        den, c, beta = clear_gaussian_denominators(vals)
        assert den == math.lcm(*[v.den for v in vals])
        # c = D / D_g is exact, and D_g * values = beta
        dg = _gauss_div_exact((den, 0), c)
        assert divides(c, (den, 0))
        for v, (br, bi) in zip(vals, beta):
            assert value(br, bi, 1) == value(*dg, 1) * v, (vals, c)
        # the scales that clear every value form an ideal of Z[i], which
        # D_g generates: no proper divisor D_g/z clears them all (a
        # Gaussian prime over p has norm p or p^2), and when the norm is
        # small, no Gaussian integer of smaller norm does either
        primes = [p for p in range(2, den + 1) if den % p == 0 and all(p % f for f in range(2, p))]
        for z in gaussian_points(max(primes, default=1) ** 2):
            if norm(z) > 1 and divides(z, dg):
                assert not clears(_gauss_div_exact(dg, z), vals), (vals, dg, z)
        if norm(dg) <= 4096:
            for z in gaussian_points(norm(dg)):
                if clears(z, vals):
                    assert norm(z) == norm(dg) and divides(dg, z), (vals, dg, z)
        # c = 1 exactly when D_g is an associate of D, and then D itself is the scale
        if norm(dg) == den * den:
            assert (c, beta) == ((1, 0), clear_denominators(vals)[1])
        else:
            assert norm(c) > 1
        routes.add(c == (1, 0))
        if all(v.is_real() for v in vals) or all(not v.nr for v in vals) \
                or all(v.den == 1 for v in vals):
            assert c == (1, 0), vals
    assert routes == {True, False}


def test_poly_eval_matches_gaussrat_horner():
    rng = random.Random(6011)
    points = BIG + [g(0), g(1), g(-7), g(1, 4), gi(0, 1, 1, 1), gi(2, 3, -5, 7)]
    for _ in range(80):
        p = gcd_poly(rng, rng.randint(0, 6))
        x = rng.choice(points)
        want = g(0)
        for c in reversed(p.coeffs):
            want = want * x + c
        assert p(x) == want
    assert Poly.zero()(g(3)) == g(0)
    assert Poly([gi(1, 3, 2, 7)])(BIG[0]) == gi(1, 3, 2, 7)
    assert Poly([1, 1])(5) == g(6)
