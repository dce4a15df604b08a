"""GaussRat against an independent reference: a pair of
fractions.Fraction parts, with the complex field operations written out
on the pairs. Every result must equal the reference value and be in
normal form: den > 0 and gcd(nr, ni, den) == 1. Also a guard that no
module but scalars.py uses AlgNum, which the computation no longer
needs."""

import ast
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import asaiperiods
from asaiperiods.scalars import GAUSS_ONE, GAUSS_ZERO, GaussRat

ZERO = (Fraction(0), Fraction(0))


def ref_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def ref_sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def ref_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def ref_inverse(a):
    n = a[0] * a[0] + a[1] * a[1]
    if not n:
        raise ZeroDivisionError
    return a[0] / n, -a[1] / n


def ref_pow(a, n):
    if n < 0:
        return ref_pow(ref_inverse(a), -n)
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_str(a):
    re = "%d/%d" % (a[0].numerator, a[0].denominator)
    if not a[1]:
        return re
    im = abs(a[1])
    return "%s%s%d/%di" % (re, "+" if a[1] > 0 else "-", im.numerator, im.denominator)


def check(g, ref):
    """g is in normal form and has the reference value."""
    assert type(g) is GaussRat
    assert g.den > 0
    assert gcd(g.nr, g.ni, g.den) == 1
    assert (g.re, g.im) == ref
    assert (Fraction(g.nr, g.den), Fraction(g.ni, g.den)) == ref


def rand_part(rng):
    kind = rng.random()
    if kind < 0.2:
        return Fraction(0)
    if kind < 0.4:  # large numerator and denominator
        return Fraction(rng.randint(-2 ** 80, 2 ** 80), rng.randint(1, 2 ** 70))
    if kind < 0.5:
        return Fraction(rng.randint(-50, 50))
    return Fraction(rng.randint(-99, 99), rng.randint(1, 60))


def rand_value(rng):
    """(GaussRat, reference pair), built by either constructor."""
    ref = (rand_part(rng), rand_part(rng))
    if rng.random() < 0.5:
        return GaussRat(*ref), ref
    # a scaled pair over a non-reduced denominator of either sign
    den = ref[0].denominator * ref[1].denominator * rng.choice((1, 3, 12)) * rng.choice((1, -1))
    return GaussRat.scaled(int(ref[0] * den), int(ref[1] * den), den), ref


SEEDS = range(6)


@pytest.mark.parametrize("seed", SEEDS)
def test_construction_and_parts(seed):
    rng = random.Random(seed)
    for _ in range(200):
        g, ref = rand_value(rng)
        check(g, ref)
        check(+g, ref)
        check(-g, (-ref[0], -ref[1]))
        check(g.conj(), (ref[0], -ref[1]))
        assert g.abs2() == ref[0] ** 2 + ref[1] ** 2
        assert g.is_zero() == (ref == ZERO) == (not g)
        assert g.is_real() == (not ref[1])
        assert str(g) == ref_str(ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_ring_operations(seed):
    rng = random.Random(100 + seed)
    for _ in range(200):
        (a, ra), (b, rb) = rand_value(rng), rand_value(rng)
        check(a + b, ref_add(ra, rb))
        check(a - b, ref_sub(ra, rb))
        check(a * b, ref_mul(ra, rb))
        # mixed with ints and Fractions, from either side
        k = rng.randint(-9, 9)
        f = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        check(a + k, ref_add(ra, (Fraction(k), Fraction(0))))
        check(k - a, ref_sub((Fraction(k), Fraction(0)), ra))
        check(f * a, ref_mul((f, Fraction(0)), ra))
        check(a - f, ref_sub(ra, (f, Fraction(0))))


@pytest.mark.parametrize("seed", SEEDS)
def test_division_inverse_and_powers(seed):
    rng = random.Random(200 + seed)
    for _ in range(150):
        (a, ra), (b, rb) = rand_value(rng), rand_value(rng)
        if rb == ZERO:
            for op in (b.inverse, lambda: a / b, lambda: b ** -1, lambda: 1 / b):
                with pytest.raises(ZeroDivisionError):
                    op()
            continue
        check(b.inverse(), ref_inverse(rb))
        check(a / b, ref_mul(ra, ref_inverse(rb)))
        check(3 / b, ref_mul((Fraction(3), Fraction(0)), ref_inverse(rb)))
        n = rng.randint(-4, 6)
        check(b ** n, ref_pow(rb, n))
    assert GAUSS_ZERO ** 0 == GAUSS_ONE


@pytest.mark.parametrize("seed", SEEDS)
def test_equality_and_hash_follow_the_value(seed):
    rng = random.Random(300 + seed)
    for _ in range(200):
        g, ref = rand_value(rng)
        same = GaussRat(*ref)
        assert g == same and hash(g) == hash(same)
        other, rother = rand_value(rng)
        assert (g == other) == (ref == rother)
        # same Gaussian integer over another denominator
        assert (GaussRat.scaled(g.nr, g.ni, 2 * g.den) == g) == (ref == ZERO)
        if not ref[1]:
            # a real value equals, and hashes like, the int or Fraction it is
            assert g == ref[0] and ref[0] == g
            assert hash(g) == hash(ref[0])
            if ref[0].denominator == 1:
                assert g == int(ref[0]) and hash(g) == hash(int(ref[0]))
        else:
            assert g != ref[0]


def test_real_values_keep_the_hash_eq_contract():
    for x in (0, 1, -1, 7, 2 ** 100, Fraction(1, 2), Fraction(-22, 7),
              Fraction(1, 2 ** 61 - 1), Fraction(-3, 5 * (2 ** 61 - 1))):
        g = GaussRat(x)
        assert g == x and hash(g) == hash(x)
        assert len({g, x}) == 1
    assert hash(GaussRat(1)) == hash(1)


def test_constructor_accepts_only_ints_and_exact_rationals():
    assert GaussRat(1, Fraction(-1, 2)) == GaussRat.scaled(2, -1, 2)
    for bad in (0.1, "1/2", 1j, None, GaussRat(1)):
        with pytest.raises(TypeError):
            GaussRat(bad)
        with pytest.raises(TypeError):
            GaussRat(0, bad)


def test_arithmetic_with_unsupported_types_raises_type_error():
    for bad in (0.5, "1", 1j):
        with pytest.raises(TypeError):
            GaussRat(1) + bad
        with pytest.raises(TypeError):
            bad * GaussRat(1)
    assert GaussRat(1) != 1.5 and GaussRat(1) != "1"


def test_scaled_normalizes_sign_and_common_factors():
    g = GaussRat.scaled(6, -4, -10)
    assert (g.nr, g.ni, g.den) == (-3, 2, 5)
    z = GaussRat.scaled(0, 0, -7)
    assert (z.nr, z.ni, z.den) == (0, 0, 1) and z == GAUSS_ZERO
    with pytest.raises(ZeroDivisionError):
        GaussRat.scaled(1, 1, 0)


def test_text_forms():
    g = GaussRat(Fraction(3, 6), -3)
    assert str(g) == "1/2-3/1i"
    assert repr(g) == "GaussRat(1/2, -3)"
    assert str(GaussRat(4)) == "4/1"
    assert repr(GaussRat(0, Fraction(2, 4))) == "GaussRat(0, 1/2)"


def test_only_scalars_names_algnum():
    # AlgNum is kept for the layerbench micro-timings alone; no module of
    # the package may import it or name it
    found = []
    for path in sorted(Path(asaiperiods.__file__).parent.glob("*.py")):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            if names & {"AlgNum", "*"}:
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []
