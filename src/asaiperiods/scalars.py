"""Scalar tower: the Gaussian rationals Q(i).

GaussRat is Q(i), held as one Gaussian integer over one denominator:
three ints nr, ni, den with value (nr + ni*i) / den, den > 0 and
gcd(nr, ni, den) == 1, so each value has exactly one triple and
equality compares the three ints. Sums and products are integer
arithmetic followed by one math.gcd; code that clears denominators
reads den directly, and GaussRat.scaled() builds a value from a scaled
integer pair with one division. No rational object is built: .re and
.im return exact fractions.Fraction parts, made on demand. It is the
ring of the whole computation: Satake values, character values at the
uniformizer, every series, polynomial and closed-form coefficient,
every value of a closed form, and the coefficient c of each Whittaker
torus value c * q_F^(m/2), whose half power m is a plain int
(whittaker.py). No sum of two such values is ever formed, so no
sqrt(q_F) field is needed.

AlgNum, a + b*sqrt(q), is not part of the tower: it serves the
micro-timings of the layerbench harness alone.
"""

from __future__ import annotations

import sys
from math import gcd

from .rational import rat, ratio_str

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _ratio(x) -> tuple:
    """(numerator, denominator) of an int or an exact rational."""
    if isinstance(x, int):
        return int(x), 1
    from numbers import Rational

    if isinstance(x, Rational):
        return int(x.numerator), int(x.denominator)
    raise TypeError("GaussRat parts must be int or exact rationals, not %s" % type(x).__name__)


def _rational_hash(p: int, q: int) -> int:
    """hash(p/q) by Python's numeric hash rule, which int and
    fractions.Fraction share, for p/q in lowest terms with q > 0."""
    if q == 1:
        return hash(p)
    try:
        h = hash(hash(abs(p)) * pow(q, -1, _HASH_MODULUS))
    except ValueError:  # q is a multiple of the modulus
        h = _HASH_INF
    if p < 0:
        h = -h
    return -2 if h == -1 else h


class GaussRat:
    """Exact complex rational (nr + ni*i) / den."""

    __slots__ = ("nr", "ni", "den")

    def __init__(self, re=0, im=0):
        """re + im*i for int or exact rational parts; TypeError otherwise."""
        pr, qr = _ratio(re)
        pi, qi = _ratio(im)
        nr, ni, den = pr * qi, pi * qr, qr * qi
        g = gcd(nr, ni, den)
        self.nr = nr // g
        self.ni = ni // g
        self.den = den // g

    @staticmethod
    def scaled(re: int, im: int, den: int) -> "GaussRat":
        """(re + im*i) / den for ints re, im and a nonzero int den."""
        if den < 0:
            re, im, den = -re, -im, -den
        elif not den:
            raise ZeroDivisionError("GaussRat with zero denominator")
        g = gcd(re, im, den)
        if g != 1:
            re //= g
            im //= g
            den //= g
        return _made(re, im, den)

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussRat):
            return x
        try:
            p, q = _ratio(x)
        except TypeError:
            return None
        return _scaled(p, 0, q)

    @property
    def re(self):
        """Real part, an exact fractions.Fraction."""
        return rat(self.nr, self.den)

    @property
    def im(self):
        """Imaginary part, an exact fractions.Fraction."""
        return rat(self.ni, self.den)

    def is_zero(self) -> bool:
        return not self.nr and not self.ni

    def is_real(self) -> bool:
        return not self.ni

    def conj(self) -> "GaussRat":
        return _made(self.nr, -self.ni, self.den)

    def abs2(self):
        """Norm re^2 + im^2, an exact fractions.Fraction."""
        return rat(self.nr * self.nr + self.ni * self.ni, self.den * self.den)

    def inverse(self) -> "GaussRat":
        nr, ni, den = self.nr, self.ni, self.den
        if not ni:
            if not nr:
                raise ZeroDivisionError("division by zero GaussRat")
            return _made(den, 0, nr) if nr > 0 else _made(-den, 0, -nr)
        return _scaled(den * nr, -den * ni, nr * nr + ni * ni)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is GaussRat else self._coerce(other)
        if o is None:
            return NotImplemented
        ad, bd = self.den, o.den
        if ad == bd:
            if ad == 1:
                return _made(self.nr + o.nr, self.ni + o.ni, 1)
            return _scaled(self.nr + o.nr, self.ni + o.ni, ad)
        return _scaled(self.nr * bd + o.nr * ad, self.ni * bd + o.ni * ad, ad * bd)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is GaussRat else self._coerce(other)
        if o is None:
            return NotImplemented
        ad, bd = self.den, o.den
        if ad == bd:
            if ad == 1:
                return _made(self.nr - o.nr, self.ni - o.ni, 1)
            return _scaled(self.nr - o.nr, self.ni - o.ni, ad)
        return _scaled(self.nr * bd - o.nr * ad, self.ni * bd - o.ni * ad, ad * bd)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other if type(other) is GaussRat else self._coerce(other)
        if o is None:
            return NotImplemented
        ar, ai, br, bi = self.nr, self.ni, o.nr, o.ni
        if ai or bi:
            return _scaled(ar * br - ai * bi, ar * bi + ai * br, self.den * o.den)
        return _scaled(ar * br, 0, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return _made(-self.nr, -self.ni, self.den)

    def __pos__(self):
        return self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = GAUSS_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other):
        o = other if type(other) is GaussRat else self._coerce(other)
        if o is None:
            return NotImplemented
        return self.nr == o.nr and self.ni == o.ni and self.den == o.den

    def __hash__(self):
        # a real value hashes as the int or Fraction it equals
        if self.ni:
            return hash((self.nr, self.ni, self.den))
        return _rational_hash(self.nr, self.den)

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return "GaussRat(%s, %s)" % (self.re, self.im)

    def __str__(self):
        re = ratio_str(self.nr, self.den)
        if not self.ni:
            return re
        sign = "+" if self.ni > 0 else "-"
        return "%s%s%si" % (re, sign, ratio_str(abs(self.ni), self.den))


_new = object.__new__
_scaled = GaussRat.scaled


def _made(nr: int, ni: int, den: int) -> GaussRat:
    """The GaussRat of a triple already in normal form."""
    out = _new(GaussRat)
    out.nr = nr
    out.ni = ni
    out.den = den
    return out


GAUSS_ZERO = _made(0, 0, 1)
GAUSS_ONE = _made(1, 0, 1)


class AlgNum:
    """a + b*sqrt(q) with GaussRat components, formal in sqrt(q).

    No computation of the package uses it: the Whittaker values are
    (c, m) monomials (whittaker.py). It is kept, as constructor, + and
    * only, for the scalars.alg_add_us and alg_mul_us micro-timings of
    the layerbench harness. Elements with b = 0 carry q = 0; a sum or
    product adopts the one nonzero radicand of its operands.
    """

    __slots__ = ("a", "b", "q")

    def __init__(self, a=0, b=0, q=0):
        self.a = GaussRat._coerce(a)
        self.b = GaussRat._coerce(b)
        self.q = q if self.b else 0

    def __add__(self, o):
        return AlgNum(self.a + o.a, self.b + o.b, self.q or o.q)

    def __mul__(self, o):
        q = self.q or o.q
        return AlgNum(self.a * o.a + self.b * o.b * q, self.a * o.b + self.b * o.a, q)
