"""Dense polynomials and truncated power series over GaussRat.

Both types are immutable value objects in the single variable t, with
coefficients in Q(i): a scalar with a sqrt(q) component raises
TypeError. Series carry an explicit truncation order (the index of the last
stored coefficient); binary operations truncate at the minimum of the
operand orders. Equality of Series is strict: same order and same
coefficients.

Polynomial products run on scaled Gaussian integers: each operand is
cleared to one common denominator and (re, im) int pairs
(clear_denominators), the pairs are convolved, and each coefficient of
the product is divided once. The public coefficients stay GaussRat;
the scaled form is internal, as in the lattice-sum kernel.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Sequence

from .rational import rat
from .scalars import GAUSS_ONE, GAUSS_ZERO, GaussRat


def scaled_pair(c: GaussRat, s: int) -> tuple:
    """c*s as an (re, im) int pair; s must be a multiple of the
    denominators of both parts of c."""
    return (int(c.re.numerator) * (s // int(c.re.denominator)),
            int(c.im.numerator) * (s // int(c.im.denominator)))


def clear_denominators(values: Sequence[GaussRat]) -> tuple[int, list]:
    """(D, beta) with D the lcm of the denominators of every real and
    imaginary part of values and beta = D*values as (re, im) int pairs."""
    den = 1
    for v in values:
        den = lcm(den, int(v.re.denominator), int(v.im.denominator))
    return den, [scaled_pair(v, den) for v in values]


def _coerce(x) -> GaussRat:
    c = GaussRat._coerce(x)
    if c is None:
        raise TypeError("cannot coerce %r into GaussRat" % (x,))
    return c


class Poly:
    """Polynomial with GaussRat coefficients, ascending degree order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((GAUSS_ONE,))

    @classmethod
    def one_minus(cls, c, k: int = 1) -> "Poly":
        """The factor 1 - c*t^k."""
        if k == 0:
            return cls((GAUSS_ONE - _coerce(c),))
        return cls((GAUSS_ONE,) + (GAUSS_ZERO,) * (k - 1) + (-_coerce(c),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> GaussRat:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else GAUSS_ZERO

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly.zero()
            den_a, a = clear_denominators(self.coeffs)
            den_b, b = clear_denominators(other.coeffs)
            re = [0] * (len(a) + len(b) - 1)
            im = [0] * len(re)
            for i, (ar, ai) in enumerate(a):
                if not (ar or ai):
                    continue
                for j, (br, bi) in enumerate(b, i):
                    re[j] += ar * br - ai * bi
                    im[j] += ar * bi + ai * br
            den = den_a * den_b
            return Poly([GaussRat(rat(x, den), rat(y, den)) for x, y in zip(re, im)])
        c = GaussRat._coerce(other)
        if c is None:
            return NotImplemented
        return Poly([x * c for x in self.coeffs])

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly"):
        """Exact division over the field Q(i)."""
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(), self
        lead_inv = other.coeffs[-1].inverse()
        quot = [GAUSS_ZERO] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1] * lead_inv
            if not c.is_zero():
                quot[k] = c
                for j, oc in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * oc
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        q, _ = divmod(self, other)
        return q

    def __mod__(self, other):
        _, r = divmod(self, other)
        return r

    def __call__(self, x) -> GaussRat:
        x = _coerce(x)
        acc = GAUSS_ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "Poly(%r)" % (list(map(str, self.coeffs)),)

    def to_str(self, var: str = "t") -> str:
        """Readable form like "1 - 3t + t^2"."""
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(str(c))
                continue
            mono = var if k == 1 else "%s^%d" % (var, k)
            if c == GAUSS_ONE:
                piece = mono
            elif c == -GAUSS_ONE:
                piece = "-" + mono
            else:
                piece = "%s*%s" % (c, mono)
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm over Q(i)."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a * a.coeffs[-1].inverse()


class Series:
    """Truncated power series: coefficients 0..order inclusive."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = tuple(_coerce(c) for c in coeffs)
        if not cs:
            raise ValueError("a series stores at least the constant coefficient")
        self.coeffs = cs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> GaussRat:
        return self.coeffs[k]

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series([self.coeffs[k] - other.coeffs[k] for k in range(n + 1)])

    def __mul__(self, other):
        if isinstance(other, Series):
            n = min(self.order, other.order)
            out = [GAUSS_ZERO] * (n + 1)
            for i in range(n + 1):
                ci = self.coeffs[i]
                if ci.is_zero():
                    continue
                for j in range(n + 1 - i):
                    cj = other.coeffs[j]
                    if not cj.is_zero():
                        out[i + j] = out[i + j] + ci * cj
            return Series(out)
        c = GaussRat._coerce(other)
        if c is None:
            return NotImplemented
        return Series([x * c for x in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "Series(order=%d, %r)" % (self.order, [str(c) for c in self.coeffs])

    def first_mismatch(self, other: "Series") -> int | None:
        """Index of the first differing coefficient, or None."""
        n = min(self.order, other.order)
        for k in range(n + 1):
            if self.coeffs[k] != other.coeffs[k]:
                return k
        return None
