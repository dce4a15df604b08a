"""Dense polynomials and truncated power series over GaussRat.

Both types are immutable value objects in the single variable t, with
coefficients in Q(i): anything else, such as a (c, m) Whittaker value
c * q_F^(m/2) (whittaker.py), raises TypeError. Series carry an
explicit truncation order (the index of the last stored coefficient);
binary operations truncate at the minimum of the operand orders.
Equality of Series is strict: same order and same coefficients.

Polynomial products, values and gcds run on scaled Gaussian integers:
each operand is cleared to one common denominator, the lcm of the
coefficients' den, and (re, im) int pairs (clear_denominators). A
product, of Poly or of Series (stopping at the shorter order), convolves
the pairs and divides each coefficient once (GaussRat.scaled); a value is one integer Horner sum, divided once;
poly_gcd is the subresultant remainder sequence over Z[i], whose every
division is exact, and only the gcd it ends with becomes GaussRat. The
public coefficients stay GaussRat; the scaled form is internal. The
lattice-sum kernel clears its Satake values at a Gaussian scale instead
(clear_gaussian_denominators).
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Sequence

from .scalars import GAUSS_ONE, GAUSS_ZERO, GaussRat


def scaled_pair(c: GaussRat, s: int) -> tuple:
    """c*s as an (re, im) int pair; s must be a multiple of c.den."""
    k = s // c.den
    return c.nr * k, c.ni * k


def clear_denominators(values: Sequence[GaussRat]) -> tuple[int, list]:
    """(D, beta) with D the lcm of the den of values and beta = D*values
    as (re, im) int pairs."""
    den = lcm(*[v.den for v in values])
    return den, [scaled_pair(v, den) for v in values]


def clear_gaussian_denominators(values: Sequence[GaussRat]) -> tuple[int, tuple, list]:
    """(D, c, beta): D the lcm of the den of values, as in
    clear_denominators, and beta = D_g*values as (re, im) int pairs, for
    a Gaussian integer D_g that divides D with the exact quotient c =
    D/D_g, an (re, im) int pair.

    D_g is the lcm over Z[i] of the least Gaussian denominator of each
    value (x + yi)/d, which is d / gcd(x + yi, d) with the gcd taken in
    Z[i]: the least scale that makes every value integral over Z[i]. A
    value 1/(x + yi) = (x - yi)/d, d = x^2 + y^2, needs only x + yi, of
    absolute value sqrt(d). When gcd(x^2 + y^2, d) == 1, no Gaussian
    prime divides both x + yi and d, and the least denominator is d
    itself with no Euclid run. Each step of Euclid's algorithm in Z[i]
    at least halves the norm (_gauss_gcd), so a gcd of b-bit operands
    takes at most about 2b steps. When N(D_g) = D^2, D_g is an associate
    of D and the scale is D itself (c = 1, beta as clear_denominators
    gives it): every Gaussian integer takes that route, and so does every
    list of real values, since Euclid's rounded quotient of two real
    Gaussian integers is real and D_g stays real.
    """
    den = lcm(*[v.den for v in values])
    lr, li = 1, 0
    for v in values:
        d = v.den
        if gcd(v.nr * v.nr + v.ni * v.ni, d) == 1:
            dr, di = d, 0
        else:
            dr, di = _gauss_div_exact((d, 0), _gauss_gcd((d, 0), (v.nr, v.ni)))
        lr, li = gauss_mul((lr, li), _gauss_div_exact((dr, di), _gauss_gcd((lr, li), (dr, di))))
    if lr * lr + li * li == den * den:
        return den, (1, 0), [scaled_pair(v, den) for v in values]
    # D_g*(x + yi) is d times a Gaussian integer, since d / gcd(x + yi, d) divides D_g
    beta = [((lr * v.nr - li * v.ni) // v.den, (lr * v.ni + li * v.nr) // v.den) for v in values]
    return den, _gauss_div_exact((den, 0), (lr, li)), beta


def graded(re: Sequence[int], im: Sequence[int], scale: int) -> list:
    """The GaussRat coefficients (re[d] + im[d]*i) / scale^d."""
    coeffs = []
    den = 1
    for x, y in zip(re, im):
        coeffs.append(GaussRat.scaled(x, y, den))
        den *= scale
    return coeffs


def _product(xs: Sequence[GaussRat], ys: Sequence[GaussRat], size: int) -> list:
    """Coefficients 0..size-1 of the product of the coefficient lists xs
    and ys: one integer convolution of their scaled pairs, each
    coefficient divided once by the two common denominators."""
    den_a, a = clear_denominators(xs)
    den_b, b = clear_denominators(ys)
    re = [0] * size
    im = [0] * size
    for i, (ar, ai) in enumerate(a):
        if not (ar or ai):
            continue
        for j, (br, bi) in zip(range(i, size), b):
            re[j] += ar * br - ai * bi
            im[j] += ar * bi + ai * br
    den = den_a * den_b
    return [GaussRat.scaled(x, y, den) for x, y in zip(re, im)]


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
            return Poly(_product(self.coeffs, other.coeffs, len(self.coeffs) + len(other.coeffs) - 1))
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

    def __call__(self, x) -> GaussRat:
        """Value at x: with x = X/d and the coefficients c_k/D, the
        integer Horner sum of c_k X^k d^(n-k), divided once by D d^n."""
        if not self.coeffs:
            return GAUSS_ZERO
        den, cs = clear_denominators(self.coeffs)
        d, ((xr, xi),) = clear_denominators((_coerce(x),))
        re, im = cs[-1]
        w = 1
        for cr, ci in reversed(cs[:-1]):
            w *= d
            re, im = re * xr - im * xi + cr * w, re * xi + im * xr + ci * w
        return GaussRat.scaled(re, im, den * w)

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


def gauss_mul(a: tuple, b: tuple) -> tuple:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def gauss_pow(a: tuple, n: int) -> tuple:
    out = (1, 0)
    for _ in range(n):
        out = gauss_mul(out, a)
    return out


def _gauss_div_exact(a: tuple, b: tuple) -> tuple:
    """a/b in Z[i]; raises ArithmeticError unless b divides a."""
    br, bi = b
    if bi:
        n = br * br + bi * bi
        qr, rr = divmod(a[0] * br + a[1] * bi, n)
        qi, ri = divmod(a[1] * br - a[0] * bi, n)
    else:
        qr, rr = divmod(a[0], br)
        qi, ri = divmod(a[1], br)
    if rr or ri:
        raise ArithmeticError("inexact Gaussian division")
    return qr, qi


def _gauss_gcd(a: tuple, b: tuple) -> tuple:
    """A gcd of a and b in Z[i], determined up to a unit, by Euclid's
    algorithm with each quotient a/b rounded to the nearest Gaussian
    integer. That quotient is off by at most 1/2 in each part, so each
    step's remainder has at most half the norm of its divisor, and the
    loop ends within log2(N(b)) + 1 steps."""
    while b[0] or b[1]:
        br, bi = b
        n = br * br + bi * bi
        # a * conj(b) = x + yi, and round(x/n) = floor((2x + n) / 2n)
        x, y = a[0] * br + a[1] * bi, a[1] * br - a[0] * bi
        qr, qi = (2 * x + n) // (2 * n), (2 * y + n) // (2 * n)
        a, b = b, (a[0] - qr * br + qi * bi, a[1] - qr * bi - qi * br)
    return a


def _pseudo_remainder(a: list, b: list) -> list:
    """lc(b)^(deg a - deg b + 1) * a mod b, on (re, im) int pairs in
    ascending degree, trailing zeros stripped."""
    lead = b[-1]
    low = b[:-1]
    r = list(a)
    for off in range(len(a) - len(b), -1, -1):
        c = r.pop()
        r = [gauss_mul(lead, x) for x in r]
        for j, y in enumerate(low, off):
            cy = gauss_mul(c, y)
            r[j] = (r[j][0] - cy[0], r[j][1] - cy[1])
    while r and r[-1] == (0, 0):
        r.pop()
    return r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q(i), by the subresultant remainder sequence on
    Gaussian integers (Collins 1967, Brown-Traub 1971).

    Each argument is cleared of denominators once. A step takes the
    pseudo-remainder lc(B)^(delta+1) A mod B, delta = deg A - deg B, and
    divides it exactly by g h^delta, then sets g = lc(B) and h =
    g^delta / h^(delta-1). Every division is exact in Z[i] and checked.
    The sequence stops at the first zero remainder (the gcd is the last
    nonzero one, made monic) or constant one (the gcd is 1). gcd(0, 0)
    is the zero polynomial.
    """
    if a.degree < b.degree:
        a, b = b, a
    if b.is_zero():
        if a.is_zero():
            return a
        _, last = clear_denominators(a.coeffs)
    elif b.degree == 0:
        return Poly.one()
    else:
        _, prev = clear_denominators(a.coeffs)
        _, last = clear_denominators(b.coeffs)
        g = h = (1, 0)
        while True:
            delta = len(prev) - len(last)
            rem = _pseudo_remainder(prev, last)
            if not rem:
                break
            if len(rem) == 1:
                return Poly.one()
            div = gauss_mul(g, gauss_pow(h, delta))
            prev, last = last, [_gauss_div_exact(c, div) for c in rem]
            g = prev[-1]
            if delta:
                h = _gauss_div_exact(gauss_pow(g, delta), gauss_pow(h, delta - 1))
    lr, li = last[-1]
    n = lr * lr + li * li
    return Poly([GaussRat.scaled(x * lr + y * li, y * lr - x * li, n) for x, y in last])


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
            size = min(len(self.coeffs), len(other.coeffs))
            return Series(_product(self.coeffs[:size], other.coeffs[:size], size))
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
