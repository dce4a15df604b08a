"""Scalar tower: Gaussian rationals and their formal sqrt(q) extension.

GaussRat is Q(i) with exact rational components. It is the ring of the
whole computation: Satake values, character values at the uniformizer,
every series, polynomial and closed-form coefficient, and every value
of a closed form, since the modulus weights of the lattice sums cancel
each half power of q.

AlgNum is a + b*sqrt(q) with GaussRat components and a fixed integer
radicand q. Only the Whittaker torus values live there, through
FieldPair.q_E_half: over a ramified pair they carry odd powers of
sqrt(q_F). Arithmetic is formal in the symbol sqrt(q): q is never
required to be squarefree or a non-square. The one degenerate
consequence is that for perfect square q a nonzero element can have
zero norm, in which case division raises ZeroDivisionError.

Elements with b = 0 normalize their radicand to 0, so equality and
hashing of plain Gaussian values never depend on the ambient q.
"""

from __future__ import annotations

from .rational import RAT_TYPES, RAT_ZERO, Rat, rat_str

_RatT = type(RAT_ZERO)


class GaussRat:
    """Exact complex rational re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is _RatT else Rat(re)
        self.im = im if type(im) is _RatT else Rat(im)

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussRat):
            return x
        if isinstance(x, RAT_TYPES):
            return GaussRat(x)
        return None

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def conj(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def abs2(self):
        """Norm re^2 + im^2, an exact rational."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussRat":
        n = self.abs2()
        if not n:
            raise ZeroDivisionError("division by zero GaussRat")
        return GaussRat(self.re / n, -self.im / n)

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            return GaussRat(self.re * o.re)
        return GaussRat(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

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
        return GaussRat(-self.re, -self.im)

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return "GaussRat(%s, %s)" % (self.re, self.im)

    def __str__(self):
        if not self.im:
            return rat_str(self.re)
        sign = "+" if self.im > 0 else "-"
        return "%s%s%si" % (rat_str(self.re), sign, rat_str(abs(self.im)))


GAUSS_ZERO = GaussRat(0)
GAUSS_ONE = GaussRat(1)


class AlgNum:
    """a + b*sqrt(q) with GaussRat components, formal in sqrt(q).

    The radicand q is a positive integer, fixed by the ambient field
    pair; elements with b = 0 carry q = 0 so that plain Gaussian values
    from different contexts mix freely. Binary operations accept one
    nonzero radicand at most and adopt it.
    """

    __slots__ = ("a", "b", "q")

    def __init__(self, a=0, b=0, q=0):
        ga = GaussRat._coerce(a)
        gb = GaussRat._coerce(b)
        if ga is None or gb is None:
            raise TypeError("AlgNum components must be GaussRat or rational")
        if gb.is_zero():
            q = 0
            gb = GAUSS_ZERO
        elif not (isinstance(q, int) and q > 0):
            raise ValueError("nonzero sqrt component needs a positive integer radicand")
        self.a = ga
        self.b = gb
        self.q = q

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, AlgNum):
            return x
        if isinstance(x, (GaussRat,) + RAT_TYPES):
            return AlgNum(x)
        return None

    def _join_q(self, other: "AlgNum") -> int:
        if self.q and other.q and self.q != other.q:
            raise ValueError("mixed radicands %d and %d" % (self.q, other.q))
        return self.q or other.q

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def gauss(self) -> GaussRat:
        if not self.b.is_zero():
            raise ValueError("value has a nonzero sqrt component")
        return self.a

    def norm(self) -> GaussRat:
        """Field norm a^2 - b^2*q down to GaussRat."""
        return self.a * self.a - self.b * self.b * self.q

    def inverse(self) -> "AlgNum":
        n = self.norm()
        if n.is_zero():
            raise ZeroDivisionError(
                "zero norm in AlgNum division (zero value, or perfect-square radicand)"
            )
        ninv = n.inverse()
        return AlgNum(self.a * ninv, -self.b * ninv, self.q)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgNum(self.a + o.a, self.b + o.b, self._join_q(o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgNum(self.a - o.a, self.b - o.b, self._join_q(o))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        q = self._join_q(o)
        return AlgNum(
            self.a * o.a + self.b * o.b * q,
            self.a * o.b + self.b * o.a,
            q,
        )

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
        return AlgNum(-self.a, -self.b, self.q)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = ALG_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.q == o.q

    def __hash__(self):
        return hash((self.a, self.b, self.q))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.b.is_zero():
            return "AlgNum(%s)" % (self.a,)
        return "AlgNum(%s, %s, q=%d)" % (self.a, self.b, self.q)

    def __str__(self):
        if self.b.is_zero():
            return str(self.a)
        return "(%s)+(%s)*sqrt(%d)" % (self.a, self.b, self.q)


ALG_ZERO = AlgNum(0)
ALG_ONE = AlgNum(1)


def sqrt_of(q: int) -> AlgNum:
    """The formal element sqrt(q)."""
    return AlgNum(0, 1, q)
