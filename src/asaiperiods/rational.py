"""Exact rationals at the edges of the library.

The arithmetic itself runs on plain ints: GaussRat (scalars.py) is one
Gaussian integer over one positive denominator, and the kernels run on
int pairs. What is left here is the canonical "p/q" text of the
descriptor format, on int pairs, and fractions.Fraction for the callers
that want rational objects (GaussRat.re and .im, the tests), imported on
first use so that importing the package does not load fractions,
decimal or numbers. Rat is fractions.Fraction, and BACKEND names it.
"""

from __future__ import annotations

from math import gcd

BACKEND = "fraction"


def __getattr__(name):
    if name == "Rat":
        from fractions import Fraction

        return Fraction
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def rat(p, q=1):
    """Exact rational p/q, a fractions.Fraction."""
    from fractions import Fraction

    return Fraction(p, q)


def ratio_str(p: int, q: int) -> str:
    """Canonical "p/q" form of p/q for q > 0: in lowest terms, the
    denominator always present."""
    g = gcd(p, q)
    return "%d/%d" % (p // g, q // g)


def parse_ratio(s: str) -> tuple[int, int]:
    """Parse "p/q" (or a bare integer "p") into the int pair (p, q)."""
    txt = s.strip()
    if "/" in txt:
        head, _, tail = txt.partition("/")
        den = int(tail)
        if den == 0:
            raise ValueError("zero denominator in %r" % s)
        return int(head), den
    return int(txt), 1
