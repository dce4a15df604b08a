"""Rational number backend selection.

Everything in this library is exact rational arithmetic. gmpy2's mpq
(GMP-backed) is preferred because reconstruction and the closed forms
multiply large numerators (the lattice sums run on plain ints and
divide once per coefficient); fractions.Fraction is the pure-Python
drop-in fallback. The backend is chosen once at import time and can be
forced with the ASAIPERIODS_RATIONAL environment variable, one of
"auto" (default), "gmpy2", "fraction".
"""

from __future__ import annotations

import os
from fractions import Fraction

_choice = os.environ.get("ASAIPERIODS_RATIONAL", "auto").strip().lower()
if _choice not in ("auto", "gmpy2", "fraction"):
    raise ImportError(
        "ASAIPERIODS_RATIONAL must be one of auto/gmpy2/fraction, got %r" % _choice
    )

if _choice in ("auto", "gmpy2"):
    try:
        from gmpy2 import mpq as Rat

        BACKEND = "gmpy2"
    except ImportError:
        if _choice == "gmpy2":
            raise ImportError("ASAIPERIODS_RATIONAL=gmpy2 but gmpy2 is not importable")
        Rat = Fraction
        BACKEND = "fraction"
else:
    Rat = Fraction
    BACKEND = "fraction"

RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)

# accepted plain-number types for coercion into the scalar tower
RAT_TYPES = tuple({int, Fraction, type(RAT_ZERO)})


def rat(p, q=1):
    """Exact rational p/q."""
    return Rat(p, q)


def rat_str(x) -> str:
    """Canonical "p/q" form; the denominator is always present and positive."""
    return "%d/%d" % (x.numerator, x.denominator)


def parse_rat(s: str):
    """Parse "p/q" (or a bare integer "p") into a rational."""
    txt = s.strip()
    if "/" in txt:
        head, _, tail = txt.partition("/")
        den = int(tail)
        if den == 0:
            raise ValueError("zero denominator in %r" % s)
        return Rat(int(head), den)
    return Rat(int(txt))


def is_integral(x) -> bool:
    return x.denominator == 1
