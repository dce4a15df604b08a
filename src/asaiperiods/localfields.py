"""Numerical model of a quadratic extension E/F of p-adic fields.

The extension is carried purely by numerical invariants: residue
cardinality q_F, whether E/F is ramified, and (when ramified) the
conductor exponent of the extension. Everything downstream depends
only on q_F, q_E, the ramification index e, the residue degree f, and
valuations; no element arithmetic in E is modeled. A half power
q_E^(h/2) is q_F^(f*h/2): the Whittaker values (whittaker.py) carry it
as the integer exponent f*h of sqrt(q_F).

Also houses the conductor calculus for additive characters: the
conductor of the trace-composed character, the shift that renormalizes
a character trivial on F to conductor zero, and the kind of trace-zero
element available.

FieldPair and AddCharData are immutable __slots__ values on the Frozen
base (frozen.py), equal and hashed by their fields.
"""

from __future__ import annotations

from .frozen import Frozen


Q_F_LIMIT = 2**64  # primality below it is decided exactly

# Miller-Rabin with these bases is exact below 3.3 * 10^24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """Largest r with r^k <= n, for n >= 0 and k >= 1."""
    if k == 1:
        return n
    r = int(round(n ** (1.0 / k)))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def is_prime_power(n: int) -> bool:
    """Whether n = p^k for a prime p and k >= 1: integer k-th roots and
    deterministic Miller-Rabin, exact for n below Q_F_LIMIT."""
    if n >= Q_F_LIMIT:
        raise ValueError("q_F must be below 2^64, where prime powers are decided exactly")
    if n < 2:
        return False
    for k in range(1, n.bit_length()):
        r = _iroot(n, k)
        if r < 2:
            break
        if r**k == n and _is_prime(r):
            return True
    return False


class FieldPair(Frozen):
    """Quadratic extension E/F, ramified or unramified (e*f = 2).

    A ramified pair given no ext_conductor gets 1; an unramified pair
    has none.
    """

    __slots__ = _fields = ("q_F", "ramified", "ext_conductor")

    def __init__(self, q_F: int, ramified: bool, ext_conductor: int | None = None):
        if not (isinstance(q_F, int) and is_prime_power(q_F)):
            raise ValueError("q_F must be a prime power >= 2")
        if ramified:
            if ext_conductor is None:
                ext_conductor = 1
            if not (isinstance(ext_conductor, int) and ext_conductor >= 1):
                raise ValueError("ext_conductor must be a positive integer")
        elif ext_conductor is not None:
            raise ValueError("ext_conductor applies to ramified extensions only")
        object.__setattr__(self, "q_F", q_F)
        object.__setattr__(self, "ramified", ramified)
        object.__setattr__(self, "ext_conductor", ext_conductor)

    @property
    def e(self) -> int:
        """Ramification index of E/F."""
        return 2 if self.ramified else 1

    @property
    def f(self) -> int:
        """Residue degree of E/F."""
        return 1 if self.ramified else 2

    @property
    def q_E(self) -> int:
        return self.q_F if self.ramified else self.q_F * self.q_F


class AddCharData(Frozen):
    """Additive character data: conductor exponent and F-triviality flag.

    A character trivial on F over a ramified pair must have even
    conductor; the constraint is enforced where it is consumed
    (conductor_zero_shift), since the data object does not know its
    field pair.
    """

    __slots__ = _fields = ("conductor", "trivial_on_F")

    def __init__(self, conductor: int, trivial_on_F: bool = False):
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "trivial_on_F", trivial_on_F)


def trace_conductor(fp: FieldPair, n_psi_prime: int) -> int:
    """Conductor of psi' composed with the trace of E/F.

    Equals n(psi') for unramified pairs and 2*n(psi') + ext_conductor
    for ramified ones.
    """
    if fp.ramified:
        return 2 * n_psi_prime + fp.ext_conductor
    return n_psi_prime


def conductor_zero_shift(fp: FieldPair, psi: AddCharData) -> int:
    """Exponent m such that x -> psi(unif_F^-m * x) has conductor zero."""
    if not psi.trivial_on_F:
        raise ValueError("shift applies to characters trivial on F")
    k = psi.conductor
    if not fp.ramified:
        return k
    if k % 2 != 0:
        raise ValueError(
            "a character trivial on F over a ramified pair has even conductor; got %d" % k
        )
    return k // 2


def trace_zero_element_kind(fp: FieldPair) -> str:
    """Kind of trace-zero element guaranteed to exist: any/uniformizer/unit."""
    if not fp.ramified:
        return "any"
    return "uniformizer" if fp.ext_conductor % 2 == 1 else "unit"
