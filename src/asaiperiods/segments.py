"""Segment data model for generic representations with character supports.

A segment (rho, k) stands for the essentially square integrable
representation attached to the length-k chain of unramified twists of
the multiplicative character rho of E*; a generic representation is a
commutative product of pairwise unlinked segments. Characters carry
their value at a uniformizer, an opaque label for the restriction to
units, and user-supplied Galois-twist data validated to be involutive.

Unramified characters are completely determined by their value at the
uniformizer and are fixed by the Galois involution, so their twist
data is forced at construction.

Precedence, which decides genericity and the standard order, compares
the two values at the uniformizer without dividing them: their ratio
is real when the cross product of the components vanishes, and is then
an integer quotient of one component pair, accepted only as a positive
power of q_E in the linked range.

MultChar, Segment, UnramifiedModule and GenericRep are immutable
__slots__ values on the Frozen base (frozen.py): equal and hashed by
their fields, a character by its key() alone, and checked once in
__init__.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .frozen import Frozen
from .localfields import FieldPair
from .scalars import GAUSS_ONE, GaussRat
from .series import clear_denominators

UNRAMIFIED_LABEL = "triv"
_INV_PREFIX = "inv:"


class NotGenericError(ValueError):
    """Raised when a segment multiset contains a linked pair."""


def inverse_label(label: str) -> str:
    """Designated label of the inverse character: an involutive toggle."""
    if label == UNRAMIFIED_LABEL:
        return UNRAMIFIED_LABEL
    if label.startswith(_INV_PREFIX):
        return label[len(_INV_PREFIX):]
    return _INV_PREFIX + label


class MultChar(Frozen):
    """Multiplicative character of E* with Galois-twist data.

    unit_label identifies the restriction to units; "triv" is reserved
    for the unramified case (unit_conductor 0). at_unif is the value at
    a uniformizer of E. The sigma_* fields describe the Galois twist;
    applying them twice must return the original character, which holds
    by construction since the twist simply swaps the two data slots.
    Equality and hash go by key(), not by every field.
    """

    __slots__ = _fields = (
        "unit_label", "unit_conductor", "at_unif", "sigma_unit_label", "sigma_at_unif"
    )

    def __init__(self, unit_label: str, unit_conductor: int, at_unif: GaussRat,
                 sigma_unit_label: str, sigma_at_unif: GaussRat):
        if at_unif.is_zero() or sigma_at_unif.is_zero():
            raise ValueError("character values at the uniformizer must be nonzero")
        if unit_conductor < 0:
            raise ValueError("unit conductor must be >= 0")
        unram = unit_conductor == 0
        if unram != (unit_label == UNRAMIFIED_LABEL):
            raise ValueError(
                'unit_conductor 0 and unit_label "%s" must occur together' % UNRAMIFIED_LABEL
            )
        if unram:
            if sigma_unit_label != UNRAMIFIED_LABEL or sigma_at_unif != at_unif:
                raise ValueError("unramified characters are fixed by the Galois twist")
        object.__setattr__(self, "unit_label", unit_label)
        object.__setattr__(self, "unit_conductor", unit_conductor)
        object.__setattr__(self, "at_unif", at_unif)
        object.__setattr__(self, "sigma_unit_label", sigma_unit_label)
        object.__setattr__(self, "sigma_at_unif", sigma_at_unif)

    @classmethod
    def unramified(cls, at_unif: GaussRat) -> "MultChar":
        return cls(UNRAMIFIED_LABEL, 0, at_unif, UNRAMIFIED_LABEL, at_unif)

    @property
    def is_unramified(self) -> bool:
        return self.unit_conductor == 0

    def key(self):
        return (self.unit_label, self.at_unif)

    def inverse(self) -> "MultChar":
        return MultChar(
            inverse_label(self.unit_label),
            self.unit_conductor,
            self.at_unif.inverse(),
            inverse_label(self.sigma_unit_label),
            self.sigma_at_unif.inverse(),
        )

    def sigma(self) -> "MultChar":
        return MultChar(
            self.sigma_unit_label,
            self.unit_conductor,
            self.sigma_at_unif,
            self.unit_label,
            self.at_unif,
        )

    # character identity is (unit restriction, value at uniformizer)
    def __eq__(self, other):
        if not isinstance(other, MultChar):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


class Segment(Frozen):
    """The chain of k successive unramified twists topped by rho."""

    __slots__ = _fields = ("rho", "k")

    def __init__(self, rho: MultChar, k: int):
        if k < 1:
            raise ValueError("segment length k must be >= 1")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "k", k)

    @property
    def is_unramified_piece(self) -> bool:
        """True when the segment is an unramified character of GL(1)."""
        return self.k == 1 and self.rho.is_unramified

    def contragredient(self) -> "Segment":
        return Segment(self.rho.inverse(), self.k)

    def sigma(self) -> "Segment":
        return Segment(self.rho.sigma(), self.k)

    def conductor(self) -> int:
        # newform exponents: k-1 for unramified rho, k*f(rho) otherwise
        if self.rho.is_unramified:
            return self.k - 1
        return self.k * self.rho.unit_conductor


def precedes(d1: Segment, d2: Segment, q_E: int) -> bool:
    """Segment precedence: rho2 is a positive twist of rho1 in the range
    that makes the two chains linked with d1 starting lower.

    That is at_unif_1 = q_E^j * at_unif_2 for some j in
    [max(1, k2 - k1 + 1), k2], decided without division: the ratio of
    the two values is real exactly when a.re * b.im == a.im * b.re, that
    is a.nr * b.ni == a.ni * b.nr on the integer triples, and then it is
    the quotient of one nonzero component pair, one integer division.
    """
    if d1.rho.unit_label != d2.rho.unit_label:
        return False
    a, b = d1.rho.at_unif, d2.rho.at_unif
    if a.nr * b.ni != a.ni * b.nr:
        return False
    # a real ratio a / b is x / y for a nonzero component x of a
    x, y = (a.nr, b.nr) if a.nr else (a.ni, b.ni)
    ratio, rem = divmod(x * b.den, a.den * y)
    if rem:
        return False
    # ratio = q_E^j for the j found by division, in log time for any k; a
    # negative ratio divides down to -1 or below, never to 1
    j = 0
    while ratio % q_E == 0:
        ratio //= q_E
        j += 1
    return ratio == 1 and max(1, d2.k - d1.k + 1) <= j <= d2.k


def is_generic(segments: Sequence[Segment], q_E: int) -> bool:
    """True when no pair of segments is linked (in either direction)."""
    segs = list(segments)
    for i, a in enumerate(segs):
        for j, b in enumerate(segs):
            if i != j and precedes(a, b, q_E):
                return False
    return True


def standard_order(segments: Sequence[Segment], q_E: int) -> list[Segment]:
    """Permutation in which no earlier segment precedes a later one.

    Deterministic: repeatedly selects the earliest remaining input
    segment that precedes none of the other remaining segments, so
    unlinked inputs keep their order.
    """
    remaining = list(segments)
    out = []
    while remaining:
        pick = None
        for i, cand in enumerate(remaining):
            if not any(
                precedes(cand, other, q_E) for j, other in enumerate(remaining) if j != i
            ):
                pick = i
                break
        if pick is None:
            raise RuntimeError("cycle in the precedence relation")
        out.append(remaining.pop(pick))
    return out


class UnramifiedModule(Frozen):
    """Unramified standard module given by its Satake values.

    Values are stored sorted by |alpha|^2 ascending (ties keep the
    construction order), which realizes the standard-module condition.
    r = 0 (the empty module) is legal.
    """

    __slots__ = _fields = ("fp", "satake")

    def __init__(self, fp: FieldPair, satake: Sequence[GaussRat]):
        vals = tuple(satake)
        for v in vals:
            if v.is_zero():
                raise ValueError("Satake values must be nonzero")
        if len(vals) > 1:  # one value needs no sort
            # |alpha|^2 over one common denominator: integer norms, same order
            _, beta = clear_denominators(vals)
            norms = [br * br + bi * bi for br, bi in beta]
            vals = tuple(vals[i] for i in sorted(range(len(vals)), key=norms.__getitem__))
        object.__setattr__(self, "fp", fp)
        object.__setattr__(self, "satake", vals)

    @property
    def r(self) -> int:
        return len(self.satake)

    def twist_by_sign(self) -> "UnramifiedModule":
        return UnramifiedModule(self.fp, tuple(-v for v in self.satake))

    def omega_at_unif(self) -> GaussRat:
        """Central character value at the F-uniformizer: prod alpha_i^e."""
        out = GAUSS_ONE
        for v in self.satake:
            out = out * v**self.fp.e
        return out


class GenericRep(Frozen):
    """Product of pairwise unlinked segments over a fixed field pair."""

    _fields = ("fp", "segments")
    __slots__ = _fields + ("_twisted_duals",)

    def __init__(self, fp: FieldPair, segments: Sequence[Segment]):
        segs = tuple(segments)
        if not segs:
            raise ValueError("a representation needs at least one segment")
        if not is_generic(segs, fp.q_E):
            raise NotGenericError("segments are linked: the product is not generic")
        object.__setattr__(self, "fp", fp)
        object.__setattr__(self, "segments", segs)

    @property
    def n(self) -> int:
        return sum(s.k for s in self.segments)

    @property
    def twisted_duals(self) -> tuple[Segment, ...]:
        """The twisted dual sigma(contragredient) of each segment, in
        order, built once per representation."""
        try:
            return self._twisted_duals
        except AttributeError:
            duals = tuple(s.contragredient().sigma() for s in self.segments)
            object.__setattr__(self, "_twisted_duals", duals)
            return duals


def is_unramified_rep(rep: GenericRep) -> bool:
    return all(s.is_unramified_piece for s in rep.segments)


def contragredient(rep: GenericRep) -> GenericRep:
    return GenericRep(rep.fp, tuple(s.contragredient() for s in rep.segments))


def _segment_key(s: Segment):
    return (s.rho.key(), s.k)


def is_conjugate_selfdual(rep: GenericRep) -> bool:
    """True when the segment multiset is closed under the twisted dual."""
    own = Counter(_segment_key(s) for s in rep.segments)
    dual = Counter(_segment_key(s) for s in rep.twisted_duals)
    return own == dual


def pi_u(rep: GenericRep) -> UnramifiedModule:
    """Unramified part of the cuspidal support: one Satake value per
    segment whose base character is unramified."""
    vals = [s.rho.at_unif for s in rep.segments if s.rho.is_unramified]
    return UnramifiedModule(rep.fp, tuple(vals))


def conductor(rep: GenericRep) -> int:
    return sum(s.conductor() for s in rep.segments)


def epsilon_twist_sign(rep: GenericRep, mu_at_unif: GaussRat) -> GaussRat:
    """Twisting ratio mu(unif_E)^f for an unramified twist mu, with the
    additive character normalized to conductor zero."""
    return mu_at_unif ** conductor(rep)


def asai_holomorphic_witness(rep: GenericRep) -> bool:
    """No segment precedes the twisted dual of any segment.

    The executable core of the holomorphy-at-the-edge argument for
    conjugate-self-dual generic data; requires such input.
    """
    if not is_conjugate_selfdual(rep):
        raise ValueError("witness requires conjugate-self-dual input")
    q_E = rep.fp.q_E
    for a in rep.segments:
        for b in rep.twisted_duals:
            if precedes(a, b, q_E):
                return False
    return True
