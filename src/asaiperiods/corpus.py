"""Seeded randomized corpora shared by the test suite and the CLI.

All generators take an explicit random.Random so runs are reproducible
byte for byte. Satake values are small Gaussian rationals; "unitary"
values are drawn from the rational unit circle (m^2-n^2, 2mn, m^2+n^2
triples). Conjugate-self-dual corpora are built closed under the
twisted dual by construction and resampled until generic.
"""

from __future__ import annotations

import random
import weakref

from .localfields import FieldPair
from .scalars import GaussRat
from .segments import (
    GenericRep,
    MultChar,
    NotGenericError,
    Segment,
    UnramifiedModule,
    inverse_label,
    is_generic,
)

FIELD_PRIMES = (2, 3, 5, 7)


def rand_field(rng: random.Random, ramified: bool) -> FieldPair:
    q = rng.choice(FIELD_PRIMES)
    if ramified:
        return FieldPair(q, True, rng.choice((1, 2)))
    return FieldPair(q, False)


def _rand_nonzero(rng: random.Random) -> int:
    num = 0
    while num == 0:
        num = rng.randint(-9, 9)
    return num


def rand_gauss(rng: random.Random) -> GaussRat:
    if rng.random() < 0.5:
        p, q = rng.randint(-9, 9), rng.randint(1, 9)
        ip = _rand_nonzero(rng)
        iq = rng.randint(1, 9)
        return GaussRat.scaled(p * iq, ip * q, q * iq)
    p = _rand_nonzero(rng)
    return GaussRat.scaled(p, 0, rng.randint(1, 9))


def unit_circle_gauss(rng: random.Random) -> GaussRat:
    """Random Gaussian rational of absolute value exactly 1."""
    m = rng.randint(2, 6)
    n = rng.randint(1, m - 1)
    den = m * m + n * n
    g = GaussRat.scaled(m * m - n * n, 2 * m * n, den)
    if rng.random() < 0.5:
        g = g.conj()
    if rng.random() < 0.5:
        g = -g
    return g


def rand_module(rng: random.Random, fp: FieldPair, r: int, unitary: bool = False) -> UnramifiedModule:
    draw = unit_circle_gauss if unitary else rand_gauss
    return UnramifiedModule(fp, tuple(draw(rng) for _ in range(r)))


def _module_generic(mod: UnramifiedModule) -> bool:
    """No linked pair among the rank-one pieces: no value ratio q_E^(+-1)."""
    return is_generic([Segment(MultChar.unramified(v), 1) for v in mod.satake], mod.fp.q_E)


def csd_module(rng: random.Random, fp: FieldPair, pairs: int, self_ones: int = 0) -> UnramifiedModule:
    """Conjugate-self-dual generic module: inverse-closed value multiset."""
    while True:
        vals: list[GaussRat] = []
        for _ in range(pairs):
            a = rand_gauss(rng)
            vals.extend((a, a.inverse()))
        for _ in range(self_ones):
            vals.append(GaussRat(rng.choice((1, -1))))
        mod = UnramifiedModule(fp, tuple(vals))
        if _module_generic(mod):
            return mod


def omega_trivial_module(rng: random.Random, fp: FieldPair, r: int) -> UnramifiedModule:
    """Generic module whose central character is trivial on F*: the
    product of the Satake values is 1 (unramified pair) or +-1
    (ramified pair)."""
    assert r >= 1
    while True:
        vals = [rand_gauss(rng) for _ in range(r - 1)]
        prod = GaussRat(1)
        for v in vals:
            prod = prod * v
        last = prod.inverse()
        if fp.ramified and rng.random() < 0.5:
            last = -last
        vals.append(last)
        mod = UnramifiedModule(fp, tuple(vals))
        if _module_generic(mod):
            return mod


# ramified characters are numbered per generator, so a draw depends on
# its seed alone and not on what the process drew before
_labels_drawn = weakref.WeakKeyDictionary()


def _fresh_label(rng: random.Random) -> str:
    n = _labels_drawn.get(rng, 0) + 1
    _labels_drawn[rng] = n
    return "ram%d.%d" % (n, rng.randint(0, 999))


def ramified_char(rng: random.Random, unit_conductor: int, selfdual: bool = False) -> MultChar:
    """Random ramified character with involutive twist data.

    selfdual=True builds a character equal to the twisted inverse of
    itself (its segment is its own twisted dual)."""
    label = _fresh_label(rng)
    a = rand_gauss(rng)
    if selfdual:
        return MultChar(label, unit_conductor, a, inverse_label(label), a.inverse())
    return MultChar(label, unit_conductor, a, _fresh_label(rng), rand_gauss(rng))


def sigma_paired_segments(rng: random.Random, unit_conductor: int, k: int) -> tuple[Segment, Segment]:
    """A segment with ramified base character and its twisted dual."""
    seg = Segment(ramified_char(rng, unit_conductor), k)
    return seg, seg.contragredient().sigma()


def selfdual_ramified_segment(rng: random.Random, unit_conductor: int, k: int) -> Segment:
    return Segment(ramified_char(rng, unit_conductor, selfdual=True), k)


def csd_rep(rng: random.Random, fp: FieldPair) -> GenericRep:
    """Conjugate-self-dual generic representation mixing unramified dual
    pairs, self-dual unramified segments, and ramified sigma-paired or
    self-paired segments. Over a ramified field pair every component is
    chosen with even conductor so the parity obstruction vanishes."""
    while True:
        segments: list[Segment] = []
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(("unram_pair", "unram_self", "ram_pair", "ram_self"))
            if kind == "unram_pair":
                a = rand_gauss(rng)
                k = rng.randint(1, 2)
                segments.append(Segment(MultChar.unramified(a), k))
                segments.append(Segment(MultChar.unramified(a.inverse()), k))
            elif kind == "unram_self":
                a = GaussRat(rng.choice((1, -1)))
                if fp.ramified:
                    k = rng.choice((1, 3))  # conductor k-1 stays even
                else:
                    k = rng.randint(1, 3)
                segments.append(Segment(MultChar.unramified(a), k))
            elif kind == "ram_pair":
                f = rng.choice((1, 2))
                s1, s2 = sigma_paired_segments(rng, f, rng.randint(1, 2))
                segments.extend((s1, s2))
            else:
                if fp.ramified:
                    f, k = rng.choice(((2, 1), (1, 2), (2, 2)))  # k*f even
                else:
                    f, k = rng.choice((1, 2)), rng.randint(1, 2)
                segments.append(selfdual_ramified_segment(rng, f, k))
        try:
            return GenericRep(fp, tuple(segments))
        except NotGenericError:
            continue


def ramified_rep(rng: random.Random, fp: FieldPair) -> GenericRep:
    """Representation that is ramified as a representation, with mixed
    character supports (for the essential-vector period identity)."""
    while True:
        segments: list[Segment] = []
        ramified_part = False
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(("unram1", "steinberg", "ram"))
            if kind == "unram1":
                segments.append(Segment(MultChar.unramified(rand_gauss(rng)), 1))
            elif kind == "steinberg":
                segments.append(Segment(MultChar.unramified(rand_gauss(rng)), rng.randint(2, 3)))
                ramified_part = True
            else:
                segments.append(Segment(ramified_char(rng, rng.choice((1, 2))), rng.randint(1, 2)))
                ramified_part = True
        if not ramified_part:
            segments.append(Segment(ramified_char(rng, 1), 1))
        if sum(s.k for s in segments) > 5:
            continue
        try:
            return GenericRep(fp, tuple(segments))
        except NotGenericError:
            continue


def steinberg_gl2(fp: FieldPair) -> GenericRep:
    return GenericRep(fp, (Segment(MultChar.unramified(GaussRat(1)), 2),))


def unitary_gl2_example() -> GenericRep:
    """The unramified GL(2) example over q_F = 2 with Satake values
    (3+4i)/5, (3-4i)/5."""
    fp = FieldPair(2, False)
    a = GaussRat.scaled(3, 4, 5)
    return GenericRep(
        fp,
        (Segment(MultChar.unramified(a), 1), Segment(MultChar.unramified(a.conj()), 1)),
    )


def module_as_rep(mod: UnramifiedModule) -> GenericRep:
    return GenericRep(mod.fp, tuple(Segment(MultChar.unramified(v), 1) for v in mod.satake))
