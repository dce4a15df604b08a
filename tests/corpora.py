"""Seeded generators that only the tests draw from.

Each takes an explicit random.Random, so a seed fixes its draws. The
module generators draw their Satake values with
asaiperiods.corpus.rand_gauss and resample until the module is
generic; unit_circle_gauss draws from the rational unit circle
(m^2-n^2, 2mn, m^2+n^2 triples).
"""

from asaiperiods.corpus import rand_gauss
from asaiperiods.scalars import GaussRat
from asaiperiods.segments import GenericRep, MultChar, Segment, UnramifiedModule, is_generic


def unit_circle_gauss(rng):
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


def _module_generic(mod):
    """No linked pair among the rank-one pieces: no value ratio q_E^(+-1)."""
    return is_generic([Segment(MultChar.unramified(v), 1) for v in mod.satake], mod.fp.q_E)


def csd_module(rng, fp, pairs, self_ones=0):
    """Conjugate-self-dual generic module: inverse-closed value multiset."""
    while True:
        vals = []
        for _ in range(pairs):
            a = rand_gauss(rng)
            vals.extend((a, a.inverse()))
        for _ in range(self_ones):
            vals.append(GaussRat(rng.choice((1, -1))))
        mod = UnramifiedModule(fp, tuple(vals))
        if _module_generic(mod):
            return mod


def omega_trivial_module(rng, fp, r):
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


def module_as_rep(mod):
    """The unramified representation whose segments are the rank-one
    pieces of mod: how a bare module enters mirabolic_series."""
    return GenericRep(mod.fp, tuple(Segment(MultChar.unramified(v), 1) for v in mod.satake))
