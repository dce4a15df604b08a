"""Seeded workload generator: descriptors and CLI operations.

The inputs come from this file alone, not from asaiperiods.corpus, so a
change to the package cannot change them. The same (workload, seed)
always gives the same operation list. Every descriptor in one list is
distinct, generic, and has no pole of its Asai factor at s = 1.

The seed moves the values, not the cost: the i-th Satake value of a
descriptor comes from value slot i, which fixes whether it is real or
complex and the size of its numerator and denominator; the seed picks
signs and arguments. Ranks, field pairs and orders are fixed per
operation. So a run's wall time changes little from seed to seed, and
a change in it is the program's.

An operation is a dict:
  id      unique name inside the list
  cmd     CLI subcommand (period, lfactor, segments, verify)
  argv    CLI arguments; "{rep}" and "{against}" stand for descriptor paths
  descs   {"rep": descriptor, "against": descriptor (lfactor only)}
  order   series order (period only)
  suite   suite name (verify only)
  known_fault  True for the fixed omega set below
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import oracle
from oracle import g_inv, g_neg, g_prod, gauss_json

WORKLOADS = ("period-high-rank", "check-corpus", "lfactor-closed-form")

# Unramified reps whose central character is not trivial on F*. The
# period closed form of these needs (1 - omega(unif_F) t^n); the package
# multiplies by (1 - t^n), so closedForm, match and valueAt1 are wrong
# while the series is right. Fixed inputs, independent of the seed, in
# every round of check-corpus.
OMEGA_NONTRIVIAL = (
    # (name, qF, ramified, Satake values)
    ("omega-gl2-unram-q2", 2, False, (("1/2", "0/1"), ("1/3", "0/1"))),
    ("omega-gl3-unram-q3", 3, False, (("2/1", "0/1"), ("-1/3", "0/1"), ("1/2", "1/2"))),
    ("omega-gl2-ram-q5", 5, True, (("2/3", "0/1"), ("1/2", "0/1"))),
    ("omega-gl1-ram-q7", 7, True, (("3/2", "0/1"),)),
)

# Complex slots (a^2 + b^2, d): (a + b i)/d over the 16 integer points of
# the norm, none sharing a factor with d. Real slots (None, d): +-a/d with
# 5 <= a <= 9 prime to d.
COMPLEX_SLOTS = ((65, 3), (85, 11), (145, 7), (185, 5))
MIXED_SLOTS = ((65, 3), (None, 4), (85, 11), (None, 3), (145, 7), (None, 5), (185, 5), (None, 7))


def _points(norm: int) -> list:
    root = int(norm**0.5) + 1
    return [(a, b) for a in range(-root, root + 1) for b in range(-root, root + 1)
            if a * a + b * b == norm]


def slot_value(rng: random.Random, slot) -> tuple:
    norm, d = slot
    if norm is None:
        a = rng.choice([a for a in range(5, 10) if Fraction(a, d).denominator == d])
        return (Fraction(rng.choice((-a, a)), d), Fraction(0))
    a, b = rng.choice(_points(norm))
    return (Fraction(a, d), Fraction(b, d))


def values(rng: random.Random, r: int, slots=MIXED_SLOTS, first: int = 0) -> list:
    """r values from the slots first, first + 1, ... (cyclically)."""
    return [slot_value(rng, slots[(first + i) % len(slots)]) for i in range(r)]


def omega_trivial(rng: random.Random, fld: dict, r: int, slots=MIXED_SLOTS,
                  first: int = 0) -> list:
    """r Satake values whose central character is trivial on F*: the
    product is 1, or +-1 over a ramified pair (omega = prod alpha^2)."""
    vals = values(rng, r - 1, slots, first)
    last = g_inv(g_prod(vals))
    if fld["ramified"] and rng.random() < 0.5:
        last = g_neg(last)
    return vals + [last]


def field(q: int, ramified: bool) -> dict:
    return {"qF": q, "ramified": ramified}


def unram_segment(value, k: int = 1) -> dict:
    return {"k": k, "rho": {"unitLabel": "triv", "unitConductor": 0, "atUnif": gauss_json(value)}}


def ram_segment(label: str, cond: int, value, sigma_label: str, sigma_value, k: int = 1) -> dict:
    return {
        "k": k,
        "rho": {
            "unitLabel": label,
            "unitConductor": cond,
            "atUnif": gauss_json(value),
            "sigmaUnitLabel": sigma_label,
            "sigmaAtUnif": gauss_json(sigma_value),
        },
    }


def module_rep(fld: dict, vals) -> dict:
    return {"field": fld, "segments": [unram_segment(v) for v in vals]}


def module_keys(desc: dict, submodules: bool) -> set:
    """The Satake multisets whose Schur tables a lattice sum over desc
    builds (whittaker._H_CACHE is keyed by them): the unramified support
    and, with submodules, each of its corank-one parts (rs_series)."""
    vals = sorted(oracle.pi_u(desc))
    keys = {tuple(vals)}
    if submodules:
        keys |= {tuple(vals[:i] + vals[i + 1:]) for i in range(len(vals))}
    keys.discard(())
    return keys


def usable(desc: dict) -> bool:
    """Generic, and no pole of the Asai factor at s = 1."""
    if not oracle.is_generic(desc):
        return False
    t0 = (Fraction(1, desc["field"]["qF"]), Fraction(0))
    return oracle.asai_form(desc).value_at(t0) is not None


class _Builder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.ops: list = []
        self.seen: set = set()
        self.modules: set = set()
        self.labels = 0

    def label(self) -> str:
        self.labels += 1
        return "ram%d" % self.labels

    def fresh(self, make, submodules: bool = False) -> dict:
        """First descriptor from make() that is usable and new: neither it
        nor any Satake multiset of its lattice sums (module_keys) occurred
        earlier in the list, so no operation finds another's Schur tables
        in whittaker._H_CACHE, as in one CLI invocation per operation."""
        for _ in range(1000):
            desc = make()
            key = json.dumps(desc, sort_keys=True)
            mods = module_keys(desc, submodules)
            if key not in self.seen and mods.isdisjoint(self.modules) and usable(desc):
                self.seen.add(key)
                self.modules |= mods
                return desc
        raise RuntimeError("no fresh usable descriptor in 1000 draws")

    def add(self, op_id: str, cmd: str, argv: list, descs: dict, **extra) -> None:
        op = {"id": op_id, "cmd": cmd, "argv": argv, "descs": descs, "known_fault": False}
        op.update(extra)
        self.ops.append(op)

    def period(self, op_id: str, desc: dict, order: int, known_fault: bool = False) -> None:
        self.add(op_id, "period", ["period", "--rep", "{rep}", "--order", str(order)],
                 {"rep": desc}, order=order, known_fault=known_fault)

    def verify(self, op_id: str, suite: str, desc: dict) -> None:
        self.add(op_id, "verify", ["verify", "--suite", suite, "--rep", "{rep}", "--order", "20"],
                 {"rep": desc}, suite=suite)

    def ramified_mix(self, fld: dict, unram_rank: int, steinberg: bool, first: int = 0) -> dict:
        """Ramified as a representation: unramified k=1 pieces, with the
        last one stretched to a Steinberg-type segment (k = 2 or 3), or
        followed by a segment on a ramified character."""
        rng = self.rng
        segs = [unram_segment(v) for v in values(rng, unram_rank, first=first)]
        if steinberg and unram_rank:
            segs[-1]["k"] = rng.randint(2, 3)
        else:
            segs.append(ram_segment(self.label(), rng.randint(1, 2), slot_value(rng, (None, 4)),
                                    self.label(), slot_value(rng, (65, 3)), k=rng.randint(1, 2)))
        return {"field": fld, "segments": segs}

    def csd_rep(self, fld: dict, pairs: int) -> dict:
        """Conjugate-self-dual: pairs alpha, 1/alpha and a self-dual +-1."""
        vals = []
        for v in values(self.rng, pairs):
            vals += [v, g_inv(v)]
        vals.append((Fraction(self.rng.choice((-1, 1))), Fraction(0)))
        return module_rep(fld, vals)


QS = (2, 3, 5, 7)


def period_high_rank(b: _Builder) -> None:
    """Ten heavy `period --order 40` calls: two each at ranks 4 and 5 on
    both field types with omega trivial on F*, and two n = 5 reps with a
    ramified character and rank-4 unramified support (essential-vector
    route). Two of each keep the run's total, and the median operation
    (an essential one), steady from seed to seed."""
    rng = b.rng
    for r, q, ram in ((4, 3, False), (4, 2, False), (4, 5, True), (4, 3, True),
                      (5, 3, False), (5, 2, False), (5, 5, True), (5, 3, True)):
        fld = field(q, ram)
        desc = b.fresh(lambda: module_rep(fld, omega_trivial(rng, fld, r, COMPLEX_SLOTS)))
        b.period("rank%d-%s-q%d" % (r, "ram" if ram else "unram", q), desc, 40)

    for q in (2, 3):
        def essential():
            segs = [unram_segment(v) for v in values(rng, 4, COMPLEX_SLOTS)]
            segs.append(ram_segment(b.label(), 1, slot_value(rng, COMPLEX_SLOTS[0]),
                                    b.label(), slot_value(rng, COMPLEX_SLOTS[1])))
            return {"field": field(q, False), "segments": segs}

        b.period("rank4-essential-n5-q%d" % q, b.fresh(essential), 40)


def check_corpus(b: _Builder) -> None:
    """A hundred small checks at unramified-support rank <= 3 over both
    field types: 40 `period --order 30` on omega-trivial unramified reps,
    30 on ramified-support mixes, 26 `verify --suite identities`, and the
    fixed omega set. The counts put the median operation inside the
    middle cost group of the rank-2 periods and identities, so it does not
    jump between groups from seed to seed."""
    rng = b.rng
    omega_ranks = [(2, False)] * 12 + [(2, True)] * 12 + [(3, False)] * 8 + [(3, True)] * 8
    for i, (r, ram) in enumerate(omega_ranks):
        fld = field(QS[i % 4], ram)  # rank 1 has only the values +-1
        desc = b.fresh(lambda: module_rep(fld, omega_trivial(rng, fld, r, first=i)))
        b.period("omega-trivial-r%d-%02d" % (r, i), desc, 30)
    for i, r in enumerate([0] * 6 + [1] * 12 + [2] * 8 + [3] * 4):
        fld = field(QS[(i + 1) % 4], bool(i % 2))
        desc = b.fresh(lambda: b.ramified_mix(fld, r, bool((i // 2) % 2), first=i))
        b.period("ramified-mix-r%d-%02d" % (r, i), desc, 30)
    for i, r in enumerate([1] * 12 + [2] * 8 + [3] * 6):
        fld = field(QS[(i + 2) % 4], bool(i % 2))
        desc = b.fresh(lambda: module_rep(fld, values(rng, r, first=i)), submodules=True)
        b.verify("identities-r%d-%02d" % (r, i), "identities", desc)
    for name, q, ram, vals in OMEGA_NONTRIVIAL:
        desc = module_rep(field(q, ram), [oracle.parse_gauss(v) for v in vals])
        b.period(name, desc, 30, known_fault=True)


def lfactor_closed_form(b: _Builder) -> None:
    """Two hundred closed-form operations on ranks 3 to 7, with no lattice
    sum and no reconstruction: 70 `lfactor --against` over all rank pairs,
    70 `segments` (every third one conjugate-self-dual) and 60 `verify
    --suite multiplicativity`."""
    rng = b.rng
    for i in range(70):
        fld = field(QS[i % 4], bool((i // 4) % 2))
        r1, r2 = 3 + i % 5, 3 + (i // 5) % 5
        rep = b.fresh(lambda: module_rep(fld, values(rng, r1)))
        other = b.fresh(lambda: module_rep(fld, values(rng, r2)))
        b.add("lfactor-%dx%d-%02d" % (r1, r2, i), "lfactor",
              ["lfactor", "--rep", "{rep}", "--against", "{against}"],
              {"rep": rep, "against": other})
    for i in range(70):
        fld = field(QS[(i + 1) % 4], bool(i % 2))
        if i % 3 == 0:
            desc = b.fresh(lambda: b.csd_rep(fld, 1 + (i // 3) % 3))
        else:
            desc = b.fresh(lambda: b.ramified_mix(fld, 3 + i % 5, steinberg=bool(i % 2)))
        b.add("segments-%02d" % i, "segments", ["segments", "--rep", "{rep}"], {"rep": desc})
    for i in range(60):
        fld = field(QS[(i + 2) % 4], bool((i // 5) % 2))
        r = 3 + i % 5
        desc = b.fresh(lambda: module_rep(fld, values(rng, r)))
        b.verify("multiplicativity-r%d-%02d" % (r, i), "multiplicativity", desc)


_BUILDERS = {
    "period-high-rank": period_high_rank,
    "check-corpus": check_corpus,
    "lfactor-closed-form": lfactor_closed_form,
}


def build(workload: str, seed: int) -> list:
    """The operation list of one round of `workload` under `seed`."""
    b = _Builder(random.Random("%s:%d" % (workload, seed)))
    _BUILDERS[workload](b)
    return b.ops
