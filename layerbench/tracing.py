"""Spans around the package's public calls, and micro-timings of the
scalar layers, for the traced benchmark run.

install() wraps the functions in LAYERS wherever a module of the package
binds them, so calls made through `from .x import f` names are seen too.
Each span records (op, layer, start, end, parent, outermost); spans stay
in memory and are written out when the round ends. aggregate() turns
them into the per-layer metrics. Nothing here imports asaiperiods at
module level: the benchmark's checking process imports this file for
aggregate() and must stay free of the package.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from fractions import Fraction

# layer -> (module, attribute) pairs; "Class.attr" names a method
LAYERS = {
    "cli.main": [("cli", "main")],
    "descriptors.parse": [("descriptors", "load_rep_file")],
    "descriptors.serialize": [("descriptors", "series_json"), ("descriptors", "ratfunc_json"),
                              ("descriptors", "value_str")],
    "segments": [("segments", "is_generic"), ("segments", "pi_u"),
                 ("segments", "standard_order")],
    "periods.lattice": [("periods", "mirabolic_series"), ("periods", "flicker_series"),
                        ("periods", "rs_series")],
    "periods.check": [("periods", "verify_theorem1"), ("periods", "verify_c_pi")],
    "whittaker.value": [("whittaker", "spherical_value"), ("whittaker", "essential_value")],
    "lfactors": [("lfactors", "asai_L"), ("lfactors", "rs_L"), ("lfactors", "tate_L"),
                 ("lfactors", "asai_L_multiplicative"), ("lfactors", "lstar_at_1"),
                 ("lfactors", "kable_factorization_check")],
    "ratfunc.build": [("ratfunc", "RatFunc.from_factors"), ("ratfunc", "RatFunc.__mul__")],
    "ratfunc.series_of": [("ratfunc", "series_of")],
    "ratfunc.reconstruct": [("ratfunc", "reconstruct")],
}

class Recorder:
    """In-memory span list; spans of one CLI operation share `op`."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.active: dict = {}
        self.op = -1

    def wrap(self, layer: str, fn):
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = not active.get(layer)
            active[layer] = active.get(layer, 0) + 1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[layer] -= 1
                spans[sid] = (self.op, layer, start, end, parent, outer)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "layer", "start", "end", "parent", "outermost"],
                       "spans": self.spans}, fh)


def install() -> Recorder:
    """Wrap every LAYERS entry in the package and return the recorder."""
    import importlib
    import pkgutil

    import asaiperiods

    mods = [importlib.import_module("asaiperiods." + info.name)
            for info in pkgutil.iter_modules(asaiperiods.__path__)
            if info.name != "__main__"] + [asaiperiods]
    rec = Recorder()
    for layer, targets in LAYERS.items():
        for modname, attr in targets:
            mod = importlib.import_module("asaiperiods." + modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(rec.wrap(layer, raw.__func__)))
                else:
                    setattr(cls, meth, rec.wrap(layer, raw))
                continue
            fn = getattr(mod, attr)
            wrapped = rec.wrap(layer, fn)
            for m in mods:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, wrapped)
    return rec


# -- aggregation -------------------------------------------------------

SELF_METRICS = {
    "cli.self_s": "cli.main",
    "segments.self_s": "segments",
    "periods.lattice_self_s": "periods.lattice",
    "periods.check_self_s": "periods.check",
    "lfactors.self_s": "lfactors",
}
INCLUSIVE_METRICS = {
    "descriptors.parse_s": "descriptors.parse",
    "descriptors.serialize_s": "descriptors.serialize",
    "whittaker.value_s": "whittaker.value",
    "ratfunc.build_s": "ratfunc.build",
    "ratfunc.series_of_s": "ratfunc.series_of",
    "ratfunc.reconstruct_s": "ratfunc.reconstruct",
}


def aggregate(spans: list) -> dict:
    """Per-layer metrics of one traced round.

    Self time is a span's duration minus its direct children's. The
    inclusive figures count a span only when no enclosing span has the
    same layer, so recursion and nesting do not count twice; the
    reconstruct figure includes the series_of re-check it runs.
    """
    child = [0.0] * len(spans)
    for _op, _layer, start, end, parent, _outer in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time: dict = {}
    incl: dict = {}
    calls: dict = {}
    for sid, (_op, layer, start, end, _parent, outer) in enumerate(spans):
        dur = end - start
        self_time[layer] = self_time.get(layer, 0.0) + dur - child[sid]
        if outer:
            incl[layer] = incl.get(layer, 0.0) + dur
            calls[layer] = calls.get(layer, 0) + 1
    out = {name: self_time.get(layer, 0.0) for name, layer in SELF_METRICS.items()}
    out.update({name: incl.get(layer, 0.0) for name, layer in INCLUSIVE_METRICS.items()})
    n_values = calls.get("whittaker.value", 0)
    out["whittaker.value_calls"] = n_values
    out["whittaker.value_us"] = 1e6 * out["whittaker.value_s"] / n_values if n_values else 0.0
    out["ratfunc.reconstruct_calls"] = calls.get("ratfunc.reconstruct", 0)
    return out


def lattice_share(spans: list) -> float:
    """Share of traced operation time inside lattice sums (which make
    every whittaker call)."""
    total = sum(end - start for _o, layer, start, end, _p, outer in spans
                if layer == "cli.main" and outer)
    lattice = sum(end - start for _o, layer, start, end, _p, outer in spans
                  if layer == "periods.lattice" and outer)
    return lattice / total if total else 0.0


# -- micro-timings of the scalar layers ---------------------------------

def _scalars_in(obj, found: list, dens: list) -> None:
    if isinstance(obj, dict):
        if "a" in obj and "b" in obj:
            found.append(tuple(obj["a"]))
            found.append(tuple(obj["b"]))
            return
        if "num" in obj and "den" in obj:
            dens.append([tuple(c["a"]) for c in obj["den"]])
        for v in obj.values():
            _scalars_in(v, found, dens)
    elif isinstance(obj, list):
        for v in obj:
            _scalars_in(v, found, dens)


def _gauss(pair) -> tuple:
    return (Fraction(pair[0]), Fraction(pair[1]))


def _height(g: tuple) -> int:
    return max(x.numerator.bit_length() + x.denominator.bit_length() for x in g)


def _per_op_us(pairs: list, op, repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for x, y in pairs:
            op(x, y)
        samples.append(time.perf_counter() - start)
    return 1e6 * statistics.median(samples) / len(pairs)


def micro_timings(descriptors: list, outputs: list, seed: int) -> dict:
    """µs per operation of the scalar, rational and Poly layers, on
    operands sampled from this round: the Satake values of its
    descriptors and the coefficients of its outputs."""
    from asaiperiods.rational import Rat
    from asaiperiods.scalars import AlgNum, GaussRat
    from asaiperiods.series import Poly

    rng = random.Random(seed)
    small = sorted({_gauss(s["rho"]["atUnif"]) for d in descriptors for s in d["segments"]})
    coeffs, dens = [], []
    for text in outputs:
        for line in text.splitlines():
            if line.startswith("{"):
                _scalars_in(json.loads(line), coeffs, dens)
    big = sorted({g for g in map(_gauss, coeffs) if g != (0, 0)}, key=_height)
    big = big[len(big) // 2:]
    small = rng.sample(small, min(24, len(small)))
    big = rng.sample(big, min(24, len(big)))
    gauss = small + big
    rats = [Rat(x) for g in gauss for x in g if x]
    rats = rng.sample(rats, min(64, len(rats)))
    rat_pairs = [(x, y) for x in rats for y in rats]
    gr = [GaussRat(Rat(g[0]), Rat(g[1])) for g in gauss]
    gauss_pairs = [(x, y) for x in gr for y in gr]
    q = descriptors[0]["field"]["qF"]
    alg = [AlgNum(x, y if i % 2 else 0, q) for i, (x, y) in enumerate(zip(gr, reversed(gr)))]
    alg_pairs = [(x, y) for x in alg for y in alg]
    polys = [Poly([GaussRat(Rat(Fraction(c[0])), Rat(Fraction(c[1]))) for c in den])
             for den in rng.sample(dens, min(4, len(dens)))]
    poly_pairs = [(x, y) for x in polys for y in polys]
    return {
        "rational.add_us": _per_op_us(rat_pairs, lambda x, y: x + y),
        "rational.mul_us": _per_op_us(rat_pairs, lambda x, y: x * y),
        "scalars.gauss_mul_us": _per_op_us(gauss_pairs, lambda x, y: x * y),
        "scalars.alg_add_us": _per_op_us(alg_pairs, lambda x, y: x + y),
        "scalars.alg_mul_us": _per_op_us(alg_pairs, lambda x, y: x * y),
        "series.poly_mul_us": _per_op_us(poly_pairs, lambda x, y: x * y, 3) if poly_pairs else 0.0,
    }
