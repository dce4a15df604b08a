"""Command line front end.

Subcommands: lfactor (closed-form L-factors of a representation
descriptor), period (mirabolic period report), verify (named check
suites over a descriptor or the built-in seeded corpora), segments
(segment-combinatorics report). Output is deterministic JSON by
default; --output table renders the same data as text. The verify
suites that run on the seeded built-in corpora import corpus (and
random) themselves, so no other invocation pays for them.

Exit codes: 0 success (a pole in a value is a result, not a failure),
1 verification failure, 2 input error, 3 non-generic input.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import gcd

from .descriptors import (
    DescriptorError,
    field_json,
    load_rep_file,
    ratfunc_json,
    segment_json,
    series_json,
    value_str,
)
from .lfactors import (
    asai_L,
    asai_L_multiplicative,
    asai_factor_list,
    closed_form_for,
    kable_factorization_check,
    rs_L,
    rs_factor_list,
)
from .localfields import FieldPair
from .periods import (
    LatticeCostError,
    OrderTooSmall,
    certifying_order,
    coefficient_bits,
    flicker_series,
    lattice_value_at,
    mirabolic_largest_order,
    printable_bits,
    rs_series,
    too_long,
    verify_c_pi,
    verify_theorem1,
    value_bits,
)
from .ratfunc import series_of
from .rational import ratio_str
from .scalars import GaussRat
from .segments import (
    GenericRep,
    NotGenericError,
    UnramifiedModule,
    asai_holomorphic_witness,
    conductor,
    is_conjugate_selfdual,
    is_unramified_rep,
    pi_u,
    standard_order,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_NOT_GENERIC = 3


class RunConfig:
    """One invocation's subcommand and options."""

    __slots__ = ("command", "rep_path", "secondary_rep_path", "order", "at_s", "output", "suite")

    def __init__(self, command: str, rep_path: str | None, secondary_rep_path: str | None,
                 order: int, at_s: int | None, output: str, suite: str):
        self.command = command
        self.rep_path = rep_path
        self.secondary_rep_path = secondary_rep_path
        self.order = order
        self.at_s = at_s
        self.output = output
        self.suite = suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asaiperiods",
        description="Exact local Asai/Rankin-Selberg L-factors and mirabolic periods",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, rep_required: bool):
        p.add_argument("--rep", required=rep_required, metavar="PATH",
                       help="representation descriptor (JSON file)")
        p.add_argument("--order", type=int, default=40, metavar="N",
                       help="series truncation order (default 40)")
        p.add_argument("--output", choices=("json", "table"), default="json")

    p = sub.add_parser("lfactor", help="closed-form L-factors")
    common(p, True)
    p.add_argument("--against", metavar="PATH",
                   help="secondary descriptor for the Rankin-Selberg factor")

    p = sub.add_parser("period", help="mirabolic period report")
    common(p, True)
    p.add_argument("--at-s", dest="at_s", metavar="S",
                   help="also evaluate at integer s >= 1 (t = q_F^-s)")

    p = sub.add_parser("verify", help="run a verification suite")
    common(p, False)
    p.add_argument("--suite", default="all",
                   choices=("theorem1", "cpi", "multiplicativity", "identities", "all"))

    p = sub.add_parser("segments", help="segment combinatorics report")
    common(p, True)
    return parser


def _config(ns: argparse.Namespace) -> RunConfig:
    at_s = None
    raw = getattr(ns, "at_s", None)
    if raw is not None:
        try:
            at_s = int(raw)
        except ValueError:
            raise DescriptorError("--at-s: expected a positive integer, got %r" % raw)
        if at_s < 1:
            raise DescriptorError("--at-s: expected a positive integer, got %r" % raw)
    if ns.order < 1:
        raise DescriptorError("--order: must be >= 1")
    return RunConfig(
        command=ns.command,
        rep_path=getattr(ns, "rep", None),
        secondary_rep_path=getattr(ns, "against", None),
        order=ns.order,
        at_s=at_s,
        output=ns.output,
        suite=getattr(ns, "suite", "all"),
    )


def _short(g: GaussRat) -> str:
    """Compact coefficient display for factored forms."""
    if g.is_real():
        return str(g.nr) if g.den == 1 else ratio_str(g.nr, g.den)
    return "(" + str(g) + ")"


def _factor_str(c: GaussRat, k: int, var: str = "t") -> str:
    mono = var if k == 1 else "%s^%d" % (var, k)
    if c == GaussRat(1):
        return "(1 - %s)" % mono
    if c == GaussRat(-1):
        return "(1 + %s)" % mono
    return "(1 - %s*%s)" % (_short(c), mono)


def _factored(factors, var: str = "t") -> str:
    if not factors:
        return "1"
    return "1 / " + "".join(_factor_str(c, k, var) for c, k in factors)


def _bits(g: GaussRat) -> int:
    """Bits of the longest numerator or denominator of g's parts in
    lowest terms."""
    bits = 0
    for x in (g.nr, g.ni):
        c = gcd(x, g.den)
        bits = max(bits, (x // c).bit_length(), (g.den // c).bit_length())
    return bits


def _too_large(field: str, what: str, need: int, hint: str = "") -> DescriptorError:
    return DescriptorError("%s: %s%s" % (field, too_long(what, need), hint))


def _check_sizes(rep: GenericRep, at_s: int | None = None) -> None:
    """Refuse rep before any evaluation when its closed form or value at
    s = 1 (naming its largest Satake value) or its value at s = at_s
    (--at-s) could need integers longer than printable_bits(). The
    lattice sums check --order themselves."""
    fp, segments = rep.fp, rep.segments
    alpha = pi_u(rep).satake
    at_0 = value_bits(alpha, fp.e, fp.q_F, 0)
    per_s = value_bits(alpha, fp.e, fp.q_F, 1) - at_0
    cap = printable_bits()
    if at_0 + per_s > cap:
        i = max((i for i, seg in enumerate(segments) if seg.rho.is_unramified),
                key=lambda i: _bits(segments[i].rho.at_unif))
        raise _too_large("rep.segments[%d].rho.atUnif" % i,
                         "too large: the closed form and its value at s=1", at_0 + per_s)
    if at_s is not None and at_0 + at_s * per_s > cap:
        raise _too_large("--at-s", "the value at s=%d" % at_s, at_0 + at_s * per_s,
                         "; the largest s for this descriptor is %d" % ((cap - at_0) // per_s))


def _load_generic_rep(path: str, at_s: int | None = None) -> GenericRep:
    fp, segments = load_rep_file(path)
    rep = GenericRep(fp, tuple(segments))
    _check_sizes(rep, at_s)
    return rep


def _emit(obj: dict, cfg: RunConfig, table_lines) -> None:
    if cfg.output == "json":
        print(json.dumps(obj))
    else:
        for line in table_lines(obj):
            print(line)


# -- lfactor -----------------------------------------------------------


def cmd_lfactor(cfg: RunConfig) -> int:
    rep = _load_generic_rep(cfg.rep_path)
    mod = pi_u(rep)
    report = {
        "field": field_json(rep.fp),
        "piU": [value_str(v) for v in mod.satake],
        "asai": ratfunc_json(asai_L(mod)),
    }
    rs_info = None
    if cfg.secondary_rep_path:
        other = _load_generic_rep(cfg.secondary_rep_path)
        if other.fp != rep.fp:
            raise DescriptorError("--against: field pair differs from --rep")
        if not (is_unramified_rep(rep) and is_unramified_rep(other)):
            raise DescriptorError(
                "--against: the Rankin-Selberg factor is modeled for unramified representations"
            )
        m2 = pi_u(other)
        need = mod.r * m2.r * (coefficient_bits(mod.satake) + coefficient_bits(m2.satake))
        if need > printable_bits():
            raise _too_large("--against", "the Rankin-Selberg factor", need)
        rs_info = (mod, m2)
        rs = rs_L(mod, m2)
        report["rs"] = {
            "tE": ratfunc_json(rs),
            "t": ratfunc_json(rs.substitute_power(rep.fp.f)),
        }

    def tables(obj):
        yield "Asai L-factor in t = q_F^-s:"
        yield "  " + _factored(asai_factor_list(mod))
        if rs_info is not None:
            m1, m2 = rs_info
            yield "Rankin-Selberg L-factor in t_E = q_E^-s:"
            yield "  " + _factored(rs_factor_list(m1, m2), var="tE")

    _emit(report, cfg, tables)
    return EXIT_OK


# -- period ------------------------------------------------------------


def cmd_period(cfg: RunConfig) -> int:
    rep = _load_generic_rep(cfg.rep_path, cfg.at_s)
    report = verify_theorem1(rep, cfg.order)
    obj = {
        "series": series_json(report.series),
        "reconstructed": None if report.reconstructed is None else ratfunc_json(report.reconstructed),
        "closedForm": ratfunc_json(report.closed_form),
        "match": report.match,
        "valueAt1": value_str(report.value_at_1),
    }
    if cfg.at_s is not None:
        try:
            obj["valueAtS"] = value_str(lattice_value_at(rep, cfg.at_s, report.closed_form))
        except ZeroDivisionError:
            obj["valueAtS"] = "pole"

    def tables(o):
        yield "order: %d" % report.series.order
        yield "match: %s" % ("yes" if o["match"] else "NO")
        yield "closed form: (%s) / (%s)" % (
            report.closed_form.num.to_str(),
            report.closed_form.den.to_str(),
        )
        yield "value at s=1: %s" % o["valueAt1"]
        if "valueAtS" in o:
            yield "value at s=%d: %s" % (cfg.at_s, o["valueAtS"])

    _emit(obj, cfg, tables)
    return EXIT_OK


# -- segments ----------------------------------------------------------


def cmd_segments(cfg: RunConfig) -> int:
    fp, segments = load_rep_file(cfg.rep_path)
    try:
        rep = GenericRep(fp, tuple(segments))
    except NotGenericError:
        _emit({"generic": False}, cfg, lambda o: ["generic: no"])
        return EXIT_OK
    csd = is_conjugate_selfdual(rep)
    ordered = standard_order(segments, fp.q_E)
    obj = {
        "generic": True,
        "standardOrder": [segment_json(s) for s in ordered],
        "piU": [value_str(v) for v in pi_u(rep).satake],
        "conductor": conductor(rep),
        "conjugateSelfDual": csd,
        "asaiHolomorphicWitness": asai_holomorphic_witness(rep) if csd else None,
    }

    def tables(o):
        yield "generic: yes"
        yield "standard order: " + " x ".join(
            "[%s; k=%d]" % (value_str(s.rho.at_unif), s.k) for s in ordered
        )
        yield "pi_u: [%s]" % ", ".join(o["piU"])
        yield "conductor: %d" % o["conductor"]
        yield "conjugate self-dual: %s" % ("yes" if csd else "no")
        if o["asaiHolomorphicWitness"] is not None:
            yield "holomorphy witness: %s" % ("yes" if o["asaiHolomorphicWitness"] else "NO")

    _emit(obj, cfg, tables)
    return EXIT_OK


# -- verify ------------------------------------------------------------


def _check_theorem1(name: str, rep: GenericRep, order: int) -> dict:
    report = verify_theorem1(rep, order)
    out = {
        "suite": "theorem1",
        "check": name,
        "pass": report.match,
        "valueAt1": value_str(report.value_at_1),
    }
    if not report.match:
        out["firstFailIndex"] = report.series.first_mismatch(report.expected)
    return out


def _theorem1_reps(cfg: RunConfig) -> list:
    if cfg.rep_path:
        return [("user-rep", _load_generic_rep(cfg.rep_path))]
    import random

    from . import corpus

    reps = [
        ("steinberg-gl2-unram-pair", corpus.steinberg_gl2(FieldPair(2, False))),
        ("steinberg-gl2-ram-pair", corpus.steinberg_gl2(FieldPair(3, True, 1))),
        ("unitary-gl2", corpus.unitary_gl2_example()),
    ]
    rng = random.Random(61409)
    for i in range(3):
        fp = corpus.rand_field(rng, ramified=bool(i % 2))
        reps.append(("ramified-mix-%d" % i, corpus.ramified_rep(rng, fp)))
    fp = FieldPair(5, False)
    reps.append(("no-unramified-support",
                 GenericRep(fp, (corpus.selfdual_ramified_segment(rng, 1, 2),))))
    return reps


def _suite_theorem1(cfg: RunConfig):
    reps = _theorem1_reps(cfg)
    try:
        for name, rep in reps:
            yield _check_theorem1(name, rep, cfg.order)
    except OrderTooSmall:
        # name the order that certifies every check, not just this one
        need = max(certifying_order(closed_form_for(rep)) for _, rep in reps)
        raise OrderTooSmall(cfg.order, need) from None
    except LatticeCostError as exc:
        # and the order that every check's sum admits
        least = min(mirabolic_largest_order(rep) for _, rep in reps)
        raise LatticeCostError(exc.reason, least, "suite") from None


def _suite_cpi(cfg: RunConfig):
    if cfg.rep_path:
        rep = _load_generic_rep(cfg.rep_path)
        try:
            ok = verify_c_pi(rep)
        except ValueError as exc:
            yield {"suite": "cpi", "check": "user-rep", "pass": False, "error": str(exc)}
            return
        yield {"suite": "cpi", "check": "user-rep", "pass": ok}
        return
    import random

    from . import corpus

    rng = random.Random(7021)
    for i in range(6):
        rep = corpus.csd_rep(rng, corpus.rand_field(rng, ramified=False))
        yield {"suite": "cpi", "check": "unram-pair-%d" % i, "pass": verify_c_pi(rep)}
    for i in range(6):
        rep = corpus.csd_rep(rng, corpus.rand_field(rng, ramified=True))
        yield {"suite": "cpi", "check": "ram-pair-%d" % i, "pass": verify_c_pi(rep)}


def _suite_multiplicativity(cfg: RunConfig):
    if cfg.rep_path:
        mod = pi_u(_load_generic_rep(cfg.rep_path))
        ok = asai_L(mod) == asai_L_multiplicative(mod)
        yield {"suite": "multiplicativity", "check": "user-rep", "pass": ok}
        return
    import random

    from . import corpus

    rng = random.Random(40104)
    for i in range(100):
        fp = corpus.rand_field(rng, ramified=bool(i % 2))
        mod = corpus.rand_module(rng, fp, rng.randint(0, 5))
        ok = asai_L(mod) == asai_L_multiplicative(mod)
        yield {"suite": "multiplicativity", "check": "module-%03d" % i, "pass": ok}


def _series_check(name: str, got, expected) -> dict:
    ok = got == expected
    out = {"suite": "identities", "check": name, "pass": ok}
    if not ok:
        out["firstFailIndex"] = got.first_mismatch(expected)
    return out


def _suite_identities(cfg: RunConfig):
    order = min(cfg.order, 20)
    if cfg.rep_path:
        mods = [pi_u(_load_generic_rep(cfg.rep_path))]
    else:
        import random

        from . import corpus

        rng = random.Random(90125)
        mods = [
            corpus.rand_module(rng, FieldPair(3, False), 3),
            corpus.rand_module(rng, FieldPair(2, True, 1), 3),
        ]
    for mod in mods:
        kind = "ram" if mod.fp.ramified else "unram"
        yield _series_check(
            "littlewood-%s-r%d" % (kind, mod.r),
            flicker_series(mod, order),
            series_of(asai_L(mod), order),
        )
        if mod.r >= 1:
            sub = UnramifiedModule(mod.fp, mod.satake[: mod.r - 1])
            yield _series_check(
                "cauchy-%s-r%d" % (kind, mod.r),
                rs_series(mod, sub, order),
                series_of(rs_L(mod, sub), order),
            )
        if not mod.fp.ramified:
            yield {
                "suite": "identities",
                "check": "kable-%s-r%d" % (kind, mod.r),
                "pass": kable_factorization_check(mod),
            }
    if not cfg.rep_path:
        for i in range(10):
            mod = corpus.rand_module(rng, corpus.rand_field(rng, False), rng.randint(1, 4))
            yield {
                "suite": "identities",
                "check": "kable-random-%d" % i,
                "pass": kable_factorization_check(mod),
            }


_SUITES = {
    "theorem1": _suite_theorem1,
    "cpi": _suite_cpi,
    "multiplicativity": _suite_multiplicativity,
    "identities": _suite_identities,
}


def cmd_verify(cfg: RunConfig) -> int:
    names = list(_SUITES) if cfg.suite == "all" else [cfg.suite]
    # every check runs before any is printed, so an input error found
    # by a later suite leaves no partial report on stdout
    checks = [check for name in names for check in _SUITES[name](cfg)]
    for check in checks:
        if cfg.output == "json":
            print(json.dumps(check))
        else:
            status = "PASS" if check["pass"] else "FAIL"
            extra = ""
            if "valueAt1" in check:
                extra = " valueAt1=%s" % check["valueAt1"]
            if "firstFailIndex" in check:
                extra += " firstFailIndex=%s" % check["firstFailIndex"]
            if "error" in check:
                extra += " error=%s" % check["error"]
            print("[%s] %s: %s%s" % (check["suite"], check["check"], status, extra))
    return EXIT_OK if all(check["pass"] for check in checks) else EXIT_VERIFY_FAIL


_COMMANDS = {
    "lfactor": cmd_lfactor,
    "period": cmd_period,
    "verify": cmd_verify,
    "segments": cmd_segments,
}


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = _config(ns)
        return _COMMANDS[cfg.command](cfg)
    except DescriptorError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (OrderTooSmall, LatticeCostError) as exc:
        print("input error: --order: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except NotGenericError as exc:
        print("not generic: %s" % exc, file=sys.stderr)
        return EXIT_NOT_GENERIC


if __name__ == "__main__":
    sys.exit(main())
