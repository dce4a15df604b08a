"""Command line front end.

Subcommands: lfactor (closed-form L-factors of a representation
descriptor), period (mirabolic period report), verify (named check
suites over a descriptor or the built-in seeded corpora), segments
(segment-combinatorics report). Output is deterministic JSON by
default; --output table renders the same data as text.

Each command reads the parsed argparse namespace directly, once
_check_options has checked --at-s and --order. lfactor writes its JSON
line as text from the packed factor products, each rendered once
(descriptors.graded_texts), and its table from the factor lists alone;
the multiplicativity suite compares two factor lists with
ratfunc.same_product. period writes its series as text straight from
the lattice-sum kernel's integers (descriptors.graded_texts, every
coefficient kept), and on a match its "reconstructed" is the
"closedForm" object itself; its table renders neither. verify loads
and size-checks --rep once and hands that representation (or None) and
--order to each suite, which returns its check rows. Without --rep the
suites draw their subjects from the seeded built-in corpora, importing
corpus (and random) only then, so no other invocation pays for them.
main() builds the parser on its first call and reuses it on every
later call in the process; nothing is built at import.

Exit codes: 0 success (a pole in a value is a result, not a failure),
1 verification failure, 2 input error, 3 non-generic input.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from math import gcd

from .descriptors import (
    DescriptorError,
    field_json,
    graded_texts,
    load_rep_file,
    ratfunc_json,
    reciprocal_text,
    segment_json,
    value_str,
)
from .lfactors import (
    asai_L,
    asai_factor_list,
    asai_multiplicative_factor_list,
    closed_form_for,
    kable_factorization_check,
    lattice_value_at,
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
    mirabolic_largest_order,
    printable_bits,
    rs_series,
    too_long,
    verify_c_pi,
    verify_theorem1,
    value_bits,
)
from .ratfunc import packed_product, same_product, series_of
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
    p.add_argument("--suite", default="all", choices=(*_SUITES, "all"))

    p = sub.add_parser("segments", help="segment combinatorics report")
    common(p, True)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # parse_args returns a fresh namespace on every call, so one parser
    # carries nothing from one main() call to the next
    return build_parser()


def _check_options(ns: argparse.Namespace) -> None:
    """Refuse a bad --at-s (period only) or --order, in that order, and
    leave --at-s as an int."""
    raw = getattr(ns, "at_s", None)
    if raw is not None:
        try:
            ns.at_s = int(raw)
        except ValueError:
            raise DescriptorError("--at-s: expected a positive integer, got %r" % raw)
        if ns.at_s < 1:
            raise DescriptorError("--at-s: expected a positive integer, got %r" % raw)
    if ns.order < 1:
        raise DescriptorError("--order: must be >= 1")


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


def _check_sizes(rep: GenericRep, at_s: int | None = None) -> tuple[UnramifiedModule, int]:
    """Refuse rep before any evaluation when its closed form or value at
    s = 1 (naming its largest Satake value) or its value at s = at_s
    (--at-s) could need integers longer than printable_bits(). The
    lattice sums check --order themselves. Returns pi_u(rep) and its
    coefficient_bits, for the caller's own caps."""
    fp, segments = rep.fp, rep.segments
    mod = pi_u(rep)
    bits = coefficient_bits(mod.satake)
    at_0 = value_bits(mod.r, bits, fp.e, fp.q_F, 0)
    per_s = value_bits(mod.r, bits, fp.e, fp.q_F, 1) - at_0
    cap = printable_bits()
    if at_0 + per_s > cap:
        i = max((i for i, seg in enumerate(segments) if seg.rho.is_unramified),
                key=lambda i: _bits(segments[i].rho.at_unif))
        raise _too_large("rep.segments[%d].rho.atUnif" % i,
                         "too large: the closed form and its value at s=1", at_0 + per_s)
    if at_s is not None and at_0 + at_s * per_s > cap:
        raise _too_large("--at-s", "the value at s=%d" % at_s, at_0 + at_s * per_s,
                         "; the largest s for this descriptor is %d" % ((cap - at_0) // per_s))
    return mod, bits


def _load_generic_rep(path: str, at_s: int | None = None) -> tuple[GenericRep, UnramifiedModule, int]:
    """The size-checked representation at path, with _check_sizes's
    pi_u and its coefficient_bits."""
    fp, segments = load_rep_file(path)
    rep = GenericRep(fp, tuple(segments))
    return (rep, *_check_sizes(rep, at_s))


def _emit(obj: dict, ns: argparse.Namespace, table_lines) -> None:
    if ns.output == "json":
        print(json.dumps(obj))
    else:
        for line in table_lines(obj):
            print(line)


# -- lfactor -----------------------------------------------------------


def cmd_lfactor(ns: argparse.Namespace) -> int:
    rep, mod, bits = _load_generic_rep(ns.rep)
    m2 = None
    if ns.against:
        other, m2, bits2 = _load_generic_rep(ns.against)
        if other.fp != rep.fp:
            raise DescriptorError("--against: field pair differs from --rep")
        if not (is_unramified_rep(rep) and is_unramified_rep(other)):
            raise DescriptorError(
                "--against: the Rankin-Selberg factor is modeled for unramified representations"
            )
        need = mod.r * m2.r * (bits + bits2)
        if need > printable_bits():
            raise _too_large("--against", "the Rankin-Selberg factor", need)
    if ns.output == "table":
        print("Asai L-factor in t = q_F^-s:")
        print("  " + _factored(asai_factor_list(mod)))
        if m2 is not None:
            print("Rankin-Selberg L-factor in t_E = q_E^-s:")
            print("  " + _factored(rs_factor_list(mod, m2), var="tE"))
        return EXIT_OK
    # the text json.dumps writes for {"field", "piU", "asai", "rs": {"tE",
    # "t"}}; the t form of the Rankin-Selberg factor is its t_E text
    # spread by t_E = t^f
    head = json.dumps({"field": field_json(rep.fp), "piU": [value_str(v) for v in mod.satake]})
    asai = graded_texts(*packed_product(asai_factor_list(mod)))
    parts = [head[:-1], '"asai": ' + reciprocal_text(asai)]
    if m2 is not None:
        rs = graded_texts(*packed_product(rs_factor_list(mod, m2)))
        parts.append('"rs": {"tE": %s, "t": %s}'
                     % (reciprocal_text(rs), reciprocal_text(rs, rep.fp.f)))
    print(", ".join(parts) + "}")
    return EXIT_OK


# -- period ------------------------------------------------------------


def cmd_period(ns: argparse.Namespace) -> int:
    rep = _load_generic_rep(ns.rep, ns.at_s)[0]
    report = verify_theorem1(rep, ns.order)
    cf, rec = report.closed_form, report.reconstructed
    value_at_1 = value_str(report.value_at_1)
    value_at_s = None
    if ns.at_s is not None:
        try:
            value_at_s = value_str(lattice_value_at(rep, ns.at_s, cf))
        except ZeroDivisionError:
            value_at_s = "pole"
    if ns.output == "table":
        print("order: %d" % report.order)
        print("match: %s" % ("yes" if report.match else "NO"))
        print("closed form: (%s) / (%s)" % (cf.num.to_str(), cf.den.to_str()))
        print("value at s=1: %s" % value_at_1)
        if value_at_s is not None:
            print("value at s=%d: %s" % (ns.at_s, value_at_s))
        return EXIT_OK
    closed = ratfunc_json(cf)
    obj = {
        "reconstructed": closed if rec is cf else None if rec is None else ratfunc_json(rec),
        "closedForm": closed,
        "match": report.match,
        "valueAt1": value_at_1,
    }
    if value_at_s is not None:
        obj["valueAtS"] = value_at_s
    # the text json.dumps writes for {"series": ..., **obj}, the series
    # written from the kernel's integers
    series = ", ".join(graded_texts(*report.ints, trim=False))
    print('{"series": [%s], %s' % (series, json.dumps(obj)[1:]))
    return EXIT_OK


# -- segments ----------------------------------------------------------


def cmd_segments(ns: argparse.Namespace) -> int:
    fp, segments = load_rep_file(ns.rep)
    try:
        rep = GenericRep(fp, tuple(segments))
    except NotGenericError:
        _emit({"generic": False}, ns, lambda o: ["generic: no"])
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

    _emit(obj, ns, tables)
    return EXIT_OK


# -- verify ------------------------------------------------------------


def _builtin(seed: int):
    """The corpus module and a generator seeded with seed."""
    import random

    from . import corpus

    return corpus, random.Random(seed)


def _check(suite: str, name: str, ok: bool, **extra) -> dict:
    return {"suite": suite, "check": name, "pass": ok, **extra}


def _series_check(name: str, got, expected) -> dict:
    if got == expected:
        return _check("identities", name, True)
    return _check("identities", name, False, firstFailIndex=got.first_mismatch(expected))


def _suite_theorem1(rep: GenericRep | None, order: int) -> list:
    if rep is not None:
        subjects = [("user-rep", rep)]
    else:
        corpus, rng = _builtin(61409)
        subjects = [
            ("steinberg-gl2-unram-pair", corpus.steinberg_gl2(FieldPair(2, False))),
            ("steinberg-gl2-ram-pair", corpus.steinberg_gl2(FieldPair(3, True, 1))),
            ("unitary-gl2", corpus.unitary_gl2_example()),
        ]
        for i in range(3):
            fp = corpus.rand_field(rng, ramified=bool(i % 2))
            subjects.append(("ramified-mix-%d" % i, corpus.ramified_rep(rng, fp)))
        subjects.append(("no-unramified-support", GenericRep(
            FieldPair(5, False), (corpus.selfdual_ramified_segment(rng, 1, 2),))))
    checks = []
    try:
        for name, subject in subjects:
            report = verify_theorem1(subject, order)
            fail = {} if report.match else {"firstFailIndex": report.first_fail}
            checks.append(_check("theorem1", name, report.match,
                                 valueAt1=value_str(report.value_at_1), **fail))
    except OrderTooSmall:
        # name the order that certifies every check, not just this one
        need = max(certifying_order(closed_form_for(subject)) for _, subject in subjects)
        raise OrderTooSmall(order, need) from None
    except LatticeCostError as exc:
        # and the order that every check's sum admits
        least = min(mirabolic_largest_order(subject) for _, subject in subjects)
        raise LatticeCostError(exc.reason, least, "suite") from None
    return checks


def _suite_cpi(rep: GenericRep | None, order: int) -> list:
    if rep is not None:
        subjects = [("user-rep", rep)]
    else:
        corpus, rng = _builtin(7021)
        subjects = [("%s-pair-%d" % (kind, i),
                     corpus.csd_rep(rng, corpus.rand_field(rng, ramified=kind == "ram")))
                    for kind in ("unram", "ram") for i in range(6)]
    checks = []
    for name, subject in subjects:
        try:
            checks.append(_check("cpi", name, verify_c_pi(subject)))
        except ValueError as exc:
            checks.append(_check("cpi", name, False, error=str(exc)))
    return checks


def _suite_multiplicativity(rep: GenericRep | None, order: int) -> list:
    if rep is not None:
        subjects = [("user-rep", pi_u(rep))]
    else:
        corpus, rng = _builtin(40104)
        subjects = [("module-%03d" % i, corpus.rand_module(
            rng, corpus.rand_field(rng, ramified=bool(i % 2)), rng.randint(0, 5)))
                    for i in range(100)]
    return [_check("multiplicativity", name,
                   same_product(asai_factor_list(mod), asai_multiplicative_factor_list(mod)))
            for name, mod in subjects]


def _suite_identities(rep: GenericRep | None, order: int) -> list:
    order = min(order, 20)
    if rep is not None:
        mods, kable_mods = [pi_u(rep)], []
    else:
        corpus, rng = _builtin(90125)
        mods = [
            corpus.rand_module(rng, FieldPair(3, False), 3),
            corpus.rand_module(rng, FieldPair(2, True, 1), 3),
        ]
        kable_mods = [corpus.rand_module(rng, corpus.rand_field(rng, False), rng.randint(1, 4))
                      for _ in range(10)]
    checks = []
    for mod in mods:
        tag = "%s-r%d" % ("ram" if mod.fp.ramified else "unram", mod.r)
        checks.append(_series_check("littlewood-" + tag, flicker_series(mod, order),
                                    series_of(asai_L(mod), order)))
        if mod.r >= 1:
            sub = UnramifiedModule(mod.fp, mod.satake[: mod.r - 1])
            checks.append(_series_check("cauchy-" + tag, rs_series(mod, sub, order),
                                        series_of(rs_L(mod, sub), order)))
        if not mod.fp.ramified:
            checks.append(_check("identities", "kable-" + tag, kable_factorization_check(mod)))
    checks += [_check("identities", "kable-random-%d" % i, kable_factorization_check(mod))
               for i, mod in enumerate(kable_mods)]
    return checks


_SUITES = {
    "theorem1": _suite_theorem1,
    "cpi": _suite_cpi,
    "multiplicativity": _suite_multiplicativity,
    "identities": _suite_identities,
}


def cmd_verify(ns: argparse.Namespace) -> int:
    rep = _load_generic_rep(ns.rep)[0] if ns.rep else None
    names = list(_SUITES) if ns.suite == "all" else [ns.suite]
    # every check runs before any is printed, so an input error found
    # by a later suite leaves no partial report on stdout
    checks = [check for name in names for check in _SUITES[name](rep, ns.order)]
    for check in checks:
        if ns.output == "json":
            print(json.dumps(check))
        else:
            extra = "".join(" %s=%s" % (key, check[key])
                            for key in ("valueAt1", "firstFailIndex", "error") if key in check)
            status = "PASS" if check["pass"] else "FAIL"
            print("[%s] %s: %s%s" % (check["suite"], check["check"], status, extra))
    return EXIT_OK if all(check["pass"] for check in checks) else EXIT_VERIFY_FAIL


_COMMANDS = {
    "lfactor": cmd_lfactor,
    "period": cmd_period,
    "verify": cmd_verify,
    "segments": cmd_segments,
}


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    try:
        _check_options(ns)
        return _COMMANDS[ns.command](ns)
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
