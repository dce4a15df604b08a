"""Independent reference for the benchmark's output checks.

Exact Gaussian-rational arithmetic on pairs of fractions.Fraction, and
nothing from asaiperiods: the closed forms are rebuilt here from the
descriptor semantics alone (README of the package, "What it computes").

- Asai and Rankin-Selberg factors are products of geometric series
  1 / (1 - c t^k) = sum_m c^m t^(km), multiplied in one at a time.
- The period of an unramified representation carries the Tate factor
  (1 - omega(unif_F) t^n) with omega(unif_F) = prod alpha_i^e.
- Values at s = 1 are exact at t = 1/q_F, or "pole".

check_op() compares one program output with these references and
returns the list of fields that disagree.
"""

from __future__ import annotations

import json
from fractions import Fraction

Gauss = tuple  # (re, im), both Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


# -- Gaussian rationals ------------------------------------------------


def g_add(x: Gauss, y: Gauss) -> Gauss:
    return (x[0] + y[0], x[1] + y[1])


def g_sub(x: Gauss, y: Gauss) -> Gauss:
    return (x[0] - y[0], x[1] - y[1])


def g_mul(x: Gauss, y: Gauss) -> Gauss:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def g_neg(x: Gauss) -> Gauss:
    return (-x[0], -x[1])


def g_inv(x: Gauss) -> Gauss:
    n = x[0] * x[0] + x[1] * x[1]
    if not n:
        raise ZeroDivisionError("inverse of zero")
    return (x[0] / n, -x[1] / n)


def g_pow(x: Gauss, n: int) -> Gauss:
    if n < 0:
        return g_pow(g_inv(x), -n)
    out = ONE
    for _ in range(n):
        out = g_mul(out, x)
    return out


def g_prod(values) -> Gauss:
    out = ONE
    for v in values:
        out = g_mul(out, v)
    return out


def parse_rat(s: str) -> Fraction:
    head, sep, tail = s.partition("/")
    if not sep:
        raise ValueError("not a p/q string: %r" % s)
    return Fraction(int(head), int(tail))


def rat_str(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def gauss_json(x: Gauss) -> list:
    return [rat_str(x[0]), rat_str(x[1])]


def parse_gauss(pair) -> Gauss:
    return (parse_rat(pair[0]), parse_rat(pair[1]))


def gauss_str(x: Gauss) -> str:
    """The package's printed form: "p/q" for reals, "p/q+r/si" otherwise."""
    if not x[1]:
        return rat_str(x[0])
    return "%s%s%si" % (rat_str(x[0]), "+" if x[1] > 0 else "-", rat_str(abs(x[1])))


def parse_scalar(obj) -> Gauss:
    """A serialized a + b*sqrt(q) whose sqrt part must vanish."""
    b = parse_gauss(obj["b"])
    if b != ZERO:
        raise ValueError("nonzero sqrt(q) component %s" % gauss_str(b))
    return parse_gauss(obj["a"])


# -- polynomials and truncated series (ascending lists of Gauss) --------


def p_trim(p: list) -> list:
    p = list(p)
    while p and p[-1] == ZERO:
        p.pop()
    return p


def p_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == ZERO:
            continue
        for j, y in enumerate(b):
            out[i + j] = g_add(out[i + j], g_mul(x, y))
    return p_trim(out)


def p_eval(p: list, x: Gauss) -> Gauss:
    acc = ZERO
    for c in reversed(p):
        acc = g_add(g_mul(acc, x), c)
    return acc


def p_divmod(a: list, b: list) -> tuple:
    """Quotient and remainder of a by a nonzero b."""
    rem = p_trim(a)
    b = p_trim(b)
    if len(rem) < len(b):
        return [], rem
    lead = g_inv(b[-1])
    quot = [ZERO] * (len(rem) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = g_mul(rem[k + len(b) - 1], lead)
        quot[k] = c
        for j, bj in enumerate(b):
            rem[k + j] = g_sub(rem[k + j], g_mul(c, bj))
    return p_trim(quot), p_trim(rem)


def one_minus(c: Gauss, k: int) -> list:
    """The polynomial 1 - c t^k."""
    return [ONE] + [ZERO] * (k - 1) + [g_neg(c)]


def times_geometric(series: list, c: Gauss, k: int) -> list:
    """series * sum_m c^m t^(km), truncated to the length of series."""
    out = list(series)
    for j in range(k, len(out)):
        out[j] = g_add(out[j], g_mul(c, out[j - k]))
    return out


class ClosedForm:
    """numerator(t) / prod (1 - c t^k) over factors (c, k)."""

    def __init__(self, factors: list, numerator: list | None = None):
        self.factors = list(factors)
        self.numerator = p_trim(numerator if numerator is not None else [ONE])

    def denominator(self) -> list:
        den = [ONE]
        for c, k in self.factors:
            den = p_mul(den, one_minus(c, k))
        return den

    def series(self, order: int) -> list:
        s = (self.numerator + [ZERO] * (order + 1))[: order + 1]
        for c, k in self.factors:
            s = times_geometric(s, c, k)
        return s

    def value_at(self, t0: Gauss) -> Gauss | None:
        """Exact value at t0; None on a pole. A factor vanishing at t0
        that divides the numerator cancels instead."""
        num = self.numerator
        inv = ONE
        for c, k in self.factors:
            d = g_sub(ONE, g_mul(c, g_pow(t0, k)))
            if d != ZERO:
                inv = g_mul(inv, g_inv(d))
                continue
            quot, rem = p_divmod(num, one_minus(c, k))
            if rem:
                return None
            num = quot
        return g_mul(p_eval(num, t0), inv)

    def equals(self, num: list, den: list) -> bool:
        """num/den equals this form: cross-multiply, so any correctly
        reduced form passes."""
        den = p_trim(den)
        if not den:
            return False
        return p_mul(p_trim(num), self.denominator()) == p_mul(den, self.numerator)


# -- descriptor semantics ----------------------------------------------


def ram_index(field: dict) -> int:
    """e(E/F): 2 for a ramified pair, 1 otherwise."""
    return 2 if field["ramified"] else 1


def q_E(field: dict) -> int:
    q = field["qF"]
    return q if field["ramified"] else q * q


def segment_value(seg: dict) -> Gauss:
    return parse_gauss(seg["rho"]["atUnif"])


def is_unramified_segment(seg: dict) -> bool:
    return seg["rho"]["unitConductor"] == 0


def pi_u(desc: dict) -> list:
    """Satake values of the unramified support."""
    return [segment_value(s) for s in desc["segments"] if is_unramified_segment(s)]


def rank_n(desc: dict) -> int:
    return sum(s["k"] for s in desc["segments"])


def is_unramified_rep(desc: dict) -> bool:
    return all(s["k"] == 1 and is_unramified_segment(s) for s in desc["segments"])


def omega_at_unif_F(desc: dict) -> Gauss:
    """Central character at a uniformizer of F: prod alpha_i^e."""
    e = ram_index(desc["field"])
    return g_prod(g_pow(a, e) for a in pi_u(desc))


def asai_factors(field: dict, alphas: list) -> list:
    r = len(alphas)
    if field["ramified"]:
        return [(g_mul(alphas[i], alphas[j]), 1) for i in range(r) for j in range(i, r)]
    out = [(a, 1) for a in alphas]
    out += [(g_mul(alphas[i], alphas[j]), 2) for i in range(r) for j in range(i + 1, r)]
    return out


def rs_factors(alphas: list, betas: list, power: int) -> list:
    return [(g_mul(a, b), power) for a in alphas for b in betas]


def asai_form(desc: dict) -> ClosedForm:
    return ClosedForm(asai_factors(desc["field"], pi_u(desc)))


def period_form(desc: dict) -> ClosedForm:
    """Mirabolic period: Asai factor of the unramified support, times
    the Tate factor (1 - omega(unif_F) t^n) for an unramified rep."""
    form = asai_form(desc)
    if is_unramified_rep(desc):
        form.numerator = one_minus(omega_at_unif_F(desc), rank_n(desc))
    return form


def value_at_1(form: ClosedForm, field: dict) -> str:
    v = form.value_at((Fraction(1, field["qF"]), Fraction(0)))
    return "pole" if v is None else gauss_str(v)


def seg_key(seg: dict):
    rho = seg["rho"]
    return (seg["k"], rho["unitLabel"], parse_gauss(rho["atUnif"]))


def precedes(d1: dict, d2: dict, qe: int) -> bool:
    """Segment d1 precedes d2: same unit restriction and the value ratio
    is q_E^(-j) for some j with max(1, k2 - k1 + 1) <= j <= k2."""
    if d1["rho"]["unitLabel"] != d2["rho"]["unitLabel"]:
        return False
    ratio = g_mul(segment_value(d2), g_inv(segment_value(d1)))
    for j in range(max(1, d2["k"] - d1["k"] + 1), d2["k"] + 1):
        if ratio == (Fraction(1, qe**j), Fraction(0)):
            return True
    return False


def is_generic(desc: dict) -> bool:
    segs, qe = desc["segments"], q_E(desc["field"])
    return not any(
        i != j and precedes(a, b, qe) for i, a in enumerate(segs) for j, b in enumerate(segs)
    )


def twisted_dual(seg: dict) -> dict:
    """Contragredient followed by the Galois twist, on descriptor data."""
    rho = seg["rho"]
    if rho["unitConductor"] == 0:
        label, sig_label = "triv", "triv"
        at = sig_at = rho["atUnif"]
    else:
        label, sig_label = rho["sigmaUnitLabel"], rho["unitLabel"]
        at, sig_at = rho["sigmaAtUnif"], rho["atUnif"]

    def inv_label(s):
        if s == "triv":
            return s
        return s[len("inv:"):] if s.startswith("inv:") else "inv:" + s

    return {
        "k": seg["k"],
        "rho": {
            "unitLabel": inv_label(label),
            "unitConductor": rho["unitConductor"],
            "atUnif": gauss_json(g_inv(parse_gauss(at))),
            "sigmaUnitLabel": inv_label(sig_label),
            "sigmaAtUnif": gauss_json(g_inv(parse_gauss(sig_at))),
        },
    }


def is_conjugate_selfdual(desc: dict) -> bool:
    own = sorted(map(seg_key, desc["segments"]))
    return own == sorted(seg_key(twisted_dual(s)) for s in desc["segments"])


def holomorphy_witness(desc: dict) -> bool:
    qe = q_E(desc["field"])
    duals = [twisted_dual(s) for s in desc["segments"]]
    return not any(precedes(a, b, qe) for a in desc["segments"] for b in duals)


def conductor(desc: dict) -> int:
    return sum(
        s["k"] - 1 if is_unramified_segment(s) else s["k"] * s["rho"]["unitConductor"]
        for s in desc["segments"]
    )


# -- output checks -----------------------------------------------------


def _series_problems(coeffs: list, want: list) -> list:
    if len(coeffs) != len(want):
        return ["series: %d coefficients, expected %d" % (len(coeffs), len(want))]
    for k, (c, w) in enumerate(zip(coeffs, want)):
        try:
            got = parse_scalar(c)
        except ValueError as exc:
            return ["series[%d]: %s" % (k, exc)]
        if got != w:
            return ["series[%d]: %s, expected %s" % (k, gauss_str(got), gauss_str(w))]
    return []


def _ratfunc_ok(obj, form: ClosedForm) -> bool:
    if obj is None:
        return False
    try:
        num = [parse_scalar(c) for c in obj["num"]]
        den = [parse_scalar(c) for c in obj["den"]]
    except ValueError:
        return False
    return form.equals(num, den)


def _piu_ok(strings: list, desc: dict) -> bool:
    """The printed unramified support is pi_u(desc) as a multiset."""
    try:
        return sorted(parse_gauss(_split_gauss(s)) for s in strings) == sorted(pi_u(desc))
    except ValueError:
        return False


def check_period(desc: dict, order: int, obj: dict) -> list:
    form = period_form(desc)
    problems = _series_problems(obj["series"], form.series(order))
    if not _ratfunc_ok(obj["closedForm"], form):
        problems.append("closedForm")
    if not _ratfunc_ok(obj["reconstructed"], form):
        problems.append("reconstructed")
    if obj["match"] is not True:
        problems.append("match")
    want = value_at_1(form, desc["field"])
    if obj["valueAt1"] != want:
        problems.append("valueAt1: %s, expected %s" % (obj["valueAt1"], want))
    return problems


def check_lfactor(desc: dict, other: dict | None, obj: dict) -> list:
    problems = []
    field = desc["field"]
    if obj["field"]["qF"] != field["qF"] or obj["field"]["ramified"] != field["ramified"]:
        problems.append("field")
    if not _piu_ok(obj["piU"], desc):
        problems.append("piU")
    if not _ratfunc_ok(obj["asai"], asai_form(desc)):
        problems.append("asai")
    if other is not None:
        alphas, betas = pi_u(desc), pi_u(other)
        f = 3 - ram_index(field)
        if not _ratfunc_ok(obj["rs"]["tE"], ClosedForm(rs_factors(alphas, betas, 1))):
            problems.append("rs.tE")
        if not _ratfunc_ok(obj["rs"]["t"], ClosedForm(rs_factors(alphas, betas, f))):
            problems.append("rs.t")
    return problems


def check_segments(desc: dict, obj: dict) -> list:
    if obj.get("generic") is not True:
        return ["generic"]
    problems = []
    order = obj["standardOrder"]
    if sorted(map(seg_key, order)) != sorted(map(seg_key, desc["segments"])):
        problems.append("standardOrder: not a permutation of the segments")
    qe = q_E(desc["field"])
    if any(precedes(order[i], order[j], qe)
           for i in range(len(order)) for j in range(i + 1, len(order))):
        problems.append("standardOrder: an earlier segment precedes a later one")
    if not _piu_ok(obj["piU"], desc):
        problems.append("piU")
    if obj["conductor"] != conductor(desc):
        problems.append("conductor")
    csd = is_conjugate_selfdual(desc)
    if obj["conjugateSelfDual"] is not csd:
        problems.append("conjugateSelfDual")
    want = holomorphy_witness(desc) if csd else None
    if obj["asaiHolomorphicWitness"] is not want:
        problems.append("asaiHolomorphicWitness")
    return problems


def expected_verify_checks(suite: str, desc: dict) -> list:
    """Names of the checks `verify --suite <suite> --rep` must pass:
    Littlewood, Cauchy and Kable for identities, the product formula
    for multiplicativity. All are identities, true for every input."""
    if suite == "multiplicativity":
        return ["user-rep"]
    r = len(pi_u(desc))
    kind = "ram" if desc["field"]["ramified"] else "unram"
    names = ["littlewood-%s-r%d" % (kind, r)]
    if r >= 1:
        names.append("cauchy-%s-r%d" % (kind, r))
    if kind == "unram":
        names.append("kable-%s-r%d" % (kind, r))
    return names


def check_verify(suite: str, desc: dict, lines: list) -> list:
    names = [line.get("check") for line in lines]
    want = expected_verify_checks(suite, desc)
    if names != want:
        return ["checks %s, expected %s" % (names, want)]
    return ["%s failed" % line["check"] for line in lines if line.get("pass") is not True]


def _split_gauss(s: str) -> list:
    """Inverse of gauss_str: "p/q" or "p/q+r/si" to a ["p/q", "r/s"] pair."""
    if not s.endswith("i"):
        return [s, "0/1"]
    body = s[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    if cut <= 0:
        raise ValueError("not a Gaussian rational: %r" % s)
    sign = "-" if body[cut] == "-" else ""
    return [body[:cut], sign + body[cut + 1:]]


def check_op(op: dict, descs: dict, rc: int, out: str) -> list:
    """Fields of one operation's output that disagree with the oracle;
    [] when the output is right. op["cmd"] is the CLI subcommand."""
    cmd = op["cmd"]
    if rc != 0:
        return ["exit code %d" % rc]
    try:
        if cmd == "verify":
            lines = [json.loads(line) for line in out.splitlines() if line.strip()]
            return check_verify(op["suite"], descs["rep"], lines)
        obj = json.loads(out)
        if cmd == "period":
            return check_period(descs["rep"], op["order"], obj)
        if cmd == "lfactor":
            return check_lfactor(descs["rep"], descs.get("against"), obj)
        if cmd == "segments":
            return check_segments(descs["rep"], obj)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return ["unreadable output: %s: %s" % (type(exc).__name__, exc)]
    raise ValueError("unknown command %r" % cmd)
