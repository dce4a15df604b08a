"""JSON descriptors: parsing with field-level diagnostics, serialization.

Rationals serialize as canonical "p/q" strings (integral values
included, e.g. "1/1"), and complex values extend that to "p/q+r/si".
A series or polynomial coefficient c serializes as {"a": [re, im],
"b": ["0/1", "0/1"]}: the output format has a slot for a sqrt(q_F)
component, which no coefficient of the package has, so "b" is always
zero. RatFunc serializes as {"num": [...], "den": [...]} with
ascending-degree coefficient arrays. graded_texts and reciprocal_text
write the same text for a factor product's reciprocal straight from the
digits of ratfunc.packed_product, with no GaussRat, Poly or dict.

Parse errors raise DescriptorError whose message names the offending
field; the CLI maps that to the input-error exit code.
"""

from __future__ import annotations

import json
from math import gcd
from typing import Any

from .localfields import Q_F_LIMIT, FieldPair
from .ratfunc import RatFunc
from .rational import parse_ratio, ratio_str
from .scalars import GaussRat
from .segments import GenericRep, MultChar, Segment
from .series import Poly, Series


class DescriptorError(ValueError):
    """Malformed descriptor; the message names the offending field."""


def _fail(path: str, message: str):
    raise DescriptorError("%s: %s" % (path, message))


def _get(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        _fail(path, "expected a JSON object")
    if key not in obj:
        _fail("%s.%s" % (path, key), "missing")
    return obj[key]


def parse_gauss(v: Any, path: str) -> GaussRat:
    if not (isinstance(v, list) and len(v) == 2):
        _fail(path, 'expected ["p/q", "p/q"]')
    parts = []
    for k, s in enumerate(v):
        if not isinstance(s, str):
            _fail("%s[%d]" % (path, k), "expected a rational string")
        try:
            parts.append(parse_ratio(s))
        except ValueError as exc:
            _fail("%s[%d]" % (path, k), str(exc))
    (p, q), (ip, iq) = parts
    return GaussRat.scaled(p * iq, ip * q, q * iq)


def gauss_json(g: GaussRat) -> list[str]:
    return [ratio_str(g.nr, g.den), ratio_str(g.ni, g.den)]


def parse_field(d: Any, path: str = "field") -> FieldPair:
    q_F = _get(d, "qF", path)
    ramified = _get(d, "ramified", path)
    if not isinstance(q_F, int) or isinstance(q_F, bool):
        _fail(path + ".qF", "expected an integer")
    if q_F >= Q_F_LIMIT:
        _fail(path + ".qF", "must be below 2^64, got %d" % q_F)
    if not isinstance(ramified, bool):
        _fail(path + ".ramified", "expected a boolean")
    ext = d.get("extConductor")
    if ext is not None and (not isinstance(ext, int) or isinstance(ext, bool)):
        _fail(path + ".extConductor", "expected an integer or null")
    try:
        return FieldPair(q_F, ramified, ext)
    except ValueError as exc:
        _fail(path, str(exc))


def field_json(fp: FieldPair) -> dict:
    return {"qF": fp.q_F, "ramified": fp.ramified, "extConductor": fp.ext_conductor}


def parse_rho(d: Any, path: str) -> MultChar:
    label = _get(d, "unitLabel", path)
    cond = _get(d, "unitConductor", path)
    if not isinstance(label, str):
        _fail(path + ".unitLabel", "expected a string")
    if not isinstance(cond, int) or isinstance(cond, bool):
        _fail(path + ".unitConductor", "expected an integer")
    at = parse_gauss(_get(d, "atUnif", path), path + ".atUnif")
    sig_label = d.get("sigmaUnitLabel", label if cond == 0 else None)
    if sig_label is None:
        _fail(path + ".sigmaUnitLabel", "missing (required for ramified characters)")
    if not isinstance(sig_label, str):
        _fail(path + ".sigmaUnitLabel", "expected a string")
    if "sigmaAtUnif" in d:
        sig_at = parse_gauss(d["sigmaAtUnif"], path + ".sigmaAtUnif")
    elif cond == 0:
        sig_at = at
    else:
        _fail(path + ".sigmaAtUnif", "missing (required for ramified characters)")
    try:
        return MultChar(label, cond, at, sig_label, sig_at)
    except ValueError as exc:
        _fail(path, str(exc))


def rho_json(rho: MultChar) -> dict:
    return {
        "unitLabel": rho.unit_label,
        "unitConductor": rho.unit_conductor,
        "atUnif": gauss_json(rho.at_unif),
        "sigmaUnitLabel": rho.sigma_unit_label,
        "sigmaAtUnif": gauss_json(rho.sigma_at_unif),
    }


def parse_rep(d: Any, path: str = "rep") -> tuple[FieldPair, list[Segment]]:
    """Parse a representation descriptor WITHOUT the genericity check,
    so callers can report non-generic input instead of erroring.

    Characters are compared by (unitLabel, atUnif), so a segment whose
    character repeats an earlier label must agree with it: the same
    unitConductor for the same unitLabel, and the same sigma data for
    the same (unitLabel, atUnif). A conflict names the later field."""
    fp = parse_field(_get(d, "field", path), path + ".field")
    raw = _get(d, "segments", path)
    if not isinstance(raw, list):
        _fail(path + ".segments", "expected a list")
    if not raw:
        _fail(path + ".segments", "at least one segment is required (n >= 1)")
    segments = []
    conductors: dict[str, int] = {}
    sigmas: dict[tuple, tuple[str, GaussRat]] = {}
    for i, seg in enumerate(raw):
        spath = "%s.segments[%d]" % (path, i)
        k = _get(seg, "k", spath)
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            _fail(spath + ".k", "expected a positive integer")
        rpath = spath + ".rho"
        rho = parse_rho(_get(seg, "rho", spath), rpath)
        cond = conductors.setdefault(rho.unit_label, rho.unit_conductor)
        if cond != rho.unit_conductor:
            _fail(rpath + ".unitConductor", 'unitLabel "%s" has unitConductor %d in an earlier '
                  "segment, got %d" % (rho.unit_label, cond, rho.unit_conductor))
        sig_label, sig_at = sigmas.setdefault(rho.key(), (rho.sigma_unit_label, rho.sigma_at_unif))
        if sig_label != rho.sigma_unit_label:
            _fail(rpath + ".sigmaUnitLabel", 'conflicts with "%s" for the same character in an '
                  "earlier segment" % sig_label)
        if sig_at != rho.sigma_at_unif:
            _fail(rpath + ".sigmaAtUnif", "conflicts with %s for the same character in an "
                  "earlier segment" % sig_at)
        segments.append(Segment(rho, k))
    return fp, segments


def segment_json(seg: Segment) -> dict:
    return {"k": seg.k, "rho": rho_json(seg.rho)}


def rep_json(rep: GenericRep) -> dict:
    return {
        "field": field_json(rep.fp),
        "segments": [segment_json(s) for s in rep.segments],
    }


def load_rep_file(path: str) -> tuple[FieldPair, list[Segment]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DescriptorError("cannot read %s: %s" % (path, exc)) from None
    except ValueError as exc:  # JSONDecodeError, or an integer past the int-to-str limit
        raise DescriptorError("%s: invalid JSON (%s)" % (path, exc)) from None
    return parse_rep(data)


def coeff_json(c: GaussRat) -> dict:
    return {"a": gauss_json(c), "b": ["0/1", "0/1"]}


def poly_json(p: Poly) -> list[dict]:
    return [coeff_json(c) for c in p.coeffs]


def ratfunc_json(rf: RatFunc) -> dict:
    return {"num": poly_json(rf.num), "den": poly_json(rf.den)}


_COEFF_TEXT = '{"a": ["%d/%d", "%d/%d"], "b": ["0/1", "0/1"]}'
_ZERO_TEXT = _COEFF_TEXT % (0, 1, 0, 1)
_ONE_TEXT = _COEFF_TEXT % (1, 1, 0, 1)


def graded_texts(re: list, im: list, scale: int) -> list[str]:
    """The json.dumps text of each coefficient (re[m] + im[m]*i) /
    scale^m of a scaled coefficient list, such as packed_product
    returns, trailing zero coefficients dropped: "[%s]" % ", ".join of
    them is json.dumps(poly_json(Poly(graded(re, im, scale)))), with no
    GaussRat or dict on the way. Each part is put in lowest terms over
    scale^m by its own gcd, as gauss_json does."""
    n = len(re)
    while n and not (re[n - 1] or im[n - 1]):
        n -= 1
    out = []
    den = 1
    for x, y in zip(re[:n], im[:n]):
        g, h = gcd(x, den), gcd(y, den)
        out.append(_COEFF_TEXT % (x // g, den // g, y // h, den // h))
        den *= scale
    return out


def reciprocal_text(texts: list[str], f: int = 1) -> str:
    """The json.dumps text of ratfunc_json(1/P) for the polynomial P
    whose coefficient texts are texts (graded_texts, constant term 1),
    after t -> t^f: f - 1 zero coefficients between terms."""
    sep = ", " + (_ZERO_TEXT + ", ") * (f - 1)
    return '{"num": [%s], "den": [%s]}' % (_ONE_TEXT, sep.join(texts))


def series_json(s: Series) -> list[dict]:
    return [coeff_json(c) for c in s.coeffs]


def value_str(x: GaussRat | None) -> str:
    """Value string: "pole" for a pole, canonical "p/q" for a real
    value, "p/q+r/si" otherwise."""
    if x is None:
        return "pole"
    return str(x)
