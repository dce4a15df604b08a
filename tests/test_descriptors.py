"""JSON descriptor round trips and error-path diagnostics."""

import json
import random

import pytest

from asaiperiods.rational import rat
from asaiperiods.scalars import GaussRat
from asaiperiods.series import Poly, Series, graded
from asaiperiods.ratfunc import RatFunc, packed_product
from asaiperiods.localfields import FieldPair
from asaiperiods.segments import GenericRep, MultChar, Segment
from asaiperiods.descriptors import (
    DescriptorError,
    coeff_json,
    field_json,
    gauss_json,
    graded_texts,
    load_rep_file,
    parse_field,
    parse_gauss,
    parse_rep,
    parse_rho,
    poly_json,
    ratfunc_json,
    reciprocal_text,
    rep_json,
    series_json,
    value_str,
)


def g(p, q=1, ip=0, iq=1):
    return GaussRat(rat(p, q), rat(ip, iq))


def test_gauss_round_trip():
    z = g(3, 5, -4, 5)
    assert parse_gauss(gauss_json(z), "x") == z


def test_parse_gauss_error_paths():
    with pytest.raises(DescriptorError, match=r"x\[1\]"):
        parse_gauss(["1/2", 3], "x")
    with pytest.raises(DescriptorError, match="x:"):
        parse_gauss("1/2", "x")


def test_field_round_trip():
    for fp in (FieldPair(2, False), FieldPair(3, True, 2)):
        assert parse_field(field_json(fp)) == fp


def test_parse_field_diagnostics_name_the_field():
    with pytest.raises(DescriptorError, match="field.qF"):
        parse_field({"qF": True, "ramified": False})
    with pytest.raises(DescriptorError, match="field.ramified"):
        parse_field({"qF": 2, "ramified": 1})
    with pytest.raises(DescriptorError, match="missing"):
        parse_field({"qF": 2})


def test_rho_round_trip_unramified_defaults():
    d = {"unitLabel": "triv", "unitConductor": 0, "atUnif": ["3/1", "0/1"]}
    rho = parse_rho(d, "rho")
    assert rho == MultChar.unramified(g(3))
    assert rho.sigma_at_unif == g(3)


def test_rho_ramified_requires_sigma_data():
    d = {"unitLabel": "eta", "unitConductor": 1, "atUnif": ["3/1", "0/1"]}
    with pytest.raises(DescriptorError, match="sigma"):
        parse_rho(d, "rho")


def test_rep_round_trip():
    rep = GenericRep(FieldPair(2, False), (
        Segment(MultChar.unramified(g(3)), 1),
        Segment(MultChar("eta", 1, g(2), "etaS", g(5)), 2),
    ))
    fp, segs = parse_rep(rep_json(rep))
    assert GenericRep(fp, tuple(segs)) == rep


def test_parse_rep_requires_segments():
    with pytest.raises(DescriptorError, match="at least one segment"):
        parse_rep({"field": {"qF": 2, "ramified": False}, "segments": []})


def test_parse_rep_names_offending_segment():
    d = {"field": {"qF": 2, "ramified": False},
         "segments": [
             {"k": 1, "rho": {"unitLabel": "triv", "unitConductor": 0, "atUnif": ["1/1", "0/1"]}},
             {"k": 0, "rho": {"unitLabel": "triv", "unitConductor": 0, "atUnif": ["1/1", "0/1"]}},
         ]}
    with pytest.raises(DescriptorError, match=r"segments\[1\].k"):
        parse_rep(d)


def test_load_rep_file_errors(tmp_path):
    with pytest.raises(DescriptorError, match="cannot read"):
        load_rep_file(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(DescriptorError, match="invalid JSON"):
        load_rep_file(str(bad))


def test_value_serializations():
    x = g(3, 2)
    assert value_str(x) == "3/2"
    assert value_str(GaussRat(rat(1, 2), rat(-3))) == "1/2-3/1i"
    assert value_str(None) == "pole"
    # the "b" slot of a coefficient is always zero
    assert coeff_json(x) == {"a": ["3/2", "0/1"], "b": ["0/1", "0/1"]}
    p = Poly([1, -1])
    assert poly_json(p) == [coeff_json(g(1)), coeff_json(g(-1))]
    rf = RatFunc(Poly([1]), p)
    assert ratfunc_json(rf) == {"num": poly_json(Poly([1])), "den": poly_json(p)}
    s = Series((g(1), g(2)))
    assert series_json(s) == [coeff_json(g(1)), coeff_json(g(2))]
    # everything stays JSON-serializable
    json.dumps(ratfunc_json(rf))


def random_factor_list(rng):
    """0-49 factors (c, k), k = 1..4, with zero, real, imaginary and
    complex c; numerators up to 2^90 and denominators up to 2^70 on
    short lists, small denominators on long ones."""
    n = rng.randint(0, 49)
    bits = rng.choice((4, 12, 90) if n <= 4 else (2, 4, 8))
    factors = []
    for _ in range(n):
        kind = rng.choice(("zero", "real", "imaginary", "complex"))
        den = rng.randint(1, 2 ** rng.choice((4, 70))) if n <= 4 else rng.choice((1, 2, 3, 4, 6))
        re = 0 if kind in ("zero", "imaginary") else rng.randint(-2 ** bits, 2 ** bits)
        im = 0 if kind in ("zero", "real") else rng.randint(-2 ** bits, 2 ** bits)
        factors.append((g(re, den, im, den), rng.randint(1, 4)))
    return factors


def random_scaled_series(rng):
    """(re, im, scale) of 1-41 coefficients over scale 1, small or up to
    2^100, with zero, negative and shared-factor parts and runs of
    trailing zeros."""
    size = rng.randint(1, 41)
    scale = rng.choice((1, rng.randint(2, 30), rng.randint(2, 2 ** 100)))
    re, im = [], []
    for d in range(size):
        parts = []
        for _ in range(2):
            kind = rng.choice(("zero", "small", "big", "multiple"))
            x = {"zero": 0, "small": rng.randint(-9, 9), "big": rng.randint(-2 ** 150, 2 ** 150),
                 "multiple": rng.randint(-9, 9) * scale ** rng.randint(0, d)}[kind]
            parts.append(x)
        re.append(parts[0])
        im.append(parts[1])
    zeros = rng.choice((0, 0, 1, size))
    for d in range(size - zeros, size):
        re[d] = im[d] = 0
    return re, im, scale


def test_untrimmed_graded_texts_are_the_json_of_the_series():
    # period writes its series with trim=False: every coefficient through
    # the order, trailing zeros included, as series_json writes it; the
    # trimmed texts that lfactor writes stay those of the Poly
    rng = random.Random(3303)
    cases = [([1] + [0] * order, [0] * (order + 1), 1) for order in (0, 1, 7, 40)]
    cases += [([0, 0, 0], [0, 0, 0], 5), ([3, -6, 0, 12], [0, 9, -4, 0], 1),
              ([1, 2 ** 200, -(3 ** 90)], [-1, 0, 7 * (2 ** 61 - 1) ** 2], 2 ** 61 - 1)]
    cases += [random_scaled_series(rng) for _ in range(500)]
    for re, im, scale in cases:
        coeffs = graded(re, im, scale)
        texts = graded_texts(re, im, scale, trim=False)
        assert len(texts) == len(re)
        assert "[%s]" % ", ".join(texts) == json.dumps(series_json(Series(coeffs)))
        trimmed = "[%s]" % ", ".join(graded_texts(re, im, scale))
        assert trimmed == json.dumps(poly_json(Poly(coeffs)))
    # a rank-0 period series keeps every coefficient
    assert len(graded_texts([1] + [0] * 40, [0] * 41, 1, trim=False)) == 41
    assert graded_texts([1] + [0] * 40, [0] * 41, 1) == ['{"a": ["1/1", "0/1"], "b": ["0/1", "0/1"]}']


def test_graded_texts_are_the_json_of_the_factor_product():
    # the text route writes the bytes json.dumps writes for the RatFunc
    # route, in t_E and spread to t, t_E = t^2
    rng = random.Random(2909)
    cases = [[], [(g(0), 3)], [(g(1), 1), (g(-1), 1)], [(g(0), 2), (g(0, 1, 1, 2), 1)]]
    cases += [random_factor_list(rng) for _ in range(2000)]
    for factors in cases:
        texts = graded_texts(*packed_product(factors))
        rf = RatFunc.from_factors(factors)
        assert reciprocal_text(texts) == json.dumps(ratfunc_json(rf))
        spread = RatFunc.from_factors([(c, 2 * k) for c, k in factors])
        assert reciprocal_text(texts, 2) == json.dumps(ratfunc_json(spread))
