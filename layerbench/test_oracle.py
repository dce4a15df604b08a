"""Tests of the benchmark's oracle, generator and span aggregation.

    python3 -m pytest layerbench/test_oracle.py

The oracle tests need nothing but the standard library. The last group
runs the package's CLI (from ./src) and is skipped when it is absent.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import tracing
import workloads
from oracle import ONE, ClosedForm, gauss_json

ROOT = Path(__file__).resolve().parent.parent


def unram(value, k=1):
    return {"k": k, "rho": {"unitLabel": "triv", "unitConductor": 0, "atUnif": list(value)}}


STEINBERG_UNRAM = {"field": {"qF": 2, "ramified": False}, "segments": [unram(("1/1", "0/1"), 2)]}
STEINBERG_RAM = {"field": {"qF": 3, "ramified": True}, "segments": [unram(("1/1", "0/1"), 2)]}
UNITARY = {
    "field": {"qF": 2, "ramified": False},
    "segments": [unram(("3/5", "4/5")), unram(("3/5", "-4/5"))],
}
OMEGA_GL2 = {
    "field": {"qF": 2, "ramified": False},
    "segments": [unram(("1/2", "0/1")), unram(("1/3", "0/1"))],
}


def scalar(g):
    return {"a": gauss_json(g), "b": ["0/1", "0/1"]}


def ratfunc(num, den):
    return {"num": [scalar(c) for c in num], "den": [scalar(c) for c in den]}


def period_output(desc, order, form=None):
    """A correct `period` output, in the package's JSON shape."""
    want = oracle.period_form(desc)
    form = form or want
    rf = ratfunc(form.numerator, form.denominator())
    return {
        "series": [scalar(c) for c in want.series(order)],
        "reconstructed": rf,
        "closedForm": rf,
        "match": True,
        "valueAt1": oracle.value_at_1(form, desc["field"]),
    }


@pytest.mark.parametrize("desc, value", [
    (STEINBERG_UNRAM, "2/1"),
    (STEINBERG_RAM, "3/2"),
    (UNITARY, "20/13"),
])
def test_hand_known_values_at_s1(desc, value):
    assert oracle.value_at_1(oracle.period_form(desc), desc["field"]) == value


def test_pole_cancelled_by_the_tate_factor_is_a_value():
    # omega(unif_F) = 4 = qF^2 cancels the factor (1 - 4 t^2), which
    # vanishes at t = 1/2: the period is 1/((1 - 8t)(1 - t/2)) there
    gl2 = {"field": {"qF": 2, "ramified": False},
           "segments": [unram(("8/1", "0/1")), unram(("1/2", "0/1"))]}
    assert oracle.value_at_1(oracle.period_form(gl2), gl2["field"]) == "-4/9"
    gl1 = {"field": {"qF": 2, "ramified": False}, "segments": [unram(("2/1", "0/1"))]}
    assert oracle.value_at_1(oracle.period_form(gl1), gl1["field"]) == "1/1"
    assert oracle.value_at_1(oracle.asai_form(gl1), gl1["field"]) == "pole"


def test_unitary_series_is_the_reduced_closed_form():
    # (1 - t^2) / ((1 - a t)(1 - conj(a) t)(1 - t^2)) = 1 / (1 - 6/5 t + t^2)
    got = oracle.period_form(UNITARY).series(12)
    s = [ONE, (Fraction(6, 5), Fraction(0))]
    for k in range(2, 13):
        s.append(oracle.g_sub(oracle.g_mul((Fraction(6, 5), Fraction(0)), s[k - 1]), s[k - 2]))
    assert got == s
    den = [ONE, (Fraction(-6, 5), Fraction(0)), ONE]
    assert oracle.period_form(UNITARY).equals([ONE], den)
    assert not oracle.period_form(UNITARY).equals([ONE], den[:2])


def test_correct_output_passes_and_one_altered_coefficient_fails():
    obj = period_output(UNITARY, 20)
    assert oracle.check_period(UNITARY, 20, obj) == []
    bad = json.loads(json.dumps(obj))
    bad["series"][7]["a"][0] = "%s/1" % (int(bad["series"][7]["a"][0].split("/")[0]) + 1)
    problems = oracle.check_period(UNITARY, 20, bad)
    assert problems and problems[0].startswith("series[7]")


def test_sqrt_component_must_vanish():
    obj = period_output(UNITARY, 10)
    obj["series"][3]["b"] = ["1/1", "0/1"]
    assert oracle.check_period(UNITARY, 10, obj)[0].startswith("series[3]")


def test_cross_multiplication_accepts_any_scaling():
    form = oracle.asai_form(UNITARY)
    two = (Fraction(2), Fraction(0))
    num = [two]
    den = [oracle.g_mul(two, c) for c in form.denominator()]
    assert oracle._ratfunc_ok(ratfunc(num, den), form)
    den[1] = oracle.g_add(den[1], ONE)
    assert not oracle._ratfunc_ok(ratfunc(num, den), form)


def test_omega_defect_fails_only_closed_form_fields():
    # the (1 - t^n) closed form the package uses for unramified reps
    asai = oracle.asai_form(OMEGA_GL2)
    wrong = ClosedForm(asai.factors, oracle.one_minus(ONE, 2))
    obj = period_output(OMEGA_GL2, 30, wrong)
    obj["match"] = False
    problems = oracle.check_period(OMEGA_GL2, 30, obj)
    assert problems
    assert all(p.startswith(("closedForm", "reconstructed", "match", "valueAt1")) for p in problems)
    assert oracle.value_at_1(oracle.period_form(OMEGA_GL2), OMEGA_GL2["field"]) == "8/5"


def test_rs_factors_in_t_and_t_E():
    other = {"field": UNITARY["field"], "segments": [unram(("2/1", "0/1"))]}
    alphas, betas = oracle.pi_u(UNITARY), oracle.pi_u(other)
    obj = {
        "field": UNITARY["field"],
        "piU": ["3/5+4/5i", "3/5-4/5i"],
        "asai": ratfunc([ONE], oracle.asai_form(UNITARY).denominator()),
        "rs": {
            "tE": ratfunc([ONE], ClosedForm(oracle.rs_factors(alphas, betas, 1)).denominator()),
            "t": ratfunc([ONE], ClosedForm(oracle.rs_factors(alphas, betas, 2)).denominator()),
        },
    }
    assert oracle.check_lfactor(UNITARY, other, obj) == []
    obj["rs"]["t"] = obj["rs"]["tE"]
    assert oracle.check_lfactor(UNITARY, other, obj) == ["rs.t"]


def test_segment_semantics():
    assert oracle.conductor(STEINBERG_UNRAM) == 1
    assert oracle.is_conjugate_selfdual(UNITARY)
    assert oracle.holomorphy_witness(UNITARY)
    linked = {"field": {"qF": 2, "ramified": False},
              "segments": [unram(("1/1", "0/1")), unram(("1/4", "0/1"))]}
    assert not oracle.is_generic(linked)
    assert oracle.is_generic(UNITARY)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_seeded_and_generic(workload):
    ops = workloads.build(workload, 5)
    assert ops == workloads.build(workload, 5)
    assert ops != workloads.build(workload, 6)
    assert len({op["id"] for op in ops}) == len(ops)
    descs = [json.dumps(d, sort_keys=True) for op in ops for d in op["descs"].values()]
    assert len(set(descs)) == len(descs)
    assert all(oracle.is_generic(d) for op in ops for d in op["descs"].values())


def test_omega_set_is_fixed_and_nontrivial():
    a = [op for op in workloads.build("check-corpus", 1) if op["known_fault"]]
    b = [op for op in workloads.build("check-corpus", 2) if op["known_fault"]]
    assert a == b and len(a) == len(workloads.OMEGA_NONTRIVIAL)
    assert all(oracle.omega_at_unif_F(op["descs"]["rep"]) != ONE for op in a)


def test_metric_names_and_units_match_benchmark_json():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_aggregate_self_and_inclusive_times():
    spans = [
        (0, "cli.main", 0.0, 10.0, -1, True),
        (0, "periods.lattice", 1.0, 9.0, 0, True),
        (0, "whittaker.value", 2.0, 5.0, 1, True),
        (0, "whittaker.value", 3.0, 4.0, 2, False),
    ]
    got = tracing.aggregate(spans)
    assert got["cli.self_s"] == 2.0
    assert got["periods.lattice_self_s"] == 5.0
    assert got["whittaker.value_s"] == 3.0
    assert got["whittaker.value_calls"] == 1
    assert tracing.lattice_share(spans) == 0.8


# -- against the package's CLI ------------------------------------------

needs_package = pytest.mark.skipif(not (ROOT / "src" / "asaiperiods").is_dir(),
                                   reason="package source not present")


def run_cli(tmp_path, desc, *args):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(desc), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), ASAIPERIODS_RATIONAL="fraction")
    return subprocess.run([sys.executable, "-m", "asaiperiods", args[0], "--rep", str(path),
                           *args[1:]], capture_output=True, text=True, env=env)


@needs_package
def test_real_period_output_passes_and_altered_copy_fails(tmp_path):
    res = run_cli(tmp_path, UNITARY, "period", "--order", "20")
    op = {"cmd": "period", "order": 20}
    assert oracle.check_op(op, {"rep": UNITARY}, res.returncode, res.stdout) == []
    obj = json.loads(res.stdout)
    obj["series"][5]["a"][1] = "1/7"
    assert oracle.check_op(op, {"rep": UNITARY}, 0, json.dumps(obj))


@needs_package
def test_real_omega_defect_is_seen(tmp_path):
    res = run_cli(tmp_path, OMEGA_GL2, "period", "--order", "30")
    problems = oracle.check_op({"cmd": "period", "order": 30}, {"rep": OMEGA_GL2},
                               res.returncode, res.stdout)
    # today closedForm, match and valueAt1 fail; the series never may
    assert all(p.startswith(("closedForm", "reconstructed", "match", "valueAt1"))
               for p in problems)
