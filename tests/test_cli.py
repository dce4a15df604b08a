"""End-to-end CLI behavior through real subprocesses: exit codes, JSON
shape, table mode, determinism and import footprint. A test that
patches the library calls cli.main in process instead."""

import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from asaiperiods import cli, corpus, lfactors, periods, segments
from asaiperiods.descriptors import (
    DescriptorError,
    graded_texts,
    load_rep_file,
    ratfunc_json,
    reciprocal_text,
    rep_json,
)
from asaiperiods.lfactors import asai_L, asai_factor_list, rs_L, rs_factor_list
from asaiperiods.ratfunc import RatFunc, packed_product
from asaiperiods.scalars import GaussRat
from asaiperiods.segments import GenericRep, NotGenericError, pi_u
from asaiperiods.series import Poly, Series
from corpora import module_as_rep

STEINBERG = {
    "field": {"qF": 2, "ramified": False},
    "segments": [
        {"k": 2, "rho": {"unitLabel": "triv", "unitConductor": 0, "atUnif": ["1/1", "0/1"]}}
    ],
}

UNITARY = {
    "field": {"qF": 2, "ramified": False},
    "segments": [
        {"k": 1, "rho": {"unitLabel": "triv", "unitConductor": 0, "atUnif": ["3/5", "4/5"]}},
        {"k": 1, "rho": {"unitLabel": "triv", "unitConductor": 0, "atUnif": ["3/5", "-4/5"]}},
    ],
}

GOLDEN = Path(__file__).parent / "golden"

LINKED = {
    "field": {"qF": 2, "ramified": False},
    "segments": [
        {"k": 1, "rho": {"unitLabel": "triv", "unitConductor": 0, "atUnif": ["1/1", "0/1"]}},
        {"k": 1, "rho": {"unitLabel": "triv", "unitConductor": 0, "atUnif": ["1/4", "0/1"]}},
    ],
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "asaiperiods", *args],
        capture_output=True, text=True, env=dict(os.environ),
    )


@pytest.fixture
def descriptor(tmp_path):
    def write(payload, name="rep.json"):
        p = tmp_path / name
        p.write_text(json.dumps(payload), encoding="utf-8")
        return str(p)
    return write


def test_segments_report(descriptor):
    res = run_cli("segments", "--rep", descriptor(STEINBERG))
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["generic"] is True
    assert out["piU"] == ["1/1"]
    assert out["conductor"] == 1
    assert out["conjugateSelfDual"] is True
    assert out["asaiHolomorphicWitness"] is True


def test_segments_non_generic_is_graceful(descriptor):
    res = run_cli("segments", "--rep", descriptor(LINKED))
    assert res.returncode == 0
    assert json.loads(res.stdout) == {"generic": False}


def test_segments_witness_null_when_not_csd(descriptor):
    lone = {
        "field": {"qF": 2, "ramified": False},
        "segments": [
            {"k": 1, "rho": {"unitLabel": "triv", "unitConductor": 0, "atUnif": ["3/1", "0/1"]}}
        ],
    }
    res = run_cli("segments", "--rep", descriptor(lone))
    out = json.loads(res.stdout)
    assert out["conjugateSelfDual"] is False
    assert out["asaiHolomorphicWitness"] is None


def test_period_unitary_value(descriptor):
    res = run_cli("period", "--rep", descriptor(UNITARY), "--order", "25")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["match"] is True
    assert out["valueAt1"] == "20/13"
    assert out["reconstructed"] is not None
    assert len(out["series"]) == 26


def test_period_at_s(descriptor):
    res = run_cli("period", "--rep", descriptor(STEINBERG), "--at-s", "2")
    out = json.loads(res.stdout)
    assert out["valueAtS"] == "4/3"


def test_period_at_s_rejects_non_positive(descriptor):
    res = run_cli("period", "--rep", descriptor(STEINBERG), "--at-s", "0")
    assert res.returncode == 2
    assert "positive integer" in res.stderr


@pytest.mark.parametrize("argv, message", [
    # --at-s is checked before --order
    (["period", "--order", "0", "--at-s", "x"],
     "--at-s: expected a positive integer, got 'x'"),
    (["period", "--at-s", "0"], "--at-s: expected a positive integer, got '0'"),
    (["period", "--at-s", "-3"], "--at-s: expected a positive integer, got '-3'"),
    (["period", "--at-s", "1.5"], "--at-s: expected a positive integer, got '1.5'"),
    (["period", "--order", "0"], "--order: must be >= 1"),
    (["lfactor", "--order", "0"], "--order: must be >= 1"),
    (["segments", "--order", "0"], "--order: must be >= 1"),
    (["verify", "--order", "0"], "--order: must be >= 1"),
])
def test_option_errors_exit_2_with_one_line(descriptor, capsys, argv, message):
    argv = argv[:1] + ["--rep", descriptor(STEINBERG)] + argv[1:]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "input error: %s\n" % message)


def test_period_on_linked_input_exits_3(descriptor):
    res = run_cli("period", "--rep", descriptor(LINKED))
    assert res.returncode == 3
    assert "not generic" in res.stderr


def test_lfactor_json_and_against(descriptor):
    path = descriptor(UNITARY)
    res = run_cli("lfactor", "--rep", path, "--against", path)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert "asai" in out and "rs" in out
    assert out["field"] == {"qF": 2, "ramified": False, "extConductor": None}


def test_lfactor_against_field_mismatch(descriptor):
    ram = {
        "field": {"qF": 2, "ramified": True, "extConductor": 1},
        "segments": [
            {"k": 1, "rho": {"unitLabel": "triv", "unitConductor": 0, "atUnif": ["3/1", "0/1"]}}
        ],
    }
    res = run_cli("lfactor", "--rep", descriptor(UNITARY), "--against",
                  descriptor(ram, "other.json"))
    assert res.returncode == 2
    assert "field pair" in res.stderr


def test_input_error_names_offending_field(descriptor):
    bad = {"field": {"qF": 6, "ramified": False}, "segments": STEINBERG["segments"]}
    res = run_cli("lfactor", "--rep", descriptor(bad))
    assert res.returncode == 2
    assert "q_F" in res.stderr


def test_q_F_at_2_64_exits_2(descriptor):
    bad = {"field": {"qF": 2**64, "ramified": False}, "segments": STEINBERG["segments"]}
    res = run_cli("lfactor", "--rep", descriptor(bad))
    assert res.returncode == 2
    assert "field.qF" in res.stderr and "2^64" in res.stderr


def eta_segment(cond, at, sigma_label, sigma_at):
    return {"k": 1, "rho": {"unitLabel": "eta", "unitConductor": cond, "atUnif": [at, "0/1"],
                            "sigmaUnitLabel": sigma_label, "sigmaAtUnif": [sigma_at, "0/1"]}}


def test_unit_label_with_two_conductors_exits_2(descriptor):
    bad = {"field": {"qF": 3, "ramified": False},
           "segments": [eta_segment(1, "2/1", "eta", "2/1"), eta_segment(3, "2/1", "eta2", "5/1")]}
    res = run_cli("segments", "--rep", descriptor(bad))
    assert res.returncode == 2
    assert "rep.segments[1].rho.unitConductor" in res.stderr
    assert res.stdout == ""


def test_same_character_with_two_sigma_data_exits_2(descriptor):
    first = eta_segment(1, "2/1", "eta", "2/1")
    cases = (("rep.segments[1].rho.sigmaUnitLabel", eta_segment(1, "2/1", "eta2", "2/1")),
             ("rep.segments[1].rho.sigmaAtUnif", eta_segment(1, "2/1", "eta", "5/1")))
    for i, (field, second) in enumerate(cases):
        bad = {"field": {"qF": 3, "ramified": False}, "segments": [first, second]}
        res = run_cli("segments", "--rep", descriptor(bad, "rep%d.json" % i))
        assert res.returncode == 2
        assert field in res.stderr
    # a label that comes back at another value at the uniformizer is
    # another character, and its sigma data may differ
    ok = {"field": {"qF": 3, "ramified": False},
          "segments": [first, eta_segment(1, "7/1", "eta2", "5/1")]}
    res = run_cli("segments", "--rep", descriptor(ok, "ok.json"))
    assert res.returncode == 0
    assert json.loads(res.stdout)["generic"] is True


@pytest.mark.parametrize("module", ["asaiperiods.cli", "asaiperiods"])
def test_import_loads_no_dataclasses_inspect_or_corpus(module):
    # nor fractions (with its decimal and numbers): GaussRat is plain ints
    # only what the import adds counts: the interpreter's own start-up
    # (site and its .pth hooks) may load anything
    code = ("import sys; before = set(sys.modules); import %s; "
            "print(' '.join(sorted(set(sys.modules) - before)))" % module)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ))
    assert res.returncode == 0, res.stderr
    added = set(res.stdout.split())
    assert module in added
    assert not added & {"dataclasses", "inspect", "asaiperiods.corpus",
                        "fractions", "decimal", "numbers"}


def test_missing_file_exits_2():
    res = run_cli("lfactor", "--rep", "/nonexistent/rep.json")
    assert res.returncode == 2
    assert "cannot read" in res.stderr


def test_verify_suite_passes_and_emits_json_lines():
    res = run_cli("verify", "--suite", "theorem1", "--order", "25")
    assert res.returncode == 0
    lines = [json.loads(line) for line in res.stdout.splitlines()]
    assert all(line["pass"] for line in lines)
    assert any(line["check"] == "unitary-gl2" and line["valueAt1"] == "20/13"
               for line in lines)


def unramified_module_rep(*values):
    """Descriptor of the unramified rep induced from GL(1) characters
    with the given (unlinked) values at the uniformizer, qF = 2."""
    return {
        "field": {"qF": 2, "ramified": False},
        "segments": [
            {"k": 1, "rho": {"unitLabel": "triv", "unitConductor": 0,
                             "atUnif": ["%d/1" % v, "0/1"]}}
            for v in values
        ],
    }


def certifying_order_named(stderr):
    found = re.search(r"smallest order that certifies is (\d+)", stderr)
    assert found, stderr
    return int(found.group(1))


@pytest.mark.parametrize("with_rep, low", [(True, "1"), (False, "3"), (False, "1")],
                         ids=["rank2-rep", "corpus", "corpus-order1"])
def test_verify_theorem1_order_too_small_exits_2(descriptor, with_rep, low):
    # at order 1 the first corpus check to fail needs order 2, another 5
    rep_args = ["--rep", descriptor(UNITARY)] if with_rep else []
    res = run_cli("verify", "--suite", "theorem1", *rep_args, "--order", low)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "--order" in res.stderr and "Traceback" not in res.stderr
    need = certifying_order_named(res.stderr)
    # the named order certifies every check of the suite, one less does not
    assert run_cli("verify", "--suite", "theorem1", *rep_args,
                   "--order", str(need)).returncode == 0
    short = run_cli("verify", "--suite", "theorem1", *rep_args, "--order", str(need - 1))
    assert short.returncode == 2
    assert certifying_order_named(short.stderr) == need


def test_verify_all_order_too_small_prints_no_partial_report():
    res = run_cli("verify", "--suite", "all", "--order", "3")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "--order" in res.stderr and "Traceback" not in res.stderr
    assert certifying_order_named(res.stderr) == 5


def test_period_order_too_small_names_order(descriptor):
    res = run_cli("period", "--rep", descriptor(UNITARY), "--order", "1")
    assert res.returncode == 2
    assert "--order" in res.stderr and "Traceback" not in res.stderr
    need = certifying_order_named(res.stderr)
    assert run_cli("period", "--rep", descriptor(UNITARY), "--order", str(need)).returncode == 0


def test_period_work_cap_exits_2_fast(descriptor, capsys):
    # rank 5: the mirabolic sum runs over partitions with at most 4 parts
    path = descriptor(unramified_module_rep(3, 5, 7, 11, 13))
    start = time.perf_counter()
    code = cli.main(["period", "--rep", path, "--order", "100000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert elapsed < 1.0
    assert captured.out == ""
    assert "--order" in captured.err and "rank 4" in captured.err


def test_identities_work_cap_on_high_rank_rep(descriptor):
    # identities truncate at order 20, but a rank-14 Littlewood sum at
    # order 20 is still past the cap
    path = descriptor(unramified_module_rep(3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))
    res = run_cli("verify", "--suite", "identities", "--rep", path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "--order" in res.stderr and "rank 14" in res.stderr
    assert "Traceback" not in res.stderr


SKEW = {
    "field": {"qF": 2, "ramified": False},
    "segments": [
        {"k": 1, "rho": {"unitLabel": "triv", "unitConductor": 0, "atUnif": ["8/1", "0/1"]}},
        {"k": 1, "rho": {"unitLabel": "triv", "unitConductor": 0, "atUnif": ["1/2", "0/1"]}},
    ],
}


def test_verify_failure_reports_first_fail_index(descriptor, monkeypatch, capsys):
    # central restriction omega(unif_F) = 4: the closed form carries
    # (1 - 4t^2), which cancels a pair factor of the Asai factor, and the
    # check passes with the edge value of the reduced form
    path = descriptor(SKEW)
    argv = ["verify", "--suite", "theorem1", "--rep", path, "--order", "20"]
    assert cli.main(argv) == 0
    line = json.loads(capsys.readouterr().out.splitlines()[0])
    assert line["pass"] is True
    assert line["valueAt1"] == "-4/9"
    assert "firstFailIndex" not in line
    # with the closed form swapped for asai * (1 - t^2), which ignores the
    # central character, the lattice sum diverges at t^2: the suite must
    # fail and name that index
    monkeypatch.setattr(periods, "closed_form_for", trivial_center_form)
    assert cli.main(argv) == 1
    line = json.loads(capsys.readouterr().out.splitlines()[0])
    assert line["pass"] is False
    assert line["firstFailIndex"] == 2


def trivial_center_form(rep):
    return asai_L(pi_u(rep)) * Poly.one_minus(GaussRat(1), rep.n)


def test_verify_failure_table_row(descriptor, monkeypatch, capsys):
    # the failing row of the test above, as a table: the swapped form has
    # a pole at s=1, and the row names the first failing index after it
    monkeypatch.setattr(periods, "closed_form_for", trivial_center_form)
    argv = ["verify", "--suite", "theorem1", "--rep", descriptor(SKEW), "--order", "20",
            "--output", "table"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().out == "[theorem1] user-rep: FAIL valueAt1=pole firstFailIndex=2\n"


def test_verify_reads_its_descriptor_once(descriptor, monkeypatch, capsys):
    # every suite checks --rep, and verify hands each the one it loaded
    reads = []

    def counted(path):
        reads.append(path)
        return load_rep_file(path)

    monkeypatch.setattr(cli, "load_rep_file", counted)
    path = descriptor(UNITARY)
    assert cli.main(["verify", "--suite", "all", "--rep", path, "--order", "12"]) == 0
    assert reads == [path]


def test_lfactor_sizes_each_descriptor_once(descriptor, monkeypatch, capsys):
    # the size check of each descriptor builds its pi_u and bits once,
    # and the --against cap reuses them
    calls = []
    for module, name in ((cli, "pi_u"), (segments, "pi_u"),
                         (cli, "coefficient_bits"), (periods, "coefficient_bits")):
        def counted(*args, fn=getattr(module, name), name=name):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(module, name, counted)
    path = descriptor(UNITARY)
    code, out, err, _ = run_fast(["lfactor", "--rep", path, "--against", path], capsys)
    assert (code, err) == (0, "") and "rs" in json.loads(out)
    assert sorted(calls) == ["coefficient_bits"] * 2 + ["pi_u"] * 2


def test_period_nontrivial_central_character(descriptor):
    # closed form asai * (1 - omega(unif_F) t^n), reduced before the edge
    # value: omega = 1/6 gives 1/((1 - t/2)(1 - t/3)); for GL(1) with
    # Satake value 2 = q_F and for SKEW (omega = 4) the central factor
    # cancels the Asai pole at s=1
    def unram(*vals):
        return {"field": {"qF": 2, "ramified": False}, "segments": [
            {"k": 1, "rho": {"unitLabel": "triv", "unitConductor": 0, "atUnif": [v, "0/1"]}}
            for v in vals]}
    cases = ((unram("1/2", "1/3"), "8/5"), (unram("2/1"), "1/1"), (SKEW, "-4/9"))
    for i, (payload, value) in enumerate(cases):
        res = run_cli("period", "--rep", descriptor(payload, "rep%d.json" % i), "--order", "20")
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["match"] is True
        assert out["valueAt1"] == value


def test_verify_table_mode():
    res = run_cli("verify", "--suite", "cpi", "--output", "table")
    assert res.returncode == 0
    assert "PASS" in res.stdout
    assert "{" not in res.stdout


def test_output_is_deterministic():
    a = run_cli("verify", "--suite", "identities")
    b = run_cli("verify", "--suite", "identities")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


# -- hostile sizes: refused before the sum or the evaluation ---------------

GL2_SMALL = {
    "field": {"qF": 2, "ramified": False},
    "segments": [
        {"k": 1, "rho": {"unitLabel": "triv", "unitConductor": 0, "atUnif": ["1/2", "0/1"]}},
        {"k": 1, "rho": {"unitLabel": "triv", "unitConductor": 0, "atUnif": ["1/3", "0/1"]}},
    ],
}


def with_satake(value, index=0, payload=GL2_SMALL):
    out = json.loads(json.dumps(payload))
    out["segments"][index]["rho"]["atUnif"] = value
    return out


def run_fast(argv, capsys):
    """cli.main in process: (exit code, stdout, stderr, seconds)."""
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    return code, captured.out, captured.err, elapsed


def rs_L_in_t(m1, m2):
    """The Rankin-Selberg factor in t: its factor list in t_E spread
    by t_E = t^f, one product."""
    return RatFunc.from_factors([(c, m1.fp.f * k) for c, k in rs_factor_list(m1, m2)])


def largest_named(stderr, what):
    return int(re.search(r"the largest %s for this \w+ is (\d+)" % what, stderr).group(1))


@pytest.mark.parametrize("argv, flag, what", [
    (["--order", "6000"], "--order", "order"),
    (["--order", "5", "--at-s", "10000"], "--at-s", "s"),
    (["--order", "5", "--at-s", "1000000"], "--at-s", "s"),
])
def test_hostile_order_and_at_s_exit_2_fast(descriptor, capsys, argv, flag, what):
    path = descriptor(GL2_SMALL)
    code, out, err, elapsed = run_fast(["period", "--rep", path] + argv, capsys)
    assert (code, out) == (2, "")
    assert elapsed < 1.0
    assert err.startswith("input error: %s: " % flag) and "Traceback" not in err
    # the largest value the message names is admitted, and its output prints
    most = largest_named(err, what)
    fixed = ["--order", str(most)] if flag == "--order" else ["--order", "5", "--at-s", str(most)]
    code, out, err, _ = run_fast(["period", "--rep", path] + fixed, capsys)
    assert code == 0 and json.loads(out)["match"] is True


def test_theorem1_suite_names_the_order_every_check_admits(capsys):
    # at the lowest int-to-str limit the built-in corpus's sums stop near
    # order 200; each of its checks has its own largest order, and the
    # message names the least of them, so that order runs and one more
    # does not
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        verify = ["verify", "--suite", "theorem1", "--order"]
        code, out, err, elapsed = run_fast(verify + ["100000"], capsys)
        assert (code, out) == (2, "") and elapsed < 1.0
        assert err.startswith("input error: --order: ") and "Traceback" not in err
        most = largest_named(err, "order")
        code, out, err, _ = run_fast(verify + [str(most)], capsys)
        assert (code, err) == (0, "") and len(out.splitlines()) == 7
        code, out, err, _ = run_fast(verify + [str(most + 1)], capsys)
        assert (code, out) == (2, "") and largest_named(err, "order") == most
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("field, values, other", [
    ({"qF": 2, "ramified": False}, (["3/5", "4/5"], ["-7/3", "1/11"], ["5/1", "0/1"]),
     (["1/2", "-1/3"], ["9/7", "0/1"])),
    ({"qF": 3, "ramified": True, "extConductor": 1}, (["3/5", "4/5"], ["-2/9", "0/1"]),
     (["1/2", "1/2"],)),
])
def test_lfactor_against_reports_both_variables(descriptor, capsys, field, values, other):
    def rep(vals, name):
        return descriptor({"field": field, "segments": [
            {"k": 1, "rho": {"unitLabel": "triv", "unitConductor": 0, "atUnif": v}}
            for v in vals]}, name)

    path, other_path = rep(values, "rep.json"), rep(other, "other.json")
    code, out, err, _ = run_fast(["lfactor", "--rep", path, "--against", other_path], capsys)
    assert (code, err) == (0, "")
    m1, m2 = (pi_u(GenericRep(fp, tuple(segs)))
              for fp, segs in (load_rep_file(path), load_rep_file(other_path)))
    got = json.loads(out)["rs"]
    assert got["tE"] == ratfunc_json(rs_L(m1, m2))
    assert got["t"] == ratfunc_json(rs_L_in_t(m1, m2))


def test_lfactor_against_t_form_is_the_substituted_factor(descriptor, capsys):
    # the t form is spread from the t_E text; it must be the JSON of the
    # substituted factor, over both field types and ranks 0-7, and the
    # table must still print the factored forms
    rng = random.Random(2707)
    for ramified in (True, False):
        for r1, r2 in ((0, 0), (0, 3), (4, 0)):
            fp = corpus.rand_field(rng, ramified)
            mods = [corpus.rand_module(rng, fp, r) for r in (r1, r2)]
            spread = reciprocal_text(graded_texts(*packed_product(rs_factor_list(*mods))), fp.f)
            assert spread == json.dumps(ratfunc_json(rs_L_in_t(*mods)))
    pairs, seen = 0, set()
    while pairs < 30:
        fp = corpus.rand_field(rng, pairs % 2 == 0)
        try:
            reps = [module_as_rep(corpus.rand_module(rng, fp, rng.randint(1, 7)))
                    for _ in range(2)]
        except NotGenericError:  # linked values: draw again
            continue
        paths = [descriptor(rep_json(rep), "m%d.json" % i) for i, rep in enumerate(reps)]
        argv = ["lfactor", "--rep", paths[0], "--against", paths[1]]
        code, out, err, _ = run_fast(argv, capsys)
        assert (code, err) == (0, "")
        m1, m2 = (pi_u(GenericRep(fld, tuple(segs))) for fld, segs in map(load_rep_file, paths))
        seen |= {(fp.f, m1.r), (fp.f, m2.r)}
        got = json.loads(out)["rs"]
        assert got["tE"] == ratfunc_json(rs_L(m1, m2))
        assert got["t"] == ratfunc_json(rs_L_in_t(m1, m2))
        code, out, err, _ = run_fast(argv + ["--output", "table"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "Asai L-factor in t = q_F^-s:",
            "  " + cli._factored(asai_factor_list(m1)),
            "Rankin-Selberg L-factor in t_E = q_E^-s:",
            "  " + cli._factored(rs_factor_list(m1, m2), var="tE"),
        ]
        pairs += 1
    assert {f for f, _ in seen} == {1, 2} and {(1, 7), (2, 7)} <= seen


def test_lfactor_table_builds_no_json(descriptor, capsys, monkeypatch):
    # --output table prints the factor lists only: it renders no
    # coefficient text and builds no RatFunc JSON, while the JSON mode
    # renders the Asai and the Rankin-Selberg lists once each
    calls = []

    def spy(name):
        real = getattr(cli, name)

        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    for name in ("graded_texts", "ratfunc_json", "packed_product"):
        monkeypatch.setattr(cli, name, spy(name))
    rng = random.Random(2911)
    fp = corpus.rand_field(rng, False)
    paths = [descriptor(rep_json(module_as_rep(corpus.rand_module(rng, fp, r))), "m%d.json" % r)
             for r in (3, 4)]
    argv = ["lfactor", "--rep", paths[0], "--against", paths[1]]
    code, out, err, _ = run_fast(argv + ["--output", "table"], capsys)
    assert (code, err, calls) == (0, "", [])
    assert out.startswith("Asai L-factor in t = q_F^-s:\n")
    code, out, err, _ = run_fast(argv, capsys)
    assert (code, err) == (0, "") and "rs" in json.loads(out)
    assert sorted(calls) == ["graded_texts"] * 2 + ["packed_product"] * 2


def test_hostile_satake_height_at_default_order(descriptor, capsys):
    # a 121-digit Satake value: the series through order 40 is past the
    # limit, a shorter one is not
    path = descriptor(with_satake([str(7 ** 143) + "/1", "0/1"]))
    code, out, err, elapsed = run_fast(["period", "--rep", path], capsys)
    assert (code, out) == (2, "") and elapsed < 1.0
    assert err.startswith("input error: --order: ")
    most = largest_named(err, "order")
    assert 5 <= most < 40
    code, out, err, _ = run_fast(["period", "--rep", path, "--order", str(most)], capsys)
    assert code == 0 and json.loads(out)["match"] is True


def split_inverse_rep(bits):
    """Rank-3 unramified descriptor of Satake values 1/(a + bi), with a
    and b near 2^bits, coprime and of opposite parity: every prime of
    the denominator a^2 + b^2 then splits in Z[i], so each value's least
    Gaussian denominator is a + bi, of norm its integer one."""
    vals = []
    for j, (a, b) in enumerate(((3, 2), (5, 4), (7, 2))):
        a, b = a << bits, (b << bits) + 2 * j + 1
        while math.gcd(a, b) != 1:
            b += 2
        n = a * a + b * b
        vals.append(["%d/%d" % (a, n), "%d/%d" % (-b, n)])
    return {"field": {"qF": 2, "ramified": False}, "segments": [
        {"k": 1, "rho": {"unitLabel": "triv", "unitConductor": 0, "atUnif": v}} for v in vals]}


def test_hostile_split_prime_denominators_at_the_largest_height(descriptor, capsys):
    # the largest bits that the size check admits, found by bisection
    def admitted(bits):
        fp, segs = load_rep_file(descriptor(split_inverse_rep(bits)))
        try:
            cli._check_sizes(GenericRep(fp, tuple(segs)))
        except DescriptorError:
            return False
        return True

    low, high = 1, 2000
    assert admitted(low) and not admitted(high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if admitted(mid) else (low, mid)
    path = descriptor(split_inverse_rep(low))
    code, out, err, elapsed = run_fast(["period", "--rep", path], capsys)
    assert elapsed < 1.0 and "Traceback" not in err
    if code == 2:
        assert (out, err.startswith("input error: --order: ")) == ("", True)
        most = largest_named(err, "order")
        code, out, err, elapsed = run_fast(["period", "--rep", path, "--order", str(most)], capsys)
        assert elapsed < 1.0
    assert (code, err) == (0, "") and json.loads(out)["match"] is True


def test_hostile_satake_value_names_the_field(descriptor, capsys):
    # 3^8000 / 7 (3,818 digits) parses, but its closed form cannot print
    path = descriptor(with_satake([str(3 ** 8000) + "/7", "0/1"], index=1))
    for command in ("period", "lfactor", "verify"):
        code, out, err, elapsed = run_fast([command, "--rep", path], capsys)
        assert (code, out) == (2, "") and elapsed < 1.0
        assert err.startswith("input error: rep.segments[1].rho.atUnif: too large")
    # the segments report builds no closed form and prints the value as parsed
    code, out, err, _ = run_fast(["segments", "--rep", path], capsys)
    assert code == 0 and str(3 ** 8000) + "/7" in out


def test_hostile_rankin_selberg_pair_names_against(descriptor, capsys):
    # each closed form of its own prints; the rank 7 x 1 factor cannot
    rep = descriptor(unramified_module_rep(3, 5, 7, 11, 13, 17, 19), "rank7.json")
    other = descriptor(unramified_module_rep(3 ** 1350), "other.json")
    assert run_fast(["lfactor", "--rep", other], capsys)[0] == 0
    code, out, err, _ = run_fast(["lfactor", "--rep", rep, "--against", other], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("input error: --against: the Rankin-Selberg factor")


def test_json_integer_past_the_str_limit_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(GL2_SMALL).replace('"qF": 2', '"qF": 1' + "0" * 5000),
                    encoding="utf-8")
    code, out, err, _ = run_fast(["period", "--rep", str(path)], capsys)
    assert (code, out) == (2, "")
    assert "invalid JSON" in err and "Traceback" not in err


def test_period_at_s_builds_the_closed_form_once(descriptor, monkeypatch, capsys):
    built = []
    real = lfactors.closed_form_for

    def counting(rep):
        built.append(rep)
        return real(rep)

    for module in (cli, periods, lfactors):
        monkeypatch.setattr(module, "closed_form_for", counting)
    path = descriptor(STEINBERG)
    for output in ("json", "table"):
        built.clear()
        assert cli.main(["period", "--rep", path, "--at-s", "2", "--output", output]) == 0
        out = capsys.readouterr().out
        assert "4/3" in out
        assert len(built) == 1


# -- output branches that only a failure or a pole reaches ----------------


def test_period_at_s_on_a_pole_prints_pole(descriptor, capsys):
    # Satake values 4 and 1/3 over q_F = 2: the Asai factor has 1 - 4t^2,
    # which vanishes at t = 2^-2 = q_F^-s for s = 2
    path = descriptor(with_satake(["4/1", "0/1"], 0, with_satake(["1/3", "0/1"], 1)))
    argv = ["period", "--rep", path, "--at-s", "2"]
    code, out, err, _ = run_fast(argv, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["valueAtS"] == "pole"
    code, out, err, _ = run_fast(argv + ["--output", "table"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "value at s=2: pole"


def bumped(series, index):
    """series with GaussRat(1) added to its coefficient index."""
    coeffs = list(series.coeffs)
    coeffs[index] = coeffs[index] + GaussRat(1)
    return Series(coeffs)


def test_failing_identities_row_carries_first_fail_index(descriptor, monkeypatch, capsys):
    real = cli.flicker_series
    monkeypatch.setattr(cli, "flicker_series", lambda mod, order: bumped(real(mod, order), 5))
    argv = ["verify", "--suite", "identities", "--rep", descriptor(GL2_SMALL), "--order", "12"]
    code, out, err, _ = run_fast(argv, capsys)
    assert (code, err) == (1, "")
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0] == {"suite": "identities", "check": "littlewood-unram-r2", "pass": False,
                       "firstFailIndex": 5}
    assert all(row["pass"] and "firstFailIndex" not in row for row in rows[1:])
    code, out, _, _ = run_fast(argv + ["--output", "table"], capsys)
    assert code == 1
    assert out.splitlines()[0] == "[identities] littlewood-unram-r2: FAIL firstFailIndex=5"


def test_theorem1_mismatch_that_no_function_fits_prints_null(descriptor, monkeypatch, capsys):
    # a series off the closed form in its last coefficient only: the
    # degree bounds leave no rational function that fits every coefficient
    real = periods.mirabolic_series
    monkeypatch.setattr(periods, "mirabolic_series", lambda rep, order: bumped(real(rep, order), order))
    code, out, err, _ = run_fast(["period", "--rep", descriptor(GL2_SMALL), "--order", "12"], capsys)
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["match"] is False
    assert obj["reconstructed"] is None


# -- one parser per process ------------------------------------------------


def test_main_builds_the_parser_once(descriptor, monkeypatch, capsys):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    path = descriptor(STEINBERG)
    for argv in (["segments", "--rep", path], ["period", "--rep", path, "--order", "0"],
                 ["lfactor", "--rep", path], ["verify", "--suite", "bogus"],
                 ["period", "--rep", path, "--at-s", "2"]):
        try:
            cli.main(argv)
        except SystemExit:
            pass
    capsys.readouterr()
    assert len(built) == 1


def test_import_builds_no_parser():
    code = ("import argparse; built = []; init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **k):\n"
            "    built.append(1); init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "from asaiperiods import cli\n"
            "print(len(built), cli._parser.cache_info().currsize)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ))
    assert res.returncode == 0, res.stderr
    assert res.stdout == "0 0\n"


def test_mixed_calls_in_one_process_print_what_fresh_processes_print(descriptor, monkeypatch,
                                                                    capsys):
    # passing, failing, usage-error and input-error calls in one process,
    # each against the same call in a fresh interpreter; the plain period
    # right after --at-s must not print a value at s
    monkeypatch.setenv("COLUMNS", "80")
    path, linked = descriptor(STEINBERG), descriptor(LINKED, "linked.json")
    sequence = [
        ["period", "--rep", path, "--at-s", "2"],
        ["period", "--rep", path],
        ["verify", "--order", "x"],
        ["period", "--rep", path, "--order", "12"],
        ["period", "--rep", linked],
        ["verify", "--suite", "cpi", "--rep", str(GOLDEN / "omega_trivial_rank3.json")],
        ["lfactor", "--rep", "/nonexistent/rep.json"],
        ["period", "--rep", path, "--at-s", "0"],
        ["segments", "--rep", path, "--output", "table"],
        ["period", "--rep", path, "--order", "12"],
    ]
    in_process = []
    for argv in sequence:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        in_process.append((code,) + tuple(capsys.readouterr()))
    fresh = [run_cli(*argv) for argv in sequence]
    assert in_process == [(r.returncode, r.stdout, r.stderr) for r in fresh]
    assert [code for code, _, _ in in_process] == [0, 0, 2, 0, 3, 1, 2, 2, 0, 0]
    assert "valueAtS" in in_process[0][1] and "valueAtS" not in in_process[1][1]
