"""CLI stdout pinned byte for byte on six descriptors in tests/golden,
and on the built-in corpora.

Each run names a descriptor DESC.json (or None for no --rep), the
arguments to run it through cli.main with and the exit code it must
return, and stdout must equal NAME.out exactly. The three descriptors cover the spherical route with
a central character trivial on F* (rank 3), the essential-vector route
over a ramified pair (r = 2 < n = 4), and the Littlewood and Cauchy
identity checks of a ramified-pair module, whose Rankin-Selberg
Whittaker values carry sqrt(q) parts. The
first two also run through the theorem-1 verify suite, once as JSON
lines and once as a table. A rank-5 descriptor over a ramified pair,
with complex Satake values, runs `period --order 40`, where many
partition tails of the lattice sum share a total and a top part. Two
more descriptors run through `segments` in both output modes: a linked
one (two pure-imaginary values a factor q_E apart), which prints
generic: false and exits 0, and a conjugate-self-dual one mixing
complex, Steinberg and sigma-paired ramified segments, which prints the
holomorphy witness. Without a descriptor, `verify --suite all` runs
every suite on the seeded built-in corpora (134 JSON lines at the
default order 40), so a change to those corpora cannot pass unnoticed.
The conjugate-self-dual descriptor also runs `verify --suite all` in
both output modes, and the rank-3 one runs the cpi suite as a table,
where it fails (exit 1) with the error of verify_c_pi in its row.

The stdout rows of the built-in suites name their subjects but do not
show most of them, so a digest of the arguments each suite hands its
check functions pins which subjects it draws, and in what order; a
second draw in the same process must hand over the same subjects. The
parser's help texts and usage errors (parser_text.json, captured from
fresh processes at COLUMNS=80) are replayed twice in one process, so
the parser that main() reuses keeps every option, choice, default and
message. And the benchmark's operations (310 of them, one round of
each workload of layerbench at seed 1) are pinned by workloads.jsonl: each line holds an
operation's arguments and descriptors, its exit code and the sha256 of
its stdout in both output modes, so the traffic the benchmark times
must keep its output while the kernels under it change. That test runs
the stored operations; it does not import the harness.
"""

import hashlib
import json
from pathlib import Path

import pytest

from asaiperiods import cli
from asaiperiods.descriptors import field_json, rep_json, value_str
from asaiperiods.segments import GenericRep, UnramifiedModule

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "omega_trivial_rank3": ("omega_trivial_rank3", ["period", "--order", "14"], 0),
    "rank5_complex": ("rank5_complex", ["period", "--order", "40"], 0),
    "essential_route": ("essential_route", ["period", "--order", "10"], 0),
    "ramified_pair_module": ("ramified_pair_module",
                             ["verify", "--suite", "identities", "--order", "12"], 0),
    "omega_trivial_rank3_theorem1": ("omega_trivial_rank3",
                                     ["verify", "--suite", "theorem1", "--order", "14",
                                      "--output", "table"], 0),
    "essential_route_theorem1": ("essential_route",
                                 ["verify", "--suite", "theorem1", "--order", "10"], 0),
    "linked_imaginary_segments": ("linked_imaginary", ["segments"], 0),
    "linked_imaginary_segments_table": ("linked_imaginary", ["segments", "--output", "table"], 0),
    "csd_mixed_segments": ("csd_mixed", ["segments"], 0),
    "csd_mixed_segments_table": ("csd_mixed", ["segments", "--output", "table"], 0),
    "verify_all_builtin": (None, ["verify", "--suite", "all"], 0),
    "csd_mixed_verify_all": ("csd_mixed", ["verify", "--suite", "all"], 0),
    "csd_mixed_verify_all_table": ("csd_mixed", ["verify", "--suite", "all",
                                                 "--output", "table"], 0),
    "omega_trivial_rank3_cpi_table": ("omega_trivial_rank3",
                                      ["verify", "--suite", "cpi", "--output", "table"], 1),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_matches_golden(name, capsys):
    desc, argv, code = RUNS[name]
    if desc is not None:
        argv = argv[:1] + ["--rep", str(GOLDEN / (desc + ".json"))] + argv[1:]
    assert cli.main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / (name + ".out")).read_text(encoding="utf-8")


# sha256 of the JSON list of calls that each built-in suite makes of the
# check functions in CHECKED: the function's name and its arguments
DRAW_DIGESTS = {
    "theorem1": "0a0f7d6229d935192e3b3d86588af7e11cb8e65533169382020976ce487b7945",
    "cpi": "b7a3e2deb7bd98cb4eee978e03997703e954a78bf1a7ba11815b561eea9f0323",
    "multiplicativity": "d52b984645c1442b6d6794b1bc1fe8599ac44de515a2145ee501120fd20a4d6b",
    "identities": "356bdb8db3712faf1fcfee9420943c1da2ea0ad43dcf80a6ad0ffb1a4942d372",
}

CHECKED = ("verify_theorem1", "verify_c_pi", "asai_multiplicative_factor_list", "flicker_series",
           "rs_series", "kable_factorization_check")


def subject_json(x):
    if isinstance(x, GenericRep):
        return rep_json(x)
    if isinstance(x, UnramifiedModule):
        return {"field": field_json(x.fp), "satake": [value_str(v) for v in x.satake]}
    return x


def record_checks(monkeypatch) -> list:
    """Patch the check functions of cli to log each call, as JSON, to the
    returned list."""
    calls = []

    def recording(name, real):
        def call(*args):
            calls.append([name] + [subject_json(a) for a in args])
            return real(*args)
        return call

    for name in CHECKED:
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    return calls


@pytest.mark.parametrize("suite", sorted(DRAW_DIGESTS))
def test_builtin_suite_checks_its_pinned_subjects(suite, monkeypatch, capsys):
    calls = record_checks(monkeypatch)
    assert cli.main(["verify", "--suite", suite]) == 0
    capsys.readouterr()
    assert calls
    assert hashlib.sha256(json.dumps(calls).encode()).hexdigest() == DRAW_DIGESTS[suite]


def test_a_second_verify_in_the_process_draws_the_same_subjects(monkeypatch, capsys):
    # the ramified subjects of cpi carry labels; a later draw in the same
    # process must label them as the first one did
    calls = record_checks(monkeypatch)
    draws = []
    for _ in range(2):
        assert cli.main(["verify", "--suite", "cpi"]) == 0
        draws.append(json.dumps(calls))
        calls.clear()
    capsys.readouterr()
    assert draws[0] == draws[1]
    assert hashlib.sha256(draws[1].encode()).hexdigest() == DRAW_DIGESTS["cpi"]


def test_parser_text_matches_golden_under_reuse(monkeypatch, capsys):
    # every help text and usage error, run twice in one process (forward,
    # then in reverse), is what a fresh process printed
    monkeypatch.setenv("COLUMNS", "80")
    cases = json.loads((GOLDEN / "parser_text.json").read_text(encoding="utf-8"))
    assert len(cases) >= 10
    for case in cases + cases[::-1]:
        with pytest.raises(SystemExit) as exc:
            cli.main(case["argv"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out, err) == (case["code"], case["stdout"], case["stderr"]), \
            case["argv"]


def workload_ops():
    lines = (GOLDEN / "workloads.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


@pytest.mark.parametrize("workload", ["check-corpus", "lfactor-closed-form", "period-high-rank"])
def test_workload_stdout_matches_golden(workload, tmp_path, capsys):
    ops = [op for op in workload_ops() if op["workload"] == workload]
    assert ops
    changed = []
    for op in ops:
        paths = {}
        for key, desc in op["descs"].items():
            path = tmp_path / (key + ".json")
            path.write_text(json.dumps(desc), encoding="utf-8")
            paths["{%s}" % key] = str(path)
        argv = [paths.get(arg, arg) for arg in op["argv"]]
        for mode in ("json", "table"):
            code = cli.main(argv + ["--output", mode])
            out, err = capsys.readouterr()
            if (code, hashlib.sha256(out.encode()).hexdigest(), err) != (op["rc"], op[mode], ""):
                changed.append("%s --output %s" % (op["id"], mode))
    assert changed == []
