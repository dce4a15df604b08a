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
"""

from pathlib import Path

import pytest

from asaiperiods import cli

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
