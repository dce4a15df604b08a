"""CLI stdout pinned byte for byte on six descriptors in tests/golden,
and on the built-in corpora.

Each run names a descriptor DESC.json (or None for no --rep) and the
arguments to run it through cli.main with, and stdout must equal
NAME.out exactly. The three descriptors cover the spherical route with
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
"""

from pathlib import Path

import pytest

from asaiperiods import cli

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "omega_trivial_rank3": ("omega_trivial_rank3", ["period", "--order", "14"]),
    "rank5_complex": ("rank5_complex", ["period", "--order", "40"]),
    "essential_route": ("essential_route", ["period", "--order", "10"]),
    "ramified_pair_module": ("ramified_pair_module",
                             ["verify", "--suite", "identities", "--order", "12"]),
    "omega_trivial_rank3_theorem1": ("omega_trivial_rank3",
                                     ["verify", "--suite", "theorem1", "--order", "14",
                                      "--output", "table"]),
    "essential_route_theorem1": ("essential_route",
                                 ["verify", "--suite", "theorem1", "--order", "10"]),
    "linked_imaginary_segments": ("linked_imaginary", ["segments"]),
    "linked_imaginary_segments_table": ("linked_imaginary", ["segments", "--output", "table"]),
    "csd_mixed_segments": ("csd_mixed", ["segments"]),
    "csd_mixed_segments_table": ("csd_mixed", ["segments", "--output", "table"]),
    "verify_all_builtin": (None, ["verify", "--suite", "all"]),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_matches_golden(name, capsys):
    desc, argv = RUNS[name]
    if desc is not None:
        argv = argv[:1] + ["--rep", str(GOLDEN / (desc + ".json"))] + argv[1:]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / (name + ".out")).read_text(encoding="utf-8")
