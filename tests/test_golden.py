"""CLI stdout pinned byte for byte on three descriptors in tests/golden.

Each NAME.json descriptor runs through cli.main with the arguments
below, and stdout must equal NAME.out exactly. The three cover the
spherical route with a central character trivial on F* (rank 3), the
essential-vector route over a ramified pair (r = 2 < n = 4), and the
Littlewood and Cauchy identity checks of a ramified-pair module, whose
Rankin-Selberg Whittaker values carry sqrt(q) parts.
"""

from pathlib import Path

import pytest

from asaiperiods import cli

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "omega_trivial_rank3": ["period", "--order", "14"],
    "essential_route": ["period", "--order", "10"],
    "ramified_pair_module": ["verify", "--suite", "identities", "--order", "12"],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_matches_golden(name, capsys):
    cmd, *rest = RUNS[name]
    assert cli.main([cmd, "--rep", str(GOLDEN / (name + ".json"))] + rest) == 0
    assert capsys.readouterr().out == (GOLDEN / (name + ".out")).read_text(encoding="utf-8")
