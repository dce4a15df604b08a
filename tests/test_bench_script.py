"""benchmarks/bench_backends.py runs from a plain checkout: no install
and no PYTHONPATH, the way its usage line invokes it."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_backends_runs_from_checkout():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, "benchmarks/bench_backends.py",
         "--order", "6", "--modules", "2", "--repeats", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    rows = [line.split() for line in res.stdout.splitlines()]
    lattice = [row for row in rows if row[:2] == ["lattice", "sums"]]
    assert len(lattice) == 1, res.stdout
    # columns: stage (two words), gmpy2, fraction, ratio
    assert re.fullmatch(r"\d+\.\d{3}s", lattice[0][3]), res.stdout
