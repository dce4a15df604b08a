"""The committed BENCH_*.json records are whole: every measured record
keeps both sides' runs for each workload and metric, and its medians and
quartiles (inclusive method) are those of the runs. A record transcribed
from CHANGES.md prose (its source does not start with "measured") has no
runs to check."""

import json
from pathlib import Path
from statistics import quantiles

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
MEASURED = [p for p in RECORDS if json.loads(p.read_text())["source"].startswith("measured")]
SIDES = ("parent", "change")


def decimals(x) -> int:
    text = repr(x)
    return len(text.partition(".")[2]) if "." in text and "e" not in text else 0


def metric_blocks(record: dict):
    """(label, workloads) for the main result and any repeat at another seed."""
    yield "seed %s" % record["seed"], record["workloads"]
    for key, block in record.items():
        if isinstance(block, dict) and "workloads" in block:
            yield key, block["workloads"]


def is_metric(entry) -> bool:
    return isinstance(entry, dict) and all("median" in entry.get(s, ()) for s in SIDES)


def test_records_are_committed():
    assert RECORDS, "no BENCH_*.json at the repo root"
    assert [p.name for p in RECORDS if p not in MEASURED] == ["BENCH_9.json"]


@pytest.mark.parametrize("path", MEASURED, ids=lambda p: p.name)
def test_measured_record_keeps_its_runs(path):
    record = json.loads(path.read_text())
    pairs = record["pairs"]
    checked = 0
    for label, workloads in metric_blocks(record):
        assert workloads, label
        for workload, entries in workloads.items():
            metrics = {name: e for name, e in entries.items() if is_metric(e)}
            assert {"wall_s", "setup_s", "op_median_s", "peak_rss_mb"} <= set(metrics), \
                (label, workload)
            for name, entry in metrics.items():
                where = (label, workload, name)
                for side in SIDES:
                    runs = entry.get(side + "_runs")
                    assert isinstance(runs, list) and len(runs) == pairs, where + (side,)
                    q1, q2, q3 = quantiles(runs, n=4, method="inclusive")
                    for stat, value in (("q1", q1), ("median", q2), ("q3", q3)):
                        stored = entry[side][stat]
                        # stored values are rounded: half a unit in their last place
                        slack = 0.5 * 10 ** -decimals(stored) + 1e-12
                        assert abs(stored - value) <= slack, where + (side, stat, stored, value)
                    checked += 1
    assert checked >= 3 * 4 * 2
