"""Layered benchmark of asaiperiods: one workload, one seed, one run.

    python3 layerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src). The run

1. generates the workload's operations from the seed (workloads.py) and
   writes their descriptors under .layerbench_out/;
2. runs whole rounds of those operations, each round in a fresh
   single-threaded worker process with the Fraction backend, until S
   seconds have passed; with --trace 1 each round runs twice, untraced
   and then traced, and the traced copy also micro-times the scalar layers;
   before each untraced round it times three cold set-ups, fresh
   interpreters importing asaiperiods.cli;
3. checks every output against oracle.py, which never imports the package;
4. prints the environment, then, as its last line, one JSON object with
   correct, attempted, failed and the metrics (end-to-end with --trace 0,
   per-layer with --trace 1). The same object, with the environment and
   the failed operation ids, is appended to .layerbench_out/results.jsonl.

Exit codes: 0 after a finished run (the result says whether outputs were
correct), 1 when the package is broken or a round overruns, 2 on bad
arguments or a directory without the package.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import oracle
import tracing
import workloads

START = time.monotonic()
DEADLINE_S = 170.0  # every run ends within 180 s
SETUP_STARTS = 3  # fresh interpreters timed before each untraced round

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_median_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.self_s": "s",
    "descriptors.parse_s": "s",
    "descriptors.serialize_s": "s",
    "segments.self_s": "s",
    "periods.lattice_self_s": "s",
    "periods.check_self_s": "s",
    "whittaker.value_s": "s",
    "whittaker.value_calls": "count",
    "whittaker.value_us": "us",
    "lfactors.self_s": "s",
    "ratfunc.build_s": "s",
    "ratfunc.series_of_s": "s",
    "ratfunc.reconstruct_s": "s",
    "ratfunc.reconstruct_calls": "count",
    "series.poly_mul_us": "us",
    "scalars.gauss_mul_us": "us",
    "scalars.alg_add_us": "us",
    "scalars.alg_mul_us": "us",
    "rational.add_us": "us",
    "rational.mul_us": "us",
    "trace.overhead_s": "s",
}

# fields the omega defect may get wrong; anything else is a wrong output
KNOWN_FAULT_FIELDS = ("closedForm", "reconstructed", "match", "valueAt1")


class BenchError(Exception):
    """The run cannot produce a result."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["ASAIPERIODS_RATIONAL"] = "fraction"
    env["PYTHONHASHSEED"] = "0"
    return env


def remaining() -> float:
    left = DEADLINE_S - (time.monotonic() - START)
    if left <= 0:
        raise BenchError("out of time before the run finished")
    return left


def time_setup(root: Path) -> float:
    """Wall time of a fresh interpreter importing asaiperiods.cli."""
    start = time.monotonic()
    res = subprocess.run([sys.executable, "-c", "import asaiperiods.cli"], cwd=root,
                         env=child_env(root), capture_output=True, text=True,
                         timeout=remaining())
    elapsed = time.monotonic() - start
    if res.returncode != 0:
        raise BenchError("importing asaiperiods.cli failed:\n" + res.stderr)
    return elapsed


def write_inputs(root: Path, run_dir: Path, ops: list) -> Path:
    """Descriptor files plus the worker's operation list."""
    desc_dir = run_dir / "descriptors"
    desc_dir.mkdir(parents=True)
    worker_ops = []
    for i, op in enumerate(ops):
        paths = {}
        for role, desc in op["descs"].items():
            path = desc_dir / ("%03d-%s.json" % (i, role))
            path.write_text(json.dumps(desc), encoding="utf-8")
            paths[role] = str(path.relative_to(root))
        argv = [a.format(**paths) if a.startswith("{") else a for a in op["argv"]]
        worker_ops.append({"argv": argv, "desc_paths": list(paths.values())})
    ops_path = run_dir / "ops.json"
    ops_path.write_text(json.dumps(worker_ops), encoding="utf-8")
    return ops_path


def run_worker(root: Path, ops_path: Path, out: Path, traced: bool, seed: int) -> tuple:
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--ops", str(ops_path), "--out", str(out)]
    if traced:
        cmd += ["--spans", str(out.with_suffix(".spans.json")),
                "--micro", str(out.with_suffix(".micro.json")), "--seed", str(seed)]
    try:
        res = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                             text=True, timeout=remaining())
    except subprocess.TimeoutExpired:
        raise BenchError("a round did not finish within the run's time limit") from None
    if res.returncode != 0:
        raise BenchError("worker failed:\n" + res.stderr)
    with open(out, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    totals = lines.pop()
    if totals.get("backend") != "fraction":
        raise BenchError("worker ran on backend %r, not fraction" % totals.get("backend"))
    return lines, totals


class Tally:
    """Operations attempted and failed, and whether every failure is the
    named omega defect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failed_ids: set = set()
        self.wrong: list = []

    def check_round(self, ops: list, results: list) -> None:
        if len(results) != len(ops):
            raise BenchError("worker returned %d results for %d operations"
                             % (len(results), len(ops)))
        for op, res in zip(ops, results):
            self.attempted += 1
            problems = oracle.check_op(op, op["descs"], res["rc"], res["out"])
            if not problems:
                continue
            self.failed += 1
            self.failed_ids.add(op["id"])
            explained = op["known_fault"] and all(p.startswith(KNOWN_FAULT_FIELDS) for p in problems)
            if not explained:
                self.correct = False
                self.wrong.append((op["id"], problems[:3], res["err"][-2000:]))


def measure(root: Path, run_dir: Path, ops: list, ops_path: Path, seconds: int,
            traced: bool, seed: int, tally: Tally) -> tuple:
    plain_rounds, traced_rounds, setups = [], [], []
    measure_start = time.monotonic()
    k = 0
    while True:
        setups += [time_setup(root) for _ in range(SETUP_STARTS)]
        results, totals = run_worker(root, ops_path, run_dir / ("round%d.jsonl" % k), False, seed)
        tally.check_round(ops, results)
        plain_rounds.append((results, totals))
        if traced:
            out = run_dir / ("round%d-traced.jsonl" % k)
            results, totals = run_worker(root, ops_path, out, True, seed)
            tally.check_round(ops, results)
            with open(out.with_suffix(".spans.json"), encoding="utf-8") as fh:
                spans = json.load(fh)["spans"]
            with open(out.with_suffix(".micro.json"), encoding="utf-8") as fh:
                micro = json.load(fh)
            layer = tracing.aggregate(spans)
            layer.update(micro)
            layer["trace.overhead_s"] = totals["wall_s"] - plain_rounds[-1][1]["wall_s"]
            traced_rounds.append((layer, tracing.lattice_share(spans)))
        k += 1
        if time.monotonic() - measure_start >= seconds:
            return plain_rounds, traced_rounds, setups


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "asaiperiods" / "cli.py").is_file():
        raise FileNotFoundError("no package source at src/asaiperiods; run from a checkout root")

    ops = workloads.build(args.workload, args.seed)
    run_dir = root / ".layerbench_out" / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    if run_dir.exists():
        shutil.rmtree(run_dir)
    ops_path = write_inputs(root, run_dir, ops)

    tally = Tally()
    plain, traced, setups = measure(root, run_dir, ops, ops_path, args.seconds, bool(args.trace),
                            args.seed, tally)
    env = {
        "backend": plain[0][1]["backend"],
        "python": plain[0][1]["python"],
        "nproc": len(os.sched_getaffinity(0)),
    }
    if args.trace:
        metrics = {name: median([layer[name] for layer, _ in traced]) for name in PER_LAYER}
        units = PER_LAYER
        extra = {"lattice_share": median([share for _, share in traced])}
    else:
        # each operation at its fastest round, as timeit reports: every
        # round does the same work in a fresh process, so slower repeats
        # are spells of the shared host, not the program
        op_times = [min(times) for times in zip(*([r["s"] for r in results]
                                                  for results, _ in plain))]
        metrics = {
            # every set-up is a fresh interpreter; the fastest one is
            # the set-up work without the host's slow spells
            "setup_s": min(setups),
            "wall_s": sum(op_times),
            "op_median_s": median(op_times),
            "peak_rss_mb": median([totals["peak_rss_kb"] for _, totals in plain]) / 1024,
        }
        units = END_TO_END
        extra = {}
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, rounds=len(plain), env=env,
                  failed_ops=sorted(tally.failed_ids), **extra)
    with open(root / ".layerbench_out" / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for op_id, problems, err in tally.wrong:
        print("wrong output: %s: %s %s" % (op_id, problems, err), file=sys.stderr)
    print("env " + json.dumps(env))
    if tally.failed_ids:
        print("failed operations: " + " ".join(sorted(tally.failed_ids)))
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    try:
        result = run(args)
    except FileNotFoundError as exc:
        print("layerbench: %s" % exc, file=sys.stderr)
        return 2
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("layerbench: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
