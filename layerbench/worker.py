"""One round of benchmark operations in a fresh process.

Runs each operation through the CLI entry point asaiperiods.cli.main in
this process, the way one CLI invocation per operation would, except
that the interpreter start is paid once (set-up is measured on its own).
Writes one JSON line per operation (exit code, stdout, stderr, seconds)
and a last line with the round's totals.

    python3 layerbench/worker.py --ops OPS.json --out OUT.jsonl
        [--spans SPANS.json --micro MICRO.json --seed N]

With --spans, every public call in LAYERS (tracing.py) is recorded, and
--micro adds micro-timings of the scalar layers on this round's operands.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import sys
import time
import traceback


def run_op(cli, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is this operation's result, not the round's
        rc = 99
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--ops", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--micro")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    with open(args.ops, encoding="utf-8") as fh:
        ops = json.load(fh)

    recorder = None
    if args.spans:
        import tracing

        recorder = tracing.install()
    from asaiperiods import cli
    from asaiperiods.rational import BACKEND

    wall = 0.0
    outputs = []
    with open(args.out, "w", encoding="utf-8") as fh:
        for i, op in enumerate(ops):
            if recorder is not None:
                recorder.op = i
            rc, out, err, seconds = run_op(cli, op["argv"])
            wall += seconds
            fh.write(json.dumps({"i": i, "rc": rc, "out": out, "err": err, "s": seconds}) + "\n")
            if args.micro:
                outputs.append(out)
        fh.write(json.dumps({
            "done": True,
            "wall_s": wall,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "backend": BACKEND,
            "python": platform.python_version(),
        }) + "\n")

    if recorder is not None:
        recorder.dump(args.spans)
    if args.micro:
        import tracing

        descs = []
        for op in ops:
            for path in op["desc_paths"]:
                with open(path, encoding="utf-8") as dh:
                    descs.append(json.load(dh))
        with open(args.micro, "w", encoding="utf-8") as fh:
            json.dump(tracing.micro_timings(descs, outputs, args.seed), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
