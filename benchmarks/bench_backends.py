"""Time the gmpy2 and fractions.Fraction rational backends side by side.

The backend is frozen when asaiperiods.rational is imported, so each
measurement runs in a fresh subprocess with ASAIPERIODS_RATIONAL set.
The workload is the hot path of the library: lattice sums over partition
cones (Schur determinants on every dominant weight up to the truncation
order), series reconstruction, and the closed-form product expansions.

Usage:
    python3 benchmarks/bench_backends.py [--order N] [--modules N] [--repeats N]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time


def workload(order: int, modules: int) -> dict:
    import random

    from asaiperiods import flicker_series, reconstruct, series_of, asai_L
    from asaiperiods.corpus import rand_field, rand_module
    from asaiperiods.rational import BACKEND

    rng = random.Random(515253)
    corpus = []
    while len(corpus) < modules:
        fp = rand_field(rng, ramified=rng.random() < 0.5)
        corpus.append(rand_module(rng, fp, rng.randint(2, 4)))

    timings = {}

    start = time.perf_counter()
    sums = [flicker_series(mod, order) for mod in corpus]
    timings["lattice sums"] = time.perf_counter() - start

    start = time.perf_counter()
    closed = [series_of(asai_L(mod), order) for mod in corpus]
    timings["closed forms"] = time.perf_counter() - start

    for got, want in zip(sums, closed):
        if got.first_mismatch(want) is not None:
            raise AssertionError("backend produced a wrong series")

    # the Asai factor of rank r has denominator degree r^2; a series
    # shorter than r^2 + 1 terms cannot determine it, so such modules
    # are left out of this stage (and the stage, if none is left)
    fitting = [(s, len(mod.satake) ** 2) for mod, s in zip(corpus, sums)
               if order > len(mod.satake) ** 2]
    if fitting:
        start = time.perf_counter()
        for s, bound in fitting:
            reconstruct(s, 0, bound)
        timings["reconstruction"] = time.perf_counter() - start

    timings["backend"] = BACKEND
    return timings


def run_child(backend: str, order: int, modules: int, repeats: int) -> dict:
    # the child imports the package from this checkout's src, installed or not
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, ASAIPERIODS_RATIONAL=backend, PYTHONPATH=path)
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--child",
        "--order", str(order),
        "--modules", str(modules),
        "--repeats", str(repeats),
    ]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    best: dict = {}
    for line in out.stdout.splitlines():
        key, _, val = line.partition("\t")
        if key == "backend":
            best[key] = val
        else:
            t = float(val)
            if key not in best or t < best[key]:
                best[key] = t
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--order", type=int, default=30, help="series truncation order")
    ap.add_argument("--modules", type=int, default=12, help="corpus size")
    ap.add_argument("--repeats", type=int, default=3, help="take the best of N runs")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.child:
        for _ in range(args.repeats):
            for key, val in workload(args.order, args.modules).items():
                print("%s\t%s" % (key, val))
        return 0

    print("order=%d modules=%d best-of-%d" % (args.order, args.modules, args.repeats))
    results = {}
    for backend in ("gmpy2", "fraction"):
        try:
            results[backend] = run_child(backend, args.order, args.modules, args.repeats)
        except subprocess.CalledProcessError as exc:
            if "gmpy2 is not importable" in exc.stderr:
                print("%-10s unavailable (gmpy2 not installed)" % backend)
            else:
                raise
    stages = ("lattice sums", "closed forms", "reconstruction")
    print("%-16s %12s %12s %8s" % ("stage", "gmpy2", "fraction", "ratio"))
    for stage in stages:
        g = results.get("gmpy2", {}).get(stage)
        f = results.get("fraction", {}).get(stage)
        ratio = "%.2fx" % (f / g) if g and f else "-"
        print("%-16s %12s %12s %8s" % (
            stage,
            "%.3fs" % g if g is not None else "-",
            "%.3fs" % f if f is not None else "-",
            ratio,
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
