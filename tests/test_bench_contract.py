"""What the layerbench harness (layerbench/) reads from the package is
still there: the names its tracer wraps, the backend its runner demands
and the classes its micro-timings build. A refactor that breaks the
harness fails here, before a benchmark run would."""

import contextlib
import importlib
import importlib.util
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from asaiperiods import cli

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    # by path and under its own name: the harness is not a package
    spec = importlib.util.spec_from_file_location(
        "layerbench_tracing", ROOT / "layerbench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TRACING = load_tracing()
TARGETS = [(layer, mod, attr) for layer, pairs in TRACING.LAYERS.items() for mod, attr in pairs]


@pytest.mark.parametrize("layer,modname,attr", TARGETS,
                         ids=["%s:%s.%s" % t for t in TARGETS])
def test_every_traced_name_resolves(layer, modname, attr):
    mod = importlib.import_module("asaiperiods." + modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name)), (layer, attr)
    else:
        assert callable(getattr(mod, attr)), (layer, attr)


def test_backend_and_micro_timed_classes_import():
    from asaiperiods.rational import BACKEND, Rat
    from asaiperiods.scalars import AlgNum, GaussRat
    from asaiperiods.series import Poly

    assert BACKEND == "fraction"
    assert Rat is Fraction
    assert callable(AlgNum) and callable(GaussRat) and callable(Poly)


def test_micro_timings_run_on_real_outputs(tmp_path):
    desc = {"field": {"qF": 3, "ramified": True},
            "segments": [{"k": 1, "rho": {"unitLabel": "triv", "unitConductor": 0,
                                          "atUnif": [a, b]}}
                         for a, b in (("3/5", "4/5"), ("1/2", "-1/3"), ("-2/1", "0/1"))]}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(desc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["lfactor", "--rep", str(path)]) == 0
    got = TRACING.micro_timings([desc], [out.getvalue()], 7)
    assert set(got) == {"rational.add_us", "rational.mul_us", "scalars.gauss_mul_us",
                        "scalars.alg_add_us", "scalars.alg_mul_us", "series.poly_mul_us"}
    assert all(v > 0 for v in got.values())
