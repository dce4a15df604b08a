"""Property tests on generated descriptors: they round-trip through
parse_rep and rep_json, the period, lfactor and segments commands end
with exit code 0, 2 or 3, and verify (every suite) and lfactor --against
with an exit code from 0 to 3, never with an exception, also for Satake
values of hundreds or thousands of digits, orders up to 10^9 and
evaluation points up to s = 10^9."""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from asaiperiods import cli  # noqa: E402
from asaiperiods.descriptors import (  # noqa: E402
    DescriptorError,
    field_json,
    parse_rep,
    rep_json,
    segment_json,
)
from asaiperiods.segments import GenericRep, NotGenericError  # noqa: E402

SETTINGS = settings(derandomize=True, max_examples=80, deadline=None, database=None)

# digit counts for the large parts: small, a few hundred (past the
# series limit at order 40), a few thousand (past the closed-form
# limit), and one past the int-to-str limit of the parser itself
DIGITS = st.sampled_from((1, 1, 1, 1, 2, 3, 60, 121, 400, 1500, 3800, 4400))


@st.composite
def rationals(draw):
    digits = draw(DIGITS)
    head = draw(st.integers(1, 9))
    num = "%s%d%s" % (draw(st.sampled_from(("", "-"))), head, "0" * (digits - 1))
    if draw(st.booleans()):
        num = str(draw(st.integers(-30, 30)))
    return "%s/%d" % (num, draw(st.sampled_from((1, 2, 3, 7, 10, 12, 97))))


@st.composite
def gauss(draw):
    im = draw(st.one_of(st.just("0/1"), rationals()))
    re = draw(rationals())
    return [re, im]


@st.composite
def descriptors(draw, unramified=False):
    """Descriptors of every kind; with unramified=True, of unramified
    representations (k = 1 and unramified characters only, no linked
    pair added)."""
    ramified = draw(st.booleans())
    field = {"qF": draw(st.sampled_from((2, 3, 4, 5, 9, 2 ** 61 - 1))), "ramified": ramified}
    if ramified and draw(st.booleans()):
        field["extConductor"] = draw(st.integers(1, 3))
    segments = []
    for i in range(draw(st.integers(1, 4))):
        k = 1 if unramified else draw(st.sampled_from((1, 1, 1, 2, 3, 10 ** 9)))
        at = draw(gauss())
        if unramified or draw(st.booleans()):
            rho = {"unitLabel": "triv", "unitConductor": 0, "atUnif": at}
        else:
            rho = {"unitLabel": "chi%d" % i, "unitConductor": draw(st.integers(1, 2)),
                   "atUnif": at, "sigmaUnitLabel": "chi%d" % i, "sigmaAtUnif": draw(gauss())}
        segments.append({"k": k, "rho": rho})
    if not unramified and draw(st.integers(0, 3)) == 0:
        # a linked pair: the second value is the first over q_E
        q_E = field["qF"] ** (1 if ramified else 2)
        for value in ("1/1", "1/%d" % q_E):
            segments.append({"k": 1, "rho": {"unitLabel": "triv", "unitConductor": 0,
                                             "atUnif": [value, "0/1"]}})
    return {"field": field, "segments": segments}


def parsed(desc):
    """(field, segments) in canonical JSON, or None on a DescriptorError."""
    try:
        fp, segments = parse_rep(desc)
    except DescriptorError:
        return None
    return {"field": field_json(fp), "segments": [segment_json(s) for s in segments]}


@SETTINGS
@given(descriptors())
def test_descriptors_round_trip(desc):
    canon = parsed(desc)
    if canon is None:
        return
    assert parsed(canon) == canon
    assert parsed(json.loads(json.dumps(canon))) == canon
    fp, segments = parse_rep(canon)
    try:
        assert rep_json(GenericRep(fp, tuple(segments))) == canon
    except NotGenericError:
        pass
    for seg, raw in zip(canon["segments"], desc["segments"]):
        assert seg["k"] == raw["k"]
        for got, want in zip(seg["rho"]["atUnif"], raw["rho"]["atUnif"]):
            assert Fraction(got) == Fraction(want)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@SETTINGS
@given(descriptors(),
       st.sampled_from((1, 4, 12, 12, 30, 30, 3000, 10 ** 5, 10 ** 9)),
       st.sampled_from((None, None, None, 1, 2, 7, 10 ** 4, 10 ** 9)))
def test_cli_exits_0_2_or_3(desc, order, at_s):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rep.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(desc, fh)
        period = ["period", "--rep", path, "--order", str(order)]
        if at_s is not None:
            period += ["--at-s", str(at_s)]
        for argv in (period, ["lfactor", "--rep", path], ["segments", "--rep", path]):
            code, out, err = run(argv)
            assert code in (0, 2, 3), (argv, err)
            assert "Traceback" not in err
            assert bool(out) == (code == 0)
            if code == 0:
                for line in out.splitlines():
                    json.loads(line)


ANY_REP = st.one_of(descriptors(), descriptors(unramified=True))


@SETTINGS
@given(ANY_REP, ANY_REP, st.booleans(),
       st.sampled_from((1, 4, 12, 12, 30, 3000, 10 ** 9)),
       st.sampled_from(("theorem1", "cpi", "multiplicativity", "identities", "all")))
def test_verify_and_lfactor_against_exit_0_to_3(desc, other, same_field, order, suite):
    if same_field:
        other = dict(other, field=desc["field"])
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, payload in (("rep.json", desc), ("other.json", other)):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        verify = ["verify", "--suite", suite, "--rep", paths[0], "--order", str(order)]
        for argv in (verify, ["lfactor", "--rep", paths[0], "--against", paths[1]]):
            code, out, err = run(argv)
            assert code in (0, 1, 2, 3), (argv, err)
            assert "Traceback" not in err
            # a verification failure (1) still prints its report
            assert bool(out) == (code in (0, 1))
            for line in out.splitlines():
                json.loads(line)
