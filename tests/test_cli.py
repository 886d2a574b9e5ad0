import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import time
import weakref
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canonbase_lab import cli
from canonbase_lab.measure_core import BlockTable, LatticeElement, MeasureSpace, SubStructure, cond_exp
from canonbase_lab.rv_canon import cond_moment


def test_lp_cb_grid_rejects_zero_and_reports_partials(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"base_weights": [1.0], "fiber_cells": 2}))
    element = tmp_path / "element.json"
    element.write_text(json.dumps({"rows": [[-2, 4]]}))
    argv = ["lp-cb", "--space", str(space), "--element", str(element), "--p", "1"]

    def run(*extra):
        code = cli.dispatch(argv + list(extra))
        return code, json.loads(capsys.readouterr().out)

    code, report = run("--grid", "0", "--intervals")
    assert code == 2 and report["exit_code"] == 2
    assert "--grid" in report["error"]

    code, report = run("--grid", "2")
    assert code == 0
    assert report["outputs"]["partials"] == {"0.5": [-1.0], "1": [1.0]}

    code, report = run("--grid", "2", "--intervals")
    assert code == 0
    assert report["outputs"]["intervals"]["0.5:1"] == [2.0]


SPACE = {"base_weights": [1.0, 2.0], "fiber_cells": 2}
PROBABILITY = {"weights": [0.5, 0.5], "blocks": [[0, 1]]}
SUBSPACE = {"dim": 2, "basis": [[1.0, 0.0]]}
VECTORS = {"vectors": [[1.0, 2.0]]}
HS_CB = ["hs-cb", "--vectors", "vectors", "--subspace", "subspace"]
TYPEQ = {"space": {"base_weights": [1.0], "fiber_cells": 2},
         "a": {"rows": [[0, 1]]}, "b": {"rows": [[1, 0]]}}
TYPEQ_ARGV = ["typeq", "--space", "space", "--a", "a", "--b", "b", "--p"]
PL_FN = {"domain": [None, None], "breakpoints": [0.0], "slopes": [-1.0, 1.0], "anchor": [0.0, 0.0]}
LEGENDRE = ["legendre", "--fn", "fn"]
LP_CB = ["lp-cb", "--space", "space", "--element", "element", "--p", "2", "--grid", "2"]
# the size flags, each at the end of its argv
_LP_GRID = ["lp-cb", "--space", "space", "--element", "element", "--p", "2", "--grid"]
_LP_INTERVALS = ["lp-cb", "--space", "space", "--element", "element", "--p", "2", "--intervals", "--grid"]
_FIT_GRID = ["krivine", "approx", "--fn", "geomean(1/2)", "--eps", "0.1", "--grid"]
# every registry form of arity <= 3, at eps in [0.05, 0.5]
_FITS = st.builds(
    lambda fn, eps: ["krivine", "approx", "--fn", fn, "--eps", repr(eps), "--grid"],
    st.sampled_from(["euclid", "euclid(1)", "euclid(3)", "geomean(1/3)", "geomean(1/2)",
                     "power(2,2)", "power(3,3/2)", "halfsum_pq(1,2)", "halfsum_pq(3,1)"]),
    st.floats(0.05, 0.5),
)
_K_MAX = ["rv-cb", "--space", "prob", "--elements", "elements", "--k-max"]
_SAMPLES = ["ultra", "--prime", "3", "check-triangles", "--samples"]
_SIZE_DOCS = {
    "space": SPACE, "element": {"rows": [[0, 1], [2, 3]]}, "prob": PROBABILITY, "elements": {"elements": [[0.5, 0.25]]},
}


def _approx(spec, *extra):
    return ["krivine", "approx", "--fn", spec, "--eps", "0.1", *extra]


def _eval(term):
    return ["krivine", "eval", "--term", term, "--arity", "1", "--point", "1"]


@pytest.mark.parametrize(
    "docs, argv, expected",
    [
        ({}, ["krivine", "eval", "--term", "x0", "--arity", "1", "--point", "a"], "--point"),
        (
            {"space": SPACE, "element": {"rows": 5}},
            ["lp-cb", "--space", "space", "--element", "element", "--p", "2", "--grid", "2"],
            "/rows",
        ),
        (
            {"space": {"base_weights": ["x"], "fiber_cells": 2}, "element": {"rows": [[0, 0]]}},
            ["lp-cb", "--space", "space", "--element", "element", "--p", "2", "--grid", "2"],
            "/base_weights",
        ),
        (
            {"space": PROBABILITY, "elements": {"elements": [[0.5, "y"]]}},
            ["rv-cb", "--space", "space", "--elements", "elements", "--k-max", "1"],
            "/elements/0",
        ),
        (
            {"events": {"weights": [0.5, 0.5], "blocks": [[0, "z"]], "events": [[1, 0]]}},
            ["apr-cb", "--events", "events"],
            "/blocks/0",
        ),
        ({"subspace": {"dim": 2, "basis": [["x", 0]]}, "vectors": VECTORS}, HS_CB, "/basis"),
        ({"subspace": {"dim": 2, "basis": 5}, "vectors": VECTORS}, HS_CB, "/basis"),
        ({"subspace": {"dim": "x", "basis": []}, "vectors": VECTORS}, HS_CB, "/dim"),
        ({"subspace": SUBSPACE, "vectors": {"vectors": [["a", 0]]}}, HS_CB, "/vectors"),
        ({"subspace": SUBSPACE, "vectors": {"vectors": 5}}, HS_CB, "/vectors"),
        ({"subspace": SUBSPACE, "vectors": {"vectors": [[1, 0, 0]]}}, HS_CB, "/vectors"),
        ({"subspace": {"dim": 2.5, "basis": []}, "vectors": VECTORS}, HS_CB, "/dim"),
        ({"subspace": {"dim": True, "basis": []}, "vectors": VECTORS}, HS_CB, "/dim"),
        (
            {"space": PROBABILITY, "elements": {"elements": [[0.5, 1.0]]}},
            ["rv-cb", "--space", "space", "--elements", "elements", "--k-max", "-1"],
            "--k-max: must be >= 0",
        ),
        (TYPEQ, TYPEQ_ARGV + ["nan"], "p >= 1, got nan"),
        (TYPEQ, TYPEQ_ARGV + ["0.5"], "p >= 1, got 0.5"),
        ({}, _approx("euclid(-1)"), "--fn: "),
        ({}, _approx("euclid(0)"), "--fn: "),
        ({}, _approx("euclid(2.5)"), "--fn: "),
        ({}, _approx("geomean(x)"), "--fn: "),
        ({}, _approx("geomean(1/0)"), "--fn: "),
        ({}, _approx("power(0,1)"), "--fn: "),
        ({}, _approx("euclid", "--grid", "-5"), "--grid: must be >= 1"),
        ({}, ["ultra", "--prime", "3", "check-triangles", "--samples", "-1"], "--samples: must be >= 0"),
        ({"fn": {**PL_FN, "slopes": ["a", 1.0]}}, LEGENDRE, "/slopes"),
        ({"fn": {**PL_FN, "breakpoints": 5}}, LEGENDRE, "/breakpoints"),
        ({"fn": {**PL_FN, "domain": ["a", 1.0]}}, LEGENDRE, "/domain"),
        ({"fn": {**PL_FN, "anchor": [1.0]}}, LEGENDRE, "/anchor"),
        (
            {},
            ["krivine", "parse", "--term", "(" * 400 + "x0" + ")" * 400, "--arity", "1"],
            "at position 200",
        ),
        ({}, _eval("neg(" * 600 + "x0" + ")" * 600), "at position 800"),
        ({}, _eval("2*" * 1000 + "x0"), "at position 400"),
        ({"space": SPACE, "element": {"rows": [[0, 1], [2, 3]]}}, LP_CB + ["--out", "/nonexistent/x.json"],
         "--out: cannot write /nonexistent/x.json"),
        ({"space": SPACE, "element": {"rows": [[0, 1], [2, 3]]}}, LP_CB + ["--curve", "/nonexistent/x.csv"],
         "--curve: cannot write /nonexistent/x.csv"),
        ({"fn": PL_FN}, LEGENDRE + ["--out", "/nonexistent/o.json"], "--out: cannot write /nonexistent/o.json"),
        ({}, _approx("euclid", "--out", "/nonexistent/t.txt"), "--out: cannot write /nonexistent/t.txt"),
        ({"space": {**SPACE, "fiber_cells": 2.5}, "element": {"rows": [[0, 1], [2, 3]]}}, LP_CB, "/fiber_cells"),
        ({"space": {**SPACE, "fiber_cells": True}, "element": {"rows": [[0], [2]]}}, LP_CB, "/fiber_cells"),
        ({"space": {**SPACE, "orthogonal_part": "no"}, "element": {"rows": [[0, 1], [2, 3]]}}, LP_CB,
         "/orthogonal_part"),
        ({"space": {**SPACE, "base_weights": [10**400, 1]}, "element": {"rows": [[0, 1], [2, 3]]}}, LP_CB,
         "/base_weights"),
        ({}, ["krivine", "eval", "--term", "x0", "--arity", "1", "--point", "1e400"], "--point"),
        ({}, ["krivine", "eval", "--term", "x0", "--arity", "1", "--point", "1,2"], "--point"),
        ({}, ["krivine", "eval", "--term", "x0", "--arity", "2", "--point", "1"], "--point"),
        (
            {"space": PROBABILITY, "elements": {"elements": [[1.5, 0.2]]}},
            ["rv-cb", "--space", "space", "--elements", "elements", "--k-max", "1"],
            "elements: /elements/0/0: random-variable value 1.5",
        ),
        (
            {"events": {"weights": [0.5, 0.5], "blocks": [[0, 1]], "events": [[0.5, 0]]}},
            ["apr-cb", "--events", "events"],
            "events: /events/0/0: indicator value 0.5",
        ),
        (
            {"events": {"weights": [0.5, 0.5], "blocks": [[0, 5]], "events": [[1, 0]]}},
            ["apr-cb", "--events", "events"],
            "events: /blocks/0: references atom 5",
        ),
        (
            {"space": {"weights": [0.5, 0.5], "blocks": [[0], [1, 5]]}, "elements": {"elements": [[0.5, 0.2]]}},
            ["rv-cb", "--space", "space", "--elements", "elements", "--k-max", "1"],
            "space: /blocks/1: references atom 5",
        ),
        *(
            (
                {"space": {"weights": [0.5, 0.5], "blocks": [[0, index]]}, "elements": {"elements": [[0.5, 0.2]]}},
                ["rv-cb", "--space", "space", "--elements", "elements", "--k-max", "1"],
                "space: /blocks/0/1",
            )
            for index in ("1", 1.7, True)
        ),
        (
            {"space": {"weights": [0.5, 0.5], "blocks": [[0, 10**30]]}, "elements": {"elements": [[0.5, 0.2]]}},
            ["rv-cb", "--space", "space", "--elements", "elements", "--k-max", "1"],
            "space: /blocks: atom index out of range",
        ),
        (
            {"events": {"weights": [0.5, 0.5], "blocks": [[0, 1.7]], "events": [[1, 0]]}},
            ["apr-cb", "--events", "events"],
            "events: /blocks/0/1",
        ),
        (
            {"space": SPACE, "element": {"rows": [[0, 1], [2, 3]]}},
            ["lp-cb", "--space", "space", "--element", "element", "--p", "inf", "--grid", "2"],
            "p >= 1, got inf",
        ),
        ({}, ["demo", "p1", "--p", "inf"], "p >= 1, got inf"),
        (TYPEQ, TYPEQ_ARGV + ["inf"], "p >= 1, got inf"),
        ({"space": SPACE, "element": {"rows": [[0, math.inf], [2, 3]]}}, LP_CB,
         "element: /rows/0/1: must be finite, got inf"),
        ({}, ["ultra", "--prime", "3317044064679887385961981", "ball-dist", "0", "0", "1", "0"],
         "--prime: must be below 3317044064679887385961981"),
        ({}, ["ultra", "--prime", "561", "ball-dist", "0", "0", "1", "0"], "--prime: 561 is not prime"),
        # sizes past the cap of 2**24 entries are refused before anything is allocated
        (
            {"events": {"weights": [0.5, 0.5], "blocks": [[0, 1]], "events": [[1, 0]] * 30}},
            ["apr-cb", "--events", "events"],
            "events: /events: 2147483646 entries exceed the cap of 16777216",
        ),
        (
            {"space": PROBABILITY, "elements": {"elements": [[0.5, 0.2], [0.1, 0.3]]}},
            ["rv-cb", "--space", "space", "--elements", "elements", "--k-max", "100000"],
            "--k-max: 20000400000 entries exceed the cap of 16777216",
        ),
        ({"space": {**SPACE, "fiber_cells": 1e300}, "element": {"rows": [[0, 1], [2, 3]]}}, LP_CB,
         "space: /fiber_cells: more than 2**997 entries exceed the cap"),
        ({"space": {**SPACE, "fiber_cells": 10**12}, "element": {"rows": [[0, 1], [2, 3]]}}, LP_CB,
         "space: /fiber_cells: 2000000000000 entries exceed the cap"),
        ({"subspace": {"dim": 1e30, "basis": []}, "vectors": VECTORS}, HS_CB,
         "subspace: /dim: more than 2**99 entries exceed the cap"),
        ({"subspace": {"dim": 1, "basis": []}, "vectors": {"vectors": [[1.0]] * 4097}}, HS_CB,
         "vectors: /vectors: 16785409 entries exceed the cap of 16777216 (2**24)"),
        # size flags past their caps, refused before anything is allocated
        (_SIZE_DOCS, _LP_INTERVALS + ["20000"], "--grid: 200010000 keys exceed the cap of 16384 (2**14)"),
        (_SIZE_DOCS, _LP_INTERVALS + ["181"], "--grid: 16471 keys exceed the cap of 16384 (2**14)"),
        (_SIZE_DOCS, _LP_GRID + ["100000000"], "--grid: 100000000 keys exceed the cap of 16384 (2**14)"),
        (_SIZE_DOCS, _LP_GRID + ["16385"], "--grid: 16385 keys exceed the cap of 16384 (2**14)"),
        ({"space": {"base_weights": [1.0] * 2**11, "fiber_cells": 1}, "element": {"rows": [[0.5]] * 2**11}},
         _LP_GRID + ["8193"], "--grid: 16779264 entries exceed the cap of 16777216 (2**24)"),
        ({}, _FIT_GRID + ["100000000"], "--grid: 100000000 cones exceed the cap of 256 (2**8)"),
        ({}, _FIT_GRID + ["257"], "--grid: 257 cones exceed the cap of 256 (2**8)"),
        (_SIZE_DOCS, _K_MAX + ["16385"], "--k-max: 16385 keys exceed the cap of 16384 (2**14)"),
        ({"events": {"weights": [1.0], "blocks": [[0]], "events": [[1]] * 15}}, ["apr-cb", "--events", "events"],
         "events: /events: 32767 keys exceed the cap of 16384 (2**14)"),
        ({}, _SAMPLES + ["200"], "--samples: 200 samples exceed the cap of 64 (2**6)"),
        ({}, _SAMPLES + ["65"], "--samples: 65 samples exceed the cap of 64 (2**6)"),
        # a flag or positional whose value fails a rule is named first, and --p is checked before any read
        ({"space": SPACE, "element": {"rows": [[0, 1], [2, 3]]}}, LP_CB[:-3] + ["0.5", "--grid", "2"],
         "--p: L_p exponent must be finite and satisfy p >= 1, got 0.5"),
        ({}, ["lp-cb", "--space", "missing", "--element", "missing", "--p", "0.5", "--grid", "2"], "--p: "),
        (TYPEQ, TYPEQ_ARGV + ["0.5"], "--p: L_p exponent must be finite and satisfy p >= 1, got 0.5"),
        ({}, ["typeq", "--space", "missing", "--a", "missing", "--b", "missing", "--p", "0.5"], "--p: "),
        ({}, ["demo", "p1", "--p", "0.5"], "--p: L_p exponent must be finite and satisfy p >= 1, got 0.5"),
        ({}, ["demo", "p1", "--p", "0.5", "--eps", "x"], "--p: "),
        ({}, ["demo", "p1", "--eps", "3/10"], "--eps: eps must be of the form 1/m, got 3/10"),
        ({}, ["demo", "p1", "--eps", "1/100000000"], "--eps: fiber_cells: 100000000 entries exceed the cap"),
        ({}, ["demo", "p1", "--eps", "x"], "--eps: not a rational number: 'x'"),
        ({}, ["krivine", "approx", "--fn", "euclid", "--eps", "-1"], "--eps: must be positive, got -1.0"),
        ({}, ["krivine", "approx", "--fn", "euclid", "--eps", "nan"], "--eps: must be positive, got nan"),
        ({}, ["krivine", "parse", "--term", "x0", "--arity", "-1"], "--arity: must be >= 0, got -1"),
        ({}, ["krivine", "eval", "--term", "x0", "--arity", "-1", "--point", "1"], "--arity: must be >= 0, got -1"),
        ({}, ["krivine", "eval", "--term", "x0 \\/ x1", "--arity", "1", "--point", "1"],
         "--term: variable x1 out of range for arity 1 (at position 6)"),
        ({}, ["krivine", "parse", "--term", "x0 \\/", "--arity", "1"], "--term: "),
        ({}, ["ultra", "--prime", "3", "ball-dist", "x", "0", "1", "0"], "a: not a rational number: 'x'"),
        ({}, ["ultra", "--prime", "3", "ball-dist", "1", "x", "1", "0"], "r: not a rational number: 'x'"),
        ({}, ["ultra", "--prime", "3", "ball-dist", "1", "0", "x", "0"], "b: not a rational number: 'x'"),
        ({}, ["ultra", "--prime", "3", "ball-dist", "1", "1/2", "2", "3/2"], "s: ball radius must lie in [0, 1], got 3/2"),
        ({}, ["ultra", "--prime", "3", "ball-dist", "1", "-1", "2", "0"], "r: ball radius must lie in [0, 1], got -1"),
    ],
)
def test_malformed_input_exits_2_naming_the_pointer(tmp_path, capsys, docs, argv, expected):
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / a) if a in docs else a for a in argv]
    code = cli.dispatch(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["exit_code"] == 2
    assert expected in report["error"]


_EVAL_XY = ["krivine", "eval", "--term", "(x0 \\/ x1)", "--arity", "2"]


@pytest.mark.parametrize("docs, argv, expected", [
    ({"fn": {**PL_FN, "slopes": [-1.0, math.inf]}}, LEGENDRE, "{fn}: /slopes/1: must be finite, got inf"),
    ({"fn": {**PL_FN, "anchor": [0.0]}}, LEGENDRE, "{fn}: /anchor: expected a list of 2 reals"),
    ({"fn": {**PL_FN, "slopes": [[-1.0], [1.0]]}}, LEGENDRE, "{fn}: /slopes: expected a list of any number of reals"),
    ({}, _EVAL_XY + ["--point=1"], "--point: expected 2 coordinates, got 1"),
    ({}, _EVAL_XY + ["--point=a,1"], "--point: not a rational number: 'a'"),
    ({}, _EVAL_XY + ["--point=1e400,1"],
     "--point: coordinates: expected real numbers (integer division result too large for a float)"),
])
def test_the_short_list_rule_keeps_its_error_messages(tmp_path, capsys, docs, argv, expected):
    # the whole message, as the array rule wrote it before short lists were read without numpy
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / a) if a in docs else a for a in argv]
    assert cli.dispatch(argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["exit_code"] == 2 and report["error"] == expected.format(fn=tmp_path / "fn")


_TOO_BIG = "atom index out of range (Python int too large to convert to C long)"


@pytest.mark.parametrize("key, value, expected", [
    ("blocks", [[0, -1]], "/blocks/0/1: must be >= 0, got -1"),
    ("blocks", [[0, True]], "/blocks/0/1: must be an integer, got True"),
    ("blocks", [[1.0, 0], [1]], "/blocks: atom 1 appears more than once"),
    ("blocks", [[0, 1e300]], f"/blocks: {_TOO_BIG}"),
    ("blocks", [[0.5]], "/blocks/0/0: must be an integer, got 0.5"),
    ("blocks", [0, 1], "/blocks: expected lists of atom indices ('int' object is not iterable)"),
    ("blocks", [None], "/blocks: expected lists of atom indices ('NoneType' object is not iterable)"),
    ("blocks", 5, "/blocks: expected lists of atom indices ('int' object is not iterable)"),
    ("blocks", "ab", "/blocks/0/0: must be an integer, got 'a'"),
    ("blocks", [[0, [1]]], "/blocks/0/1: must be an integer, got [1]"),
    ("blocks", [[0, 1], [1]], "/blocks: atom 1 appears more than once"),
    ("blocks", [[1, 0, 1]], "/blocks: atom 1 appears more than once"),
    ("blocks", [[0], [7, 2], [1, 0]], "/blocks: atom 0 appears more than once"),
    ("blocks", [[0, 1], []], "/blocks/1: must be nonempty"),
    ("blocks", [[0, 2]], "/blocks/0: references atom 2 but the space has 2 atoms"),
    ("blocks", [[0, 10**30]], f"/blocks: {_TOO_BIG}"),
    ("blocks", [[0, -10**30]], "/blocks/0/1: must be >= 0, got -1000000000000000000000000000000"),
    # with two faults, the first of: a non-integer or negative entry, an
    # empty block, an index past the int range, a repeated atom, then an atom past the space
    ("blocks", [[0, 10**30], [-1]], "/blocks/1/0: must be >= 0, got -1"),
    ("blocks", [[], [0, "x"]], "/blocks/1/1: must be an integer, got 'x'"),
    ("blocks", [[], [0, 10**30]], "/blocks/0: must be nonempty"),
    ("blocks", [[1, 0], [0, 5]], "/blocks: atom 0 appears more than once"),
    ("weights", [], "/weights: a measure space needs at least one atom"),
    ("weights", [0.5, 0], "/weights/1: must be positive, got 0.0"),
    ("weights", [0.5, -1], "/weights/1: must be positive, got -1.0"),
    ("weights", ["a", 1], "/weights: expected real numbers (could not convert string to float: 'a')"),
    ("weights", [10**400, 1], "/weights: expected real numbers (int too large to convert to float)"),
    ("weights", [[0.5, 0.5]], "/weights: a measure space needs at least one atom"),
    ("weights", 5, "/weights: a measure space needs at least one atom"),
    ("weights", [None, 1], "/weights/0: must be finite, got nan"),
    ("weights", [0.5], "/blocks/0: references atom 1 but the space has 1 atoms"),
])
def test_the_blocks_and_weights_rules_keep_their_error_messages(tmp_path, capsys, key, value, expected):
    space, elements = tmp_path / "space", tmp_path / "elements"
    space.write_text(json.dumps({"weights": [0.5, 0.5], "blocks": [[0, 1]], key: value}))
    elements.write_text(json.dumps({"elements": [[0.5, 0.25]]}))
    assert cli.dispatch(["rv-cb", "--space", str(space), "--elements", str(elements), "--k-max", "1"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == f"{space}: {expected}"


@pytest.mark.parametrize("doc, expected", [
    ({"base_weights": []}, "/base_weights: a measure space needs at least one atom"),
    ({"base_weights": [1, 0]}, "/base_weights/1: must be positive, got 0.0"),
    ({"base_weights": [[1, 2]]}, "/base_weights: a measure space needs at least one atom"),
    ({"base_weights": None}, "/base_weights: must be finite, got nan"),
    ({"fiber_cells": 0}, "/fiber_cells: must be >= 1, got 0"),
])
def test_the_pair_rules_keep_their_error_messages(tmp_path, capsys, doc, expected):
    space, element = tmp_path / "space", tmp_path / "element"
    space.write_text(json.dumps({**SPACE, **doc}))
    element.write_text(json.dumps({"rows": [[0, 1], [2, 3]]}))
    assert cli.dispatch([str(space) if a == "space" else str(element) if a == "element" else a for a in LP_CB]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == f"{space}: {expected}"


_RAGGED = ("expected real numbers (setting an array element with a sequence. "
           "The requested array has an inhomogeneous shape")
_ORTH = {**SPACE, "orthogonal_part": True}


@pytest.mark.parametrize("space, element, expected", [
    (SPACE, {"rows": [[0, "a"], [2, 3]]}, "/rows: expected real numbers (could not convert string to float: 'a')"),
    (SPACE, {"rows": [[0, 10**400], [2, 3]]}, "/rows: expected real numbers (int too large to convert to float)"),
    (SPACE, {"rows": [[0, 1], [2]]},
     f"/rows: {_RAGGED} after 1 dimensions. The detected shape was (2,) + inhomogeneous part.)"),
    (SPACE, {"rows": [[0, 1], [2, [3]]]},
     f"/rows: {_RAGGED} after 2 dimensions. The detected shape was (2, 2) + inhomogeneous part.)"),
    (SPACE, {"rows": [[0, 1], [2, None]]}, "/rows/1/1: must be finite, got nan"),
    (SPACE, {"rows": [[0, 1], [2, 3], [4, 5]]}, "/rows: expected 2 fiber rows of 2 cells, got shape (3, 2)"),
    (SPACE, {"rows": "ab"}, "/rows: expected real numbers (could not convert string to float: 'ab')"),
    (SPACE, {"rows": [[0, 1], [2, 3]], "plus": [1.0, 0.0]}, "/plus: fiber given but the pair has no orthogonal part"),
    (_ORTH, {"rows": [[0, 1], [2, 3]], "plus": [1.0, 1e400]}, "/plus/1: must be finite, got inf"),
    (_ORTH, {"rows": [[0, 1], [2, 3]], "minus": [[1.0, 2.0]]}, "/minus: expected 2 cells, got shape (1, 2)"),
    (_ORTH, {"rows": [[0, 1], ["1e999", 3]]}, "/rows/1/0: must be finite, got inf"),
    (_ORTH, {"rows": [[True, 1], [2, 3]], "minus": [{}, 0]},
     "/minus: expected real numbers (float() argument must be a string or a real number, not 'dict')"),
])
def test_the_element_rules_keep_their_error_messages(tmp_path, capsys, space, element, expected):
    # the whole message, as numpy's array rule wrote it before elements were read without numpy
    report = _report(tmp_path, capsys, LP_CB, {"space": space, "element": element})
    assert report["exit_code"] == 2 and report["error"] == f"{tmp_path / 'element'}: {expected}"


@pytest.mark.parametrize(
    "content, expected",
    [
        (b"\xff\xfe{}", "invalid JSON ('utf-8' codec can't decode"),
        (b"[" * 100_000, "invalid JSON (maximum recursion depth"),
        (b'{"domain": ', "invalid JSON (Expecting value"),
        (b"[]", "expected a JSON object"),
        (None, "No such file"),
    ],
)
def test_unreadable_documents_exit_2_naming_the_file(tmp_path, capsys, content, expected):
    path = tmp_path / "fn.json"
    if content is not None:
        path.write_bytes(content)
    code = cli.dispatch(["legendre", "--fn", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["exit_code"] == 2
    assert str(path) in report["error"] and expected in report["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["frobnicate"],
        _approx("euclid", "--seed", "1"),
        ["ultra", "--prime", "3", "check-triangles", "--seed", "1"],
    ],
)
def test_usage_errors_exit_1_with_the_usage_on_stderr(capsys, argv):
    assert cli.dispatch(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: ") and "usage: canonlab" in err


def test_help_exits_0_with_a_one_line_description(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.dispatch(["--help"])
    out, err = capsys.readouterr()
    assert exit_.value.code == 0 and err == ""
    usage, description, rest = out.split("\n\n", 2)
    assert usage.startswith("usage: canonlab") and rest.startswith("positional arguments:")
    assert description == "Command-line front end: JSON input, deterministic run reports on stdout."
    # under -OO the module has no docstring, and the help has no description
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-OO", "-m", "canonbase_lab", "--help"],
                          env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0 and proc.stdout.split("\n\n")[1].startswith("positional arguments:")


def test_a_large_prime_is_accepted_at_once(capsys):
    start = time.perf_counter()
    code = cli.dispatch(["ultra", "--prime", str(2**61 - 1), "ball-dist", "0", "0", "1", "0"])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(capsys.readouterr().out)["outputs"] == {"distance": "1"}


def test_a_flat_chain_too_long_to_render_back_parses_without_roundtrip(capsys):
    # to_text writes one group per join, so 300 operands render 299 groups deep
    term = " \\/ ".join(f"x{k % 2}" for k in range(300))
    code = cli.dispatch(["krivine", "parse", "--arity", "2", "--term", term])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["checks"] == {"roundtrip": False}


def test_long_flat_chain_evaluates(capsys):
    code = cli.dispatch(_eval(" \\/ ".join(["x0"] * 1200)))
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["outputs"]["value"] == 1.0


def test_a_fit_that_misses_eps_stops_at_the_fan_cap(monkeypatch, capsys):
    from canonbase_lab import krivine

    fans = []
    assemble = krivine._max_min_ast
    monkeypatch.setattr(krivine, "_max_min_ast", lambda *args: fans.append(len(args[1])) or assemble(*args))
    code = cli.dispatch(["krivine", "approx", "--fn", "euclid(6)", "--eps", "0.01"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["checks"] == {"reached_eps": False}
    assert report["outputs"]["certified_error"] > 0.01
    assert len(fans) == 1 and fans[0] <= krivine.MAX_FAN


def test_tracer_still_finds_every_krivine_name(tmp_path, capsys):
    # the benchmark's tracer patches krivine's public functions by name
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    patched = list(tracer._saved)
    out = tmp_path / "term.txt"
    try:
        code = cli.dispatch(["krivine", "approx", "--fn", "geomean(1/2)", "--eps", "0.05", "--out", str(out)])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert code == 0
    assert tracer.counts["krivine.eval_array_calls"] >= 1
    assert tracer.counts["krivine.term_chars"] == len(out.read_text().rstrip("\n"))
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in patched)


def test_tracer_still_finds_every_rv_canon_name(tmp_path, capsys):
    # the tracer patches rv_canon.apr_cb, cond_moment and cond_exp by name and
    # counts the subsets of each apr_cb result
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    events = tmp_path / "events.json"
    events.write_text(json.dumps({"weights": [0.25] * 4, "blocks": [[0, 1], [2]],
                                  "events": [[1, 0, 1, 1], [1, 1, 0, 1], [0, 1, 1, 1]]}))
    (tmp_path / "space.json").write_text(json.dumps(PROBABILITY))
    (tmp_path / "xs.json").write_text(json.dumps({"elements": [[0.25, 1.0]]}))
    tracer = module.Tracer()
    tracer.install()
    patched = list(tracer._saved)
    try:
        codes = [
            cli.dispatch(["apr-cb", "--events", str(events)]),
            cli.dispatch(["rv-cb", "--space", str(tmp_path / "space.json"),
                          "--elements", str(tmp_path / "xs.json"), "--k-max", "2"]),
        ]
    finally:
        tracer.restore()
    capsys.readouterr()
    assert codes == [0, 0]
    assert tracer.counts["rv_canon.apr_cb_calls"] == 1
    assert tracer.counts["rv_canon.subsets"] == 7
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in patched)


@pytest.mark.parametrize("workload", ["canon-base", "moments-events", "krivine-fit"])
def test_benchmark_outputs_pass_the_benchmark_checks(tmp_path, monkeypatch, workload):
    # the benchmark's inputs at seed 7, run in order through cli.dispatch and
    # judged by its own verify; run.py imports checks and gen by plain name
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    for name in ("checks", "gen", "run"):
        spec = importlib.util.spec_from_file_location(name, perfbench / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)  # dataclasses look the module up
        spec.loader.exec_module(module)
    run = sys.modules["run"]
    calls = run.gen.write_inputs(workload, 7, tmp_path)
    results = run.inprocess_pass(calls)
    problems = {c.label: run.verify(c, code, text) for c, (code, text, _) in zip(calls, results)}
    assert {label: why for label, why in problems.items() if why} == {}


# -- the report encoder ------------------------------------------------------------

_SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1e-5, math.nextafter(1e-5, 0.0), math.nextafter(1e-5, 1.0),
    1e16, math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf),
    math.nan, math.inf, -math.inf, 0.1, 1.0, -2.5,
]
_floats = st.one_of(st.sampled_from(_SPECIAL), st.floats())


@st.composite
def _arrays(draw):
    # values repeat, as in block-measurable outputs; both zeros are common
    pool = draw(st.lists(_floats | st.sampled_from([0.0, -0.0]), min_size=1, max_size=4))
    return memoryview(np.array(draw(st.lists(st.sampled_from(pool), max_size=12)), dtype=np.float64))


_strings = st.one_of(st.text(), st.sampled_from(["é", "\n\t\"\\", "\u2028", "\x00", "💡", "日本"]))
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**40), 10**40), _floats, _strings
)
_docs = st.recursive(
    _scalars | _arrays(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_strings, inner, max_size=4),
    max_leaves=24,
)


def _as_lists(doc):
    if isinstance(doc, memoryview):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: _as_lists(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_as_lists(v) for v in doc]
    return doc


@given(_docs, st.dictionaries(_strings, _arrays(), max_size=4))
@example({}, {"m": memoryview(np.repeat([0.1, 0.0, -0.0, 1e16], 3)), "z": memoryview(np.array([-0.0, 0.0]))})
@example([memoryview(np.array([])), [], {}, {"": [[], {}]}], {"": memoryview(np.array([math.nan, math.inf, -math.inf]))})
def test_encode_is_byte_identical_to_json_dumps(doc, arrays):
    # shaped like a run report: a map of buffers next to an arbitrary document
    doc = {"outputs": arrays, "rest": doc}
    assert "".join(cli._encode(doc)) == json.dumps(_as_lists(doc), sort_keys=True, indent=2)


@st.composite
def _matrices(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    pool = draw(st.lists(_floats | st.sampled_from([0.0, -0.0]), min_size=1, max_size=4))
    values = draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=np.float64).reshape(rows, cols)


@given(st.lists(_matrices(), max_size=3))
@example([np.zeros((0, 3)), np.zeros((2, 0)), np.array([[-0.0, 0.0], [math.nan, 1e16]])])
def test_encode_writes_a_matrix_as_the_list_of_its_rows(matrices):
    doc = {"matrices": [[*map(memoryview, m)] for m in matrices], "after": 1}
    assert "".join(cli._encode(doc)) == json.dumps(_as_lists(doc), sort_keys=True, indent=2)


@pytest.mark.parametrize("leaf", [np.zeros(2), np.zeros((2, 2)), np.zeros(0)], ids=["1-D", "2-D", "empty"])
def test_encode_refuses_an_ndarray_leaf(leaf):
    # the handlers hand over buffers and row buffers; an array is not a leaf
    with pytest.raises(TypeError):
        "".join(cli._encode({"values": leaf}))


def test_hs_cb_reports_1024_vectors_within_two_seconds(tmp_path, capsys):
    vs = np.random.default_rng(11).uniform(-1.0, 1.0, (1024, 1))
    (tmp_path / "vectors").write_text(json.dumps({"vectors": vs.tolist()}))
    (tmp_path / "subspace").write_text(json.dumps({"dim": 1, "basis": [[1.0]]}))
    start = time.perf_counter()
    code = cli.dispatch([str(tmp_path / a) if a in ("vectors", "subspace") else a for a in HS_CB])
    seconds = time.perf_counter() - start
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    assert code == 0 and seconds < 2.0, seconds
    assert outputs == {"projections": vs.tolist(), "gram": (vs @ vs.T).tolist()}


@st.composite
def _block_tables(draw):
    # string keys, rows of values per block plus the off-support column, and atom labels
    keys = draw(st.lists(_strings, unique=True, max_size=4))
    blocks = draw(st.integers(0, 3))
    pool = draw(st.lists(_floats, min_size=1, max_size=4))
    table = np.array(draw(st.lists(st.sampled_from(pool), min_size=len(keys) * (blocks + 1),
                                   max_size=len(keys) * (blocks + 1))), dtype=np.float64)
    labels = np.array(draw(st.lists(st.integers(0, blocks), min_size=1, max_size=6)), dtype=np.intp)
    return BlockTable(keys, table.reshape(len(keys), blocks + 1), labels)


def _cycling_table(atoms: int) -> BlockTable:
    """A table of two keys on ``atoms`` atoms, whose labels cycle through
    three blocks and the column off the support."""
    table = np.array([[0.5, -0.0, 1e16, 0.0], [math.nan, 0.1, -1.5, 0.0]])
    return BlockTable(["b", "a"], table, np.arange(atoms) % 4)


@given(_block_tables())
@example(BlockTable(["b", "a"], np.array([[0.5, -0.0, 0.0], [math.nan, 1e16, 0.0]]), np.array([2, 0, 1])))
# lists of about one and several chunks, which are gathered one at a time
@example(_cycling_table(cli.CHUNK_ATOMS - 1))
@example(_cycling_table(cli.CHUNK_ATOMS))
@example(_cycling_table(cli.CHUNK_ATOMS + 1))
@example(_cycling_table(3 * cli.CHUNK_ATOMS + 1))
def test_encode_writes_a_block_table_as_the_map_of_its_elements(table):
    doc = {"table": cli._columns(table.keys, table), "after": 1}
    rows = {key: row[table.labels].tolist() for key, row in zip(table.keys, table.table)}
    as_lists = {"table": rows, "after": 1}
    text, expected = "".join(cli._encode(doc)), json.dumps(as_lists, sort_keys=True, indent=2)
    same = text == expected  # a flag, so a failure names a position instead of diffing 400 kB of text
    assert same, f"the texts part at character {len(os.path.commonprefix([text, expected]))}"


def test_rv_cb_rows_equal_cond_moment_bit_for_bit(tmp_path, capsys):
    rng = np.random.default_rng(5)
    weights = rng.uniform(0.5, 2.0, 40)
    weights /= weights.sum()
    labels = rng.integers(-1, 6, 40)  # -1 is off the support
    blocks = [np.flatnonzero(labels == b).tolist() for b in range(6) if (labels == b).any()]
    xs = rng.uniform(0.0, 1.0, (2, 40))
    (tmp_path / "space.json").write_text(json.dumps({"weights": weights.tolist(), "blocks": blocks}))
    (tmp_path / "xs.json").write_text(json.dumps({"elements": xs.tolist()}))
    code = cli.dispatch(["rv-cb", "--space", str(tmp_path / "space.json"),
                         "--elements", str(tmp_path / "xs.json"), "--k-max", "3"])
    moments = json.loads(capsys.readouterr().out)["outputs"]["moments"]
    assert code == 0 and len(moments) == 15
    space = MeasureSpace(weights)
    elements = [LatticeElement(space, x) for x in xs]
    s = SubStructure(blocks)
    for key, values in moments.items():
        ks = tuple(map(int, key.split(",")))
        monomial = np.ones(40)
        for x, k in zip(elements, ks):
            monomial = monomial * x.array**k
        assert values == cond_moment(elements, ks, s).array.tolist()
        assert values == cond_exp(LatticeElement(space, monomial), s).array.tolist()


@pytest.mark.parametrize("blocks, moments, probabilities", [
    ([], {"1": [0.0, 0.0, 0.0], "2": [0.0, 0.0, 0.0]},
     {"0": [0.0, 0.0, 0.0], "0,1": [0.0, 0.0, 0.0], "1": [0.0, 0.0, 0.0]}),
    ([[2, 0]], {"1": [0.4166666666666667, 0.0, 0.4166666666666667], "2": [0.1875, 0.0, 0.1875]},
     {"0": [1.0, 0.0, 1.0], "0,1": [0.6666666666666666, 0.0, 0.6666666666666666],
      "1": [0.6666666666666666, 0.0, 0.6666666666666666]}),
], ids=["no blocks", "partial support"])
def test_atoms_off_the_support_read_zero(tmp_path, monkeypatch, capsys, blocks, moments, probabilities):
    # the whole report, byte for byte
    monkeypatch.chdir(tmp_path)
    weights = [0.5, 0.25, 0.25]
    _write(tmp_path, "prob.json", {"weights": weights, "blocks": blocks})
    _write(tmp_path, "xs.json", {"elements": [[0.5, 1.0, 0.25]]})
    _write(tmp_path, "events.json", {"weights": weights, "blocks": blocks, "events": [[1, 0, 1], [1, 1, 0]]})
    calls = [
        (["rv-cb", "--space", "prob.json", "--elements", "xs.json", "--k-max", "2"],
         {"k_max": 2, "moments": moments}),
        (["apr-cb", "--events", "events.json"], {"conditional_probabilities": probabilities}),
    ]
    for argv, outputs in calls:
        assert cli.dispatch(argv) == 0
        inputs = {a: hashlib.sha256(Path(a).read_bytes()).hexdigest() for a in argv if a.endswith(".json")}
        report = {"checks": {}, "command": argv, "exit_code": 0, "inputs": inputs, "outputs": outputs}
        assert capsys.readouterr().out == json.dumps(report, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["rv-cb", "--space", "prob", "--elements", "elements", "--k-max", "2"],
    ["apr-cb", "--events", "events"],
], ids=lambda argv: argv[0])
def test_every_parsed_document_is_released_before_the_kernel_runs(tmp_path, capsys, monkeypatch, argv):
    from canonbase_lab import rv_canon

    class Document(dict):  # a dict that a weak reference can follow
        pass

    documents, alive = [], []
    read_json = cli._read_json

    def tracked(*args):
        doc = Document(read_json(*args))
        documents.append(weakref.ref(doc))
        return doc

    def counted(kernel):
        return lambda *args: alive.append(sum(ref() is not None for ref in documents)) or kernel(*args)

    monkeypatch.setattr(cli, "_read_json", tracked)
    for name in ("cond_moments", "apr_cb"):
        monkeypatch.setattr(rv_canon, name, counted(getattr(rv_canon, name)))
    docs = {"prob": PROBABILITY, "elements": {"elements": [[0.5, 0.25]]},
            "events": {**PROBABILITY, "events": [[1, 0], [1, 1]]}}
    assert _report(tmp_path, capsys, argv, docs)["exit_code"] == 0
    assert documents and alive == [0]


def test_emit_joins_small_chunks_and_writes_a_large_one_as_it_is(monkeypatch):
    writes = []
    chunks = ["a" * 10] * 10_000 + ["b" * (cli.WRITE_CHARS + 1), "c"]
    monkeypatch.setattr(cli, "_encode", lambda report: iter(chunks))
    monkeypatch.setattr(sys, "stdout", type("Sink", (), {"write": staticmethod(writes.append)})())
    cli._emit({})
    assert "".join(writes) == "".join(chunks) + "\n"
    full = cli.WRITE_CHARS // 10 * 10  # the most "a" chunks that one write holds
    assert list(map(len, writes)) == [full, 100_000 - full, cli.WRITE_CHARS + 1, 2]


# -- golden reports: the stdout and --out path of a real subprocess ------------

def _canonical(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, indent=2)


def _run_canonlab(tmp_path, *argv):
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("CANONLAB_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "canonbase_lab", *map(str, argv)],
        cwd=tmp_path, env=env, capture_output=True, text=True, encoding="utf-8", check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_reports_and_out_files_are_the_stdlib_encoding(tmp_path):
    prob = _write(tmp_path, "prob.json", {"weights": [1, 2, 1, 1, 3, 0.5], "blocks": [[0, 1, 2], [3, 4, 5]]})
    elems = _write(tmp_path, "elems.json", {"elements": [[0.1, 0.1, 0.7, 0.0, 1.0, 0.3], [1, 0, 0, 0.5, 0.5, 1e-7]]})
    events = _write(tmp_path, "events.json", {
        "weights": [1, 1, 2, 1], "blocks": [[0, 1], [2, 3]],
        "events": [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1]],
    })
    space = _write(tmp_path, "space.json", {"base_weights": [1, 2], "fiber_cells": 3, "orthogonal_part": True})
    element = _write(tmp_path, "element.json", {
        "rows": [[-2, 4, 0.1], [1e-5, -0.0, 3]], "plus": [1, 0, 2], "minus": [0, 0.5, 0],
    })
    lp = ["lp-cb", "--space", space, "--element", element, "--p", 2, "--grid", 3]
    vectors = _write(tmp_path, "vectors.json", {"vectors": [[1, 2, 0.5], [-0.0, 1e16, 3], [0.1, 0, -7]]})
    subspace = _write(tmp_path, "subspace.json", {"dim": 3, "basis": [[0.6, 0.8, 0], [0, 0, 1]]})
    none = _write(tmp_path, "none.json", {"vectors": []})
    zero = _write(tmp_path, "zero.json", {"dim": 0, "basis": []})
    zero_vectors = _write(tmp_path, "zero_vectors.json", {"vectors": [[], []]})
    runs = [
        (["rv-cb", "--space", prob, "--elements", elems, "--k-max", 2, "--out", "rv.json"], "rv.json"),
        (["apr-cb", "--events", events], None),
        (lp + ["--out", "partials.json"], "partials.json"),
        (lp + ["--intervals", "--out", "intervals.json"], "intervals.json"),
        (["hs-cb", "--vectors", vectors, "--subspace", subspace], None),
        (["hs-cb", "--vectors", none, "--subspace", subspace], None),
        (["hs-cb", "--vectors", zero_vectors, "--subspace", zero], None),
    ]
    for argv, out in runs:
        stdout = _run_canonlab(tmp_path, *argv)
        assert stdout == _canonical(stdout) + "\n"
        if out is not None:
            text = (tmp_path / out).read_text(encoding="utf-8")
            assert text == _canonical(text)
            assert json.loads(text) == json.loads(stdout)["outputs"]


# -- input digests: each input is read once, and its digest is of the bytes parsed ----

def _document(size: int, newline: bytes) -> bytes:
    """PL_FN as JSON text with a ``newline`` line break in its whitespace,
    padded with spaces to ``size`` bytes (no padding where the text is longer)."""
    text = b"{" + newline + json.dumps(PL_FN).encode()[1:]
    return text + b" " * (size - len(text))


def _digest_is_sha256(tmp_path, data: bytes, doc: dict) -> None:
    """The reader parses the bytes ``data`` into ``doc`` and records the
    SHA-256 of those bytes, not of the text they decode to."""
    path = str(tmp_path / "input.json")
    Path(path).write_bytes(data)
    assert cli._read_json(path) == doc
    assert cli._INPUTS[path] == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("size", [0, 2**20 - 1, 2**20, 5 * 2**20 + 3])
def test_the_digest_is_sha256_at_every_size(tmp_path, size):
    for newline in (b"\n", b"\r\n", b"\r"):
        data = _document(size, newline)
        assert len(data) == size or size == 0
        _digest_is_sha256(tmp_path, data, PL_FN)


_WHITESPACE = st.text(" \t\n\r", max_size=4).map(str.encode)


@given(st.dictionaries(st.text(max_size=4), st.text(max_size=4) | st.integers(), max_size=4),
       st.lists(_WHITESPACE, min_size=2, max_size=2))
def test_the_digest_is_sha256_of_the_bytes(tmp_path_factory, doc, pads):
    data = pads[0] + json.dumps(doc, ensure_ascii=False).encode() + pads[1]
    _digest_is_sha256(tmp_path_factory.mktemp("digest"), data, doc)


@pytest.mark.parametrize(
    "content, expected",
    [
        (b'{\r\n  "domain": [null, null],\r\n  "breakpoints": [0.0],\r\n  "slopes": [-1.0, 1.0]\r\n'
         b'  "anchor": [0.0, 0.0]\r\n}\r\n', "Expecting ',' delimiter: line 5 column 3 (char 78)"),
        (b'{\r  "domain": [null, null],\r  "breakpoints": [0.0],\r  "slopes": [-1.0, 1.0]\r'
         b'  "anchor": [0.0, 0.0]\r}\r', "Expecting ',' delimiter: line 5 column 3 (char 78)"),
        (b'{\r\n  "domain": [null, null],\r  "breakpoints": [0.0],\r\n\r  "slopes": [-1.0, 1.0]\n'
         b'  "anchor": [0.0, 0.0]\r\n}', "Expecting ',' delimiter: line 6 column 3 (char 79)"),
        (b"\xef\xbb\xbf" + json.dumps(PL_FN).encode(),
         "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (b'{\r\n  "domain": [null, null],\r\n  "name": "\xff"\r\n}',
         "'utf-8' codec can't decode byte 0xff in position 41: invalid start byte"),
    ],
    ids=["crlf", "lone-cr", "mixed", "bom", "bad-utf-8"],
)
def test_malformed_text_keeps_its_error_text(tmp_path, capsys, content, expected):
    # a \r\n and a lone \r are each one line break and one character, as in text mode
    path = tmp_path / "fn.json"
    path.write_bytes(content)
    assert cli.dispatch(["legendre", "--fn", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == f"{path}: invalid JSON ({expected})" and "inputs" not in report


def _report(tmp_path, capsys, argv, docs=None) -> dict:
    """The report of ``argv``, each word that names one of ``docs`` taken as
    that file in ``tmp_path``, written there first."""
    for name, doc in (docs or {}).items():
        (tmp_path / name).write_text(json.dumps(doc))
    code = cli.dispatch([str(tmp_path / a) if a in (docs or {}) else a for a in argv])
    report = json.loads(capsys.readouterr().out)
    assert report["exit_code"] == code
    return report


_DIGEST_DOCS = {
    "fn": PL_FN, "space": SPACE, "element": {"rows": [[0, 1], [2, 3]]}, "other": {"rows": [[1, 0], [3, 2]]},
    "prob": PROBABILITY, "elements": {"elements": [[0.5, 0.25]]},
    "events": {**PROBABILITY, "events": [[1, 0], [1, 1]]}, "vectors": VECTORS, "subspace": SUBSPACE,
}


@pytest.mark.parametrize(
    "argv",
    [
        LEGENDRE + ["--out", "fn"],
        LP_CB + ["--out", "space", "--curve", "element"],
        ["rv-cb", "--space", "prob", "--elements", "elements", "--k-max", "2", "--out", "elements"],
        ["rv-cb", "--space", "prob", "--elements", "elements", "--k-max", "2", "--out", "prob"],
    ],
    ids=["legendre", "lp-cb", "rv-cb-elements", "rv-cb-space"],
)
def test_the_digest_is_of_the_bytes_read_when_an_output_replaces_the_input(tmp_path, capsys, argv):
    docs = {a: _DIGEST_DOCS[a] for a in argv if a in _DIGEST_DOCS}
    read = {str(tmp_path / name): json.dumps(doc).encode() for name, doc in docs.items()}
    report = _report(tmp_path, capsys, argv, docs)
    assert report["exit_code"] == 0
    assert report["inputs"] == {path: hashlib.sha256(data).hexdigest() for path, data in read.items()}
    assert any((Path(path).read_bytes() != data) for path, data in read.items())  # an input was replaced


@pytest.mark.parametrize(
    "argv",
    [
        LEGENDRE,
        LP_CB,
        ["typeq", "--space", "space", "--a", "element", "--b", "other", "--p", "2"],
        ["rv-cb", "--space", "prob", "--elements", "elements", "--k-max", "2"],
        ["apr-cb", "--events", "events"],
        HS_CB,
    ],
    ids=lambda argv: argv[0],
)
def test_every_input_is_opened_once(tmp_path, capsys, monkeypatch, argv):
    import builtins
    opened, real_open = {}, builtins.open

    def counting_open(file, *args, **kwargs):
        opened[str(file)] = opened.get(str(file), 0) + 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    docs = {a: _DIGEST_DOCS[a] for a in argv if a in _DIGEST_DOCS}
    report = _report(tmp_path, capsys, argv, docs)
    paths = {str(tmp_path / name) for name in docs}
    assert report["exit_code"] in (0, 3) and set(report["inputs"]) == paths
    assert {path: opened.get(path) for path in paths} == dict.fromkeys(paths, 1)


def test_typeq_reads_a_file_named_by_a_and_b_once(tmp_path, capsys, monkeypatch):
    import builtins
    opened, real_open = [], builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    typeq = ["typeq", "--space", "space", "--a", "element", "--b", "element", "--p", "2"]
    report = _report(tmp_path, capsys, typeq, _DIGEST_DOCS)
    element = str(tmp_path / "element")
    assert report["exit_code"] == 0 and report["outputs"] == {"equal": True}
    assert opened.count(element) == 1
    assert report["inputs"][element] == hashlib.sha256(json.dumps(_DIGEST_DOCS["element"]).encode()).hexdigest()


def test_inputs_name_each_file_once_and_only_for_this_call(tmp_path, capsys):
    typeq = ["typeq", "--space", "space", "--a", "element", "--b", "element", "--p", "2"]
    report = _report(tmp_path, capsys, typeq, _DIGEST_DOCS)
    assert sorted(report["inputs"]) == [str(tmp_path / "element"), str(tmp_path / "space")]
    bad = _report(tmp_path, capsys, LP_CB, {"element": {"rows": [[0, 1]]}})
    assert bad["exit_code"] == 2 and "inputs" not in bad
    assert _report(tmp_path, capsys, LP_CB, _DIGEST_DOCS)["inputs"]
    assert _report(tmp_path, capsys, ["demo", "remark"])["inputs"] == {}


# -- verdicts do not depend on units; no environment knob -------------------------

def _typeq(tmp_path, capsys, scale, shuffled, *flags):
    """Exit code of typeq on an element near ``scale`` against its
    within-fiber shuffle, or else against 1.5 times itself."""
    rng = np.random.default_rng(3)
    rows, plus, minus = (rng.uniform(0.5, 1.5, shape) * scale for shape in ((3, 8), 8, 8))
    if shuffled:
        other = (rng.permuted(rows, axis=1), rng.permutation(plus), -rng.permutation(minus))
    else:
        other = (1.5 * rows, 1.5 * plus, -1.5 * minus)
    docs = {
        "space": {"base_weights": [1.0, 2.0, 0.5], "fiber_cells": 8, "orthogonal_part": True},
        "a": {"rows": rows.tolist(), "plus": plus.tolist(), "minus": (-minus).tolist()},
        "b": dict(zip(("rows", "plus", "minus"), (x.tolist() for x in other))),
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / a) if a in docs else a for a in TYPEQ_ARGV]
    code = cli.dispatch(argv + ["2", *flags])
    assert json.loads(capsys.readouterr().out)["exit_code"] == code
    return code


def test_typeq_accepts_a_shuffle_of_large_values(tmp_path, capsys):
    for scale in (1e5, 1e10):
        assert _typeq(tmp_path, capsys, scale, True, "--absolute") == 0
        assert _typeq(tmp_path, capsys, scale, True) == 0


def test_typeq_separates_small_values_from_their_multiple(tmp_path, capsys):
    assert _typeq(tmp_path, capsys, 1e-10, False) == 3
    assert _typeq(tmp_path, capsys, 1e-10, False, "--absolute") == 3


def test_seed_environment_variable_is_ignored():
    env = dict(os.environ, CANONLAB_SEED="x")
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "canonbase_lab", "demo", "remark"],
        env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["checks"]["witness_separates"] is True


def test_legendre_roundtrip_holds_where_phi_vanishes(tmp_path, capsys):
    # phi is 0 at its one breakpoint, and the biconjugate gives 6.9e-18 there:
    # rounding noise on the scale of the slope-times-position terms
    fn = _write(tmp_path, "fn.json", {"domain": [None, None], "breakpoints": [0.024],
                                      "slopes": [-1.7, -0.4], "anchor": [0.024, 0.0]})
    assert cli.dispatch(["legendre", "--fn", str(fn)]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]["biconjugate_roundtrip"] is True


_WRONG_SLOPE = [
    # an affine function has no breakpoint, so a check at the breakpoints compares nothing
    ({"domain": [None, None], "breakpoints": [], "slopes": [2.0], "anchor": [0.0, 1.0]}, (), (3.0,)),
    # |x| agrees with the wrong biconjugate at its breakpoint, so only the outer slope tells them apart
    (PL_FN, (0.0,), (-1.0, 2.0)),
]


@pytest.mark.parametrize("doc, breakpoints, slopes", _WRONG_SLOPE)
def test_the_biconjugate_check_compares_the_pieces_and_the_anchor_value(tmp_path, capsys, monkeypatch,
                                                                        doc, breakpoints, slopes):
    from canonbase_lab import legendre

    calls, conjugate = [], legendre.conjugate

    def wrong_second(fn):
        calls.append(fn)
        if len(calls) < 2:
            return conjugate(fn)
        return legendre.PLConvexFn(-math.inf, math.inf, breakpoints, slopes, 0.0, conjugate(fn).evaluate(0.0))

    monkeypatch.setattr(legendre, "conjugate", wrong_second)
    assert cli.dispatch(["legendre", "--fn", str(_write(tmp_path, "fn.json", doc))]) == 0
    assert len(calls) == 2 and json.loads(capsys.readouterr().out)["checks"] == {"biconjugate_roundtrip": False}


@pytest.mark.parametrize("doc, conjugate", [
    # the whole-line affine function 2x + 1 and the point function at 2 with value -1 are each other's conjugate
    ({"domain": [None, None], "breakpoints": [], "slopes": [2], "anchor": [0, 1]},
     {"domain": [2.0, 2.0], "breakpoints": [], "slopes": [], "anchor": [2.0, -1.0]}),
    ({"domain": [1.5, 1.5], "breakpoints": [], "slopes": [], "anchor": [1.5, 2]},
     {"domain": [None, None], "breakpoints": [], "slopes": [1.5], "anchor": [0.0, -2.0]}),
], ids=["affine", "point"])
def test_legendre_conjugates_an_affine_function_and_a_point_function(tmp_path, capsys, doc, conjugate):
    assert cli.dispatch(["legendre", "--fn", str(_write(tmp_path, "fn.json", doc))]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["outputs"] == {"conjugate": conjugate}
    assert report["checks"] == {"biconjugate_roundtrip": True}


def test_krivine_approx_fits_the_one_variable_norm_exactly(capsys):
    # euclid(1) is |x0|, which the arity-1 fit writes as the sum of its positive and negative parts
    assert cli.dispatch(["krivine", "approx", "--fn", "euclid(1)", "--eps", "0.01"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["outputs"] == {"certified_error": 0.0, "function": "euclid(1)",
                                 "term": "2*avg(1*(x0 \\/ 0), 1*(neg(x0) \\/ 0))", "term_chars": 36}
    assert report["checks"] == {"reached_eps": True}


def test_closed_stdout_exits_141_without_a_traceback(monkeypatch):
    class Closed:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def writelines(self, chunks):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return sink.fileno()

    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", Closed())
        monkeypatch.setattr(sys, "argv", ["canonlab", "demo", "remark"])
        with pytest.raises(SystemExit) as exit_:
            cli.main()
    assert exit_.value.code == 141


def test_a_reader_that_closes_the_pipe_early_gets_exit_141():
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(
        [sys.executable, "-m", "canonbase_lab", "demo", "p1", "--eps", "1/65536"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # long before the child writes its report
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141 and stderr == b""


CURVE_OF_INTERVALS = "--curve: the curve is of the partials, so it cannot be given with --intervals"


def test_curve_is_a_csv_of_the_partials(tmp_path, capsys):
    space = _write(tmp_path, "space.json", {"base_weights": [1, 2], "fiber_cells": 3})
    element = _write(tmp_path, "element.json", {"rows": [[1, 0, 2], [0.1, -1 / 3, 2 / 7]]})
    lp = ["lp-cb", "--space", str(space), "--element", str(element), "--p", "2", "--grid", "3"]
    curve = tmp_path / "curve.csv"
    assert cli.dispatch(lp + ["--curve", str(curve)]) == 0
    partials = json.loads(capsys.readouterr().out)["outputs"]["partials"]
    lines = curve.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,atom_0,atom_1"
    assert len(lines) == 4
    for line, t in zip(lines[1:], (1 / 3, 2 / 3, 1.0)):
        assert line.split(",") == [f"{x:.12g}" for x in (t, *partials[f"{t:.12g}"])]
    assert lines[1] == "0.333333333333,0,-0.111111111111"
    assert cli.dispatch(lp + ["--intervals", "--curve", str(curve)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == CURVE_OF_INTERVALS


def test_a_failed_call_leaves_none_of_its_output_files(tmp_path, capsys):
    space = _write(tmp_path, "space.json", {"base_weights": [1, 2], "fiber_cells": 3})
    element = _write(tmp_path, "element.json", {"rows": [[1, 0, 2], [0.1, -1 / 3, 2 / 7]]})
    out, curve = tmp_path / "ok.json", tmp_path / "curve.csv"

    def run(*extra):
        code = cli.dispatch(["lp-cb", "--space", str(space), "--element", str(element), "--p", "2",
                             "--grid", "3", "--out", str(out), *extra])
        return code, json.loads(capsys.readouterr().out)

    code, report = run("--curve", "/nonexistent/x.csv")
    assert code == 2 and "--curve: cannot write /nonexistent/x.csv" in report["error"]
    assert not out.exists()
    out.write_text("kept")
    assert run("--curve", str(tmp_path))[0] == 2
    code, report = run("--intervals", "--curve", str(curve))
    assert code == 2 and report["error"] == CURVE_OF_INTERVALS
    assert out.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["element.json", "ok.json", "space.json"]
    code, report = run("--curve", str(curve))
    assert code == 0 and json.loads(out.read_text()) == report["outputs"]
    assert curve.read_text().startswith("t,atom_0,atom_1\n")


def test_curve_with_intervals_is_refused_before_any_input_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.dispatch(["lp-cb", "--space", "missing.json", "--element", "missing.json", "--p", "2",
                         "--grid", "3", "--intervals", "--curve", "curve.csv"])
    assert code == 2 and json.loads(capsys.readouterr().out)["error"] == CURVE_OF_INTERVALS
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out, curve", [("x", "x"), ("./x", "x"), ("x", "sub/../x")])
def test_two_flags_that_name_one_file_write_nothing(tmp_path, monkeypatch, capsys, out, curve):
    # the CSV would otherwise replace the report file, and the call exit 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    _write(tmp_path, "space.json", {"base_weights": [1, 2], "fiber_cells": 3})
    _write(tmp_path, "element.json", {"rows": [[1, 0, 2], [0.1, -1 / 3, 2 / 7]]})
    code = cli.dispatch(["lp-cb", "--space", "space.json", "--element", "element.json", "--p", "2",
                         "--grid", "3", "--out", out, "--curve", curve])
    assert code == 2 and json.loads(capsys.readouterr().out)["error"] == f"--out and --curve: both name {curve}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["element.json", "space.json", "sub"]


def test_every_subcommand_prints_the_same_report_twice(tmp_path, capsys):
    docs = {
        "fn": PL_FN, "space": {**SPACE, "orthogonal_part": True},
        "element": {"rows": [[0, 1], [2, -3]], "plus": [1, 0], "minus": [0, -2]},
        "other": {"rows": [[1, 0], [-3, 2]], "plus": [0, 1], "minus": [-2, 0]},
        "prob": {"weights": [0.25, 0.25, 0.5], "blocks": [[0, 1], [2]]},
        "elements": {"elements": [[0.5, 0.25, 1.0]]},
        "events": {"weights": [0.25, 0.25, 0.5], "blocks": [[0, 1], [2]], "events": [[1, 0, 1], [1, 1, 0]]},
        "vectors": VECTORS, "subspace": SUBSPACE,
    }
    lp = ["lp-cb", "--space", "space", "--element", "element", "--p", "2", "--grid", "2"]
    calls = [
        LEGENDRE,
        HS_CB,
        ["typeq", "--space", "space", "--a", "element", "--b", "other", "--p", "2"],
        ["rv-cb", "--space", "prob", "--elements", "elements", "--k-max", "2"],
        ["apr-cb", "--events", "events"],
        ["krivine", "parse", "--term", "x0 /\\ x1", "--arity", "2"],
        ["krivine", "eval", "--term", "x0 /\\ x1", "--arity", "2", "--point", "1/3,-2"],
        _approx("euclid", "--grid", "8"),
        lp,
        lp + ["--intervals"],
        ["ultra", "--prime", "3", "check-triangles", "--samples", "8"],
        ["ultra", "--prime", "3", "ball-dist", "0", "1/3", "1", "1"],
        ["demo", "remark"],
        ["demo", "p1"],
    ]
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    for argv in calls:
        argv = [str(tmp_path / a) if a in docs else a for a in argv]
        outs = []
        for _ in range(2):
            cli.dispatch(argv)
            outs.append(capsys.readouterr().out)
        assert json.loads(outs[0])["exit_code"] in (0, 3), argv
        assert outs[0] == outs[1], argv


# -- malformed documents: every loader answers with exit 2 and a pointer ------------

# Per call: its argv, valid documents, and for a document whose values fix the
# shape of another read after it, that one too (an error may name either).
_FUZZ_CALLS = [
    (LP_CB, {"space": {**SPACE, "orthogonal_part": True},
             "element": {"rows": [[0, 1], [2, -3]], "plus": [1, 0], "minus": [0, -2]}},
     {"space": ("element",)}),
    (["rv-cb", "--space", "prob", "--elements", "elements", "--k-max", "2"],
     {"prob": PROBABILITY, "elements": {"elements": [[0.5, 0.25]]}}, {"prob": ("elements",)}),
    (["apr-cb", "--events", "events"], {"events": {**PROBABILITY, "events": [[1, 0], [1, 1]]}}, {}),
    (LEGENDRE, {"fn": PL_FN}, {}),
    (HS_CB, {"vectors": VECTORS, "subspace": SUBSPACE}, {"subspace": ("vectors",)}),
]
_JSON = st.recursive(
    st.none() | st.booleans() | st.text(max_size=3) | st.integers(-(10**30), 10**30)
    | st.floats(-1000, 1000) | st.sampled_from([math.nan, math.inf, -math.inf]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _malformed(draw):
    """A call with one key of one document replaced by a drawn JSON value, or
    dropped; and the documents an error may name."""
    argv, docs, dependents = draw(st.sampled_from(_FUZZ_CALLS))
    name = draw(st.sampled_from(sorted(docs)))
    doc = dict(docs[name])
    key = draw(st.sampled_from(sorted(doc)))
    if draw(st.booleans()):
        doc[key] = draw(_JSON)
    else:
        del doc[key]
    return argv, {**docs, name: doc}, (name, *dependents.get(name, ()))


@settings(max_examples=200)
@given(_malformed())
def test_malformed_documents_exit_2_naming_the_document(tmp_path_factory, case):
    argv, docs, blamed = case
    work = tmp_path_factory.mktemp("docs")
    for name, doc in docs.items():
        (work / name).write_text(json.dumps(doc))
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = cli.dispatch([str(work / a) if a in docs else a for a in argv])
    report = json.loads(stdout.getvalue())
    assert code in (0, 2, 3) and report["exit_code"] == code
    if code == 2:
        assert report["error"].startswith(tuple(f"{work / name}: " for name in blamed)), report["error"]


# -- size flags: every value ends within the time limit -------------------------------

@pytest.fixture(scope="module")
def size_docs(tmp_path_factory):
    work = tmp_path_factory.mktemp("sizes")
    for name, doc in _SIZE_DOCS.items():
        (work / name).write_text(json.dumps(doc))
    return work


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([_LP_GRID, _LP_INTERVALS, _K_MAX, _SAMPLES]) | _FITS, st.integers(-(10**30), 10**30))
@example(_LP_GRID, 2**14)
@example(_LP_INTERVALS, 180)
@example(_FIT_GRID, 2**8)
@example(_K_MAX, 2**14)
@example(_SAMPLES, 2**6)
def test_size_flags_exit_0_2_or_3_within_two_seconds(size_docs, argv, value):
    stdout = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(stdout):
        code = cli.dispatch([str(size_docs / a) if a in _SIZE_DOCS else a for a in [*argv, str(value)]])
    seconds = time.perf_counter() - start
    report = json.loads(stdout.getvalue())
    assert code in (0, 2, 3) and report["exit_code"] == code
    assert code != 2 or report["error"].startswith(argv[-1] + ": "), report["error"]
    assert seconds < 2.0, (argv, value, seconds)
