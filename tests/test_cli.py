import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from canonbase_lab import cli


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


def test_long_flat_chain_evaluates(capsys):
    code = cli.dispatch(_eval(" \\/ ".join(["x0"] * 1200)))
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["outputs"]["value"] == 1.0


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
    return np.array(draw(st.lists(st.sampled_from(pool), max_size=12)), dtype=np.float64)


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
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: _as_lists(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_as_lists(v) for v in doc]
    return doc


@given(_docs, st.dictionaries(_strings, _arrays(), max_size=4))
@example({}, {"m": np.repeat([0.1, 0.0, -0.0, 1e16], 3), "z": np.array([-0.0, 0.0])})
@example([np.array([]), [], {}, {"": [[], {}]}], {"": np.array([math.nan, math.inf, -math.inf])})
def test_encode_is_byte_identical_to_json_dumps(doc, arrays):
    # shaped like a run report: a map of arrays next to an arbitrary document
    doc = {"outputs": arrays, "rest": doc}
    assert "".join(cli._encode(doc)) == json.dumps(_as_lists(doc), sort_keys=True, indent=2)


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
    runs = [
        (["rv-cb", "--space", prob, "--elements", elems, "--k-max", 2, "--out", "rv.json"], "rv.json"),
        (["apr-cb", "--events", events], None),
        (lp + ["--out", "partials.json"], "partials.json"),
        (lp + ["--intervals", "--out", "intervals.json"], "intervals.json"),
    ]
    for argv, out in runs:
        stdout = _run_canonlab(tmp_path, *argv)
        assert stdout == _canonical(stdout) + "\n"
        if out is not None:
            text = (tmp_path / out).read_text(encoding="utf-8")
            assert text == _canonical(text)
            assert json.loads(text) == json.loads(stdout)["outputs"]


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
    capsys.readouterr()


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
