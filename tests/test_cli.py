import json

import pytest

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


@pytest.mark.parametrize(
    "docs, argv, pointer",
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
    ],
)
def test_malformed_input_exits_2_naming_the_pointer(tmp_path, capsys, docs, argv, pointer):
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / a) if a in docs else a for a in argv]
    code = cli.dispatch(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["exit_code"] == 2
    assert pointer in report["error"]
