"""Self-tests of the benchmark's generator, output checks and tracer.

Run from the repository root: python -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import checks
import gen
import run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def _dispatch(argv) -> tuple[int, str]:
    from canonbase_lab import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.dispatch(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def canon_calls(tmp_path_factory):
    return gen.write_inputs("canon-base", 7, tmp_path_factory.mktemp("canon"))


def _files(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload, tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        gen.write_inputs(workload, seed, tmp_path / name)
    same, other = _files(tmp_path / "a"), _files(tmp_path / "c")
    assert _files(tmp_path / "b") == same
    if workload == "krivine-fit":  # its only seeded input is the eval point
        assert other == same
    else:
        assert set(other) == set(same) and all(other[k] != same[k] for k in same)


def test_krivine_eval_point_depends_on_the_seed(tmp_path):
    argv = [gen.write_inputs("krivine-fit", s, tmp_path / str(s))[-1].argv[-1] for s in (3, 4)]
    assert argv[0] != argv[1]


def test_lp_cb_check_accepts_program_output_and_rejects_a_perturbation(canon_calls):
    call = canon_calls[0]
    code, text = _dispatch(call.resolved_argv())
    assert run.verify(call, code, text) is None
    report = checks.parse_report(text)
    key = sorted(report["outputs"]["partials"])[3]
    value = report["outputs"]["partials"][key][2]
    step = checks.TOL * (1.0 + abs(value))
    report["outputs"]["partials"][key][2] = value + 0.5 * step
    call.check(report)
    report["outputs"]["partials"][key][2] = value + 2.0 * step
    with pytest.raises(checks.CheckFailed):
        call.check(report)


def test_lp_cb_interval_check_accepts_program_output(canon_calls):
    call = next(c for c in canon_calls if "--intervals" in c.argv)
    assert run.verify(call, *_dispatch(call.resolved_argv())) is None


def test_typeq_exit_codes_are_checked(canon_calls):
    for call in (c for c in canon_calls if c.argv[0] == "typeq"):
        code, text = _dispatch(call.resolved_argv())
        assert code == call.expect_code
        assert run.verify(call, code, text) is None
        wrong = 3 - code
        assert "exit code" in run.verify(call, wrong, text)


def test_certificate_below_the_sampled_error_is_rejected(tmp_path):
    out = tmp_path / "term.txt"
    out.write_text("x0\n", encoding="utf-8")
    err = checks.sampled_error("x0", "euclid")
    assert err == pytest.approx(2.0, abs=1e-5)
    for cert, ok in ((err, True), (np.nextafter(err, 0.0), False)):
        report = {"outputs": {"certified_error": cert, "term_chars": 2}}
        if ok:
            checks.krivine_approx(report, fn="euclid", eps=0.01, out=str(out))
        else:
            with pytest.raises(checks.CheckFailed, match="exceeds certified_error"):
                checks.krivine_approx(report, fn="euclid", eps=0.01, out=str(out))


def test_term_evaluator_matches_the_program():
    from canonbase_lab import krivine

    text = "((2*avg(3/4*x0, -1/2*x1) /\\ abs(x1)) \\/ neg(avg(x0, 0)))"
    pts = checks.sphere_sample(2)
    want = krivine.eval_array(krivine.parse_term(text, 2), pts)
    np.testing.assert_array_equal(checks.eval_term(text, pts), want)


def test_reports_are_read_without_timing_fields():
    text = json.dumps({"outputs": {"x": 1}, "wall_time_s": 0.5, "metrics": {"t": 1}})
    assert checks.parse_report(text) == {"outputs": {"x": 1}}
    indented = json.dumps({"exit_code": 0, "wall_time_s": 0.123456}, indent=2, sort_keys=True)
    slower = indented.replace("0.123456", "12.5")
    assert run.report_bytes(indented) == run.report_bytes(slower)


def test_tracer_counts_inner_calls_and_restores_every_name(canon_calls):
    from canonbase_lab import legendre, lp_canon, measure_core

    import tracer

    originals = (legendre.conjugate, lp_canon.conjugate, measure_core.ExtensionPair.total_space)
    tr = tracer.Tracer()
    tr.install()
    try:
        code, text = _dispatch(canon_calls[0].resolved_argv())  # lp-cb 8x16, full grid
    finally:
        tr.restore()
    assert code == 0
    assert tr.counts["legendre.conjugate_calls"] == 8 * 16
    assert tr.counts["lp_canon.grid_points"] == 8 * 16
    total, self_time = tr.times()
    assert total["cli.dispatch"] >= total["lp_canon.canonical_base_1type"] > total["lp_canon.psi"]
    assert self_time["cli.dispatch"] < total["cli.dispatch"]
    assert tr._saved == []
    assert (legendre.conjugate, lp_canon.conjugate,
            measure_core.ExtensionPair.total_space) == originals


def test_peak_rss_is_the_childs_not_the_callers(tmp_path):
    ballast = bytearray(160 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])  # make the pages resident
    calls = [gen.Call("demo remark", ["demo", "remark"], 0, checks.demo_remark)]
    walls, rss_mb, results = run.subprocess_pass(calls, tmp_path, run.child_env())
    assert results[0][0] == 0 and walls[0] > 0
    assert rss_mb[0] < 120
    del ballast
