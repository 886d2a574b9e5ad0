"""Benchmark of the canonlab CLI: end-to-end runs and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload canon-base --seed 1 --seconds 36 --trace 0

``--trace 0`` drives ``python -m canonbase_lab`` as a subprocess, one call at
a time (a closed loop with one client, run by ``launch.py``), in passes over
the workload's calls until ``--seconds`` of measured time is used, and
reports the end-to-end metrics of BENCHMARK.json as medians over the passes. ``--trace 1`` replays
the same calls in-process through ``cli.dispatch``, once untraced and twice
traced, and reports the per-layer metrics. Every output is checked (see
``checks.py``); the last line of stdout is one JSON object, and the exit code
is 1 when any check failed. ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import gen

SRC = Path("src")
WORK = Path(".perfbench")
LAUNCHER = Path(__file__).resolve().with_name("launch.py")
SETUP_REPS = 7
#: Counters that must repeat exactly between the two traced passes.
_DETERMINISTIC = re.compile(
    r"(_calls|grid_points|subsets|term_nodes|term_chars|report_bytes|term_chars_total"
    r"|cert_over_eps_max)$"
)
_WALL_LINE = re.compile(r'^[ \t]*"wall_time_s":[^\n]*\n?', re.M)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CANONLAB_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def measure_setup(env: dict) -> float:
    """Median wall time of importing the CLI in a fresh interpreter."""
    cmd = [sys.executable, "-c", "import canonbase_lab.cli"]
    subprocess.run(cmd, env=env, check=True)  # warm-up: bytecode cache, file cache
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Verifier:
    """Checks each call's exit code and outputs; an output identical to one
    already checked for the same call gets the same verdict."""

    def __init__(self):
        self._verdicts: dict = {}

    def __call__(self, k: int, call: gen.Call, code: int, text: str) -> str | None:
        digest = hashlib.sha256(_WALL_LINE.sub("", text).encode("utf-8"))
        for path in call.out_paths():
            digest.update(Path(path).read_bytes() if Path(path).is_file() else b"\0missing")
        key = (k, code, digest.hexdigest())
        if key not in self._verdicts:
            self._verdicts[key] = verify(call, code, text)
        return self._verdicts[key]


def verify(call: gen.Call, code: int, text: str) -> str | None:
    """None when the call's exit code and outputs are right, else the reason."""
    if code != call.expect_code:
        return f"exit code {code}, expected {call.expect_code}"
    try:
        call.check(checks.parse_report(text))
    except checks.CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return f"malformed output: {exc!r}"
    return None


def report_bytes(text: str) -> int:
    return len(_WALL_LINE.sub("", text).encode("utf-8"))


def krivine_quality(calls, texts) -> dict:
    """cert_over_eps_max and term_chars_total over the krivine approx calls
    (a malformed report is left out here; its check fails the run)."""
    ratios, chars = [], 0
    for call, text in zip(calls, texts):
        if call.argv[:2] != ["krivine", "approx"]:
            continue
        try:
            out = checks.parse_report(text)["outputs"]
            eps = float(call.argv[call.argv.index("--eps") + 1])
            ratio, n = out["certified_error"] / eps, int(out["term_chars"])
        except (ValueError, KeyError, TypeError):
            continue
        ratios.append(ratio)
        chars += n
    return {"cert_over_eps_max": max(ratios, default=0.0), "term_chars_total": chars}


# ---------------------------------------------------------------------------
# End-to-end: subprocess passes
# ---------------------------------------------------------------------------

def subprocess_pass(calls, rundir: Path, env: dict):
    """One pass through launch.py: per-call walls, peak RSS and (code, report)."""
    spec = {"calls": [
        {"argv": [{"file": a.path} if isinstance(a, gen.FileText) else a for a in call.argv],
         "stdout": str(rundir / f"report_{k}.json")}
        for k, call in enumerate(calls)
    ]}
    spec_path, result_path = rundir / "pass.json", rundir / "pass_result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run([sys.executable, str(LAUNCHER), str(spec_path), str(result_path)],
                   env=env, check=True)
    res = json.loads(result_path.read_text(encoding="utf-8"))
    results = [
        (code, Path(c["stdout"]).read_text(encoding="utf-8"))
        for code, c in zip(res["codes"], spec["calls"])
    ]
    return res["walls"], res["rss_mb"], results


def end_to_end(workload: str, calls, rundir: Path, seconds: float) -> dict:
    env = child_env()
    setup_s = measure_setup(env)
    passes, used, check = [], 0.0, Verifier()
    while True:
        walls, rss, results = subprocess_pass(calls, rundir, env)
        problems = [check(k, c, *res) for k, (c, res) in enumerate(zip(calls, results))]
        passes.append((sum(walls), max(walls), max(rss), problems))
        used += sum(walls)
        if used + sum(walls) > seconds:  # the next pass would overrun the budget
            break
    attempted = len(calls) * len(passes)
    failures = [(c.label, p) for *_, probs in passes for c, p in zip(calls, probs) if p]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p[0] for p in passes),
        "max_call_s": statistics.median(p[1] for p in passes),
        "peak_rss_mb": statistics.median(p[2] for p in passes),
        "failed_frac": len(failures) / attempted,
    }
    extra = krivine_quality(calls, [t for _, t in results]) if workload == "krivine-fit" else {}
    summary = {
        "workload": workload, "passes": len(passes), "calls_per_pass": len(calls),
        "pass_walls_s": [round(p[0], 3) for p in passes], "setup_samples": SETUP_REPS,
        **values, **extra,
    }
    return {"values": values, "attempted": attempted, "failures": failures, "summary": summary}


# ---------------------------------------------------------------------------
# Per layer: in-process replay through cli.dispatch
# ---------------------------------------------------------------------------

def inprocess_pass(calls, tracer=None):
    from canonbase_lab import cli

    results = []
    for k, call in enumerate(calls):
        argv = call.resolved_argv()
        buf = io.StringIO()
        if tracer is not None:
            tracer.call_id = k
        with redirect_stdout(buf):
            t0 = perf_counter()
            code = cli.dispatch(argv)
            elapsed = perf_counter() - t0
        results.append((code, buf.getvalue(), elapsed))
    return results


def layer_values(tracer, calls, results) -> dict:
    total, self_ = tracer.times()
    c = tracer.counts
    texts = [text for _, text, _ in results]
    return {
        "cli.dispatch_s": total["cli.dispatch"],
        "cli.self_s": self_["cli.dispatch"],
        "cli.load_s": total["cli.load"],
        "cli.report_bytes": sum(report_bytes(t) for t in texts),
        "measure_core.cond_exp_s": total["measure_core.cond_exp"],
        "measure_core.cond_exp_calls": c["measure_core.cond_exp_calls"],
        "measure_core.total_space_s": total["measure_core.total_space"],
        "measure_core.total_space_calls": c["measure_core.total_space_calls"],
        "measure_core.cond_exp_base_s": total["measure_core.cond_exp_base"],
        "legendre.conjugate_s": total["legendre.conjugate"],
        "legendre.conjugate_calls": c["legendre.conjugate_calls"],
        "lp_canon.canonical_base_1type_s": self_["lp_canon.canonical_base_1type"],
        "lp_canon.psi_s": total["lp_canon.psi"],
        "lp_canon.grid_points": c["lp_canon.grid_points"],
        "oracle.type_equal_1_s": total["oracle.type_equal_1"],
        "oracle.type_equal_1_calls": c["oracle.type_equal_1_calls"],
        "rv_canon.cond_moment_s": total["rv_canon.cond_moment"],
        "rv_canon.apr_cb_s": self_["rv_canon.apr_cb"],
        "rv_canon.subsets": c["rv_canon.subsets"],
        "krivine.approximate_on_sphere_s": self_["krivine.approximate_on_sphere"],
        "krivine.eval_array_s": total["krivine.eval_array"],
        "krivine.eval_array_calls": c["krivine.eval_array_calls"],
        "krivine.interpolating_term_calls": c["krivine.interpolating_term_calls"],
        "krivine.to_text_s": total["krivine.to_text"],
        "krivine.parse_term_s": total["krivine.parse_term"],
        "krivine.term_nodes": c["krivine.term_nodes"],
        "krivine.term_chars": c["krivine.term_chars"],
        **krivine_quality(calls, texts),
    }


def traced(workload: str, calls) -> dict:
    import tracer as tracing

    sys.path.insert(0, str(SRC.resolve()))
    os.environ.pop("CANONLAB_SEED", None)
    check, failures = Verifier(), []

    def checked_pass(tr=None):
        results = inprocess_pass(calls, tr)
        for k, (call, (code, text, _)) in enumerate(zip(calls, results)):
            if problem := check(k, call, code, text):
                failures.append((call.label, problem))
        return results

    untraced_s = sum(e for *_, e in checked_pass())
    runs = []
    for _ in range(2):
        tr = tracing.Tracer()
        tr.install()
        try:
            results = checked_pass(tr)
        finally:
            tr.restore()
        runs.append(layer_values(tr, calls, results))
    tr.write_spans(WORK / f"spans-{workload}.jsonl")
    va, vb = runs
    for name in sorted(va):
        if _DETERMINISTIC.search(name) and va[name] != vb[name]:
            failures.append((name, f"counter is not deterministic: {va[name]} then {vb[name]}"))
    values = {
        name: (va[name] + vb[name]) / 2 if name.endswith("_s") else va[name] for name in va
    }
    values["trace.overhead_frac"] = values["cli.dispatch_s"] / untraced_s - 1.0
    summary = {"workload": workload, "traced_passes": 2, "calls_per_pass": len(calls), **values}
    return {"values": values, "attempted": len(calls) * 3, "failures": failures,
            "summary": summary}


# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> bool:
    rundir = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        calls = gen.write_inputs(workload, seed, rundir)
        if trace:
            res = traced(workload, calls)
        else:
            res = end_to_end(workload, calls, rundir, seconds)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for label, problem in res["failures"]:
        print(f"FAILED {workload} / {label}: {problem}", file=sys.stderr)
    units = {"failed_frac": "ratio", "pass_walls_s": "s"}
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    for key, value in res["summary"].items():
        print(f"{key:36} {value} {units.get(key, '')}".rstrip())
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": res["values"][m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not res["failures"]
    failed = min(len(res["failures"]), res["attempted"])
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": failed,
                      "metrics": metrics}))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "canonbase_lab" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/canonbase_lab is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = [run_workload(w, args.seed, args.seconds, bool(args.trace), spec) for w in workloads]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
