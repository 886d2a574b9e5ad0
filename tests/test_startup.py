"""What a fresh interpreter loads: the bare package, the modules each
subcommand imports, and the BLAS thread default of the CLI. Each check
that reads ``sys.modules`` or the environment runs in a subprocess. Also
that each public name lives in its module, the one place to import it from,
that the modules the numpy-free calls load import no numpy, that exactly the
calls of the bulk kernels load numpy, and only once they have read every
input, that no call on small documents loads OpenSSL or ``dataclasses``, and
that the package holds no code that only the tests reach."""

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import importlib.util

import numpy as np
import pytest

import canonbase_lab
from canonbase_lab import cli

SRC = str(Path(__file__).resolve().parent.parent / "src")
EXPORTS = {
    "measure_core": ["ExtensionPair", "LatticeElement", "MeasureSpace", "SubStructure",
                     "band_decompose", "cond_exp", "distance", "lp_norm", "orthogonal",
                     "signed_power"],
    "legendre": ["PLConvexFn", "conjugate"],
    "krivine": ["HomogeneousFn", "approximate_on_sphere", "eval_element", "interpolating_term"],
    "terms": ["eval_scalar", "parse_term", "to_text"],
    "lp_canon": ["LpCanonicalBase", "canonical_base_1type", "canonical_base_ntype", "f_zero",
                 "increasing_realisation", "interval_cond_exp", "lq_transport", "p1_counterexample",
                 "partial_cond_exp", "psi", "remark_counterexample", "slices"],
    "oracle": ["DirectionalMass", "absolute_type_equal", "type_equal_1", "type_equal_n"],
}

# Prints at exit, as one JSON line on stderr, the loaded package modules,
# whether numpy is loaded, which of the modules in OPTIONAL are loaded, the
# OPENBLAS_NUM_THREADS the process ends with and its number of threads (None
# where /proc does not list them), the exit code of a CLI call made by
# ``_cli`` and what ``_READS`` recorded.
OPTIONAL = ("numpy.random", "numpy.ma", "fractions", "_hashlib", "dataclasses")
_REPORT = f"""
import atexit, json, os, sys
atexit.register(lambda: print(json.dumps({{
    "modules": sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("canonbase_lab.")),
    "numpy": "numpy" in sys.modules,
    "optional": [m for m in {OPTIONAL!r} if m in sys.modules],
    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    "exit": globals().get("EXIT"),
    "reads": globals().get("READS"),
}}), file=sys.stderr))
"""


def _fresh(script: str, env_extra=None, cwd=None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
    env.update(env_extra or {})
    proc = subprocess.run([sys.executable, "-c", _REPORT + script], env=env, cwd=cwd,
                          capture_output=True, text=True)
    return json.loads(proc.stderr.strip().splitlines()[-1])


def _cli(*argv: str) -> str:
    """A script that runs ``python -m canonbase_lab argv`` through runpy, as
    ``-m`` does."""
    return (
        "import runpy\n"
        f"sys.argv = ['canonlab', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('canonbase_lab', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    EXIT = exc.code\n"
    )


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    loaded = _fresh("import canonbase_lab")
    assert loaded["modules"] == [] and not loaded["numpy"]


def test_krivine_parse_loads_only_what_it_runs():
    loaded = _fresh(_cli("krivine", "parse", "--term", "(x0 \\/ x1)", "--arity", "2"))
    assert loaded["exit"] == 0 and "terms" in loaded["modules"] and not loaded["numpy"]
    assert not {"lp_canon", "rv_canon", "hilbert_canon", "ultra_ball"} & set(loaded["modules"])


def test_importing_the_cli_loads_no_numpy_and_sets_one_blas_thread():
    loaded = _fresh("import canonbase_lab.cli")
    assert not loaded["numpy"] and loaded["modules"] == ["cli", "errors", "rules"]
    assert loaded["blas_threads"] == "1"


@pytest.mark.parametrize("argv", [
    ["krivine", "parse", "--term", "(x0 \\/ 1/3*x1)", "--arity", "2"],
    ["krivine", "eval", "--term", "(x0 \\/ 1/3*x1)", "--arity", "2", "--point", "1,-2/7"],
    ["legendre", "--fn", "fn.json"],
    ["ultra", "--prime", "3", "ball-dist", "0", "1/3", "inf", "0"],
])
def test_calls_without_array_work_load_neither_numpy_nor_measure_core(tmp_path, argv):
    (tmp_path / "fn.json").write_text(json.dumps(
        {"domain": [None, None], "breakpoints": [0.0], "slopes": [-1.0, 1.0], "anchor": [0.0, 0.0]}))
    loaded = _fresh(_cli(*argv), cwd=tmp_path)
    assert loaded["exit"] == 0
    assert not loaded["numpy"] and "measure_core" not in loaded["modules"]


def test_krivine_approx_does_not_load_measure_core():
    loaded = _fresh(_cli("krivine", "approx", "--fn", "euclid", "--eps", "0.1", "--grid", "8"))
    assert loaded["exit"] == 0 and loaded["numpy"]
    assert "krivine" in loaded["modules"] and "measure_core" not in loaded["modules"]


#: The modules that the numpy-free calls load, which therefore import neither
#: numpy nor another module of the package outside this set, except inside a
#: function or under ``if TYPE_CHECKING:``.
NUMPY_FREE = ("__init__", "__main__", "cli", "errors", "legendre", "lp_canon", "measure_core", "oracle", "records",
              "rules", "rv_canon", "terms", "ultra_ball")


def _module_level_imports(tree: ast.Module):
    """The import statements that run when the module is imported."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            stack += node.orelse
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack += ast.iter_child_nodes(node)


def _imported_modules(node) -> list[str]:
    """The modules an import statement loads, by absolute name."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    module = ("canonbase_lab." if node.level else "") + (node.module or "")
    if module.rstrip(".") == "canonbase_lab":  # from . import x: each x is a module
        return [f"canonbase_lab.{alias.name}" for alias in node.names]
    return [module]


def test_the_numpy_free_modules_import_no_numpy_at_module_level():
    """Also that no module imports ``dataclasses`` or ``hashlib`` at module level."""
    offending = []
    for path in sorted(Path(canonbase_lab.__file__).parent.glob("*.py")):
        numpy_free = path.stem in NUMPY_FREE
        for node in _module_level_imports(ast.parse(path.read_text(), str(path))):
            for top, *sub in (target.split(".") for target in _imported_modules(node)):
                if top in ("dataclasses", "hashlib") or numpy_free and (
                        top == "numpy" or top == "canonbase_lab" and sub and sub[0] not in NUMPY_FREE):
                    offending.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert offending == []


def test_rv_cb_loads_neither_krivine_nor_lp_canon(tmp_path):
    (tmp_path / "space.json").write_text(json.dumps({"weights": [0.5, 0.5], "blocks": [[0, 1]]}))
    (tmp_path / "xs.json").write_text(json.dumps({"elements": [[0.25, 1.0]]}))
    loaded = _fresh(_cli("rv-cb", "--space", "space.json", "--elements", "xs.json",
                         "--k-max", "2"), cwd=tmp_path)
    assert loaded["exit"] == 0 and "rv_canon" in loaded["modules"]
    assert not {"krivine", "lp_canon"} & set(loaded["modules"])


def test_demo_remark_loads_neither_krivine_nor_rv_canon():
    loaded = _fresh(_cli("demo", "remark"))
    assert loaded["exit"] == 0 and "lp_canon" in loaded["modules"]
    assert not {"krivine", "rv_canon"} & set(loaded["modules"])


def test_demo_remark_does_not_load_legendre():
    # lp_canon imports legendre only for the exact conjugation cross-check
    loaded = _fresh(_cli("demo", "remark"))
    assert loaded["exit"] == 0 and "legendre" not in loaded["modules"]


def test_krivine_approx_loads_no_numpy_random_numpy_ma_or_hashlib():
    # krivine itself imports fractions, for the rational factors of its terms
    loaded = _fresh(_cli("krivine", "approx", "--fn", "euclid", "--eps", "0.1", "--grid", "8"))
    assert loaded["exit"] == 0 and "krivine" in loaded["modules"]
    assert loaded["optional"] == ["fractions"]


def _pair_documents(path: Path) -> None:
    (path / "space.json").write_text(json.dumps({"base_weights": [0.5, 0.5], "fiber_cells": 2}))
    (path / "f.json").write_text(json.dumps({"rows": [[1.0, 2.0], [0.0, -1.0]]}))
    (path / "g.json").write_text(json.dumps({"rows": [[2.0, 1.0], [-1.0, 0.0]]}))
    docs = {
        "orth.json": {"base_weights": [0.5, 2.0], "fiber_cells": 2, "orthogonal_part": True},
        "h.json": {"rows": [[1.0, 2.0], [0.0, -1.0]], "plus": [3.0, -1.0], "minus": [0.0, 2.0]},
        "k.json": {"rows": [[2.0, 1.0], [-1.0, 0.0]], "plus": [-1.0, 2.0], "minus": [3.0, 0.0]},
    }
    for name, doc in docs.items():
        (path / name).write_text(json.dumps(doc))


_LP_CB = ["lp-cb", "--space", "orth.json", "--element", "h.json", "--p", "2", "--grid", "4"]
_TYPEQ = ["typeq", "--space", "orth.json", "--a", "h.json", "--b", "k.json", "--p", "1.5"]


@pytest.mark.parametrize("argv", [
    _LP_CB, _LP_CB + ["--intervals"], _LP_CB + ["--curve", "curve.csv", "--out", "out.json"],
    _TYPEQ, _TYPEQ + ["--absolute"], ["demo", "p1"], ["demo", "p1", "--p", "2", "--eps", "1/8"], ["demo", "remark"],
], ids=["lp-cb", "lp-cb intervals", "lp-cb curve", "typeq", "typeq absolute", "demo p1", "demo p1 p=2", "demo remark"])
def test_the_element_algebra_calls_finish_without_numpy(tmp_path, argv):
    _pair_documents(tmp_path)
    loaded = _fresh(_cli(*argv), cwd=tmp_path)
    assert loaded["exit"] in (0, 3) and not loaded["numpy"]
    assert "measure_core" in loaded["modules"]


def test_lp_cb_loads_neither_legendre_nor_oracle_nor_fractions(tmp_path):
    _pair_documents(tmp_path)
    loaded = _fresh(_cli("lp-cb", "--space", "space.json", "--element", "f.json", "--p", "2",
                         "--grid", "4"), cwd=tmp_path)
    assert loaded["exit"] == 0 and "lp_canon" in loaded["modules"]
    assert not {"legendre", "oracle"} & set(loaded["modules"])
    assert "fractions" not in loaded["optional"]


def test_typeq_does_not_load_lp_canon(tmp_path):
    _pair_documents(tmp_path)
    loaded = _fresh(_cli("typeq", "--space", "space.json", "--a", "f.json", "--b", "g.json",
                         "--p", "2"), cwd=tmp_path)
    assert loaded["exit"] == 0 and "oracle" in loaded["modules"]
    assert "lp_canon" not in loaded["modules"]


#: A call of each subcommand on the small documents ``_small_documents`` writes.
SMALL_CALLS = [
    ["lp-cb", "--space", "space.json", "--element", "f.json", "--p", "2", "--grid", "4"],
    ["typeq", "--space", "space.json", "--a", "f.json", "--b", "g.json", "--p", "2"],
    ["rv-cb", "--space", "prob.json", "--elements", "xs.json", "--k-max", "2"],
    ["apr-cb", "--events", "events.json"],
    ["hs-cb", "--vectors", "vectors.json", "--subspace", "subspace.json"],
    ["legendre", "--fn", "fn.json"],
    ["demo", "remark"],
    ["demo", "p1"],
    ["krivine", "approx", "--fn", "euclid", "--eps", "0.1", "--grid", "8"],
    ["krivine", "parse", "--term", "(x0 \\/ x1)", "--arity", "2"],
    ["ultra", "--prime", "3", "check-triangles", "--samples", "8"],
]


def _small_documents(path: Path) -> None:
    _pair_documents(path)
    docs = {
        "prob.json": {"weights": [0.5, 0.5], "blocks": [[0, 1]]},
        "xs.json": {"elements": [[0.25, 1.0]]},
        "events.json": {"weights": [1, 1, 2], "blocks": [[0, 1], [2]], "events": [[1, 0, 1], [1, 1, 0]]},
        "vectors.json": {"vectors": [[1.0, 2.0]]},
        "subspace.json": {"dim": 2, "basis": [[1.0, 0.0]]},
        "fn.json": {"domain": [None, None], "breakpoints": [0.0], "slopes": [-1.0, 1.0], "anchor": [0.0, 0.0]},
    }
    for name, doc in docs.items():
        (path / name).write_text(json.dumps(doc))


def _leaf_commands(parser: argparse.ArgumentParser, prefix: tuple = ()):
    """The subcommand paths of ``parser`` that take no further subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_commands(sub, (*prefix, name))
            return
    yield " ".join(prefix)


#: Records in ``READS``, at each return of ``cli._read_json``, whether numpy
#: is loaded.
_READS = (
    "import canonbase_lab.cli as cli\n"
    "READS, _read_json = [], cli._read_json\n"
    "def _probe(*args):\n"
    "    doc = _read_json(*args)\n"
    "    READS.append('numpy' in sys.modules)\n"
    "    return doc\n"
    "cli._read_json = _probe\n"
)


@pytest.mark.parametrize("argv", [argv for argv in SMALL_CALLS if argv[0] in ("rv-cb", "apr-cb")],
                         ids=lambda argv: argv[0])
def test_the_bulk_kernel_calls_load_numpy_after_reading_every_input(tmp_path, argv):
    # so the parsed documents and numpy's own memory are never resident together
    _small_documents(tmp_path)
    loaded = _fresh(_READS + _cli(*argv), cwd=tmp_path)
    assert loaded["exit"] == 0 and loaded["numpy"]
    assert loaded["reads"] == [False] * sum(a.endswith(".json") for a in argv)


def test_exactly_the_bulk_kernel_calls_load_numpy(tmp_path):
    """One call of every subcommand of the parser, in a fresh interpreter
    each: only rv-cb, apr-cb, hs-cb and krivine approx load numpy."""
    calls = {" ".join(a for a in argv[:2] if a[0] != "-"): argv for argv in SMALL_CALLS}
    calls["krivine eval"] = ["krivine", "eval", "--term", "(x0 \\/ x1)", "--arity", "2", "--point", "1,2"]
    calls["ultra ball-dist"] = ["ultra", "--prime", "3", "ball-dist", "0", "1/3", "inf", "0"]
    calls["ultra check-triangles"] = calls.pop("ultra")
    assert set(calls) == set(_leaf_commands(cli._build_parser()))
    _small_documents(tmp_path)
    numpy = set()
    for name, argv in calls.items():
        loaded = _fresh(_cli(*argv), cwd=tmp_path)
        assert loaded["exit"] == 0, name
        if loaded["numpy"]:
            numpy.add(name)
    assert numpy == {"rv-cb", "apr-cb", "hs-cb", "krivine approx"}


@pytest.mark.parametrize("argv", SMALL_CALLS, ids=lambda argv: " ".join(a for a in argv[:2] if a[0] != "-"))
def test_calls_on_small_documents_load_neither_openssl_nor_dataclasses(tmp_path, argv):
    _small_documents(tmp_path)
    loaded = _fresh(_cli(*argv), cwd=tmp_path)
    assert loaded["exit"] == 0
    assert not {"_hashlib", "dataclasses"} & set(loaded["optional"])


def test_a_large_document_is_digested_without_openssl(tmp_path):
    # the interpreter's own SHA-256 digests an input of any size
    _small_documents(tmp_path)
    text = (tmp_path / "prob.json").read_text()
    (tmp_path / "prob.json").write_text(text + " " * (4 * 2**20 - len(text)))
    loaded = _fresh(_cli("rv-cb", "--space", "prob.json", "--elements", "xs.json", "--k-max", "2"), cwd=tmp_path)
    assert loaded["exit"] == 0
    assert not {"_hashlib", "dataclasses"} & set(loaded["optional"])


#: The re-exported paper constructions that no call runs, each moved from its
#: module to the test module that uses it, or to ``reference`` where several do.
MOVED = {"band_decompose": "test_measure_core", "distance": "test_measure_core",
         "orthogonal": "test_measure_core", "signed_power": "reference", "eval_element": "test_krivine",
         "canonical_base_ntype": "reference", "increasing_realisation": "test_lp_canon",
         "interval_cond_exp": "test_lp_canon", "lq_transport": "test_lp_canon"}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_every_re_export_is_the_submodule_attribute(module, name):
    """The names the package once re-exported are defined in their module and
    are not attributes of the bare package. A name in MOVED is defined in its
    test module instead, and is no attribute of its former module."""
    if name in MOVED:
        obj = getattr(importlib.import_module(MOVED[name]), name)
        assert obj.__module__ == MOVED[name]
        assert not hasattr(importlib.import_module(f"canonbase_lab.{module}"), name)
    else:
        obj = getattr(importlib.import_module(f"canonbase_lab.{module}"), name)
        assert obj.__module__ == f"canonbase_lab.{module}"
    assert not hasattr(canonbase_lab, name)


#: A call of rv-cb on two atoms, which loads numpy after the CLI has set the
#: BLAS default.
_RV_CB = ["rv-cb", "--space", "prob.json", "--elements", "xs.json", "--k-max", "2"]


def test_the_cli_runs_blas_on_one_thread_by_default(tmp_path):
    _small_documents(tmp_path)
    loaded = _fresh(_cli(*_RV_CB), cwd=tmp_path)
    assert loaded["exit"] == 0 and loaded["numpy"] and loaded["blas_threads"] == "1"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas or loaded["threads"] is None:
        pytest.skip("counts OpenBLAS threads through /proc")
    assert loaded["threads"] == 1


def test_a_callers_blas_thread_count_is_kept(tmp_path):
    _small_documents(tmp_path)
    two = {"OPENBLAS_NUM_THREADS": "2"}
    assert _fresh("import canonbase_lab.cli", two)["blas_threads"] == "2"
    loaded = _fresh(_cli(*_RV_CB), two, cwd=tmp_path)
    assert loaded["numpy"] and loaded["blas_threads"] == "2"


def _names_read(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute)):
            yield sub.id if isinstance(sub, ast.Name) else sub.attr


def _definitions(node: ast.stmt) -> list[tuple[str, str, list]] | None:
    """(name, qualified name, nodes whose reads it reaches) for each
    definition a top-level statement makes; None for a statement that only
    runs at import. A class is one definition, which reads its bases, its
    decorators, the statements of its body and its dunder methods, and each
    other method is a definition of its own."""
    if isinstance(node, ast.ClassDef):
        methods = [m for m in node.body
                   if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__"))]
        body = [m for m in node.body if m not in methods]
        return [(node.name, node.name, [*node.bases, *node.keywords, *node.decorator_list, *body]),
                *((m.name, f"{node.name}.{m.name}", [m]) for m in methods)]
    if isinstance(node, ast.FunctionDef):
        return [(node.name, node.name, [node])]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [(t.id, t.id, [node]) for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    return None


def test_every_top_level_name_is_reached_from_the_cli_or_the_tracer():
    """Each top-level function, class or constant of the package, and each
    method of its classes, is reached from a root: a top-level name of
    ``cli`` or a member of its classes (argparse calls ``_Parser.error``), or
    a name perfbench's tracer patches. A reached class reaches its body and
    its dunder methods, which the interpreter calls; any other method is
    reached by a read of its name. A name reaches every definition of that
    name, in any module and any class, so this over-approximates what is
    reached and cannot flag live code; test-only code, the paper's
    constructions that no call runs among it, belongs in ``tests/``. The same
    over-approximation hides a test-only method that shares its name with a
    reached one, as a method ``join`` would be reached by ``str.join``."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", Path(SRC).parent / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    patched = list(tracer._saved)
    tracer.restore()
    roots = {attr for _, attr, _ in patched} | {owner.__name__ for owner, _, _ in patched}
    defs: dict[str, list] = {}
    for path in sorted(Path(canonbase_lab.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            entries = _definitions(node)
            if entries is None:  # imports and other statements that run at import
                roots.update(_names_read(node))
                continue
            for name, qualified, nodes in entries:
                defs.setdefault(name, []).append((f"{path.stem}.{qualified}", nodes))
                if path.stem == "cli":
                    roots.add(name)
    reached, stack = set(), list(roots)
    while stack:
        name = stack.pop()
        if name in defs and name not in reached:
            reached.add(name)
            stack += [read for _, nodes in defs[name] for node in nodes for read in _names_read(node)]
    unreached = sorted(qualified for name, entries in defs.items() for qualified, _ in entries
                       if name not in reached and not name.startswith("__"))
    assert not unreached, "reached from no root: " + ", ".join(unreached)
