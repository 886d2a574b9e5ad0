"""Seeded input generator for the canonlab benchmark.

``write_inputs(workload, seed, workdir)`` writes every JSON input of one
workload into ``workdir`` and returns the calls of one pass, in order. Each
call carries its expected exit code and an output check (see ``checks``)
built from the generator's own arrays, never from the files it wrote.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("canon-base", "moments-events", "krivine-fit")


@dataclass(frozen=True)
class FileText:
    """An argv entry replaced, when the call runs, by the stripped text of
    the file at ``path`` (written by an earlier call of the same pass)."""

    path: str


@dataclass
class Call:
    label: str
    argv: list
    expect_code: int
    check: Callable[[dict], None]

    def out_paths(self) -> list[str]:
        """Files the call writes besides its report."""
        return [self.argv[i + 1] for i, a in enumerate(self.argv[:-1]) if a == "--out"]

    def resolved_argv(self) -> list[str]:
        return [
            Path(a.path).read_text(encoding="utf-8").strip() if isinstance(a, FileText) else a
            for a in self.argv
        ]


def _dump(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# canon-base: the E_t path (lp_canon.psi, legendre.conjugate), type oracle, demos
# ---------------------------------------------------------------------------

_LP_SIZES = ((8, 16), (32, 64), (64, 128))


def _pair_inputs(rng, workdir: Path, m: int, n: int):
    weights = rng.uniform(0.5, 2.0, m)
    rows = rng.standard_normal((m, n))
    plus, minus = rng.standard_normal(n), rng.standard_normal(n)
    space = _dump(workdir / f"space_{m}x{n}.json", {
        "base_weights": weights.tolist(), "fiber_cells": n, "orthogonal_part": True,
    })
    elem = _dump(workdir / f"element_{m}x{n}.json", {
        "rows": rows.tolist(), "plus": plus.tolist(), "minus": minus.tolist(),
    })
    return space, elem, weights, rows, plus, minus


def _canon_base(rng, workdir: Path) -> list[Call]:
    calls = []
    for m, n in _LP_SIZES:
        space, elem, weights, rows, plus, minus = _pair_inputs(rng, workdir, m, n)
        calls.append(Call(
            f"lp-cb {m}x{n}",
            ["lp-cb", "--space", space, "--element", elem, "--p", "2", "--grid", str(n)],
            0,
            partial(checks.lp_cb, weights=weights, rows=rows, orth=(plus, minus),
                    p=2.0, grid=n, intervals=False),
        ))
    # the largest pair again, in interval form and for the type oracle
    calls.append(Call(
        f"lp-cb --intervals {m}x{n}",
        ["lp-cb", "--space", space, "--element", elem, "--p", "2", "--grid", "32",
         "--intervals"],
        0,
        partial(checks.lp_cb, weights=weights, rows=rows, orth=(plus, minus),
                p=2.0, grid=32, intervals=True),
    ))
    shuffled = {
        "rows": rng.permuted(rows, axis=1).tolist(),
        "plus": rng.permutation(plus).tolist(),
        "minus": rng.permutation(minus).tolist(),
    }
    perturbed_rows = rows.copy()
    perturbed_rows[rng.integers(m), rng.integers(n)] += 0.5
    perturbed = {"rows": perturbed_rows.tolist(), "plus": plus.tolist(), "minus": minus.tolist()}
    for tag, doc, code in (("shuffle", shuffled, 0), ("perturb", perturbed, 3)):
        other = _dump(workdir / f"element_{tag}.json", doc)
        calls.append(Call(
            f"typeq {tag}",
            ["typeq", "--space", space, "--a", elem, "--b", other, "--p", "2"],
            code,
            partial(checks.typeq, equal=code == 0),
        ))
    calls.append(Call("demo remark", ["demo", "remark"], 0, checks.demo_remark))
    calls.append(Call("demo p1", ["demo", "p1", "--eps", "1/64"], 0,
                      partial(checks.demo_p1, eps_inv=64)))
    return calls


# ---------------------------------------------------------------------------
# moments-events: element algebra and conditional expectation (rv_canon)
# ---------------------------------------------------------------------------

def _prob_space(rng, atoms: int, blocks: int):
    weights = rng.uniform(0.5, 2.0, atoms)
    weights /= weights.sum()
    labels = rng.permutation(np.arange(atoms) % blocks)
    block_lists = [np.flatnonzero(labels == b).tolist() for b in range(blocks)]
    return weights, labels, block_lists


def _rv_cb(rng, workdir: Path, atoms: int, blocks: int, k_max: int) -> Call:
    weights, labels, block_lists = _prob_space(rng, atoms, blocks)
    xs = rng.uniform(0.0, 1.0, (2, atoms))
    space = _dump(workdir / f"prob_{atoms}.json",
                  {"weights": weights.tolist(), "blocks": block_lists})
    elems = _dump(workdir / f"rvs_{atoms}.json", {"elements": xs.tolist()})
    exps = [ks for ks in product(range(k_max + 1), repeat=2) if any(ks)]
    return Call(
        f"rv-cb {atoms}x{blocks} k{k_max}",
        ["rv-cb", "--space", space, "--elements", elems, "--k-max", str(k_max)],
        0,
        partial(checks.rv_cb, weights=weights, labels=labels, xs=xs, exps=exps),
    )


def _moments_events(rng, workdir: Path) -> list[Call]:
    calls = [_rv_cb(rng, workdir, 20_000, 200, 3), _rv_cb(rng, workdir, 100_000, 1_000, 2)]
    weights, labels, block_lists = _prob_space(rng, 64, 8)
    events = (rng.uniform(size=(12, 64)) < 0.75).astype(float)
    path = _dump(workdir / "events.json", {
        "weights": weights.tolist(), "blocks": block_lists, "events": events.tolist(),
    })
    calls.append(Call(
        "apr-cb 12 events x 64",
        ["apr-cb", "--events", path],
        0,
        partial(checks.apr_cb, weights=weights, labels=labels, events=events),
    ))
    return calls


# ---------------------------------------------------------------------------
# krivine-fit: fitting, max-min assembly, certification, serialisation
# ---------------------------------------------------------------------------

_FITS = (
    ("euclid", 0.01, None),
    ("geomean(1/2)", 0.01, None),
    ("euclid(3)", 0.05, 16),
)


def _krivine_fit(rng, workdir: Path) -> list[Call]:
    calls = []
    for k, (fn, eps, grid) in enumerate(_FITS):
        out = str(workdir / f"term_{k}.txt")
        argv = ["krivine", "approx", "--fn", fn, "--eps", str(eps), "--out", out]
        if grid is not None:
            argv += ["--grid", str(grid)]
        calls.append(Call(f"krivine approx {fn}", argv, 0,
                          partial(checks.krivine_approx, fn=fn, eps=eps, out=out)))
    euclid_term = FileText(str(workdir / "term_0.txt"))
    calls.append(Call(
        "krivine parse euclid",
        ["krivine", "parse", "--term", euclid_term, "--arity", "2"],
        0,
        partial(checks.krivine_parse, term_path=euclid_term.path),
    ))
    point = [float(v) for v in np.round(rng.uniform(-1.0, 1.0, 2), 6)]
    calls.append(Call(
        "krivine eval euclid",
        ["krivine", "eval", "--term", euclid_term, "--arity", "2",
         "--point=" + ",".join(repr(v) for v in point)],
        0,
        partial(checks.krivine_eval, term_path=euclid_term.path, point=point),
    ))
    return calls


_BUILDERS = {
    "canon-base": _canon_base,
    "moments-events": _moments_events,
    "krivine-fit": _krivine_fit,
}


def write_inputs(workload: str, seed: int, workdir: Path) -> list[Call]:
    """Write the inputs of ``workload`` for ``seed`` into ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, workdir)
