"""Output checks for the canonlab benchmark, independent of the program.

Each check takes the parsed run report of one call (see ``parse_report``)
and raises ``CheckFailed`` when an output is wrong. Expected values come
from numpy on the generator's arrays: sorted prefix sums for the partial
conditional expectations, ``np.bincount`` block means for moments and event
meets, and a separate term evaluator for lattice terms.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

#: Agreement required of every checked value: |got - want| <= TOL * (1 + |want|).
TOL = 1e-9

#: Report keys that carry timings or opt-in metrics, not results.
_VOLATILE_KEYS = ("wall_time_s", "metrics")


class CheckFailed(Exception):
    pass


def parse_report(text: str) -> dict:
    """The run report with its timing fields removed."""
    report = json.loads(text)
    for key in _VOLATILE_KEYS:
        report.pop(key, None)
    return report


def _close(what: str, got, want) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape}, expected {want.shape}")
    bad = np.abs(got - want) > TOL * (1.0 + np.abs(want))
    if bad.any():
        k = int(np.flatnonzero(bad.ravel())[0])
        raise CheckFailed(f"{what}: value {got.ravel()[k]!r}, expected {want.ravel()[k]!r}")


def _close_map(what: str, got: dict, want: dict) -> None:
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))[:3]
        extra = sorted(set(got) - set(want))[:3]
        raise CheckFailed(f"{what}: keys differ (missing {missing}, unexpected {extra})")
    for key, value in want.items():
        _close(f"{what}[{key}]", got[key], value)


# ---------------------------------------------------------------------------
# canon-base
# ---------------------------------------------------------------------------

def partials_reference(rows: np.ndarray, ts) -> dict[float, np.ndarray]:
    """E_t per base atom: the integral over [0, t] of the sorted fiber profile,
    with each of the n cells carrying mass 1/n."""
    m, n = rows.shape
    s = np.sort(rows, axis=1)
    prefix = np.concatenate([np.zeros((m, 1)), np.cumsum(s, axis=1)], axis=1)
    out = {}
    for t in ts:
        x = t * n
        j = min(int(math.floor(x)), n)
        val = prefix[:, j] + ((x - j) * s[:, j] if j < n else 0.0)
        out[t] = val / n
    return out


def lp_cb(report, *, weights, rows, orth, p, grid, intervals) -> None:
    out = report["outputs"]
    n = rows.shape[1]
    ts = [k / grid for k in range(0 if intervals else 1, grid + 1)]
    _close("grid", out["grid"], ts)
    e = partials_reference(rows, ts)
    if intervals:
        want = {
            f"{a:.12g}:{b:.12g}": e[b] - e[a] for i, a in enumerate(ts) for b in ts[i + 1 :]
        }
        _close_map("intervals", out["intervals"], want)
    else:
        _close_map("partials", out["partials"], {f"{t:.12g}": e[t] for t in ts})
    cell_w = np.concatenate([np.repeat(np.asarray(weights) / n, n), np.full(2 * n, 1.0 / n)])
    vals = np.concatenate([rows.ravel(), *orth])
    _close("pos_norm", out["pos_norm"], (cell_w * np.maximum(vals, 0.0) ** p).sum() ** (1 / p))
    _close("neg_norm", out["neg_norm"], (cell_w * np.maximum(-vals, 0.0) ** p).sum() ** (1 / p))


def typeq(report, *, equal: bool) -> None:
    if report["outputs"]["equal"] is not equal:
        raise CheckFailed(f"typeq: equal={report['outputs']['equal']!r}, expected {equal}")


def demo_remark(report) -> None:
    # (x /\ y)+ integrates to 1 against (g, h) = ((1,-1,0), (1,1,-2)) and to 0 against (g, -h)
    out = report["outputs"]
    _close("witness_with_h", out["witness_with_h"], 1.0)
    _close("witness_with_minus_h", out["witness_with_minus_h"], 0.0)


def demo_p1(report, *, eps_inv: int) -> None:
    # one fiber of eps_inv cells, the first at depth -eps_inv (p = 1): E_eps = -1
    out = report["outputs"]
    _close("partial_values", out["partial_values"], [-1.0])
    _close("f_norm", out["f_norm"], 1.0)
    _close("partial_norm", out["partial_norm"], 1.0)


# ---------------------------------------------------------------------------
# moments-events
# ---------------------------------------------------------------------------

def _block_means(weights, labels, values) -> np.ndarray:
    den = np.bincount(labels, weights)
    num = np.bincount(labels, weights * values)
    return (num / den)[labels]


def rv_cb(report, *, weights, labels, xs, exps) -> None:
    want = {
        ",".join(map(str, ks)): _block_means(weights, labels, xs[0] ** ks[0] * xs[1] ** ks[1])
        for ks in exps
    }
    _close_map("moments", report["outputs"]["moments"], want)


def apr_cb(report, *, weights, labels, events) -> None:
    want = {}
    for size in range(1, len(events) + 1):
        for subset in combinations(range(len(events)), size):
            meet = events[list(subset)].min(axis=0)
            want[",".join(map(str, subset))] = _block_means(weights, labels, meet)
    _close_map("conditional_probabilities", report["outputs"]["conditional_probabilities"], want)


# ---------------------------------------------------------------------------
# krivine-fit
# ---------------------------------------------------------------------------

def _spow(x, alpha):
    return np.sign(x) * np.abs(x) ** alpha


#: The registry functions the workload fits: arity and values at points (rows = coordinates).
TARGETS = {
    "euclid": (2, lambda pts: np.sqrt((pts ** 2).sum(axis=0))),
    "geomean(1/2)": (2, lambda pts: _spow(pts[0], 0.5) * _spow(pts[1], 0.5)),
    "euclid(3)": (3, lambda pts: np.sqrt((pts ** 2).sum(axis=0))),
}

SAMPLE_POINTS = 4096


def sphere_sample(arity: int) -> np.ndarray:
    """A fixed sample of SAMPLE_POINTS unit vectors: equal angles on the
    circle, a Fibonacci lattice on the 2-sphere."""
    i = np.arange(SAMPLE_POINTS) + 0.5
    if arity == 2:
        ang = 2 * math.pi * i / SAMPLE_POINTS
        return np.stack([np.cos(ang), np.sin(ang)])
    if arity == 3:
        z = 1.0 - 2.0 * i / SAMPLE_POINTS
        r = np.sqrt(1.0 - z * z)
        phi = math.pi * (3.0 - math.sqrt(5.0)) * i
        return np.stack([r * np.cos(phi), r * np.sin(phi), z])
    raise ValueError(f"no sphere sample for arity {arity}")


_TOKEN = re.compile(
    r"\s*(?:(?P<scale>-?\d+(?:/\d+)?)\*|x(?P<var>\d+)|(?P<fn>neg|abs|avg)\(|(?P<op>\\/|/\\)"
    r"|(?P<punct>[(),])|(?P<zero>0))"
)


def eval_term(text: str, pts: np.ndarray) -> np.ndarray:
    """Values of a lattice term, in the CLI's concrete syntax, at the columns
    of ``pts``."""
    toks = []
    pos, end = 0, len(text.rstrip())
    while pos < end:
        m = _TOKEN.match(text, pos)
        if m is None:
            raise CheckFailed(f"term: cannot read at offset {pos}")
        toks.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    zero = np.zeros(pts.shape[1])

    def expect(i, value):
        if i >= len(toks) or toks[i][1] != value:
            raise CheckFailed(f"term: expected {value!r} at token {i}")
        return i + 1

    def node(i):
        if i >= len(toks):
            raise CheckFailed("term: unexpected end")
        kind, val = toks[i]
        if kind == "scale":
            v, j = node(i + 1)
            return float(Fraction(val)) * v, j
        if kind == "var":
            return pts[int(val)], i + 1
        if kind == "zero":
            return zero, i + 1
        if kind == "fn":
            a, j = node(i + 1)
            if val == "avg":
                b, j = node(expect(j, ","))
                return (a + b) * 0.5, expect(j, ")")
            return (-a if val == "neg" else np.abs(a)), expect(j, ")")
        if val == "(":
            a, j = node(i + 1)
            if j >= len(toks) or toks[j][0] != "op":
                raise CheckFailed(f"term: expected a lattice operator at token {j}")
            b, k = node(j + 1)
            f = np.maximum if toks[j][1] == "\\/" else np.minimum
            return f(a, b), expect(k, ")")
        raise CheckFailed(f"term: unexpected {val!r} at token {i}")

    value, j = node(0)
    if j != len(toks):
        raise CheckFailed(f"term: trailing input at token {j}")
    return np.broadcast_to(value, pts.shape[1:]).astype(float)


def sampled_error(text: str, fn: str) -> float:
    arity, target = TARGETS[fn]
    pts = sphere_sample(arity)
    return float(np.abs(eval_term(text, pts) - target(pts)).max())


def krivine_approx(report, *, fn: str, eps: float, out: str) -> None:
    """The emitted term's error on the fixed sphere sample must not exceed the
    reported certificate."""
    res = report["outputs"]
    text = Path(out).read_text(encoding="utf-8").strip()
    if res["term_chars"] != len(text):
        raise CheckFailed(f"term_chars {res['term_chars']} but the term has {len(text)}")
    err = sampled_error(text, fn)
    if err > float(res["certified_error"]):
        raise CheckFailed(
            f"{fn}: sampled error {err!r} exceeds certified_error {res['certified_error']!r}"
        )


def krivine_parse(report, *, term_path: str) -> None:
    text = Path(term_path).read_text(encoding="utf-8").strip()
    if report["outputs"]["term"] != text or report["checks"].get("roundtrip") is not True:
        raise CheckFailed("parse: the term does not round-trip")


def krivine_eval(report, *, term_path: str, point) -> None:
    text = Path(term_path).read_text(encoding="utf-8").strip()
    want = eval_term(text, np.asarray(point, dtype=float).reshape(-1, 1))
    _close("value", [report["outputs"]["value"]], want)
