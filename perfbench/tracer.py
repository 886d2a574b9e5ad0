"""In-process tracing of canonlab calls, from outside the package.

``Tracer.install()`` replaces the public functions of each layer with
wrappers that record a span (name, start, end, parent, call id) and count
calls; ``restore()`` puts the originals back. The package binds many names
with ``from ... import``, so the aliases each caller uses are wrapped too.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter


def _distinct_nodes(term) -> int:
    """Distinct node objects of a term (shared subterms count once)."""
    seen, stack = set(), [term]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        for attr in ("arg", "left", "right"):
            child = getattr(t, attr, None)
            if child is not None:
                stack.append(child)
    return len(seen)


def _grid_points(fn):
    sig = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = sig.bind(*args, **kwargs).arguments
        return {"lp_canon.grid_points": bound["pair"].m * len(bound["grid"])}

    return count


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, call id]
        self.counts: Counter = Counter()
        self.call_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, span: bool, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)  # recursion inside the same span
            counts[name + "_calls"] += 1
            if not span:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if count is not None:
                counts.update(count(args, kwargs, result))
            return result

        return wrapper

    def _patch(self, owner, attr: str, name: str, span: bool = True, count=None):
        fn = owner.__dict__[attr]
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(name, fn, span, count))

    def install(self) -> None:
        from canonbase_lab import cli, krivine, legendre, lp_canon, measure_core, oracle, rv_canon

        p = self._patch
        p(cli, "dispatch", "cli.dispatch")
        for loader in ("load_space", "load_element", "load_probability_space"):
            p(cli, loader, "cli.load")
        p(measure_core, "cond_exp", "measure_core.cond_exp")
        p(rv_canon, "cond_exp", "measure_core.cond_exp")
        pair = measure_core.ExtensionPair
        p(pair, "total_space", "measure_core.total_space")
        p(pair, "cond_exp_base", "measure_core.cond_exp_base")
        p(legendre, "conjugate", "legendre.conjugate")
        p(lp_canon, "conjugate", "legendre.conjugate")
        p(lp_canon, "psi", "lp_canon.psi")
        p(lp_canon, "canonical_base_1type", "lp_canon.canonical_base_1type",
          count=_grid_points(lp_canon.canonical_base_1type))
        p(oracle, "type_equal_1", "oracle.type_equal_1")
        p(rv_canon, "cond_moment", "rv_canon.cond_moment")
        p(rv_canon, "apr_cb", "rv_canon.apr_cb",
          count=lambda a, k, r: {"rv_canon.subsets": len(r)})
        p(krivine, "approximate_on_sphere", "krivine.approximate_on_sphere",
          count=lambda a, k, r: {"krivine.term_nodes": _distinct_nodes(r[0])})
        p(krivine, "eval_array", "krivine.eval_array")
        p(krivine, "interpolating_term", "krivine.interpolating_term", span=False)
        p(krivine, "to_text", "krivine.to_text",
          count=lambda a, k, r: {"krivine.term_chars": len(r)})
        p(krivine, "parse_term", "krivine.parse_term")

    def restore(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def times(self) -> tuple[dict, dict]:
        """Per span name: total time and self time (total minus the direct
        children's time)."""
        total, child = defaultdict(float), defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child[idx]
        return total, self_time

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, call) in enumerate(self.spans):
                fh.write(json.dumps([idx, call, parent, name, start, end]) + "\n")
