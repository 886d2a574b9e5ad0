"""Exact Legendre transforms of piecewise-linear convex scalar functions.

A function is stored by its finiteness domain, interior breakpoints, segment
slopes, and one anchor value. Conjugation in this form is an exact finite
computation: breakpoints and slopes exchange roles, and values come from a
finite sup over the breakpoint/endpoint candidates. Infinity never enters any
arithmetic; an unbounded domain side is recorded as ``math.inf`` in the domain
fields only, and evaluation outside the domain returns ``math.inf`` as a
sentinel.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence

from .errors import InvariantError
from .records import Record
from .rules import close, reals


class PLConvexFn(Record):
    """A proper convex piecewise-linear function on a closed interval.

    ``slopes[i]`` applies between ``breakpoints[i-1]`` and ``breakpoints[i]``
    (with the domain endpoints closing the two outer segments); a single-point
    domain has no slopes at all. Slopes are strictly increasing after the
    canonical merge of ties, and breakpoints lie strictly inside the domain.
    The fields hold floats, and tuples of floats for breakpoints and slopes.
    """

    __slots__ = ("lo", "hi", "breakpoints", "slopes", "anchor_x", "anchor_y")

    def __init__(self, lo: float, hi: float, breakpoints: Sequence[float], slopes: Sequence[float],
                 anchor_x: float, anchor_y: float):
        lo, hi = float(lo), float(hi)
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise InvariantError(f"invalid domain [{lo}, {hi}]")
        breaks = [float(b) for b in breakpoints]
        slopes = [float(s) for s in slopes]
        if lo == hi:
            if breaks or slopes:
                raise InvariantError("a point-domain function has no breakpoints or slopes")
        else:
            if len(slopes) != len(breaks) + 1:
                raise InvariantError(
                    f"{len(breaks)} breakpoints need {len(breaks) + 1} slopes, got {len(slopes)}"
                )
            for b in breaks:
                if not (lo < b < hi):
                    raise InvariantError(f"breakpoint {b} outside the open domain ({lo}, {hi})")
            if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
                raise InvariantError("breakpoints must be strictly increasing")
            for s in slopes:
                if not math.isfinite(s):
                    raise InvariantError("slopes must be finite")
            # canonical form: merge repeated slopes, dropping the breakpoint between
            merged_b: list[float] = []
            merged_s: list[float] = [slopes[0]]
            scale = max(map(abs, slopes))
            for b, s in zip(breaks, slopes[1:]):
                if s < merged_s[-1] and not close((s, scale), (merged_s[-1], scale)):
                    raise InvariantError("slopes must be nondecreasing (convexity)")
                if s <= merged_s[-1]:
                    continue
                merged_b.append(b)
                merged_s.append(s)
            breaks, slopes = merged_b, merged_s
        ax, ay = float(anchor_x), float(anchor_y)
        if not (math.isfinite(ax) and math.isfinite(ay)):
            raise InvariantError("anchor must be finite")
        if not (lo <= ax <= hi):
            raise InvariantError(f"anchor {ax} outside the domain [{lo}, {hi}]")
        super().__init__(lo, hi, tuple(breaks), tuple(slopes), ax, ay)

    # -- basic queries -----------------------------------------------------

    def is_point(self) -> bool:
        return self.lo == self.hi

    def _slope_integral(self, a: float, b: float) -> float:
        """Integral of the slope step function from a to b, a <= b in domain."""
        pts = self.breakpoints
        total = 0.0
        left = a
        for i, bp in enumerate(pts):
            if bp <= a:
                continue
            if bp >= b:
                break
            total += self.slopes[i] * (bp - left)
            left = bp
        if b > left:
            total += self.slopes[bisect_left(pts, b)] * (b - left)
        return total

    def evaluate(self, x: float) -> float:
        """Value at x; math.inf outside the domain."""
        x = float(x)
        if self.is_point():
            return self.anchor_y if x == self.lo else math.inf
        if x < self.lo or x > self.hi:
            return math.inf
        if x >= self.anchor_x:
            return self.anchor_y + self._slope_integral(self.anchor_x, x)
        return self.anchor_y - self._slope_integral(x, self.anchor_x)

    __call__ = evaluate

    @classmethod
    def point(cls, x: float, value: float) -> "PLConvexFn":
        return cls(x, x, (), (), x, value)


def conjugate(phi: PLConvexFn) -> PLConvexFn:
    """The Legendre transform t -> sup_x (t*x - phi(x)), exact.

    Breakpoints and slopes exchange: the conjugate's breakpoints are phi's
    slopes and its slopes are the maximizer positions (domain endpoint or
    breakpoint). A finite domain endpoint becomes an outer conjugate slope;
    an infinite one bounds the conjugate's domain at the adjacent slope.
    """
    if phi.is_point():
        # sup over a single point: the affine function t*x0 - phi(x0)
        return PLConvexFn(
            -math.inf, math.inf, (), (phi.lo,), 0.0, -phi.anchor_y
        )
    slopes, breaks = phi.slopes, phi.breakpoints
    lo_fin, hi_fin = math.isfinite(phi.lo), math.isfinite(phi.hi)
    if not lo_fin and not hi_fin and len(slopes) == 1:
        # affine on the whole line: conjugate finite only at the slope
        s0 = slopes[0]
        return PLConvexFn.point(s0, s0 * phi.anchor_x - phi.anchor_y)
    new_lo = -math.inf if lo_fin else slopes[0]
    new_hi = math.inf if hi_fin else slopes[-1]
    new_breaks = list(slopes)
    new_slopes = list(breaks)
    if lo_fin:
        new_slopes.insert(0, phi.lo)
    else:
        new_breaks.pop(0)
    if hi_fin:
        new_slopes.append(phi.hi)
    else:
        new_breaks.pop()
    candidates = ([phi.lo] if lo_fin else []) + list(breaks) + ([phi.hi] if hi_fin else [])
    if new_breaks:
        t0 = new_breaks[0]
    else:
        t0 = new_lo if math.isfinite(new_lo) else new_hi
    v0 = max(t0 * x - phi.evaluate(x) for x in candidates)
    return PLConvexFn(new_lo, new_hi, tuple(new_breaks), tuple(new_slopes), t0, v0)


def fn_to_dict(phi: PLConvexFn) -> dict:
    """JSON-friendly form; unbounded domain sides become null."""
    return {
        "domain": [None if not math.isfinite(phi.lo) else phi.lo,
                   None if not math.isfinite(phi.hi) else phi.hi],
        "breakpoints": list(phi.breakpoints),
        "slopes": list(phi.slopes),
        "anchor": [phi.anchor_x, phi.anchor_y],
    }


def fn_from_dict(doc: dict) -> PLConvexFn:
    """Inverse of ``fn_to_dict``. A malformed field raises InvariantError
    naming its JSON pointer."""
    fields = {}
    for key, size in (("domain", 2), ("breakpoints", None), ("slopes", None), ("anchor", 2)):
        if key not in doc:
            raise InvariantError(f"/{key}: missing")
        value = doc[key]
        if key == "domain" and isinstance(value, list):
            value = [0.0 if end is None else end for end in value]  # null: unbounded
        fields[key] = reals(value, f"/{key}", size)
    (lo, hi), (ax, ay) = fields["domain"], fields["anchor"]
    return PLConvexFn(
        -math.inf if doc["domain"][0] is None else lo,
        math.inf if doc["domain"][1] is None else hi,
        tuple(fields["breakpoints"]),
        tuple(fields["slopes"]),
        ax,
        ay,
    )
