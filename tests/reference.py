"""Independent brute-force oracles used to freeze expected values.

Nothing here calls back into the package's algorithmic kernels: conditional
expectations are plain loops, partials come from sort-and-prefix-sum,
conjugate values from a direct sup over candidate points, and lattice terms
are evaluated by a walk of their own. The exceptions are the last two
sections. One runs the package's own kernels: the exact-conjugation route to
E_t, and the moment determinacy check that two test modules share. The other
holds the paper's constructions that no program call runs and several test
modules use: truncated subtraction, the signed power, the n-type base and the
lifted event.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

import numpy as np

from canonbase_lab.errors import InvariantError
from canonbase_lab.legendre import conjugate
from canonbase_lab.lp_canon import PsiFamily, canonical_base_1type
from canonbase_lab.measure_core import (ExtensionPair, LatticeElement, SubStructure, check_p, cond_exp, group,
                                        same_space)
from canonbase_lab.oracle import DirectionalMass
from canonbase_lab.records import Record
from canonbase_lab.rules import TOL, close, integer
from canonbase_lab.rv_canon import cond_moments, validate_rv


def ref_array_reals(values, name):
    """The numpy rule for real input: a fresh float64 array of ``values``,
    every entry a finite real, with the messages the package gives."""
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvariantError(f"{name}: expected real numbers ({exc})") from None
    finite = np.isfinite(arr)
    if not finite.all():
        bad = np.argwhere(~finite)[0]
        pos = "".join(f"/{k}" for k in bad)
        raise InvariantError(f"{name}{pos}: must be finite, got {float(arr[tuple(bad)])}")
    return arr


def ref_sort_order(vectors: np.ndarray, quantum: float) -> np.ndarray:
    """numpy's ``lexsort`` over the rows of ``vectors``, each coordinate but
    the last rounded to a multiple of ``quantum``: the rule ``sort_order``
    follows."""
    coords = vectors.T
    return np.lexsort([coords[-1], *np.round(coords[-2::-1] / quantum)])  # last key first


def ref_group(vectors: np.ndarray, quantum: float) -> tuple[np.ndarray, np.ndarray]:
    """The group labels and first rows of ``group``, by numpy."""
    order = ref_sort_order(vectors, quantum)
    starts = np.ones(len(order), bool)
    starts[1:] = np.any(np.abs(np.diff(vectors[order], axis=0)) > quantum, axis=1)
    labels = np.empty(len(order), np.intp)
    labels[order] = np.cumsum(starts) - 1
    return labels, order[starts]


def ref_lp_norm(weights, values, p):
    return sum(w * abs(v) ** p for w, v in zip(weights, values)) ** (1.0 / p)


def ref_cond_exp(weights, values, blocks):
    out = [0.0] * len(values)
    for block in blocks:
        mass = sum(weights[i] for i in block)
        mean = sum(weights[i] * values[i] for i in block) / mass
        for i in block:
            out[i] = mean
    return out


def ref_apr_cb(weights, events, blocks):
    """Per nonempty subset of event indices, as a frozenset, the conditional
    probability of the meet of those events: their pointwise minimum,
    averaged per block by a loop over its atoms, zero off the blocks."""
    out = {}
    for size in range(1, len(events) + 1):
        for subset in combinations(range(len(events)), size):
            meet = [min(events[j][i] for j in subset) for i in range(len(weights))]
            out[frozenset(subset)] = ref_cond_exp(weights, meet, blocks)
    return out


def ref_partial_prefix(row, t):
    """E_t for one fiber by sorting and integrating the quantile profile."""
    n = len(row)
    vals = sorted(row)
    k = int(math.floor(t * n + 1e-12))
    total = sum(vals[:k]) / n
    frac = t - k / n
    if frac > 1e-12 and k < n:
        total += frac * vals[k]
    return total


def ref_slice(row, t):
    """The t-quantile: k-th order statistic for t in ((k-1)/n, k/n]."""
    n = len(row)
    k = min(n, max(1, math.ceil(t * n - 1e-12)))
    return sorted(row)[k - 1]


def ref_conjugate_value(evaluate, candidates, t):
    """sup_x (t*x - phi(x)) over explicitly supplied candidate points."""
    return max(t * x - evaluate(x) for x in candidates)


def ref_padic_abs(x: Fraction, p: int) -> Fraction:
    if x == 0:
        return Fraction(0)

    def count(n: int) -> int:
        n = abs(n)
        c = 0
        while n % p == 0:
            n //= p
            c += 1
        return c

    v = count(x.numerator) - count(x.denominator)
    return Fraction(1, p**v) if v >= 0 else Fraction(p ** (-v))


def ref_is_prime(n: int) -> bool:
    """Trial division by every d with d*d <= n."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def ref_block_distribution(weights, values, block, tol=1e-9):
    mass = sum(weights[i] for i in block)
    pairs = sorted((values[i], weights[i] / mass) for i in block)
    out = []
    for v, pr in pairs:
        if out and abs(out[-1][0] - v) <= tol:
            out[-1][1] += pr
        else:
            out.append([v, pr])
    return [(v, pr) for v, pr in out]


def ref_signed_power(x, alpha):
    return x**alpha if x >= 0 else -((-x) ** alpha)


def spow_deviation_bound(t, s, q):
    """Bound on |(I_q)^q - I_1| for increasing profiles with unit envelope:
    the window values lie in [-1/t, 1/(1-s)], so the bound is the worst
    pointwise power distortion inside the window plus the outer one."""
    bound = max(1.0 / t, 1.0 / (1.0 - s)) + 1.0

    def max_dist(exponent):
        # max over [0, B] of |v^e - v| is at v = B or at the interior critical point
        best = abs(bound**exponent - bound)
        if exponent != 1.0:
            crit = (1.0 / exponent) ** (1.0 / (exponent - 1.0))
            if 0.0 < crit < bound:
                best = max(best, abs(crit**exponent - crit))
        return best

    return (s - t) * max_dist(1.0 / q) + max_dist(q)


def ref_sphere_error(term, fn, points):
    """The largest |term(x) - fn(x)| over the columns x of ``points``. The
    term is walked here node by node, by class name; a subterm shared by
    several parents is evaluated once."""
    values = {}

    def value(node):
        if id(node) not in values:
            kind = type(node).__name__
            if kind == "Zero":
                out = np.zeros(points.shape[1])
            elif kind == "Var":
                out = points[node.index]
            elif kind == "Neg":
                out = -value(node.arg)
            elif kind == "Abs":
                out = np.abs(value(node.arg))
            elif kind == "Scale":
                out = float(node.factor) * value(node.arg)
            elif kind == "HalfSum":
                out = (value(node.left) + value(node.right)) / 2
            elif kind == "Join":
                out = np.maximum(value(node.left), value(node.right))
            elif kind == "Meet":
                out = np.minimum(value(node.left), value(node.right))
            else:
                raise TypeError(f"unknown term node {node!r}")
            values[id(node)] = out
        return values[id(node)]

    return float(np.abs(value(term) - fn.fn(points)).max())


def _pieces_at_cone_rays(rays, cones, coeffs):
    """[j][c][r]: piece j (the linear form x -> coeffs[j] . x) at ray r of cone
    c, and the slack of the max-min construction: 1e-12 of the largest value
    of a cone's own piece, plus 1e-12."""
    at = [[[float(np.dot(cj, rays[r])) for r in cone] for cone in cones] for cj in coeffs]
    slack = 1e-12 * (1.0 + max(abs(v) for c in range(len(cones)) for v in at[c][c]))
    return at, slack


def ref_dominating(rays, cones, coeffs):
    """Per cone i, the pieces j that dominate it: piece j >= piece i at every
    ray of cone i, up to the slack."""
    at, slack = _pieces_at_cone_rays(rays, cones, coeffs)
    return [
        [j for j in range(len(coeffs)) if all(a >= b - slack for a, b in zip(at[j][i], at[i][i]))]
        for i in range(len(cones))
    ]


def ref_covers(rays, cones, coeffs):
    """[j][c]: piece j covers cone c, that is piece j <= piece c at every ray
    of cone c, up to the slack."""
    at, slack = _pieces_at_cone_rays(rays, cones, coeffs)
    return [
        [all(a <= b + slack for a, b in zip(at[j][c], at[c][c])) for c in range(len(cones))]
        for j in range(len(coeffs))
    ]


def ref_max_min(rays, cones, coeffs, points):
    """The max-min form with every dominating piece in each cone's meet, at
    the columns of ``points``: max over cones i of min over the pieces j
    that dominate cone i of coeffs[j] . x."""
    values = np.asarray(coeffs) @ points
    return np.max([values[members].min(axis=0) for members in ref_dominating(rays, cones, coeffs)], axis=0)


def ref_space(weights):
    """A measure space as the tuple of its weights, as floats."""
    return tuple(map(float, weights))


def ref_substructure(blocks):
    """A substructure as the tuple of its blocks, each sorted, in block order."""
    return tuple(tuple(sorted(map(int, block))) for block in blocks)


# -- identity checks that run the package's kernels --------------------------------

class InsufficientMomentsError(InvariantError):
    """The moment box is too small for the per-block support encountered."""


def _partial_from_family(fam: PsiFamily, t: float) -> LatticeElement:
    """E_t by exact conjugation of each atom's shortfall function."""
    out = []
    for fn, f0w in zip(fam.fibers, fam.f0.array.tolist()):
        if f0w == 0.0:
            out.append(0.0)
        else:
            out.append(conjugate(fn).evaluate(t * f0w))
    return LatticeElement(fam.pair.base_space(), tuple(out))


def _block_masses(
    x: LatticeElement, y: LatticeElement, block: tuple[int, ...], quantum: float
) -> tuple[np.ndarray, np.ndarray]:
    """The values of x and y on the block, sorted together and grouped where
    neighbours lie within ``quantum`` of each other, as the probability that
    x and that y give each group within the block."""
    idx = np.asarray(block)
    w = x.space.weight_array[idx]
    values = np.concatenate([x.array[idx], y.array[idx]]).tolist()
    labels, firsts = group([values], quantum)
    parts = (labels[: len(idx)], labels[len(idx) :])
    return tuple(np.bincount(g, w, len(firsts)) / w.sum() for g in parts)


def moments_determine_check(
    x: LatticeElement, y: LatticeElement, s: SubStructure, max_k: int
) -> bool:
    """True iff conditional moments up to max_k agree exactly when the
    per-block distributions agree, checked both ways against the raw
    distributions. Sorted neighbours no farther apart than TOL times the
    joint sup norm of x and y count as one value. Requires max_k + 1 to cover
    the union support per block (the moment map is then invertible); anything
    smaller raises."""
    validate_rv(x)
    validate_rv(y)
    same_space((x, y), "variables")
    max_k = integer(max_k, "max_k", 0)
    quantum = TOL * float(max(np.abs(x.array).max(), np.abs(y.array).max()))
    dists = [_block_masses(x, y, b, quantum) for b in s.blocks]
    for probs_x, _ in dists:
        distinct = len(probs_x)
        if distinct > max_k + 1:
            raise InsufficientMomentsError(
                f"a block carries {distinct} distinct values; "
                f"max_k = {max_k} moments cannot determine them"
            )
    kss = [(k,) for k in range(1, max_k + 1)]
    moments_x, moments_y = (cond_moments([v], kss, s).table for v in (x, y))
    moments_match = all(map(close, moments_x, moments_y))
    dists_match = all(close(probs_x, probs_y) for probs_x, probs_y in dists)
    return moments_match == dists_match


# -- paper constructions that no program call runs ---------------------------------

def dotminus(f: LatticeElement, g: LatticeElement) -> LatticeElement:
    """Truncated subtraction, (a - b) v 0, per atom."""
    same_space((f, g), "operands")
    return LatticeElement(f.space, np.maximum(f.array - g.array, 0.0))



def signed_power(x, alpha: float):
    """x**alpha extended to negative x by odd reflection, so (-7)**2 -> -49.

    ``x`` is a float, or an element, which is raised atom by atom.
    """
    alpha = float(alpha)
    if not alpha > 0:
        raise InvariantError(f"signed_power needs a positive exponent, got {alpha}")
    if isinstance(x, LatticeElement):
        mag = np.abs(x.array) ** alpha
        return LatticeElement(x.space, np.where(x.array >= 0.0, mag, -mag))
    x = float(x)
    if x >= 0.0:
        return x ** alpha
    return -((-x) ** alpha)



class NTypeBase(Record):
    """Canonical bases of all integer combinations k . f over a box, plus the
    directional-mass summary standing in for the absolute joint type.
    ``bases`` maps each coefficient tuple k to its ``LpCanonicalBase``."""

    __slots__ = ("bases", "absolute_summary")


def canonical_base_ntype(
    fs: Sequence[LatticeElement],
    pair: ExtensionPair,
    p: float,
    grid: Sequence[float],
    k_max: int,
) -> NTypeBase:
    p = check_p(p)
    same_space(fs, "elements")
    pair.require(fs[0])
    # the integer box must contain a spanning set
    k_max = integer(k_max, "k_max", 1)
    bases = {}
    for combo in product(range(-k_max, k_max + 1), repeat=len(fs)):
        elem = LatticeElement(pair.total_space(), [0.0] * len(pair.total_space()))
        for k, g in zip(combo, fs):
            if k:
                elem = elem + float(k) * g
        bases[combo] = canonical_base_1type(elem, pair, p, grid)
    summary = DirectionalMass.from_elements(fs, p)
    return NTypeBase(bases, summary)



def is_block_measurable(y: LatticeElement, s: SubStructure) -> bool:
    """True iff y is close to its conditional expectation."""
    return y.approx_equal(cond_exp(y, s))





class LiftedEvent(Record):
    """The event {(atom, r) : r <= X(atom)} realised on a product space with
    equal fiber cells; its conditional probability over the base is X."""

    __slots__ = ("pair", "indicator", "snapped", "was_rounded")

    def conditional_probability(self) -> LatticeElement:
        return self.pair.cond_exp_base(self.indicator)


def lift_event(x: LatticeElement, s: SubStructure, fiber_cells: int) -> LiftedEvent:
    """Lift a [0,1]-valued variable to the indicator of its sub-graph event.

    Values are snapped to the grid {k/n}; any rounding actually applied is
    reported on the result.
    """
    validate_rv(x)
    if not is_block_measurable(x, s):
        raise InvariantError("x must be measurable for the conditioning blocks")
    pair = ExtensionPair(x.space.weight_array, fiber_cells)
    n = pair.n
    ks = np.clip(np.floor(x.array * n + 0.5), 0, n)
    snapped = LatticeElement(x.space, ks / n)
    was_rounded = not snapped.approx_equal(x)
    indicator = pair.element(np.arange(n) < ks[:, None])
    return LiftedEvent(pair, indicator, snapped, was_rounded)
