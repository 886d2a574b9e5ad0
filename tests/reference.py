"""Independent brute-force oracles used to freeze expected values.

Nothing here calls back into the package's algorithmic kernels: conditional
expectations are plain loops, partials come from sort-and-prefix-sum,
conjugate values from a direct sup over candidate points, and lattice terms
are evaluated by a walk of their own.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np


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
