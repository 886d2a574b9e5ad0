"""Lattice terms (``terms``) on arrays, two-point
interpolation, and approximation of continuous positively-homogeneous
degree-one functions. Evaluation folds ``_CHUNK`` columns at a time.

Approximation is Krivine's calculus made computable, by one engine for every
arity n >= 2: the function is interpolated linearly on the cones of a
conforming simplicial fan (the orthants, refined by edge bisection in rounds
that double, up to ``MAX_FAN`` cones), and the interpolant becomes a lattice
term in max-min form over its own pieces, each meet cut down to pieces that
cover every cone. Its error bound comes from deterministic samples and the
cones' geometry.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InvariantError
from .records import Record
from .rules import close, integer
# parse_term and to_text stay attributes of this module: perfbench's tracer patches them here
from .terms import (_VALUE, HalfSum, Join, LatticeTerm, Meet, Neg, Scale, Var, Zero, _check_arity, _Walk, _fold,
                    _walk, eval_scalar, parse_term, term_lipschitz_bound, to_text)


# the array forms of the join and meet rules of ``terms._VALUE``
_VALUE = {**_VALUE, Join: lambda t, a, b: np.maximum(a, b), Meet: lambda t, a, b: np.minimum(a, b)}

_CHUNK = 8192  # columns evaluated at once; bounds the arrays held by a fold


def _evaluate(walk: _Walk, points: np.ndarray) -> np.ndarray:
    """The term at each column of ``points`` (one row per variable)."""
    _check_arity(walk, points.shape[0])
    out = np.empty(points.shape[1])
    chunk: list = []
    rules = {**_VALUE, Var: lambda t, a, b: chunk[t.index]}
    for s in range(0, points.shape[1], _CHUNK):
        chunk[:] = points[:, s : s + _CHUNK]
        out[s : s + _CHUNK] = _fold(walk, rules)
    return out


def eval_array(term: LatticeTerm, points: np.ndarray) -> np.ndarray:
    """Vectorized evaluation; ``points`` has one row per variable."""
    return _evaluate(_walk(term), points)


# ---------------------------------------------------------------------------
# Two-point interpolation on the sphere
# ---------------------------------------------------------------------------

def _pos(t: LatticeTerm) -> LatticeTerm:
    return Join(t, Zero())


def _negpart(t: LatticeTerm) -> LatticeTerm:
    return Join(Neg(t), Zero())


def _add(u: LatticeTerm, v: LatticeTerm) -> LatticeTerm:
    return Scale(Fraction(2), HalfSum(u, v))


# no CLI call runs this; it stays because perfbench's tracer patches it here
def interpolating_term(
    x: Sequence[float], y: Sequence[float], a: float, b: float
) -> LatticeTerm:
    """A lattice term with t(x) = a and t(y) = b for distinct sphere points.

    The construction reduces to a coordinate where the points differ; with
    equal absolute values there it combines the positive and negative parts of
    that coordinate, otherwise it takes a plain linear combination of two
    coordinates whose absolute values separate the points in opposite ways.
    """
    xv = np.asarray(x, dtype=float).ravel()
    yv = np.asarray(y, dtype=float).ravel()
    if xv.shape != yv.shape or xv.size == 0:
        raise InvariantError("points must be nonempty vectors of equal length")
    nx, ny = float(np.linalg.norm(xv)), float(np.linalg.norm(yv))
    if nx == 0.0 or ny == 0.0:
        raise InvariantError("sphere points must be nonzero")
    a = float(a) / nx
    b = float(b) / ny
    xv = xv / nx
    yv = yv / ny
    if np.array_equal(xv, yv):
        raise InvariantError("interpolation needs two distinct sphere points")
    i = int(np.argmax(np.abs(xv - yv)))
    if abs(xv[i]) == abs(yv[i]):
        # coordinates are opposite and nonzero there
        if xv[i] > 0:
            xv, yv, a, b = yv, xv, b, a
        return _add(
            Scale(Fraction(a / yv[i]), _negpart(Var(i))),
            Scale(Fraction(b / yv[i]), _pos(Var(i))),
        )
    if abs(xv[i]) > abs(yv[i]):
        xv, yv, a, b = yv, xv, b, a
    j = int(np.argmax(np.abs(xv) - np.abs(yv)))
    denom = xv[j] * yv[i] - xv[i] * yv[j]
    if denom == 0.0:
        raise InvariantError("degenerate point pair for linear interpolation")
    ci = (b * xv[j] - a * yv[j]) / denom
    cj = (a * yv[i] - b * xv[i]) / denom
    return _add(Scale(Fraction(ci), Var(i)), Scale(Fraction(cj), Var(j)))


# ---------------------------------------------------------------------------
# Homogeneous functions and their lattice-term approximation
# ---------------------------------------------------------------------------

class HomogeneousFn(Record):
    """A continuous function on R^n, positively homogeneous of degree one,
    with a declared uniform modulus of continuity on the unit sphere. ``fn``
    maps an (arity, k) array of points to their k values, and ``modulus``
    maps a distance to a bound on the change of value."""

    __slots__ = ("name", "arity", "fn", "modulus")

    def evaluate(self, point: Sequence[float]) -> float:
        pts = np.asarray(point, dtype=float).reshape(self.arity, 1)
        return float(self.fn(pts)[0])

    def spot_check_homogeneous(self) -> None:
        """Check fn(a x) = a fn(x) at 32 fixed points x and scales a, read off
        the golden-ratio Weyl sequence u_k = frac(k (sqrt 5 - 1) / 2), k >= 1:
        the first 32 n terms give the coordinates 2 u - 1, in (-1, 1) with
        both signs, and the next 32 the scales 4 u, in (0, 4)."""
        u = (np.arange(1, 32 * (self.arity + 1) + 1) * ((math.sqrt(5.0) - 1.0) / 2.0)) % 1.0
        pts = 2.0 * u[: 32 * self.arity].reshape(self.arity, 32) - 1.0
        alphas = 4.0 * u[32 * self.arity :]
        if not close(self.fn(pts * alphas), alphas * self.fn(pts)):
            raise InvariantError(f"{self.name} is not positively homogeneous of degree one")


def _spow_np(x: np.ndarray, alpha: float) -> np.ndarray:
    return np.sign(x) * np.abs(x) ** alpha


def _power_product(name: str, a: float, b: float) -> HomogeneousFn:
    """sign(x)|x|^a * sign(y)|y|^b for exponents in (0, 1)."""
    return HomogeneousFn(
        name, 2,
        lambda pts: _spow_np(pts[0], a) * _spow_np(pts[1], b),
        lambda d, h=min(a, b): 2.0 * d ** h,
    )


def registry_function(spec: str) -> HomogeneousFn:
    """Build a named homogeneous function.

    Accepted forms: ``euclid``, ``euclid(n)`` with an integer n >= 1,
    ``geomean(alpha)`` with 0 < alpha < 1, ``power(p,q)`` with
    1/p + 1/q = 1, and ``halfsum_pq(p,q)`` with p, q >= 1. Arguments are
    rational numbers such as ``3/2``.
    """
    m = re.fullmatch(r"\s*([a-z_]+)\s*(?:\(([^)]*)\))?\s*", spec)
    if m is None:
        raise InvariantError(f"malformed function spec {spec!r}")
    name, argtext = m.group(1), m.group(2)
    try:
        args = [float(Fraction(p.strip())) for p in argtext.split(",")] if argtext else []
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InvariantError(f"{spec!r}: arguments must be rational numbers ({exc})") from None
    if name == "euclid":
        if len(args) > 1:
            raise InvariantError(f"{spec!r}: euclid(n) takes one integer n >= 1")
        n = integer(args[0], f"{spec!r}: n", 1) if args else 2
        return HomogeneousFn(
            f"euclid({n})", n,
            lambda pts: np.sqrt((pts ** 2).sum(axis=0)),
            lambda d: d,
        )
    if name == "geomean":
        if len(args) != 1 or not (0.0 < args[0] < 1.0):
            raise InvariantError("geomean needs one exponent in (0, 1)")
        return _power_product(f"geomean({args[0]})", args[0], 1.0 - args[0])
    if name == "power":
        if len(args) != 2 or min(args) <= 0.0 or not close(1.0 / args[0] + 1.0 / args[1], 1.0):
            raise InvariantError("power(p,q) needs conjugate exponents 1/p + 1/q = 1")
        p, q = args
        return _power_product(f"power({p},{q})", 1.0 / p, 1.0 / q)
    if name == "halfsum_pq":
        if len(args) != 2 or min(args) < 1.0:
            raise InvariantError("halfsum_pq(p,q) needs exponents >= 1")
        p, q = args
        inner = p / q
        holder = min(p / q, q / p, 1.0)
        return HomogeneousFn(
            f"halfsum_pq({p},{q})", 2,
            lambda pts: _spow_np(0.5 * (_spow_np(pts[0], inner) + _spow_np(pts[1], inner)), 1.0 / inner),
            lambda d, h=holder: 2.0 * d ** h,
        )
    raise InvariantError(f"unknown registry function {name!r}")


# -- the simplicial cone engine ------------------------------------------------

def _balanced(ctor, items: list[LatticeTerm]) -> LatticeTerm:
    while len(items) > 1:
        items = [
            ctor(items[i], items[i + 1]) if i + 1 < len(items) else items[i]
            for i in range(0, len(items), 2)
        ]
    return items[0]


MAX_FAN = 2**13  # cones a fit may refine its fan to; euclid(5) at eps 0.1 reaches it in about 15 s
MAX_DRAWN = 2**27  # sample points a fit may draw; geomean(1/10) at eps 0.1 draws them in about 8 s
_SAMPLES = 2**14  # sample points _certify holds at once
_TABLE = 2**16  # piece values at cone rays _meet_members holds at once


def _certify(fn, rays, cones, eps, ladder, moduli, value=None, lip=None):
    """Fit each cone's interpolating piece; return per cone the error bound
    described in ``approximate_on_sphere``, the piece's coefficients c, the
    longest edge and the number of sample points drawn. With ``value`` given, the bound is for the positively
    homogeneous function whose values at the face points ``pts[q]`` of the
    cones ``part`` are ``value(part, pts)``, with its Lipschitz bound ``lip``
    (per cone, or one for all) in place of |c|."""
    k, n = cones.shape
    R = rays[cones]  # R[c, r] is ray r of cone c
    vals = fn.fn(R.reshape(-1, n).T).reshape(k, n)
    sol = np.linalg.solve(R, np.stack([vals, np.ones_like(vals)], axis=2))
    coeffs, normal = sol[..., 0], sol[..., 1]  # R c = vals, R normal = 1
    lip = np.linalg.norm(coeffs, axis=1) if value is None else lip * np.ones(k)
    pairs = list(itertools.combinations(range(n), 2))
    chords = np.stack([np.linalg.norm(R[:, a] - R[:, b], axis=1) for a, b in pairs], axis=1)
    longest = chords.argmax(axis=1)
    # reach / L is the covering radius of the level-L samples (see approximate_on_sphere)
    reach = (n // 2) * ((n + 1) // 2) / n * chords.max(axis=1) * np.linalg.norm(normal, axis=1)
    ok = moduli + lip[:, None] * ladder <= eps / 2
    goal = ladder[np.where(ok.any(axis=1), ok.argmax(axis=1), -1)]
    levels = np.ceil(reach / goal).clip(1, int(2 ** (16 / (n - 1)))).astype(int)
    err = np.zeros(k)
    for level in np.flatnonzero(np.bincount(levels)):  # the distinct levels, without np.unique's numpy.ma
        # barycentric points k / L of the flat face, k in N^n with sum L
        bary = np.indices((level + 1,) * (n - 1)).reshape(n - 1, -1)
        bary = bary[:, bary.sum(axis=0) <= level]
        bary = np.vstack([bary, level - bary.sum(axis=0)]).T / level
        same = np.flatnonzero(levels == level)
        step = max(1, _SAMPLES // len(bary))
        for part in (same[s : s + step] for s in range(0, len(same), step)):
            for b in range(0, len(bary), _SAMPLES):
                pts = bary[b : b + _SAMPLES] @ R[part]  # face points, one row of them per cone
                flat = pts.reshape(-1, n).T
                fit = (pts @ coeffs[part][:, :, None]).ravel() if value is None else value(part, pts)
                # both sides are positively homogeneous: the error at p / |p| is |fit(p) - f(p)| / |p|
                gap = np.abs(fit - fn.fn(flat)) / np.sqrt(np.einsum("ij,ij->j", flat, flat))
                err[part] = np.maximum(err[part], gap.reshape(len(part), -1).max(axis=1))
    h = reach / levels
    cert = err + np.array([fn.modulus(x) for x in h]) + lip * h
    edges = [(c[pairs[e][0]], c[pairs[e][1]]) for c, e in zip(cones.tolist(), longest)]
    return cert, coeffs, edges, [math.comb(level + n - 1, n - 1) for level in levels.tolist()]


def _meet_members(
    rays: np.ndarray, cones: np.ndarray, coeffs: np.ndarray
) -> tuple[list[list[int]], list[list[int]]]:
    """Per cone i, in increasing order, the pieces l_j = c_j . x of the
    interpolant f whose meet ``_max_min_ast`` takes for cone i; and per cone
    c, the cones whose meets do not cover it.

    Piece j dominates cone i if l_j >= l_i at the cone's n rays (hence on the
    cone), and covers cone c if l_j <= l_c at the rays of c (hence on c), each
    up to 1e-12 of the largest value. Cone i's meet takes piece i, then, of
    the pieces that dominate cone i, the one that covers the most cones still
    uncovered, until every cone is covered. On cone i that meet is l_i, and on
    each cone c it is at most l_c = f, so the join of the meets is f. If no
    dominating piece covers any cone left, the meet takes every piece that
    dominates cone i, as in Ovchinnikov's max-min form (Beitr. Algebra Geom.
    43, 2002). That form is f when each cone's dominating pieces are those
    that dominate each point of it, but not on every fan (seen at arity 5),
    so ``_fit_cones`` certifies the term itself on each cone some meet does
    not cover. The tables are built a block of cones at a time, ``_TABLE``
    piece values at once."""
    k, n = cones.shape
    R = rays[cones].transpose(1, 2, 0)  # R[r, :, c] is ray r of cone c
    own = np.einsum("rdc,cd->rc", R, coeffs)[:, None, :]  # [r, 0, c] = piece c at ray r of cone c
    slack = 1e-12 * (1.0 + float(np.abs(own).max()))
    dominates: list[np.ndarray] = []  # per cone, the pieces that dominate it
    covers = np.empty((k, k), dtype=bool)  # [j, c]: piece j covers cone c
    step = max(1, _TABLE // (k * n))
    for s in range(0, k, step):
        gap = coeffs @ R[:, :, s : s + step] - own[:, :, s : s + step]  # [r, j, c]: l_j - l_c at ray r of c
        covers[:, s : s + step] = gap.max(axis=0) <= slack
        dominates += map(np.flatnonzero, (gap.min(axis=0) >= -slack).T)
    members: list[list[int]] = []
    uncovered: list[list[int]] = [[] for _ in range(k)]
    for i, candidates in enumerate(dominates):
        chosen = {i}
        left = np.flatnonzero(~covers[i])  # the cones piece i does not cover
        table = covers[np.ix_(candidates, left)]
        while len(left):
            hits = table.sum(axis=1)
            best = int(hits.argmax())
            if hits[best] == 0:
                chosen.update(candidates.tolist())
                for c in left.tolist():
                    uncovered[c].append(i)
                break
            chosen.add(int(candidates[best]))
            keep = ~table[best]
            table, left = table[:, keep], left[keep]
        members.append(sorted(chosen))
    return members, uncovered


def _max_min_ast(
    rays: np.ndarray, cones: np.ndarray, coeffs: np.ndarray, members: list[list[int]]
) -> LatticeTerm:
    """Max-min form of the PL interpolant over its own pieces: the join over
    the cones of the meet of the pieces ``members`` (from ``_meet_members``)
    names for each."""
    pieces = [_balanced(_add, [Scale(Fraction(a), Var(i)) for i, a in enumerate(c)]) for c in coeffs.tolist()]
    return _balanced(Join, [_balanced(Meet, [pieces[j] for j in m]) for m in members])


def _fit_cones(fn: HomogeneousFn, eps: float, grid: int):
    n = fn.arity
    rays = [*np.eye(n), *-np.eye(n)]
    # a cone is the sorted tuple of its ray indices, so its edges (a, b) have a < b;
    # the fan keeps its cones in the order they were made, and so does each edge
    fan: dict[tuple[int, ...], None] = {}
    on_edge: dict[tuple[int, int], dict[tuple[int, ...], None]] = {}

    def add(cone: tuple[int, ...]) -> None:
        fan[cone] = None
        for edge in itertools.combinations(cone, 2):
            on_edge.setdefault(edge, {})[cone] = None

    def split(edge: tuple[int, int]) -> None:
        # bisect at the normalised midpoint and halve each cone on the edge
        i, j = edge
        mid = rays[i] + rays[j]
        rays.append(mid / np.linalg.norm(mid))
        k = len(rays) - 1
        hit = on_edge.pop(edge)
        for c in hit:
            del fan[c]
            for e in itertools.combinations(c, 2):
                if e != edge:
                    del on_edge[e][c]
        for c in hit:
            for old in (i, j):
                add((*(r for r in c if r != old), k))

    for signs in itertools.product((0, n), repeat=n):
        add(tuple(sorted(i + s for i, s in enumerate(signs))))
    while len(fan) < grid:  # split the longest edges first
        for edge in sorted(on_edge, key=lambda e: (-np.linalg.norm(rays[e[0]] - rays[e[1]]), e)):
            if len(fan) < grid:
                split(edge)
    ladder = 2.0 * 0.8 ** np.arange(128)  # from the sphere's diameter down to 1e-12
    moduli = np.array([fn.modulus(h) for h in ladder])

    fits: dict[tuple[int, ...], tuple] = {}  # cone -> (bound, coefficients, longest edge, samples)
    best: tuple[float, list] = (math.inf, [])
    full = False
    drawn = 0
    for r in itertools.count():
        cones = list(fan)
        new = [c for c in cones if c not in fits]
        if new:
            fits.update(zip(new, zip(*_certify(fn, np.array(rays), np.array(new), eps, ladder, moduli))))
            drawn += sum(fits[c][3] for c in new)
        certs = np.array([fits[c][0] for c in cones])
        if certs.max() < best[0]:
            best = (float(certs.max()), cones)
        if certs.max() <= eps or full:
            break
        # only cones near the worst lower the certificate: halving the others spends the
        # samples a singular fn needs where it is worst (geomean(1/10) at eps 0.1: 0.60, not 0.40)
        bar = max(eps, 0.9 * certs.max())
        planned = 0
        for w in np.argsort(-certs, kind="stable")[: 2 * n << r]:
            if certs[w] <= bar or cones[w] not in fan:
                continue  # a cone halved earlier in this round waits for its halves' bounds
            hit = on_edge[fits[cones[w]][2]]
            # a half draws about as many samples as its cone; halves made this round are counted already
            planned += 2 * sum(fits[c][3] for c in hit if c in fits)
            if len(fan) + len(hit) > MAX_FAN or drawn + planned > MAX_DRAWN:
                full = True
                break
            split(fits[cones[w]][2])

    cert, cones = best
    rays, cone_rays = np.array(rays), np.array(cones)
    coeffs = np.array([fits[c][1] for c in cones])
    members, uncovered = _meet_members(rays, cone_rays, coeffs)
    term = _max_min_ast(rays, cone_rays, coeffs, members)
    risky = np.flatnonzero([bool(u) for u in uncovered])

    def value(part, pts):
        # on cone c the max-min form is l_c joined with the meets that do not cover c
        out = np.einsum("cpd,cd->cp", pts, coeffs[risky[part]])
        for q, c in enumerate(risky[part].tolist()):
            for i in uncovered[c]:
                out[q] = np.maximum(out[q], (pts[q] @ coeffs[members[i]].T).min(axis=1))
        return out.ravel()

    # structural check at each cone's central ray: the term must be the max-min
    # form, which is the interpolant on each cone that every meet covers
    centres = rays[cone_rays].sum(axis=1)
    want = (centres * coeffs).sum(axis=1)
    want[risky] = value(np.arange(len(risky)), centres[risky, None])
    if np.abs(eval_array(term, centres.T) - want).max() > 1e-9 * (1.0 + np.abs(want).max()):
        walk = _walk(term)  # some other term: certify it itself
        at = lambda part, pts: _evaluate(walk, pts.reshape(-1, n).T)
        cert = float(_certify(fn, rays, cone_rays, eps, ladder, moduli, at, term_lipschitz_bound(term))[0].max())
        return term, cert
    if len(risky):
        norms = np.linalg.norm(coeffs, axis=1)
        # on cone c the form's gradient is that of l_c or of a member of a meet that does not cover c
        lip = [max(norms[c], *(norms[members[i]].max() for i in uncovered[c])) for c in risky]
        certs = np.array([fits[c][0] for c in cones])
        certs[risky] = _certify(fn, rays, cone_rays[risky], eps, ladder, moduli, value, np.array(lip))[0]
        cert = float(certs.max())
    return term, cert


def approximate_on_sphere(fn: HomogeneousFn, eps: float, grid: int = 64) -> tuple[LatticeTerm, float]:
    """Fit a lattice term to ``fn`` on the unit sphere; return the term and
    a certified bound on its error there.

    Arity one has a closed form. Otherwise the fan's orthants are split at
    their longest edges into at least ``grid`` cones, each with the linear
    piece c that interpolates ``fn`` at its n rays. Then round r = 0, 1, ...
    takes the 2n * 2^r cones with the worst bounds, worst first, and splits
    the longest edge of each whose bound fails eps and is within a tenth of
    the worst, unless the cone was halved earlier in the round; a split
    halves only the cones on its edge. The fan stops before it would pass
    ``MAX_FAN`` cones, or before its certificates would draw about
    ``MAX_DRAWN`` sample points (a half is taken to draw as many as its
    cone), and the fit then returns the best bound any round reached.

    The term is the interpolant's max-min form. Each cone's meet takes its
    own piece and, of the pieces that dominate the cone, enough to cover
    every cone: a piece covers cone c if it lies below c's piece at c's
    rays. So on its cone the meet is the cone's piece, and on every cone c
    each meet is at most c's piece, which is ``fn``'s interpolant there: the
    join is the interpolant, with no new tolerance. Where no dominating piece
    covers a cone, a meet falls back to all of them and may lie above the
    interpolant on that cone (see ``_meet_members``); such a cone's bound is
    then the max-min form's own, from the same samples with the largest |c|
    as its Lipschitz bound. The term is checked against the max-min form at
    every cone's central ray, and any other term is certified itself.

    A cone's bound is its error at the points sum_r (k_r / L) R_r of its
    flat face (k in N^n, sum k = L), pushed onto the sphere, plus
    ``fn.modulus(h)`` and |c| h. By positive homogeneity the error at
    p / |p| is |c . p - fn(p)| / |p|, so the face points are not pushed
    themselves, and at most ``_SAMPLES`` of them are held at once. The
    covering radius h follows from the cone's geometry in every arity:
    rounding barycentric coordinates to the lattice by largest remainders
    moves them by at most m(n - m) / (n L) in each sign, so the face point
    moves by at most that times the longest edge, and pushing the face (at
    distance rho from 0) onto the sphere is 1/rho-Lipschitz. L makes
    modulus(h) + |c| h <= eps / 2 where a cap on samples allows. The
    certificate is the largest bound, with no random sampling in it.
    """
    if not eps > 0:
        raise InvariantError("eps must be positive")
    grid = integer(grid, "grid", 1)
    if fn.arity > 6:  # the fan starts from 2^n cones; a split halves up to 2^(n-2)
        raise InvariantError(f"{fn.name}: approximation takes arity <= 6, got {fn.arity}")
    fn.spot_check_homogeneous()
    if fn.arity == 1:
        a = fn.evaluate((1.0,))
        b = fn.evaluate((-1.0,))
        if b == -a:
            term: LatticeTerm = Var(0) if a == 1.0 else Scale(Fraction(a), Var(0))
        else:
            term = _add(
                Scale(Fraction(a), _pos(Var(0))), Scale(Fraction(b), _negpart(Var(0)))
            )
        err = max(
            abs(eval_scalar(term, (1.0,)) - a), abs(eval_scalar(term, (-1.0,)) - b)
        )
        return term, err
    return _fit_cones(fn, eps, grid)
