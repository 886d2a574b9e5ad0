"""Lattice terms over {0, negation, half-sum, absolute value, join, meet,
rational scaling}: parsing, pointwise evaluation, two-point interpolation, and
approximation of continuous positively-homogeneous degree-one functions.

Every term induces a continuous, finitely piecewise-affine scalar function
that is positively homogeneous of degree one, and the same evaluator applies
a term to lattice elements atom by atom.

Each fold over a term (arity, value, Lipschitz bound, text, interval bounds)
is a rule table run over one iterative post-order walk, which lists each
distinct node once, by identity, children first: a subterm shared by many
parents is computed once. A fold drops each value after its last read, and
evaluation takes ``_CHUNK`` columns at a time. Only the parser recurses; it
refuses groups and q* prefixes nested deeper than 200.

Approximation is Krivine's calculus made computable, by one engine for every
arity n >= 2: the function is interpolated linearly on the cones of a
conforming simplicial fan (the orthants, refined by edge bisection), and the
interpolant becomes a lattice term in max-min form over its own pieces. Its
error bound comes from deterministic samples and the cones' geometry.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import InvariantError, TermSyntaxError
from .measure_core import LatticeElement, close, integer, same_space


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------

class LatticeTerm:
    """Base class for term nodes; all nodes are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Zero(LatticeTerm):
    pass


@dataclass(frozen=True)
class Var(LatticeTerm):
    index: int


@dataclass(frozen=True)
class Neg(LatticeTerm):
    arg: LatticeTerm


@dataclass(frozen=True)
class Abs(LatticeTerm):
    arg: LatticeTerm


@dataclass(frozen=True)
class HalfSum(LatticeTerm):
    left: LatticeTerm
    right: LatticeTerm


@dataclass(frozen=True)
class Join(LatticeTerm):
    left: LatticeTerm
    right: LatticeTerm


@dataclass(frozen=True)
class Meet(LatticeTerm):
    left: LatticeTerm
    right: LatticeTerm


@dataclass(frozen=True)
class Scale(LatticeTerm):
    factor: Fraction
    arg: LatticeTerm

    def __post_init__(self):
        object.__setattr__(self, "factor", Fraction(self.factor))


# A node's children, None where it has fewer than two.
_CHILDREN = {
    **dict.fromkeys((Zero, Var), lambda t: (None, None)),
    **dict.fromkeys((Neg, Abs, Scale), lambda t: (t.arg, None)),
    **dict.fromkeys((HalfSum, Join, Meet), lambda t: (t.left, t.right)),
}

# steps (node, left, right), and per position the step that reads it last
_Walk = tuple[list[tuple[LatticeTerm, int, int]], list[int]]


def _walk(term: LatticeTerm) -> _Walk:
    """List each distinct node of ``term`` once, by identity, children before
    parents, as steps (node, left, right): the positions of its children,
    -1 for a missing child."""
    pos = {id(None): -1}
    steps = []
    stack: list = [term]
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:  # (node, left, right), the children listed
            node, left, right = node
            pos[id(node)] = len(steps)
            steps.append((node, pos[id(left)], pos[id(right)]))
        elif id(node) not in pos:
            left, right = _CHILDREN[node.__class__](node)
            stack += ((node, left, right), left, right)
    last = [-1] * (len(steps) + 1)  # the extra slot stands for a missing child
    for i, (_, a, b) in enumerate(steps):
        last[a] = last[b] = i
    return steps, last


def _fold(walk: _Walk, rules: dict):
    """The value of the walk's root, where a node's value is
    ``rules[type](node, left value, right value)`` (None for a missing
    child). Each value is dropped as soon as its last reader has run."""
    steps, last = walk
    vals: list = [None] * (len(steps) + 1)
    for i, (node, a, b) in enumerate(steps):
        vals[i] = rules[node.__class__](node, vals[a], vals[b])
        if last[a] == i:
            vals[a] = None
        if last[b] == i:
            vals[b] = None
    return vals[-2]


def _arity(walk: _Walk) -> int:
    return max((node.index + 1 for node, _, _ in walk[0] if node.__class__ is Var), default=0)


def term_arity(term: LatticeTerm) -> int:
    """1 + the largest variable index used (0 for variable-free terms)."""
    return _arity(_walk(term))


# Var reads the point, so each evaluation adds its own Var rule.
_VALUE = {
    Zero: lambda t, a, b: 0.0,
    Neg: lambda t, a, b: -a,
    Abs: lambda t, a, b: np.abs(a),
    HalfSum: lambda t, a, b: (a + b) * 0.5,
    Join: lambda t, a, b: np.maximum(a, b),
    Meet: lambda t, a, b: np.minimum(a, b),
    Scale: lambda t, a, b: float(t.factor) * a,
}

_CHUNK = 8192  # columns evaluated at once; bounds the arrays held by a fold


def _evaluate(walk: _Walk, points: np.ndarray) -> np.ndarray:
    """The term at each column of ``points`` (one row per variable)."""
    if points.shape[0] < _arity(walk):
        raise InvariantError(
            f"term uses {_arity(walk)} variables but got {points.shape[0]} arguments"
        )
    out = np.empty(points.shape[1])
    chunk: list = []
    rules = {**_VALUE, Var: lambda t, a, b: chunk[t.index]}
    for s in range(0, points.shape[1], _CHUNK):
        chunk[:] = points[:, s : s + _CHUNK]
        out[s : s + _CHUNK] = _fold(walk, rules)
    return out


def eval_scalar(term: LatticeTerm, point: Sequence[float]) -> float:
    """Evaluate the induced scalar function at a point of R^n."""
    return float(_evaluate(_walk(term), np.array([float(c) for c in point]).reshape(-1, 1))[0])


def eval_array(term: LatticeTerm, points: np.ndarray) -> np.ndarray:
    """Vectorized evaluation; ``points`` has one row per variable."""
    return _evaluate(_walk(term), points)


def eval_element(term: LatticeTerm, args: Sequence[LatticeElement]) -> LatticeElement:
    """Apply the term atom by atom to lattice elements on a common space."""
    space = same_space(args, "args")
    return LatticeElement(space, _evaluate(_walk(term), np.array([g.array for g in args])))


_LIPSCHITZ = {
    Zero: lambda t, a, b: 0.0,
    Var: lambda t, a, b: 1.0,
    **dict.fromkeys((Neg, Abs), lambda t, a, b: a),
    HalfSum: lambda t, a, b: 0.5 * (a + b),
    **dict.fromkeys((Join, Meet), lambda t, a, b: max(a, b)),
    Scale: lambda t, a, b: abs(float(t.factor)) * a,
}


def term_lipschitz_bound(term: LatticeTerm) -> float:
    """An upper bound for the Euclidean Lipschitz constant of the term."""
    return _fold(_walk(term), _LIPSCHITZ)


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<var>x\d+)|(?P<number>-?\d+(?:/\d+)?)|(?P<name>avg|neg|abs)"
    r"|(?P<join>\\/)|(?P<meet>/\\)|(?P<sym>[(),*]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise TermSyntaxError(f"unexpected character {text[bad]!r}", bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


_MAX_NESTING = 200  # groups and q* prefixes open at once; fitted terms reach about 20


class _Parser:
    def __init__(self, text: str, arity: int):
        self.text = text
        self.arity = arity
        self.tokens = _tokenize(text)
        self.pos = 0

    def nested(self, depth: int, tok) -> int:
        """The depth inside the group or q* prefix that ``tok`` opens."""
        if depth == _MAX_NESTING:
            raise TermSyntaxError(f"terms may nest at most {_MAX_NESTING} deep", tok[2])
        return depth + 1

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise TermSyntaxError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect(self, kind: str, value: str | None = None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise TermSyntaxError(f"expected {value or kind!s}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> LatticeTerm:
        term = self.lattice(0)
        tok = self.peek()
        if tok is not None:
            raise TermSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return term

    def lattice(self, depth: int) -> LatticeTerm:
        term = self.scaled(depth)
        while True:
            tok = self.peek()
            if tok is None or tok[0] not in ("join", "meet"):
                return term
            self.next()
            rhs = self.scaled(depth)
            term = Join(term, rhs) if tok[0] == "join" else Meet(term, rhs)

    def scaled(self, depth: int) -> LatticeTerm:
        tok = self.peek()
        if tok is not None and tok[0] == "number":
            after = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if after is not None and after[0] == "sym" and after[1] == "*":
                self.next()
                self.next()
                return Scale(Fraction(tok[1]), self.scaled(self.nested(depth, tok)))
        return self.primary(depth)

    def primary(self, depth: int) -> LatticeTerm:
        tok = self.next()
        kind, value, pos = tok
        if kind == "var":
            index = int(value[1:])
            if index >= self.arity:
                raise TermSyntaxError(
                    f"variable {value} out of range for arity {self.arity}", pos
                )
            return Var(index)
        if kind == "number":
            if Fraction(value) == 0:
                return Zero()
            raise TermSyntaxError("a bare number is not a term (write q*term)", pos)
        if kind == "name":
            self.expect("sym", "(")
            depth = self.nested(depth, tok)
            first = self.lattice(depth)
            if value == "avg":
                self.expect("sym", ",")
                second = self.lattice(depth)
                self.expect("sym", ")")
                return HalfSum(first, second)
            self.expect("sym", ")")
            return Neg(first) if value == "neg" else Abs(first)
        if kind == "sym" and value == "(":
            inner = self.lattice(self.nested(depth, tok))
            self.expect("sym", ")")
            return inner
        raise TermSyntaxError(f"unexpected token {value!r}", pos)


def parse_term(text: str, arity: int) -> LatticeTerm:
    """Parse the concrete syntax; raises TermSyntaxError with a position.

    Groups and q* prefixes nest at most 200 deep. ``to_text`` writes a group
    per join, so the text of a flat join chain longer than that does not
    parse back.
    """
    return _Parser(text, integer(arity, "arity", 0)).parse()


_TEXT = {
    Zero: lambda t, a, b: "0",
    Var: lambda t, a, b: f"x{t.index}",
    Neg: lambda t, a, b: f"neg({a})",
    Abs: lambda t, a, b: f"abs({a})",
    HalfSum: lambda t, a, b: f"avg({a}, {b})",
    Join: lambda t, a, b: f"({a} \\/ {b})",
    Meet: lambda t, a, b: f"({a} /\\ {b})",
    Scale: lambda t, a, b: f"{t.factor}*{a}",
}


def to_text(term: LatticeTerm) -> str:
    """Round-trippable rendering: parse(to_text(t), arity) == t."""
    return _fold(_walk(term), _TEXT)


# ---------------------------------------------------------------------------
# Two-point interpolation on the sphere
# ---------------------------------------------------------------------------

def _pos(t: LatticeTerm) -> LatticeTerm:
    return Join(t, Zero())


def _negpart(t: LatticeTerm) -> LatticeTerm:
    return Join(Neg(t), Zero())


def _add(u: LatticeTerm, v: LatticeTerm) -> LatticeTerm:
    return Scale(Fraction(2), HalfSum(u, v))


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
# Supremum over the unit cube
# ---------------------------------------------------------------------------

# Values are intervals (lo, hi); Var reads the box, so each box adds its own Var rule.
_INTERVAL = {
    Zero: lambda t, a, b: (0.0, 0.0),
    Neg: lambda t, a, b: (-a[1], -a[0]),
    Abs: lambda t, a, b: (0.0 if a[0] <= 0.0 <= a[1] else min(map(abs, a)), max(map(abs, a))),
    HalfSum: lambda t, a, b: ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0),
    Join: lambda t, a, b: (max(a[0], b[0]), max(a[1], b[1])),
    Meet: lambda t, a, b: (min(a[0], b[0]), min(a[1], b[1])),
    Scale: lambda t, a, b: tuple(sorted(float(t.factor) * v for v in a)),
}


def term_sup_norm(term: LatticeTerm) -> float:
    """Supremum of |t| over the unit cube [-1, 1]^n.

    Arity one is exact by homogeneity (the endpoints suffice); otherwise a
    branch-and-bound over interval bounds certifies the value up to
    ``close``, or, after 100,000 boxes, returns its upper bound.
    The term is walked once; every box and point reuses that walk.
    """
    walk = _walk(term)
    n = _arity(walk)

    def largest_at(points: list[list[float]]) -> float:
        return float(np.abs(_evaluate(walk, np.array(points).T)).max())

    if n <= 1:
        return largest_at([[1.0] * n, [-1.0] * n])

    def abs_bounds(box):
        lo, hi = _fold(walk, {**_INTERVAL, Var: lambda t, a, b: box[t.index]})
        return max(abs(lo), abs(hi))

    start = [(-1.0, 1.0)] * n
    # seed the lower bound with the cube corners and center
    corners = [[(1.0 if (c >> i) & 1 else -1.0) for i in range(n)] for c in range(2 ** min(n, 12))]
    best_lb = max(0.0, largest_at(corners + [[0.0] * n]))
    counter = 0
    heap = [(-abs_bounds(start), counter, start)]
    processed = 0
    while heap and processed < 100_000:
        ub_neg, _, box = heapq.heappop(heap)
        ub = -ub_neg
        if ub <= best_lb or close(ub, best_lb):
            return ub
        processed += 1
        widths = [hi - lo for lo, hi in box]
        split = widths.index(max(widths))
        lo, hi = box[split]
        mid = (lo + hi) / 2.0
        children = [box[:split] + [part] + box[split + 1 :] for part in ((lo, mid), (mid, hi))]
        centres = [[(clo + chi) / 2.0 for clo, chi in child] for child in children]
        best_lb = max(best_lb, largest_at(centres))
        for child in children:
            counter += 1
            heapq.heappush(heap, (-abs_bounds(child), counter, child))
    return -heap[0][0] if heap else best_lb


# ---------------------------------------------------------------------------
# Homogeneous functions and their lattice-term approximation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomogeneousFn:
    """A continuous function on R^n, positively homogeneous of degree one,
    with a declared uniform modulus of continuity on the unit sphere."""

    name: str
    arity: int
    fn: Callable[[np.ndarray], np.ndarray]
    modulus: Callable[[float], float]

    def evaluate(self, point: Sequence[float]) -> float:
        pts = np.asarray(point, dtype=float).reshape(self.arity, 1)
        return float(self.fn(pts)[0])

    def spot_check_homogeneous(self) -> None:
        """Check homogeneity at 32 fixed pseudo-random points and scales."""
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((self.arity, 32))
        alphas = rng.uniform(0.0, 4.0, 32)
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


def _certify(fn, rays, cones, eps, ladder, moduli, term=None):
    """Fit each cone's interpolating piece; return per cone the error bound
    described in ``approximate_on_sphere``, the piece's coefficients c and
    the longest edge. With ``term`` given, the bound is for the term, with
    its Lipschitz bound in place of |c|."""
    k, n = cones.shape
    R = rays[cones]  # R[c, r] is ray r of cone c
    vals = fn.fn(R.reshape(-1, n).T).reshape(k, n)
    sol = np.linalg.solve(R, np.stack([vals, np.ones_like(vals)], axis=2))
    coeffs, normal = sol[..., 0], sol[..., 1]  # R c = vals, R normal = 1
    lip = np.linalg.norm(coeffs, axis=1) if term is None else np.full(k, term_lipschitz_bound(term))
    pairs = list(itertools.combinations(range(n), 2))
    chords = np.stack([np.linalg.norm(R[:, a] - R[:, b], axis=1) for a, b in pairs], axis=1)
    longest = chords.argmax(axis=1)
    # reach / L is the covering radius of the level-L samples (see approximate_on_sphere)
    reach = (n // 2) * ((n + 1) // 2) / n * chords.max(axis=1) * np.linalg.norm(normal, axis=1)
    ok = moduli + lip[:, None] * ladder <= eps / 2
    goal = ladder[np.where(ok.any(axis=1), ok.argmax(axis=1), -1)]
    levels = np.ceil(reach / goal).clip(1, int(2 ** (16 / (n - 1)))).astype(int)
    err = np.empty(k)
    for level in np.unique(levels):
        # barycentric points k / L of the flat face, k in N^n with sum L
        bary = np.indices((level + 1,) * (n - 1)).reshape(n - 1, -1)
        bary = bary[:, bary.sum(axis=0) <= level]
        bary = np.vstack([bary, level - bary.sum(axis=0)]).T / level
        same = np.flatnonzero(levels == level)
        step = max(1, (1 << 17) // len(bary))  # bounds the samples held at once
        for part in (same[s : s + step] for s in range(0, len(same), step)):
            pts = bary @ R[part]
            pts /= np.linalg.norm(pts, axis=2, keepdims=True)
            flat = pts.reshape(-1, n).T
            fit = (pts @ coeffs[part][:, :, None]).ravel() if term is None else eval_array(term, flat)
            err[part] = np.abs(fit - fn.fn(flat)).reshape(len(part), -1).max(axis=1)
    h = reach / levels
    cert = err + np.array([fn.modulus(x) for x in h]) + lip * h
    return cert, coeffs, [(c[pairs[e][0]], c[pairs[e][1]]) for c, e in zip(cones.tolist(), longest)]


def _max_min_ast(rays: np.ndarray, cones: np.ndarray, coeffs: np.ndarray) -> LatticeTerm:
    """Max-min form of the PL interpolant over its own pieces: piece j enters
    cone i's meet iff it dominates piece i at the cone's n rays, hence on the
    cone. Over a conforming fan of R^n the join of the meets is the
    interpolant (S. Ovchinnikov, Beitr. Algebra Geom. 43, 2002)."""
    at_rays = coeffs @ rays.T  # [j, r] = piece j at ray r
    own = np.take_along_axis(at_rays, cones, axis=1)
    slack = 1e-12 * (1.0 + float(np.abs(own).max()))
    pieces = [_balanced(_add, [Scale(Fraction(float(a)), Var(i)) for i, a in enumerate(c)]) for c in coeffs]
    meets = []
    for cone, mine in zip(cones, own):
        members = np.flatnonzero((at_rays[:, cone] >= mine - slack).all(axis=1))
        meets.append(_balanced(Meet, [pieces[j] for j in members]))
    return _balanced(Join, meets)


def _fit_cones(fn: HomogeneousFn, eps: float, grid: int):
    n = fn.arity
    rays = [*np.eye(n), *-np.eye(n)]
    # a cone is the sorted tuple of its ray indices, so its edges (a, b) have a < b
    cones = [tuple(sorted(i + s for i, s in enumerate(sg))) for sg in itertools.product((0, n), repeat=n)]

    def split(edge: tuple[int, int]) -> None:
        # bisect at the normalised midpoint and halve every cone on the edge
        i, j = edge
        mid = rays[i] + rays[j]
        rays.append(mid / np.linalg.norm(mid))
        k = len(rays) - 1
        hit = [c for c in cones if i in c and j in c]
        cones[:] = [c for c in cones if not (i in c and j in c)] + [
            (*(r for r in c if r != old), k) for c in hit for old in (i, j)
        ]

    while len(cones) < grid:  # split the longest edges first
        edges = {e for c in cones for e in itertools.combinations(c, 2)}
        for edge in sorted(edges, key=lambda e: (-np.linalg.norm(rays[e[0]] - rays[e[1]]), e)):
            if len(cones) < grid:
                split(edge)
    ladder = 2.0 * 0.8 ** np.arange(128)  # from the sphere's diameter down to 1e-12
    moduli = np.array([fn.modulus(h) for h in ladder])

    fits: dict[tuple[int, ...], tuple] = {}  # cone -> (bound, coefficients, longest edge)
    best: tuple[float, list] = (math.inf, [])
    for _ in range(60):
        new = [c for c in cones if c not in fits]
        if new:
            fits.update(zip(new, zip(*_certify(fn, np.array(rays), np.array(new), eps, ladder, moduli))))
        certs = np.array([fits[c][0] for c in cones])
        if certs.max() < best[0]:
            best = (float(certs.max()), list(cones))
        if certs.max() <= eps:
            break
        worst = np.argsort(-certs, kind="stable")[: 2 * n]
        for edge in dict.fromkeys(fits[cones[w]][2] for w in worst if certs[w] > eps):
            split(edge)

    cert, cones = best
    rays, cone_rays = np.array(rays), np.array(cones)
    coeffs = np.array([fits[c][1] for c in cones])
    term = _max_min_ast(rays, cone_rays, coeffs)
    # structural check at each cone's central ray: the term must be the interpolant
    centres = rays[cone_rays].sum(axis=1)
    want = (centres * coeffs).sum(axis=1)
    if np.abs(eval_array(term, centres.T) - want).max() > 1e-9 * (1.0 + np.abs(want).max()):
        cert = float(_certify(fn, rays, cone_rays, eps, ladder, moduli, term)[0].max())
    return term, cert


def approximate_on_sphere(fn: HomogeneousFn, eps: float, grid: int = 64) -> tuple[LatticeTerm, float]:
    """Fit a lattice term to ``fn`` on the unit sphere; return the term and
    a certified bound on its error there.

    Arity one has a closed form. Otherwise the fan's orthants are split at
    their longest edges into at least ``grid`` cones, each with the linear
    piece c that interpolates ``fn`` at its n rays. For up to 60 rounds,
    the longest edges of the 2n cones with the worst bounds are split. The
    term is the interpolant's max-min form, checked against it at every
    cone's central ray.

    A cone's bound is its error at the points sum_r (k_r / L) R_r of its
    flat face (k in N^n, sum k = L), pushed onto the sphere, plus
    ``fn.modulus(h)`` and |c| h. The covering radius h follows from the
    cone's geometry in every arity: rounding barycentric coordinates to the
    lattice by largest remainders moves them by at most m(n - m) / (n L) in
    each sign, so the face point moves by at most that times the longest
    edge, and pushing the face (at distance rho from 0) onto the sphere is
    1/rho-Lipschitz. L makes modulus(h) + |c| h <= eps / 2 where a cap on
    samples allows. The certificate is the largest bound, with no random
    sampling in it; if the rounds run out first, the best one reached is
    returned.
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
