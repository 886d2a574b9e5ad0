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
conforming simplicial fan (the orthants, refined by edge bisection in rounds
that double, up to ``MAX_FAN`` cones), and the interpolant becomes a lattice
term in max-min form over its own pieces, each meet cut down to pieces that
cover every cone. Its error bound comes from deterministic samples and the
cones' geometry.
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
    """Base class for term nodes. A node is immutable: one constructor, shared
    by every class, sets the fields its class names in ``_fields``, in order,
    and nothing changes them after. Equality and hash go by the class and the
    field values, and the repr names the fields, as a frozen dataclass's
    would; ``vars(node)`` maps the field names to their values."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes fields {self._fields}, got {len(values)} values")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable term")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable term")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or tuple(self.__dict__.values()) == tuple(other.__dict__.values())

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


class Zero(LatticeTerm):
    pass


class Var(LatticeTerm):
    _fields = ("index",)
    index: int


class Neg(LatticeTerm):
    _fields = ("arg",)
    arg: LatticeTerm


class Abs(LatticeTerm):
    _fields = ("arg",)
    arg: LatticeTerm


class HalfSum(LatticeTerm):
    _fields = ("left", "right")
    left: LatticeTerm
    right: LatticeTerm


class Join(LatticeTerm):
    _fields = ("left", "right")
    left: LatticeTerm
    right: LatticeTerm


class Meet(LatticeTerm):
    _fields = ("left", "right")
    left: LatticeTerm
    right: LatticeTerm


class Scale(LatticeTerm):
    _fields = ("factor", "arg")
    factor: Fraction
    arg: LatticeTerm


_UNARY = frozenset((Neg, Abs, Scale))  # the classes with one child, ``arg``; Zero and Var have none
_LISTED = object()  # on the walk's stack, above a node whose children are listed

# per position the node, its children's positions (-1 for a missing child),
# and the position of the step that reads it last
_Walk = tuple[list[LatticeTerm], list[int], list[int], list[int]]


def _walk(term: LatticeTerm) -> _Walk:
    """List each distinct node of ``term`` once, by identity, children before
    parents. The lists hold nodes and ints only: no tuple per step for the
    cyclic garbage collector to count and trace."""
    pos: dict[int, int] = {}
    nodes: list[LatticeTerm] = []
    lefts: list[int] = []
    rights: list[int] = []
    last: list[int] = []
    stack: list = [term]
    while stack:
        node = stack.pop()
        if node is _LISTED:
            node = stack.pop()
            i = pos[id(node)] = len(nodes)
            if node.__class__ in _UNARY:
                a, b = pos[id(node.arg)], -1
            else:
                a, b = pos[id(node.left)], pos[id(node.right)]
                last[b] = i
            last[a] = i
        elif id(node) in pos:
            continue
        elif node.__class__ in _UNARY:
            stack += (node, _LISTED, node.arg)
            continue
        elif node.__class__ is Var or node.__class__ is Zero:
            pos[id(node)] = len(nodes)
            a = b = -1
        else:
            stack += (node, _LISTED, node.right, node.left)
            continue
        nodes.append(node)
        lefts.append(a)
        rights.append(b)
        last.append(-1)
    last.append(-1)  # the slot of a missing child, never read
    return nodes, lefts, rights, last


def _fold(walk: _Walk, rules: dict):
    """The value of the walk's root, where a node's value is
    ``rules[type](node, left value, right value)`` (None for a missing
    child). Each value is dropped as soon as its last reader has run."""
    nodes, lefts, rights, last = walk
    vals: list = [None] * (len(nodes) + 1)
    for i, (node, a, b) in enumerate(zip(nodes, lefts, rights)):
        vals[i] = rules[node.__class__](node, vals[a], vals[b])
        if last[a] == i:
            vals[a] = None
        if last[b] == i:
            vals[b] = None
    return vals[-2]


def _arity(walk: _Walk) -> int:
    return max((node.index + 1 for node in walk[0] if node.__class__ is Var), default=0)


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
    for level in np.unique(levels):
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


def _max_min_ast(rays: np.ndarray, cones: np.ndarray, coeffs: np.ndarray) -> LatticeTerm:
    """Max-min form of the PL interpolant over its own pieces: the join over
    the cones of the meet of the pieces ``_meet_members`` picks for each."""
    pieces = [_balanced(_add, [Scale(Fraction(a), Var(i)) for i, a in enumerate(c)]) for c in coeffs.tolist()]
    members, _ = _meet_members(rays, cones, coeffs)
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
    term = _max_min_ast(rays, cone_rays, coeffs)
    members, uncovered = _meet_members(rays, cone_rays, coeffs)
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
        cert = float(_certify(fn, rays, cone_rays, eps, ladder, moduli, at, _fold(walk, _LIPSCHITZ))[0].max())
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
