"""Lattice terms over {0, negation, half-sum, absolute value, join, meet,
rational scaling}: parsing, pointwise evaluation, two-point interpolation, and
approximation of continuous positively-homogeneous degree-one functions.

Every term induces a continuous, finitely piecewise-affine scalar function
that is positively homogeneous of degree one, and the same evaluator applies
a term to lattice elements atom by atom.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import InvariantError, SpaceMismatchError, TermSyntaxError
from .measure_core import LatticeElement


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


def term_arity(term: LatticeTerm) -> int:
    """1 + the largest variable index used (0 for variable-free terms)."""
    if isinstance(term, Var):
        return term.index + 1
    if isinstance(term, (Neg, Abs, Scale)):
        return term_arity(term.arg)
    if isinstance(term, (HalfSum, Join, Meet)):
        return max(term_arity(term.left), term_arity(term.right))
    return 0


def _eval(term: LatticeTerm, args: Sequence):
    if isinstance(term, Zero):
        return 0.0
    if isinstance(term, Var):
        return args[term.index]
    if isinstance(term, Neg):
        return -_eval(term.arg, args)
    if isinstance(term, Abs):
        return np.abs(_eval(term.arg, args))
    if isinstance(term, HalfSum):
        return (_eval(term.left, args) + _eval(term.right, args)) * 0.5
    if isinstance(term, Join):
        return np.maximum(_eval(term.left, args), _eval(term.right, args))
    if isinstance(term, Meet):
        return np.minimum(_eval(term.left, args), _eval(term.right, args))
    if isinstance(term, Scale):
        return float(term.factor) * _eval(term.arg, args)
    raise InvariantError(f"unknown term node {term!r}")


def eval_scalar(term: LatticeTerm, point: Sequence[float]) -> float:
    """Evaluate the induced scalar function at a point of R^n."""
    if len(point) < term_arity(term):
        raise InvariantError(
            f"term uses {term_arity(term)} variables but the point has {len(point)} coordinates"
        )
    return float(_eval(term, [float(c) for c in point]))


def eval_array(term: LatticeTerm, points: np.ndarray) -> np.ndarray:
    """Vectorized evaluation; ``points`` has one row per variable."""
    if points.shape[0] < term_arity(term):
        raise InvariantError("not enough coordinate rows for this term")
    out = _eval(term, list(points))
    if np.ndim(out) == 0:
        return np.full(points.shape[1], float(out))
    return out


def eval_element(term: LatticeTerm, args: Sequence[LatticeElement]) -> LatticeElement:
    """Apply the term atom by atom to lattice elements on a common space."""
    if not args:
        raise InvariantError("eval_element needs at least one element")
    space = args[0].space
    for g in args[1:]:
        if g.space != space:
            raise SpaceMismatchError("term arguments live on different measure spaces")
    if len(args) < term_arity(term):
        raise InvariantError(
            f"term uses {term_arity(term)} variables but got {len(args)} elements"
        )
    out = _eval(term, [g.array for g in args])
    if np.ndim(out) == 0:
        out = np.full(len(space), float(out))
    return LatticeElement(space, out)


def term_lipschitz_bound(term: LatticeTerm) -> float:
    """An upper bound for the Euclidean Lipschitz constant of the term."""
    if isinstance(term, Zero):
        return 0.0
    if isinstance(term, Var):
        return 1.0
    if isinstance(term, (Neg, Abs)):
        return term_lipschitz_bound(term.arg)
    if isinstance(term, HalfSum):
        return 0.5 * (term_lipschitz_bound(term.left) + term_lipschitz_bound(term.right))
    if isinstance(term, (Join, Meet)):
        return max(term_lipschitz_bound(term.left), term_lipschitz_bound(term.right))
    if isinstance(term, Scale):
        return abs(float(term.factor)) * term_lipschitz_bound(term.arg)
    raise InvariantError(f"unknown term node {term!r}")


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


class _Parser:
    def __init__(self, text: str, arity: int):
        self.text = text
        self.arity = arity
        self.tokens = _tokenize(text)
        self.pos = 0

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
        term = self.lattice()
        tok = self.peek()
        if tok is not None:
            raise TermSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return term

    def lattice(self) -> LatticeTerm:
        term = self.scaled()
        while True:
            tok = self.peek()
            if tok is None or tok[0] not in ("join", "meet"):
                return term
            self.next()
            rhs = self.scaled()
            term = Join(term, rhs) if tok[0] == "join" else Meet(term, rhs)

    def scaled(self) -> LatticeTerm:
        tok = self.peek()
        if tok is not None and tok[0] == "number":
            after = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if after is not None and after[0] == "sym" and after[1] == "*":
                self.next()
                self.next()
                return Scale(Fraction(tok[1]), self.scaled())
        return self.primary()

    def primary(self) -> LatticeTerm:
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
            first = self.lattice()
            if value == "avg":
                self.expect("sym", ",")
                second = self.lattice()
                self.expect("sym", ")")
                return HalfSum(first, second)
            self.expect("sym", ")")
            return Neg(first) if value == "neg" else Abs(first)
        if kind == "sym" and value == "(":
            inner = self.lattice()
            self.expect("sym", ")")
            return inner
        raise TermSyntaxError(f"unexpected token {value!r}", pos)


def parse_term(text: str, arity: int) -> LatticeTerm:
    """Parse the concrete syntax; raises TermSyntaxError with a position."""
    if arity < 0:
        raise InvariantError("arity must be nonnegative")
    return _Parser(text, arity).parse()


def to_text(term: LatticeTerm) -> str:
    """Round-trippable rendering: parse(to_text(t), arity) == t."""
    if isinstance(term, Zero):
        return "0"
    if isinstance(term, Var):
        return f"x{term.index}"
    if isinstance(term, Neg):
        return f"neg({to_text(term.arg)})"
    if isinstance(term, Abs):
        return f"abs({to_text(term.arg)})"
    if isinstance(term, HalfSum):
        return f"avg({to_text(term.left)}, {to_text(term.right)})"
    if isinstance(term, Join):
        return f"({to_text(term.left)} \\/ {to_text(term.right)})"
    if isinstance(term, Meet):
        return f"({to_text(term.left)} /\\ {to_text(term.right)})"
    if isinstance(term, Scale):
        return f"{term.factor}*{to_text(term.arg)}"
    raise InvariantError(f"unknown term node {term!r}")


# ---------------------------------------------------------------------------
# Two-point interpolation on the sphere
# ---------------------------------------------------------------------------

def _pos(t: LatticeTerm) -> LatticeTerm:
    return Join(t, Zero())


def _negpart(t: LatticeTerm) -> LatticeTerm:
    return Join(Neg(t), Zero())


def _add(u: LatticeTerm, v: LatticeTerm) -> LatticeTerm:
    return Scale(Fraction(2), HalfSum(u, v))


def _lincomb2(c0: float, i0: int, c1: float, i1: int) -> LatticeTerm:
    return _add(Scale(Fraction(c0), Var(i0)), Scale(Fraction(c1), Var(i1)))


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
    return _lincomb2(ci, i, cj, j)


# ---------------------------------------------------------------------------
# Supremum over the unit cube
# ---------------------------------------------------------------------------

def _interval(term: LatticeTerm, box: list[tuple[float, float]]) -> tuple[float, float]:
    if isinstance(term, Zero):
        return (0.0, 0.0)
    if isinstance(term, Var):
        return box[term.index]
    if isinstance(term, Neg):
        lo, hi = _interval(term.arg, box)
        return (-hi, -lo)
    if isinstance(term, Abs):
        lo, hi = _interval(term.arg, box)
        alo = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
        return (alo, max(abs(lo), abs(hi)))
    if isinstance(term, HalfSum):
        a, b = _interval(term.left, box)
        c, d = _interval(term.right, box)
        return ((a + c) / 2.0, (b + d) / 2.0)
    if isinstance(term, Join):
        a, b = _interval(term.left, box)
        c, d = _interval(term.right, box)
        return (max(a, c), max(b, d))
    if isinstance(term, Meet):
        a, b = _interval(term.left, box)
        c, d = _interval(term.right, box)
        return (min(a, c), min(b, d))
    if isinstance(term, Scale):
        q = float(term.factor)
        lo, hi = _interval(term.arg, box)
        return (q * lo, q * hi) if q >= 0 else (q * hi, q * lo)
    raise InvariantError(f"unknown term node {term!r}")


def term_sup_norm(term: LatticeTerm, tol: float = 1e-9, max_boxes: int = 100_000) -> float:
    """Supremum of |t| over the unit cube [-1, 1]^n.

    Arity one is exact by homogeneity (the endpoints suffice); otherwise a
    branch-and-bound over interval bounds certifies the value to ``tol``.
    """
    n = term_arity(term)
    if n == 0:
        return abs(float(_eval(term, [])))
    if n == 1:
        return max(abs(eval_scalar(term, (1.0,))), abs(eval_scalar(term, (-1.0,))))

    def abs_bounds(box):
        lo, hi = _interval(term, box)
        return max(abs(lo), abs(hi))

    start = [(-1.0, 1.0)] * n
    best_lb = 0.0
    # seed the lower bound with the cube corners and center
    for corner in range(2 ** min(n, 12)):
        pt = [(1.0 if (corner >> i) & 1 else -1.0) for i in range(n)]
        best_lb = max(best_lb, abs(eval_scalar(term, pt)))
    best_lb = max(best_lb, abs(eval_scalar(term, [0.0] * n)))
    counter = 0
    heap = [(-abs_bounds(start), counter, start)]
    processed = 0
    while heap and processed < max_boxes:
        ub_neg, _, box = heapq.heappop(heap)
        ub = -ub_neg
        if ub <= best_lb + tol:
            return ub
        processed += 1
        widths = [hi - lo for lo, hi in box]
        split = widths.index(max(widths))
        lo, hi = box[split]
        mid = (lo + hi) / 2.0
        for child_range in ((lo, mid), (mid, hi)):
            child = list(box)
            child[split] = child_range
            center = [(clo + chi) / 2.0 for clo, chi in child]
            best_lb = max(best_lb, abs(eval_scalar(term, center)))
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

    def spot_check_homogeneous(self, seed: int = 0, samples: int = 32, tol: float = 1e-8) -> None:
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((self.arity, samples))
        alphas = rng.uniform(0.0, 4.0, samples)
        lhs = self.fn(pts * alphas)
        rhs = alphas * self.fn(pts)
        scale_ref = 1.0 + np.abs(rhs).max()
        if np.abs(lhs - rhs).max() > tol * scale_ref:
            raise InvariantError(f"{self.name} is not positively homogeneous of degree one")


def _spow_np(x: np.ndarray, alpha: float) -> np.ndarray:
    return np.sign(x) * np.abs(x) ** alpha


def registry_function(spec: str) -> HomogeneousFn:
    """Build a named homogeneous function.

    Accepted forms: ``euclid``, ``euclid(n)``, ``geomean(alpha)``,
    ``power(p,q)`` with 1/p + 1/q = 1, and ``halfsum_pq(p,q)``.
    """
    m = re.fullmatch(r"\s*([a-z_]+)\s*(?:\(([^)]*)\))?\s*", spec)
    if m is None:
        raise InvariantError(f"malformed function spec {spec!r}")
    name, argtext = m.group(1), m.group(2)
    args = [float(Fraction(p.strip())) for p in argtext.split(",")] if argtext else []
    if name == "euclid":
        n = int(args[0]) if args else 2
        return HomogeneousFn(
            f"euclid({n})", n,
            lambda pts: np.sqrt((pts ** 2).sum(axis=0)),
            lambda d: d,
        )
    if name == "geomean":
        if len(args) != 1 or not (0.0 < args[0] < 1.0):
            raise InvariantError("geomean needs one exponent in (0, 1)")
        alpha = args[0]
        holder = min(alpha, 1.0 - alpha)
        return HomogeneousFn(
            f"geomean({alpha})", 2,
            lambda pts: _spow_np(pts[0], alpha) * _spow_np(pts[1], 1.0 - alpha),
            lambda d, h=holder: 2.0 * d ** h,
        )
    if name == "power":
        if len(args) != 2 or abs(1.0 / args[0] + 1.0 / args[1] - 1.0) > 1e-9:
            raise InvariantError("power(p,q) needs conjugate exponents 1/p + 1/q = 1")
        p, q = args
        holder = min(1.0 / p, 1.0 / q)
        return HomogeneousFn(
            f"power({p},{q})", 2,
            lambda pts: _spow_np(pts[0], 1.0 / p) * _spow_np(pts[1], 1.0 / q),
            lambda d, h=holder: 2.0 * d ** h,
        )
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


# -- circle engine (arity 2) -------------------------------------------------

def _circle_pieces(thetas: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Per circular cone, the linear map interpolating the two edge values."""
    xs, ys = np.cos(thetas), np.sin(thetas)
    xn, yn = np.roll(xs, -1), np.roll(ys, -1)
    vn = np.roll(vals, -1)
    det = xs * yn - ys * xn  # sin of the gap; positive while gaps < pi
    c0 = (vals * yn - vn * ys) / det
    c1 = (vn * xs - vals * xn) / det
    return np.stack([c0, c1], axis=1)


def _polygon_eval(thetas: np.ndarray, coeffs: np.ndarray, angs: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(thetas, angs, side="right") - 1
    idx[idx < 0] = len(thetas) - 1
    return coeffs[idx, 0] * np.cos(angs) + coeffs[idx, 1] * np.sin(angs)


def _balanced(ctor, items: list[LatticeTerm]) -> LatticeTerm:
    while len(items) > 1:
        items = [
            ctor(items[i], items[i + 1]) if i + 1 < len(items) else items[i]
            for i in range(0, len(items), 2)
        ]
    return items[0]


def _circle_ast(thetas: np.ndarray, coeffs: np.ndarray, vals: np.ndarray) -> LatticeTerm:
    """Max-min assembly of the polygon interpolant from its own pieces.

    Piece j enters cone i's inner meet exactly when it dominates piece i on
    that cone, which for linear maps on a planar cone reduces to the two edge
    rays; the join of the cone meets then reproduces the interpolant.
    """
    k = len(thetas)
    pts = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    edge_vals = coeffs @ pts.T  # [j, i] = piece j at sphere point i
    slack = 1e-12 * (1.0 + float(np.abs(vals).max()))
    ok_left = edge_vals >= vals[None, :] - slack
    ok_right = np.roll(edge_vals, -1, axis=1) >= np.roll(vals, -1)[None, :] - slack
    dominating = ok_left & ok_right
    piece_asts = [_lincomb2(coeffs[j, 0], 0, coeffs[j, 1], 1) for j in range(k)]
    meets = []
    for i in range(k):
        members = [piece_asts[j] for j in np.nonzero(dominating[:, i])[0]]
        if not members:  # numerically impossible (piece i dominates itself)
            members = [piece_asts[i]]
        meets.append(_balanced(Meet, members))
    return _balanced(Join, meets)


def _circular_min_dist(thetas: np.ndarray, ang: float) -> float:
    d = np.abs(thetas - ang)
    return float(np.minimum(d, 2 * math.pi - d).min())


def _fit_circle(fn: HomogeneousFn, eps: float, grid: int, budget: int):
    k0 = max(16, 4 * math.ceil(grid / 4))
    thetas = np.sort((2 * math.pi / k0) * np.arange(k0))
    cert_m = 1 << 16
    angs = np.linspace(0.0, 2 * math.pi, cert_m, endpoint=False)
    cert_pts = np.stack([np.cos(angs), np.sin(angs)])
    target = fn.fn(cert_pts)
    h_half = math.pi / cert_m

    best = None
    for _ in range(budget):
        vals = fn.fn(np.stack([np.cos(thetas), np.sin(thetas)]))
        coeffs = _circle_pieces(thetas, vals)
        approx = _polygon_eval(thetas, coeffs, angs)
        err = np.abs(approx - target)
        lip = float(np.sqrt((coeffs ** 2).sum(axis=1)).max())
        cert = float(err.max()) + fn.modulus(h_half) + lip * h_half
        if best is None or cert < best[0]:
            best = (cert, thetas.copy(), coeffs.copy(), vals.copy())
        if cert <= eps:
            break
        # refine greedily at the worst sampled errors, keeping additions apart
        order = np.argsort(err)[::-1]
        added = []
        for cand_idx in order[:4096]:
            ang = float(angs[cand_idx])
            if _circular_min_dist(thetas, ang) <= 1e-9:
                continue
            if any(abs(ang - other) < 8 * math.pi / cert_m for other in added):
                continue
            added.append(ang)
            if len(added) >= 4:
                break
        if not added:
            break
        thetas = np.sort(np.concatenate([thetas, np.array(added)]))

    cert, thetas, coeffs, vals = best
    term = _circle_ast(thetas, coeffs, vals)
    # structural check: the assembled term must agree with the interpolant
    check_angs = np.linspace(0.0, 2 * math.pi, 512, endpoint=False)
    check_pts = np.stack([np.cos(check_angs), np.sin(check_angs)])
    ast_vals = eval_array(term, check_pts)
    poly_vals = _polygon_eval(thetas, coeffs, check_angs)
    if np.abs(ast_vals - poly_vals).max() > 1e-9 * (1.0 + np.abs(poly_vals).max()):
        # fall back to certifying the term itself, in chunks
        worst = 0.0
        for start in range(0, cert_m, 4096):
            chunk = cert_pts[:, start : start + 4096]
            vals_chunk = eval_array(term, chunk)
            worst = max(worst, float(np.abs(vals_chunk - target[start : start + 4096]).max()))
        lip = term_lipschitz_bound(term)
        cert = worst + fn.modulus(h_half) + lip * h_half
    return term, float(cert)


def _fit_sphere_general(fn: HomogeneousFn, eps: float, grid: int, budget: int, seed: int):
    n = fn.arity
    rng = np.random.default_rng(seed)
    axes = [np.eye(n)[i] * s for i in range(n) for s in (1.0, -1.0)]
    extra = rng.standard_normal((max(4, min(grid, 24) - len(axes)), n))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    samples = np.array(axes + list(extra))
    cert_m = 4096
    cert = rng.standard_normal((cert_m, n))
    cert /= np.linalg.norm(cert, axis=1, keepdims=True)
    probes = rng.standard_normal((2048, n))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    dots = np.clip(probes @ cert.T, -1.0, 1.0)
    h_est = float(np.arccos(dots.max(axis=1)).max())
    target = fn.fn(cert.T)

    best = None
    for _ in range(budget):
        values = fn.fn(samples.T)
        branches = []
        for u_idx in range(len(samples)):
            legs = []
            for v_idx in range(len(samples)):
                if v_idx == u_idx:
                    continue
                legs.append(
                    interpolating_term(
                        samples[u_idx], samples[v_idx], values[u_idx], values[v_idx]
                    )
                )
            branches.append(_balanced(Meet, legs))
        term = _balanced(Join, branches)
        approx = eval_array(term, cert.T)
        err = float(np.abs(approx - target).max())
        bound = err + fn.modulus(h_est) + term_lipschitz_bound(term) * h_est
        if best is None or bound < best[0]:
            best = (bound, term)
        if bound <= eps or len(samples) >= 4 * min(grid, 24):
            break
        worst = int(np.abs(approx - target).argmax())
        samples = np.vstack([samples, cert[worst]])
    return best[1], float(best[0])


def approximate_on_sphere(
    fn: HomogeneousFn, eps: float, grid: int = 64, *, budget: int = 60, seed: int = 0
) -> tuple[LatticeTerm, float]:
    """Fit a lattice term to ``fn`` on the unit sphere.

    Returns the term together with a certified error: the maximum deviation
    over a dense sample grid plus the declared-modulus and term-Lipschitz
    corrections for the gaps between grid points. When the budget runs out
    before the certificate reaches ``eps``, the best error achieved is
    reported instead.
    """
    if not eps > 0:
        raise InvariantError("eps must be positive")
    fn.spot_check_homogeneous(seed=seed)
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
    if fn.arity == 2:
        return _fit_circle(fn, eps, grid, budget)
    return _fit_sphere_general(fn, eps, grid, budget, seed)
