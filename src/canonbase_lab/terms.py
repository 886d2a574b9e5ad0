"""Lattice terms over {0, negation, half-sum, absolute value, join, meet,
rational scaling}, each inducing a continuous, finitely piecewise-affine,
positively homogeneous scalar function: parsing, printing, and the value at a
point. This module loads no numpy; ``krivine`` evaluates terms on arrays.

Each fold over a term (arity, value, Lipschitz bound, text) is a rule table
run over one iterative post-order walk, which lists each distinct node once,
by identity, children first: a subterm shared by many parents is computed
once. A fold drops each value after its last read. Only the parser recurses;
it refuses groups and q* prefixes nested deeper than 200.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .errors import InvariantError, TermSyntaxError
from .records import Record
from .rules import integer


class LatticeTerm(Record):
    """Base class for term nodes, immutable records whose fields their class
    names in ``__slots__``: equal and hashed alike by class and field values."""

    __slots__ = ()


class Zero(LatticeTerm):
    __slots__ = ()


class Var(LatticeTerm):
    __slots__ = ("index",)


class Neg(LatticeTerm):
    __slots__ = ("arg",)


class Abs(LatticeTerm):
    __slots__ = ("arg",)


class HalfSum(LatticeTerm):
    __slots__ = ("left", "right")


class Join(LatticeTerm):
    __slots__ = ("left", "right")


class Meet(LatticeTerm):
    __slots__ = ("left", "right")


class Scale(LatticeTerm):
    __slots__ = ("factor", "arg")


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


# Var reads the point, so each evaluation adds its own Var rule. Join and meet
# follow np.maximum and np.minimum, which ``krivine`` puts in their place: a NaN
# operand wins, and of equal operands the second: -0.0 join 0.0 is 0.0, not -0.0.
_VALUE = {
    Zero: lambda t, a, b: 0.0,
    Neg: lambda t, a, b: -a,
    Abs: lambda t, a, b: abs(a),
    HalfSum: lambda t, a, b: (a + b) * 0.5,
    Join: lambda t, a, b: a if (a > b or a != a) else b,
    Meet: lambda t, a, b: a if (a < b or a != a) else b,
    Scale: lambda t, a, b: float(t.factor) * a,
}


def _check_arity(walk: _Walk, given: int) -> None:
    if given < _arity(walk):
        raise InvariantError(f"term uses {_arity(walk)} variables but got {given} arguments")


def eval_scalar(term: LatticeTerm, point: Sequence[float]) -> float:
    """Evaluate the induced scalar function at a point of R^n, in Python
    floats: bit for bit the value ``krivine.eval_array`` gives there."""
    walk, x = _walk(term), [float(c) for c in point]
    _check_arity(walk, len(x))
    return _fold(walk, {**_VALUE, Var: lambda t, a, b: x[t.index]})


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
