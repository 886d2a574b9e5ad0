"""Command-line front end: JSON input, deterministic run reports on stdout.

Exit codes: 0 success, 1 usage error, 2 input-invariant violation,
3 negative comparison outcome (unequal types, violated identity), 141 stdout
closed by its reader (128 + SIGPIPE). Each call imports only the modules its
subcommand runs, and runs BLAS on one thread unless OPENBLAS_NUM_THREADS is set.
It loads no numpy submodule that it does not use (``numpy.random``,
``numpy.ma``), and ``fractions`` only where it parses a rational. Numpy itself
loads only with the bulk kernels: ``rv-cb`` and ``apr-cb`` (``rv_canon`` and
the block kernel of ``measure_core``), ``hs-cb`` (``hilbert_canon``) and
``krivine approx`` (``krivine``, which skips ``measure_core``). ``rv-cb`` and
``apr-cb`` parse and check every input before numpy loads, and release each
parsed document first, so its objects and numpy's 13 MB are never resident
together. Every other
call starts without it: ``lp-cb``, ``typeq`` and both demos run the element
algebra, the slice kernel and the type oracles on the standard library's
float64 buffers, and ``krivine parse`` and ``eval`` (``terms``), ``legendre``
and ``ultra`` (``rules`` and their own modules) do no array work. Each input
file is opened once, by ``_read_json``, and the report's ``inputs`` maps its
path to the SHA-256 of the bytes parsed, so a call whose output path names an
input still reports what it read; ``typeq`` given one path as ``--a`` and
``--b`` reads and builds that element once. No call loads
``dataclasses`` or OpenSSL: that digest, the same hex text as ``hashlib``'s,
comes from the interpreter's own module (``_sha256``; ``_sha2`` from Python
3.12), which spares the 3.8 MB of resident memory that loading OpenSSL costs.
It hashes at 4.0-5.5 ms/MiB against OpenSSL's 0.75-0.79, so ``rv-cb`` on 7 MiB
of input takes about 30 ms longer and peaks 1.2 MB lower (Python 3.11 on a
shared 2-core Xeon host).

A report is a function of argv and the bytes of the input files alone; it
holds no clock reading, so two runs of one call print the same bytes.
Every report on stdout, and every JSON ``--out`` file, is exactly the text
of ``json.dumps(doc, sort_keys=True, indent=2)`` (a report adds a newline),
where ``doc`` is the document with each float64 buffer replaced by its
``.tolist()`` and each block column by its list of per-atom values. The
handlers put the read-only buffers of lattice elements, canonical bases and
matrix rows into their outputs unconverted, and ``_encode`` streams the text.
The canonical bases computed over a substructure (conditional moments, meet
probabilities) are constant on its blocks, so ``rv-cb`` and ``apr-cb`` pass
``rv_canon``'s ``BlockTable``, one value per block and key, to ``_columns``,
which formats each distinct value of the table once; each key's column
gathers its list from those texts by the atoms' blocks as it is written, in
chunks of ``CHUNK_ATOMS`` atoms, so no per-atom list is held whole.
``_emit`` joins small chunks into writes of about ``WRITE_CHARS``
characters: stdout may be unbuffered (``PYTHONUNBUFFERED``), and then each
write is a system call.

Sizes are capped before anything is allocated, and a rejection exits 2
naming the flag or pointer and the cap. A result holds at most
``rules.MAX_ENTRIES`` = 2**24 entries, rows times atoms: the keys times the
atoms of an ``rv-cb``, ``apr-cb`` or ``lp-cb`` report (names ``--k-max``,
``/events`` or ``--grid``), a pair's (base atoms + 2 if orthogonal) *
fiber_cells (``/fiber_cells``), a subspace's dim (``/dim``) and ``hs-cb``'s
Gram matrix (``/vectors``). Work that grows faster has caps of its own, each
about a second of work: ``rules.MAX_KEYS`` = 2**14 keys in one of those three
reports, ``MAX_CONES`` = 2**8 for ``krivine approx --grid`` (the cones a fit
starts from) and ``MAX_SAMPLES`` = 2**6 for ``ultra check-triangles
--samples`` (3 * C(samples, 3) exact comparisons). A fit's refinement stops
at ``krivine.MAX_FAN`` = 2**13 cones or about ``krivine.MAX_DRAWN`` = 2**27
sample points, seconds of work (about 15 s for ``euclid(5)``), and reports
the best bound it reached, with ``reached_eps`` false.
"""

from __future__ import annotations

import os

# Before numpy loads OpenBLAS: starting its thread pool is a large share of a
# call's start-up, and the package's BLAS work (krivine's batched n-by-n solves
# and ray products, hilbert's Gram products) is too small to gain from threads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import errno
import json
import math
import sys
from contextlib import contextmanager
from functools import partial
from itertools import chain, combinations, product
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from .errors import InvariantError
from .rules import MAX_KEYS, check_count, check_entries, close, integer, reals

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

    from . import lp_canon
    from .measure_core import BlockTable, ExtensionPair, LatticeElement, MeasureSpace, SubStructure

MAX_CONES = 2**8
MAX_SAMPLES = 2**6


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); remap to usage error
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Input documents
# ---------------------------------------------------------------------------

#: path -> hex SHA-256 of the bytes read from it in this call; ``dispatch``
#: empties it at its start and reports it as ``inputs``.
_INPUTS: dict[str, str] = {}


def _read_json(path: str, *required: str) -> dict:
    """The JSON object in ``path``, which must have every ``required`` key.
    The file is read once: its bytes are hashed into ``_INPUTS``, then decoded
    as text mode decodes them (UTF-8, universal newlines) and parsed."""
    try:
        sha256 = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
    except ImportError:  # a build may leave the module out
        from hashlib import sha256
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        _INPUTS[path] = sha256(data).hexdigest()
        text = data.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        del data  # the bytes are not held through the parse
        doc = json.loads(text)
    except OSError as exc:
        raise InvariantError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON text, or nesting too deep
        raise InvariantError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise InvariantError(f"{path}: expected a JSON object")
    for key in required:
        if key not in doc:
            raise InvariantError(f"{path}: /{key}: missing")
    return doc


@contextmanager
def _prefixed(prefix: str):
    """Prefix an InvariantError raised inside the block. The constructors
    name the argument they reject (``base_weights/0: ...``) and the documents
    use the same keys, so the prefix "<file>: /" turns that into a pointer."""
    try:
        yield
    except InvariantError as exc:
        raise InvariantError(f"{prefix}{exc}") from exc


def load_space(path: str) -> ExtensionPair:
    from .measure_core import ExtensionPair
    doc = _read_json(path, "base_weights", "fiber_cells")
    orth = doc.get("orthogonal_part", False)
    if not isinstance(orth, bool):
        raise InvariantError(f"{path}: /orthogonal_part: must be true or false, got {orth!r}")
    with _prefixed(f"{path}: /"):
        return ExtensionPair(doc["base_weights"], doc["fiber_cells"], orth)


def load_element(path: str, pair: ExtensionPair) -> LatticeElement:
    doc = _read_json(path, "rows")
    with _prefixed(f"{path}: /"):
        return pair.element(doc["rows"], doc.get("plus"), doc.get("minus"))


def _load_elements(doc: dict, key: str, space: MeasureSpace, path: str) -> list[LatticeElement]:
    from .measure_core import LatticeElement
    rows = doc[key]
    if not isinstance(rows, list):
        raise InvariantError(f"{path}: /{key}: expected a list of elements")
    elements = []
    for j, row in enumerate(rows):
        with _prefixed(f"{path}: /{key}/{j}: "):
            elements.append(LatticeElement(space, row))
    return elements


def _probability_space(doc: dict, path: str) -> tuple[MeasureSpace, SubStructure]:
    from .measure_core import MeasureSpace, SubStructure
    with _prefixed(f"{path}: /"):
        space, blocks = MeasureSpace(doc["weights"]), SubStructure(doc["blocks"])
        blocks.validate_for(space)
    return space, blocks


def load_probability_space(path: str) -> tuple[MeasureSpace, SubStructure]:
    return _probability_space(_read_json(path, "weights", "blocks"), path)


def _fraction(text: str) -> Fraction:
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvariantError(f"not a rational number: {text!r}") from exc


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def _encode(obj: Any, level: int = 0) -> Iterator[str]:
    """Yield, in chunks, exactly the text of
    ``json.dumps(obj, sort_keys=True, indent=2)`` for ``obj`` nested ``level``
    deep, where each float64 buffer (a memoryview) in ``obj`` stands for its
    ``.tolist()`` and each column of ``_columns`` for the list of its row's
    value at each atom. Dict keys must be strings.

    The leaves go through json's C encoder, which ``indent`` would otherwise
    switch off. A flat sequence of floats (a buffer, a matrix row, a list of
    floats) is one ``json.dumps`` call with the indented separator (so repr,
    NaN and Infinity are json's own), and a column writes itself
    (``_gathered``). Other lists and dicts are walked item by item; they are
    short in reports. Any other leaf, an ndarray among them, is json's own
    scalar or a ``TypeError``."""
    inner = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            yield sep + json.dumps(key) + ": "
            yield from _encode(obj[key], level + 1)
            sep = "," + inner
        yield close + "}"
    elif isinstance(obj, partial):  # a column of _columns, which takes its level
        yield from obj(level)
    elif isinstance(obj, memoryview):
        yield _floats(obj.tolist(), level)
    elif isinstance(obj, (list, tuple)) and all(type(x) is float for x in obj):
        yield _floats(list(obj), level)
    elif isinstance(obj, (list, tuple)):  # not empty, since [] is a list of floats
        sep = "[" + inner
        for item in obj:
            yield sep
            yield from _encode(item, level + 1)
            sep = "," + inner
        yield close + "]"
    else:
        yield json.dumps(obj)


def _floats(values: list[float], level: int) -> str:
    """The indented JSON list of ``values``: one call of json's C encoder,
    with the indented separator between items."""
    if not values:
        return "[]"
    inner = "\n" + "  " * (level + 1)
    return "[" + inner + json.dumps(values, separators=("," + inner, ": "))[1:-1] + "\n" + "  " * level + "]"


def _columns(names: Sequence[str], table: BlockTable) -> dict[str, partial]:
    """The report's map of a block table: under the name of each row, in row
    order, the column that ``_encode`` writes as the list of the row's value
    at each atom. The whole table is formatted once, here (``_texts``), and
    each list is gathered by the atoms' block labels as it is written."""
    return {name: partial(_gathered, texts, table.labels) for name, texts in zip(names, _texts(table.table))}


def _texts(values: np.ndarray) -> np.ndarray:
    """The JSON text of each float of the C-ordered float64 array ``values``,
    as an object array of the same shape; each distinct value, by its bits
    (so -0.0 is not 0.0), is formatted once."""
    import numpy as np
    bits, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    texts = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
    return np.array(texts, dtype=object)[inverse.reshape(values.shape)]


#: The atoms whose texts one chunk of a column's list gathers.
CHUNK_ATOMS = 8192


def _gathered(texts: np.ndarray, labels: np.ndarray, level: int) -> Iterator[str]:
    """The indented JSON list of ``texts[labels]``, for the 1-D object array
    ``texts``, yielded in chunks of ``CHUNK_ATOMS`` items, each gathered only
    when it is yielded."""
    if not len(labels):
        yield "[]"
        return
    inner = "\n" + "  " * (level + 1)
    sep = "[" + inner
    for start in range(0, len(labels), CHUNK_ATOMS):
        yield sep + ("," + inner).join(texts[labels[start : start + CHUNK_ATOMS]].tolist())
        sep = "," + inner
    yield "\n" + "  " * level + "]"


#: The size, in characters, that ``_emit`` gathers small chunks into before
#: it writes them.
WRITE_CHARS = 2**16


def _emit(report: dict) -> None:
    """Write the report to stdout as it is encoded, not as one string, so a
    large report is never held twice. Small chunks are joined into writes of
    at most ``WRITE_CHARS`` characters, since stdout may be unbuffered, and a
    larger chunk is written as it is."""
    pending: list[str] = []
    size = 0
    for chunk in chain(_encode(report), "\n"):
        if pending and size + len(chunk) > WRITE_CHARS:
            sys.stdout.write("".join(pending))
            pending, size = [], 0
        if len(chunk) >= WRITE_CHARS:
            sys.stdout.write(chunk)
        else:
            pending.append(chunk)
            size += len(chunk)
    sys.stdout.write("".join(pending))  # it holds the final newline


def _write(*files: tuple[str, str | None, Iterable[str]]) -> None:
    """Write the output files of one call, (flag, path, chunks) each, all or
    none; a flag not given has no path and is skipped. Each file goes to a
    temporary beside its target, and the temporaries replace their targets
    once all are written. A path that cannot be written, or names an existing
    non-regular file, is an input error naming the flag and the path; so are
    two flags that name one file, before anything is written."""
    files = tuple(file for file in files if file[1])
    for (flag, path, _), (other, same, _) in combinations(files, 2):
        if os.path.realpath(path) == os.path.realpath(same):
            raise InvariantError(f"{flag} and {other}: both name {same}")
    temps: list[str] = []
    try:
        for flag, path, chunks in files:
            if os.path.exists(path) and not os.path.isfile(path):
                raise OSError(errno.EINVAL, "not a regular file")
            temps.append(f"{path}.{os.getpid()}.{len(temps)}.tmp")
            with open(temps[-1], "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        for tmp, (flag, path, _) in zip(temps, files):
            os.replace(tmp, path)
    except OSError as exc:
        raise InvariantError(f"{flag}: cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for tmp in temps:
            if os.path.exists(tmp):
                os.remove(tmp)


def _curve(cb: lp_canon.LpCanonicalBase) -> Iterator[str]:
    """CSV of the partial family: header t,atom_0,...; 12 significant digits."""
    yield ",".join(["t", *(f"atom_{i}" for i in range(len(cb.space)))]) + "\n"
    for t, row in zip(cb.grid, cb.rows):
        yield ",".join(f"{x:.12g}" for x in (t, *row)) + "\n"


# ---------------------------------------------------------------------------
# Command handlers: return (exit_code, outputs, checks); _read_json records
# the inputs
# ---------------------------------------------------------------------------

def _cmd_legendre(args) -> tuple[int, dict, dict]:
    from . import legendre
    source = _read_json(args.fn)
    with _prefixed(f"{args.fn}: "):
        phi = legendre.fn_from_dict(source)
    conj = legendre.conjugate(phi)
    doc = legendre.fn_to_dict(conj)
    back = legendre.conjugate(conj)
    # conjugation swaps the domain and breakpoints with the slopes, so the biconjugate's are
    # the input's exactly; slope-times-position terms set the scale of the anchor value
    pieces = (back.lo, back.hi, back.breakpoints, back.slopes) == (phi.lo, phi.hi, phi.breakpoints, phi.slopes)
    positions = [abs(v) for v in (phi.lo, phi.hi, phi.anchor_x, *phi.breakpoints) if math.isfinite(v)]
    scale = max(map(abs, phi.slopes), default=0.0) * max(positions) + abs(phi.anchor_y)
    ok = pieces and close((back.evaluate(phi.anchor_x), scale), (phi.anchor_y, scale))
    _write(("--out", args.out, _encode(doc)))
    return 0, {"conjugate": doc}, {"biconjugate_roundtrip": ok}


def _cmd_krivine(args) -> tuple[int, dict, dict]:
    from . import terms
    if args.action in ("parse", "eval"):
        integer(args.arity, "--arity", 0)
        with _prefixed("--term: "):
            term = terms.parse_term(args.term, args.arity)
    if args.action == "parse":
        text = terms.to_text(term)
        try:  # to_text writes a group per operation, so a long chain may nest too deep
            ok = terms.parse_term(text, args.arity) == term
        except InvariantError:
            ok = False
        return 0, {"term": text}, {"roundtrip": ok}
    if args.action == "eval":
        with _prefixed("--point: "):
            point = reals([_fraction(v) for v in args.point.split(",")], "coordinates")
            if len(point) != args.arity:
                raise InvariantError(f"expected {args.arity} coordinates, got {len(point)}")
        value = terms.eval_scalar(term, point)
        return 0, {"value": value}, {}
    from . import krivine
    check_count(integer(args.grid, "--grid", 1), MAX_CONES, "--grid", "cones")
    with _prefixed("--fn: "):
        fn = krivine.registry_function(args.fn)
    if not args.eps > 0:
        raise InvariantError(f"--eps: must be positive, got {args.eps}")
    term, cert = krivine.approximate_on_sphere(fn, args.eps, args.grid)
    text = krivine.to_text(term)
    outputs = {"certified_error": cert, "term_chars": len(text), "function": fn.name}
    if args.out:
        _write(("--out", args.out, [text, "\n"]))
    elif len(text) <= 4096:
        outputs["term"] = text
    return 0, outputs, {"reached_eps": cert <= args.eps}


def _cmd_lp_cb(args) -> tuple[int, dict, dict]:
    from . import lp_canon
    from .measure_core import check_p
    n = integer(args.grid, "--grid", 1)
    keys = n * (n + 1) // 2 if args.intervals else n
    check_count(keys, MAX_KEYS, "--grid", "keys")
    if args.intervals and args.curve:
        raise InvariantError("--curve: the curve is of the partials, so it cannot be given with --intervals")
    with _prefixed("--p: "):
        check_p(args.p)
    pair = load_space(args.space)
    check_entries(keys, pair.m, "--grid")
    f = load_element(args.element, pair)
    grid = [k / n for k in range(0 if args.intervals else 1, n + 1)]
    cb = lp_canon.canonical_base_1type(f, pair, args.p, grid, intervals=args.intervals)
    outputs: dict[str, Any] = {
        "pos_norm": cb.pos_norm,
        "neg_norm": cb.neg_norm,
        "grid": list(cb.grid),
        "p": cb.p,
    }
    labels = [f"{t:.12g}" for t in cb.grid]
    keys = [f"{a}:{b}" for a, b in combinations(labels, 2)] if args.intervals else labels
    outputs["intervals" if args.intervals else "partials"] = dict(zip(keys, cb.entries()))
    _write(("--out", args.out, _encode(outputs)), ("--curve", args.curve, _curve(cb)))
    return 0, outputs, {}


def _cmd_typeq(args) -> tuple[int, dict, dict]:
    from . import oracle
    from .measure_core import check_p
    with _prefixed("--p: "):
        check_p(args.p)
    pair = load_space(args.space)
    fa = load_element(args.a, pair)
    fb = fa if args.b == args.a else load_element(args.b, pair)  # one file is read once
    if args.absolute:
        equal = oracle.absolute_type_equal([fa], [fb], args.p)
    else:
        equal = oracle.type_equal_1(fa, fb, pair, args.p)
    return (0 if equal else 3), {"equal": equal}, {}


def _cmd_rv_cb(args) -> tuple[int, dict, dict]:
    from . import rv_canon
    integer(args.k_max, "--k-max", 0)
    space, blocks = load_probability_space(args.space)
    xs = _load_elements(_read_json(args.elements, "elements"), "elements", space, args.elements)
    for j, x in enumerate(xs):
        with _prefixed(f"{args.elements}: /elements/{j}/"):
            rv_canon.validate_rv(x)
    keys = (args.k_max + 1) ** len(xs) - 1
    check_entries(keys, len(space), "--k-max")
    check_count(keys, MAX_KEYS, "--k-max", "keys")
    exps = [ks for ks in product(range(args.k_max + 1), repeat=len(xs)) if any(ks)]
    names = [",".join(map(str, ks)) for ks in exps]
    moments = _columns(names, rv_canon.cond_moments(xs, exps, blocks)) if exps else {}
    outputs = {"moments": moments, "k_max": args.k_max}
    _write(("--out", args.out, _encode(outputs)))
    return 0, outputs, {}


def _cmd_apr_cb(args) -> tuple[int, dict, dict]:
    from . import rv_canon
    doc = _read_json(args.events, "weights", "blocks", "events")
    space, blocks = _probability_space(doc, args.events)
    events = _load_elements(doc, "events", space, args.events)
    del doc  # the parsed document is not held while numpy loads
    with _prefixed(f"{args.events}: /"):
        cb = rv_canon.apr_cb(events, blocks)
    names = [",".join(map(str, subset)) for subset in cb.keys]
    outputs = {"conditional_probabilities": _columns(names, cb)}
    return 0, outputs, {}


def _cmd_hs_cb(args) -> tuple[int, dict, dict]:
    from . import hilbert_canon
    vecs_doc = _read_json(args.vectors, "vectors")
    sub_doc = _read_json(args.subspace, "dim", "basis")
    with _prefixed(f"{args.subspace}: /"):
        sub = hilbert_canon.Subspace(sub_doc["dim"], sub_doc["basis"])
    with _prefixed(f"{args.vectors}: /"):
        base = hilbert_canon.hs_cb(vecs_doc["vectors"], sub)
    # lists of row buffers, so a large matrix is formatted one row at a time
    outputs = {"projections": [*map(memoryview, base.projections)], "gram": [*map(memoryview, base.gram)]}
    return 0, outputs, {}


def _cmd_ultra(args) -> tuple[int, dict, dict]:
    import random
    from fractions import Fraction
    from . import ultra_ball

    with _prefixed("--prime: "):
        ctx = ultra_ball.PAdicContext(args.prime)
    if args.action == "ball-dist":
        balls = []
        for center, radius in (("a", "r"), ("b", "s")):
            text = getattr(args, center)
            with _prefixed(f"{center}: "):
                at_infinity = text.strip().lower() in ("inf", "infinity", "oo")
                c = ultra_ball.INFINITY if at_infinity else ultra_ball.ProjPoint.of(_fraction(text))
            with _prefixed(f"{radius}: "):
                balls.append(ultra_ball.Ball(c, _fraction(getattr(args, radius))))
        dist = ultra_ball.ball_distance(*balls, ctx)
        return 0, {"distance": str(dist)}, {}
    # check-triangles over a fixed pseudo-random rational sample
    check_count(integer(args.samples, "--samples", 0), MAX_SAMPLES, "--samples", "samples")
    rng = random.Random(0)
    balls = []
    for _ in range(args.samples):
        if rng.random() < 0.1:
            center = ultra_ball.INFINITY
        else:
            num = rng.randint(-60, 60)
            den = rng.randint(1, 24)
            center = ultra_ball.ProjPoint.of(Fraction(num, den))
        radius = Fraction(rng.randint(0, 16), 16)
        balls.append(ultra_ball.Ball(center, radius))
    dist = [
        [ultra_ball.ball_distance(x, y, ctx) for y in balls] for x in balls
    ]
    violations = 0
    idx = range(len(balls))
    for i, j, k in combinations(idx, 3):
        for a, b, c in ((i, j, k), (j, i, k), (i, k, j)):
            if dist[a][c] > dist[a][b] + dist[b][c]:
                violations += 1
    outputs = {"samples": args.samples, "violations": violations}
    checks = {"triangle_inequality": violations == 0}
    return (0 if violations == 0 else 3), outputs, checks


def _cmd_demo(args) -> tuple[int, dict, dict]:
    from . import lp_canon
    from .measure_core import check_p
    if args.which == "p1":
        with _prefixed("--p: "):
            check_p(args.p)
        with _prefixed("--eps: "):
            report = lp_canon.p1_counterexample(_fraction(args.eps), args.p)
        outputs = {
            "eps": str(report.eps),
            "p": report.p,
            "f_norm": report.f_norm,
            "partial_values": report.partial.values,
            "partial_norm": report.partial_norm,
        }
        checks = {"f_norm_is_one": close(report.f_norm, 1.0)}
        if args.p == 1.0:
            checks["partial_norm_is_one"] = close(report.partial_norm, 1.0)
        return 0, outputs, checks
    report = lp_canon.remark_counterexample()
    outputs = {
        "k_bound": report.k_bound,
        "witness_with_h": report.witness_with_h,
        "witness_with_minus_h": report.witness_with_minus_h,
    }
    checks = {
        "single_types_all_equal": report.single_types_all_equal,
        "joint_types_differ": not report.joint_types_equal,
        "witness_separates": not close(report.witness_with_h, report.witness_with_minus_h),
    }
    ok = all(checks.values())
    return (0 if ok else 3), outputs, checks


# ---------------------------------------------------------------------------
# Argument tree
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="canonlab", description=(__doc__ or "").partition("\n")[0])  # None under -OO
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("legendre", help="conjugate of a piecewise-linear convex function")
    p.add_argument("--fn", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_legendre)

    p = sub.add_parser("krivine", help="lattice-term utilities")
    ksub = p.add_subparsers(dest="action", required=True)
    kp = ksub.add_parser("parse")
    kp.add_argument("--term", required=True)
    kp.add_argument("--arity", type=int, required=True)
    ke = ksub.add_parser("eval")
    ke.add_argument("--term", required=True)
    ke.add_argument("--arity", type=int, required=True)
    ke.add_argument("--point", required=True, help="comma-separated coordinates")
    ka = ksub.add_parser("approx")
    ka.add_argument("--fn", required=True, help="registry function, e.g. geomean(1/2)")
    ka.add_argument("--eps", type=float, required=True)
    ka.add_argument("--grid", type=int, default=64)
    ka.add_argument("--out")
    p.set_defaults(handler=_cmd_krivine)

    p = sub.add_parser("lp-cb", help="canonical base of an element over a pair")
    p.add_argument("--space", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--grid", type=int, required=True, help="n for the grid {k/n}")
    p.add_argument("--intervals", action="store_true")
    p.add_argument("--out")
    p.add_argument("--curve", help="CSV path for the partial curves")
    p.set_defaults(handler=_cmd_lp_cb)

    p = sub.add_parser("typeq", help="type-equality oracle; exit 3 when unequal")
    p.add_argument("--space", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--absolute", action="store_true")
    p.set_defaults(handler=_cmd_typeq)

    p = sub.add_parser("rv-cb", help="conditional moment base of [0,1]-valued variables")
    p.add_argument("--space", required=True, help="JSON with weights and blocks")
    p.add_argument("--elements", required=True)
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_rv_cb)

    p = sub.add_parser("apr-cb", help="conditional probabilities of event meets")
    p.add_argument("--events", required=True, help="JSON with weights, blocks, events")
    p.set_defaults(handler=_cmd_apr_cb)

    p = sub.add_parser("hs-cb", help="projections and Gram matrix")
    p.add_argument("--vectors", required=True)
    p.add_argument("--subspace", required=True)
    p.set_defaults(handler=_cmd_hs_cb)

    p = sub.add_parser("ultra", help="ultrametric ball sort")
    p.add_argument("--prime", type=int, required=True)
    usub = p.add_subparsers(dest="action", required=True)
    ut = usub.add_parser("check-triangles")
    ut.add_argument("--samples", type=int, default=60)
    ub = usub.add_parser("ball-dist")
    ub.add_argument("a")
    ub.add_argument("r")
    ub.add_argument("b")
    ub.add_argument("s")
    p.set_defaults(handler=_cmd_ultra)

    p = sub.add_parser("demo", help="worked counterexample families")
    dsub = p.add_subparsers(dest="which", required=True)
    dp = dsub.add_parser("p1")
    dp.add_argument("--p", type=float, default=1.0)
    dp.add_argument("--eps", default="1/4")
    dsub.add_parser("remark")
    p.set_defaults(handler=_cmd_demo)

    return parser


def dispatch(argv: Sequence[str]) -> int:
    """Run one command; print the run report; return the exit code."""
    parser = _build_parser()
    _INPUTS.clear()
    try:
        args = parser.parse_args(list(argv))
        code, outputs, checks = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except InvariantError as exc:
        _emit({"command": list(argv), "error": str(exc), "exit_code": 2})
        return 2
    report = {
        "command": list(argv),
        "inputs": dict(_INPUTS),
        "outputs": outputs,
        "checks": checks,
        "exit_code": code,
    }
    _emit(report)
    return code


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader is gone: what is still buffered goes to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
