"""The record contract of the package's value classes: immutable, equal and
hashed alike by their fields (or by identity where declared ``eq=False``),
pickled and shown by their fields, and each checking constructor keeping its
error messages."""

import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from canonbase_lab.errors import InvariantError
from canonbase_lab.hilbert_canon import HilbertBase, Subspace, hs_cb
from canonbase_lab.krivine import HomogeneousFn
from canonbase_lab.legendre import PLConvexFn
from canonbase_lab.lp_canon import (LpCanonicalBase, P1Report, PsiFamily, RemarkReport, SliceFamily,
                                    canonical_base_1type, p1_counterexample, psi, remark_counterexample, slices)
from canonbase_lab.measure_core import ExtensionPair, LatticeElement, MeasureSpace, SubStructure
from canonbase_lab.oracle import DirectionalMass
from canonbase_lab.records import Record
from canonbase_lab.ultra_ball import Ball, PAdicContext, ProjPoint
from reference import LiftedEvent, NTypeBase, base_substructure, canonical_base_ntype, lift_event

INF = math.inf


def _element_and_pair():
    pair = ExtensionPair((1.0, 2.0), 2)
    return pair.element([[1.0, -2.0], [0.5, 0.0]]), pair


def _lifted():
    space = MeasureSpace((1.0, 1.0))
    return lift_event(LatticeElement(space, (0.25, 0.25)), SubStructure(((0, 1),)), 4)


# its bases compare by identity, so two equal n-type bases share them
_F, _PAIR = _element_and_pair()
_NTYPE = canonical_base_ntype([_F], _PAIR, 2.0, [1.0], 1)

# Per former dataclass, a function that builds an instance afresh on each call.
RECORDS = {
    Subspace: lambda: Subspace(2, [[1.0, 0.0]]),
    HilbertBase: lambda: hs_cb([[1.0, 2.0]], Subspace(2, [[1.0, 0.0]])),
    HomogeneousFn: lambda: HomogeneousFn("abs", 1, np.abs, float),
    PLConvexFn: lambda: PLConvexFn(-INF, INF, (0.0,), (-1.0, 1.0), 0.0, 0.0),
    PsiFamily: lambda: psi(*_element_and_pair()),
    SliceFamily: lambda: slices(*_element_and_pair()),
    LpCanonicalBase: lambda: canonical_base_1type(*_element_and_pair(), 2.0, [0.5, 1.0]),
    NTypeBase: lambda: NTypeBase(dict(_NTYPE.bases), DirectionalMass(_NTYPE.absolute_summary.entries)),
    P1Report: lambda: p1_counterexample(Fraction(1, 4), 1.0),
    RemarkReport: remark_counterexample,
    DirectionalMass: lambda: DirectionalMass.from_elements([_element_and_pair()[0]], 2.0),
    LiftedEvent: _lifted,
    PAdicContext: lambda: PAdicContext(3),
    ProjPoint: lambda: ProjPoint.of(Fraction(1, 3)),
    Ball: lambda: Ball(ProjPoint.of(2), Fraction(1, 2)),
}
IDENTITY = {HilbertBase, SliceFamily, LpCanonicalBase}  # they hold arrays, and were eq=False
UNHASHABLE = {NTypeBase}  # its bases are a dict


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_the_former_dataclasses_keep_the_record_contract(cls):
    a, b = RECORDS[cls](), RECORDS[cls]()
    assert type(a) is cls and isinstance(a, Record) and not hasattr(a, "__dict__")
    field = cls.__slots__[0]
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable"):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    if cls in IDENTITY:
        assert a == a and a != b and hash(a) == hash(a) != hash(b)
        return
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(b)
    clone = pickle.loads(pickle.dumps(a))
    assert clone == a and hash(clone) == hash(a)
    assert repr(a).startswith(f"{cls.__name__}(")


def _holds_an_array(x) -> bool:
    if isinstance(x, (tuple, list)):
        return any(map(_holds_an_array, x))
    return isinstance(x, np.ndarray)


def test_only_the_identity_records_key_on_arrays():
    # equality, hashing, pickling and showing read plain values and buffers only
    built = [build() for build in RECORDS.values()]
    built += [MeasureSpace((1.0, 2.0)), _F, _PAIR, SubStructure([[2, 0], [1]]), base_substructure(_PAIR)]
    for record in built:
        assert type(record) in IDENTITY or not _holds_an_array(record._key()), type(record).__name__


def test_a_substructure_is_its_blocks_each_sorted():
    given, ordered = SubStructure([[3, 0, 2], [1]]), SubStructure(((0, 2, 3), (1,)))
    assert given == ordered and hash(given) == hash(ordered) and given.blocks == ((0, 2, 3), (1,))
    assert given != SubStructure(((1,), (0, 2, 3)))
    assert given.__reduce__() == (SubStructure, (((0, 2, 3), (1,)),))  # back through the constructor
    clone = pickle.loads(pickle.dumps(given))
    assert clone == ordered and hash(clone) == hash(given) and clone.blocks == given.blocks
    assert repr(given) == "SubStructure(((0, 2, 3), (1,)))" and eval(repr(given)) == given


def test_a_subspace_is_its_dim_and_basis_rows():
    sub = Subspace(2, [[0.6, 0.8], [-0.8, 0.6]])
    assert sub.__reduce__() == (Subspace, (2, ((0.6, 0.8), (-0.8, 0.6))))  # back through the constructor
    assert repr(sub) == "Subspace(2, ((0.6, 0.8), (-0.8, 0.6)))" and eval(repr(sub)) == sub
    assert Subspace(2, [[-0.0, 1.0]]) == Subspace(2, [[0.0, 1.0]]) != Subspace(2, [[0.0, -1.0]])
    assert hash(Subspace(2, [[-0.0, 1.0]])) == hash(Subspace(2, [[0.0, 1.0]]))
    assert Subspace(2, ()) != Subspace(3, ())


def test_validate_for_names_the_smallest_missing_atom_of_the_first_bad_block():
    s = SubStructure([[1, 0], [7, 5, 2], [9]])
    for check in (s.validate_for, s.partition):  # the block kernels check the space too
        with pytest.raises(InvariantError) as caught:
            check(MeasureSpace((1.0,) * 3))
        assert str(caught.value) == "blocks/1: references atom 5 but the space has 3 atoms"


def test_records_of_different_fields_or_classes_differ():
    assert PAdicContext(3) != PAdicContext(5) and ProjPoint(None) != ProjPoint(0)
    assert Ball(ProjPoint.of(2), Fraction(1, 2)) != Ball(ProjPoint.of(2), Fraction(1, 4))
    assert HomogeneousFn("abs", 1, np.abs, float) != HomogeneousFn("abs", 1, np.abs, abs)
    assert PAdicContext(3) != (3,) and ProjPoint.of(3) != PAdicContext(3)


def test_the_default_constructor_takes_fields_by_position_or_name():
    named = HomogeneousFn(modulus=float, fn=np.abs, name="abs", arity=1)
    assert named == HomogeneousFn("abs", 1, modulus=float, fn=np.abs) == HomogeneousFn("abs", 1, np.abs, float)
    assert (named.name, named.arity, named.fn, named.modulus) == ("abs", 1, np.abs, float)
    for args, kwargs in [(("abs", 1, np.abs), {}), (("abs", 1, np.abs, float, 0), {}),
                         (("abs", 1, np.abs, float), {"name": "x"}), (("abs", 1, np.abs), {"mod": float})]:
        with pytest.raises(TypeError, match=r"^HomogeneousFn takes the fields \('name', 'arity', 'fn', 'modulus'\)"):
            HomogeneousFn(*args, **kwargs)


# The messages of the checking constructors, each as the dataclass versions gave it.
CHECKS = [
    (lambda: PLConvexFn(1.0, 0.0, (), (), 0.5, 0.0), "invalid domain [1.0, 0.0]"),
    (lambda: PLConvexFn(math.nan, 0.0, (), (), 0.0, 0.0), "invalid domain [nan, 0.0]"),
    (lambda: PLConvexFn(0.0, 0.0, (), (1.0,), 0.0, 0.0), "a point-domain function has no breakpoints or slopes"),
    (lambda: PLConvexFn(-INF, INF, (0.0,), (1.0,), 0.0, 0.0), "1 breakpoints need 2 slopes, got 1"),
    (lambda: PLConvexFn(0.0, 1.0, (2.0,), (0.0, 1.0), 0.5, 0.0), "breakpoint 2.0 outside the open domain (0.0, 1.0)"),
    (lambda: PLConvexFn(-INF, INF, (1.0, 0.0), (0.0, 1.0, 2.0), 0.0, 0.0), "breakpoints must be strictly increasing"),
    (lambda: PLConvexFn(-INF, INF, (0.0,), (1.0, INF), 0.0, 0.0), "slopes must be finite"),
    (lambda: PLConvexFn(-INF, INF, (0.0,), (1.0, 0.5), 0.0, 0.0), "slopes must be nondecreasing (convexity)"),
    (lambda: PLConvexFn(-INF, INF, (0.0,), (0.0, 1.0), INF, 0.0), "anchor must be finite"),
    (lambda: PLConvexFn(0.0, 1.0, (0.5,), (0.0, 1.0), 2.0, 0.0), "anchor 2.0 outside the domain [0.0, 1.0]"),
    (lambda: Subspace(-1, ()), "dim: must be >= 0, got -1"),
    (lambda: Subspace(2.5, ()), "dim: must be an integer, got 2.5"),
    (lambda: Subspace(2**25, ()), "dim: 33554432 entries exceed the cap of 16777216 (2**24)"),
    (lambda: Subspace(2, ((1.0, 0.0, 0.0),)), "basis: expected a list of 2-vectors, got shape (1, 3)"),
    (lambda: Subspace(2, ((2.0, 0.0),)), "basis: not orthonormal"),
    (lambda: Subspace(2, ((1.0, 0.0), (1.0, 0.0))), "basis: not orthonormal"),
    (lambda: Subspace(2, ((1.0, INF),)), "basis/0/1: must be finite, got inf"),
    (lambda: Subspace(2, "ab"), "basis: expected real numbers (could not convert string to float: 'ab')"),
    (lambda: PAdicContext(1), "prime: must be >= 2, got 1"),
    (lambda: PAdicContext(4), "4 is not prime"),
    (lambda: PAdicContext(True), "prime: must be an integer, got True"),
    (lambda: PAdicContext(3_317_044_064_679_887_385_961_981),
     "must be below 3317044064679887385961981, the bound of the exact primality test"),
    (lambda: ProjPoint("x"), "Invalid literal for Fraction: 'x'"),
    (lambda: ProjPoint(math.nan), "cannot convert NaN to integer ratio"),
    (lambda: Ball(ProjPoint.of(0), Fraction(3, 2)), "ball radius must lie in [0, 1], got 3/2"),
    (lambda: Ball(ProjPoint.of(0), -1), "ball radius must lie in [0, 1], got -1"),
]


@pytest.mark.parametrize("build, message", CHECKS, ids=[message for _, message in CHECKS])
def test_the_checking_constructors_keep_their_messages(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message
