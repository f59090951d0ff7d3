"""The value classes: immutable namedtuples that compare, hash and refuse
assignment the way frozen dataclasses do."""

from collections import namedtuple

import pytest

from modinv.action import BlockExceedsP, RepresentationSpec
from modinv.builder import (WeightSpaceBasis, build_suite, construct_connecting,
                            weight_basis)
from modinv.oracle import separation_report
from modinv.poly import VariableTable
from modinv.rings import GF


def instances():
    """A fresh instance of each of the eight value classes."""
    spec = RepresentationSpec(5, (3,))
    suite = build_suite(spec, "fp")
    connecting = construct_connecting(5, 2)
    return [VariableTable((2, 1)), spec, weight_basis("W", 5, 5),
            connecting.steps[0], connecting, suite.entries[0], suite,
            separation_report(suite, GF(5))]


@pytest.mark.parametrize("index", range(8))
def test_equal_and_hashed_by_fields_within_the_class(index):
    a, b = instances()[index], instances()[index]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(a))
    # never equal to a plain tuple, in either order
    assert a != tuple(a) and tuple(a) != a and not a == tuple(a)
    assert len({a, b}) == 1


@pytest.mark.parametrize("index", range(8))
def test_assignment_and_deletion_raise(index):
    a = instances()[index]
    field = a._fields[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(a, field)
    assert a == instances()[index]


def test_different_fields_or_classes_are_unequal():
    assert VariableTable((2, 1)) != VariableTable((1, 2))
    assert RepresentationSpec(5, (3,)) != RepresentationSpec(7, (3,))
    assert RepresentationSpec(5, (3,)).table == VariableTable((3,))
    # same field values, different classes
    lookalike = namedtuple("VariableTable", "blocks")((3,))
    assert VariableTable((3,)) != lookalike and not VariableTable((3,)) == lookalike


def test_cached_properties_do_not_affect_equality():
    spec = RepresentationSpec(5, [3, 2])
    assert spec.blocks == (3, 2)
    assert (spec.n, spec.m, spec.r) == (5, 2, 0)
    assert spec.table.names == ("x1_1", "x1_2", "x1_3", "x2_1", "x2_2")
    assert spec == RepresentationSpec(p=5, blocks=(3, 2))
    assert repr(spec) == "RepresentationSpec(p=5, blocks=(3, 2))"
    assert repr(VariableTable([4])) == "VariableTable(blocks=(4,))"
    assert weight_basis("W", 5, 5).names() == ("x1*x4", "x2*x3")
    assert len(weight_basis("W", 5, 5)) == 2


def test_replace_on_a_basis_keeps_its_length():
    # namedtuple's _make checks len(), which a basis answers with its size
    basis = weight_basis("W", 7, 9)
    moved = basis._replace(n=10)
    assert moved == WeightSpaceBasis("W", 7, 10, basis.monomials)
    assert len(moved) == len(basis) == 3
    assert instances()[2]._replace() == instances()[2]


def test_validation_errors_are_unchanged():
    for blocks in ((), (2, 0)):
        with pytest.raises(ValueError, match="^blocks must be a nonempty tuple "
                                             "of positive sizes$"):
            VariableTable(blocks)
    with pytest.raises(ValueError, match="^p must be prime, got 4$"):
        RepresentationSpec(4, (2,))
    with pytest.raises(ValueError, match="^at least one block is required$"):
        RepresentationSpec(5, ())
    with pytest.raises(ValueError, match="^block sizes must be positive, got 0$"):
        RepresentationSpec(5, (2, 0))
    with pytest.raises(BlockExceedsP, match="^block size exceeds p$"):
        RepresentationSpec(5, (6,))
