"""Sanity checks for sparse formal sums and rendering."""

import copy
import pickle
from fractions import Fraction

import pytest

from bflow import (
    EMPTY_FOREST,
    FormalSum,
    Tensor,
    as_sum,
    bilinear,
    enumerate_forests,
    parse_forest,
    render_sum,
    tensor_sum,
)
from bflow.lbseries import antipode_mkw, delta_mkw, eulerian_apply, exact_flow_lb, q_apply


def test_zero_terms_are_pruned():
    s = FormalSum([("a", 1), ("b", 0)])
    assert s.support() == frozenset({"a"})
    assert s.coeff("b") == 0
    assert not FormalSum.zero()


def test_arithmetic():
    a = FormalSum.term("x") + FormalSum.term("y", 2)
    b = FormalSum.term("x", Fraction(1, 2))
    assert (a - 2 * b).coeff("x") == 0
    assert (a / 2).coeff("y") == 1
    assert (-a).coeff("y") == -2


def test_cancellation_gives_zero():
    a = FormalSum.term("x")
    assert a - a == FormalSum.zero()
    assert len(a - a) == 0


def test_map_basis_linear_and_flattening():
    s = FormalSum([("x", 2), ("y", 3)])
    doubled = s.map_basis(lambda b: b * 2)
    assert doubled.coeff("xx") == 2
    spread = s.map_basis(lambda b: FormalSum([(b + "1", 1), (b + "2", 1)]))
    assert spread.coeff("y2") == 3

    # An image the callback hands out (a memo entry, say) is read, never written.
    shared = FormalSum([("p", 1), ("q", -1)])
    out = FormalSum([("x", 1), ("y", 3)]).map_basis(lambda b: shared)
    assert out == 4 * shared
    assert shared == FormalSum([("p", 1), ("q", -1)])

    # A basis that cancels to zero part-way and comes back ends right.
    images = {"x": FormalSum.term("u"), "y": FormalSum.term("u", -1), "z": "u"}
    back = FormalSum([("x", 1), ("y", 1), ("z", 4)]).map_basis(images.__getitem__)
    assert back == FormalSum.term("u", 4)
    assert FormalSum([("u", 1), ("u", -1), ("u", 3)]) == FormalSum.term("u", 3)

    # The memoised coproduct survives the maps that iterate over it.
    log = eulerian_apply(q_apply(exact_flow_lb(4), 4), 4)
    for w in enumerate_forests(4, planar=True):
        snapshot = dict(delta_mkw(w))
        antipode_mkw(w)
        log(w)
        assert dict(delta_mkw(w)) == snapshot


def test_bilinear_lift():
    mul = bilinear(lambda a, b: FormalSum.term(a + b))
    left = FormalSum([("a", 2)])
    right = FormalSum([("b", Fraction(1, 3)), ("c", 1)])
    out = mul(left, right)
    assert out.coeff("ab") == Fraction(2, 3)
    assert out.coeff("ac") == 2
    assert mul("a", "b") == FormalSum.term("ab")

    shared = FormalSum([("p", 2), ("q", 1)])
    pinned = bilinear(lambda a, b: shared)
    assert pinned(left, right) == Fraction(8, 3) * shared
    assert shared == FormalSum([("p", 2), ("q", 1)])

    # "ab" cancels against "a" * "-b" and is then added again.
    def signed(a, b):  # "-b" stands for -1 times "b"
        return FormalSum.term(a + b.lstrip("-"), -1 if b.startswith("-") else 1)

    out = bilinear(signed)("a", FormalSum([("b", 1), ("-b", 1), ("c", 1), ("-b", -3)]))
    assert out == FormalSum([("ab", 3), ("ac", 1)])


def test_as_sum_wraps_bare_values():
    assert as_sum("t") == FormalSum.term("t")
    s = FormalSum.term("t", 5)
    assert as_sum(s) is s


def test_tensor_identity():
    t = Tensor("l", "r")
    assert t == Tensor("l", "r") and hash(t) == hash(Tensor("l", "r"))
    assert t != Tensor("r", "l")
    assert (t.left, t.right) == ("l", "r")
    assert t.serial == "l (x) r"
    assert repr(t) == "Tensor('l', 'r')"
    s = tensor_sum([("a", "b", 2), ("a", "b", 1)])
    assert s.coeff(Tensor("a", "b")) == 3


def test_tensors_of_forests_compare_and_multiply_slot_by_slot():
    f, g = parse_forest("[[]] []"), parse_forest("[[][]]")
    t = Tensor(f, g)
    assert t == Tensor(f, g) and hash(t) == hash(Tensor(f, g))
    assert repr(t) == "Tensor(Forest('[[]] []'), Forest('[[][]]'))"
    u = Tensor(g, EMPTY_FOREST)
    product = t * u
    assert type(product) is Tensor
    assert product.left is f * g is parse_forest("[[][]] [[]] []")
    assert product.right is g
    for twin in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert type(twin) is Tensor and twin == t and twin.left is f and twin.right is g


def test_render_sum():
    s = FormalSum([("bb", Fraction(-1, 2)), ("a", 1), ("c", 3)])
    text = render_sum(s, sort_key=lambda b: b)
    assert text == "a + -1/2 * bb + 3 * c"
    assert render_sum(FormalSum.zero(), sort_key=lambda b: b) == "0"
