"""Sanity checks for sparse formal sums and rendering."""

import copy
import pickle
import random
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
from bflow.lbseries import BellWord, antipode_mkw, delta_mkw, eulerian_apply, exact_flow_lb, q_apply


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


def render_sum_reference(fs: FormalSum, sort_key) -> str:
    """``render_sum`` as it was written before it formatted coefficients
    from their integers and built a Tensor's serial inline, verbatim:
    ``Fraction.__eq__`` and ``Fraction.__str__`` per term, and
    ``Tensor.serial``."""
    if not fs:
        return "0"
    parts = []
    for basis in sorted(fs._terms, key=sort_key):
        coeff = fs._terms[basis]
        serial = getattr(basis, "serial", None) or str(basis)
        parts.append(serial if coeff == 1 else f"{coeff} * {serial}")
    return " + ".join(parts)


class _Plain:
    """A basis element with no serial, written as its str."""

    def __init__(self, name):
        self.name = name

    def __str__(self):
        return f"<{self.name}>"

    __repr__ = __str__


class _Unnamed(_Plain):
    """A basis element whose serial is empty, so its str is written."""

    serial = ""


def _random_sums(rng: random.Random) -> list:
    forests = [f for n in range(5) for f in enumerate_forests(n)]
    words = [w for n in range(5) for w in enumerate_forests(n, planar=True)]
    bells = [BellWord(w) for w in ((), (1,), (2,), (1, 1), (3, 1), (1, 2, 1))]
    odd = [_Plain("p"), _Plain("q"), _Unnamed("u"), _Unnamed("v")]
    sides = {
        "forests": (forests, forests),
        "words": (words, words),
        "bells": (bells, bells),
        "odd": (odd, forests + odd),
    }

    def coeff():
        kind = rng.randrange(5)
        if kind == 0:
            return 1
        if kind == 1:
            return -1
        if kind == 2:
            return rng.choice([2, -3, 12, -40, 10**20])
        return Fraction(rng.choice([1, -1, 5, -7, 3**30]), rng.choice([2, 3, 9, 14, 7**25]))

    sums = []
    for _ in range(12):
        for left, right in sides.values():
            sums.append(
                FormalSum(
                    (Tensor(rng.choice(left), rng.choice(right)), coeff())
                    for _ in range(rng.randrange(1, 30))
                )
            )
        for basis in (forests, words, bells, odd):
            sums.append(FormalSum((rng.choice(basis), coeff()) for _ in range(rng.randrange(1, 30))))
    return sums


def test_render_sum_matches_the_fraction_formatting():
    rng = random.Random("render-sum")
    sums = _random_sums(rng) + [FormalSum.zero(), FormalSum([("a", 3), ("a", -3)])]
    coefficients = {c for s in sums for _, c in s}
    # unit, negative unit, integral and fractional coefficients, both signs
    assert {1, -1} <= coefficients
    assert any(c.denominator == 1 and abs(c) > 1 for c in coefficients)
    assert any(c.denominator > 1 and c > 0 for c in coefficients)
    assert any(c.denominator > 1 and c < 0 for c in coefficients)
    for s in sums:
        for key in (repr, str):
            assert render_sum(s, sort_key=key) == render_sum_reference(s, sort_key=key)
    assert render_sum(FormalSum.zero(), sort_key=repr) == "0"
    tensors = [s for s in sums if s and isinstance(next(iter(s))[0], Tensor)]
    texts = [render_sum(s, sort_key=repr) for s in tensors]
    assert any("<u>" in t for t in texts) and any("<p>" in t for t in texts)
    assert all(" (x) " in t for t in texts)
