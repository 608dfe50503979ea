"""The planar-forest Hopf algebra and flow representations for Lie-Butcher series.

The algebra here has three layers. The Hopf algebra of planar forests
carries the shuffle product and a coproduct built from left admissible
cuts; its convolution composes Lie-Butcher series. Non-commutative Bell
polynomials and the Faa di Bruno coproduct describe how derivatives of a
flow pull back. On top sit the conversions between the three standard
presentations of a flow map: the full series (a shuffle character), the
backward-error field (the eulerian logarithm), and the Lie element whose
exponential is the flow (Dynkin form), together with the substitution
law for replacing the vector field by a series.

Words are PlanarForest values throughout; coefficients are exact
rationals.
"""

from __future__ import annotations

import itertools
import math
import weakref
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .algebra import FormalSum, Tensor, tensor_sum
from .errors import BflowError, CapacityError, DomainError
from .forest_core import (
    EMPTY_WORD,
    PlanarForest,
    PlanarTree,
    _as_word,
    bminus,
    bplus,
    concat,
    enumerate_forests,
    psingle,
    shuffle,
)

PDOT = psingle()
DOT_WORD = PlanarForest((PDOT,))


# ---------------------------------------------------------------------------
# Coefficient maps
# ---------------------------------------------------------------------------


class LBCoeff:
    """A truncated rational coefficient map on planar forests.

    Unlike the non-planar case, a shuffle character is not determined by
    its tree values alone, so values are stored per word. The kind flag
    records what the map is claimed to be: ``character`` (1 on the empty
    word, multiplicative over shuffles), ``infinitesimal`` (0 on the
    empty word, vanishing on shuffles of nonempty words), or ``plain``.
    """

    __slots__ = ("kind", "N", "_fn", "_cache", "__weakref__")

    def __init__(self, kind: str, N: int, fn: Callable[[PlanarForest], Fraction]):
        if kind not in ("character", "infinitesimal", "plain"):
            raise DomainError(f"unknown coefficient kind {kind!r}")
        self.kind = kind
        self.N = N
        self._fn = fn
        self._cache: dict[PlanarForest, Fraction] = {}

    @classmethod
    def from_table(cls, values: Mapping, N: int, kind: str = "plain") -> "LBCoeff":
        table = {_as_word(k): Fraction(v) for k, v in values.items()}
        if kind == "character":
            table.setdefault(EMPTY_WORD, Fraction(1))
        return cls(kind, N, lambda w: table.get(w, Fraction(0)))

    @classmethod
    def from_function(cls, fn, N: int, kind: str = "plain") -> "LBCoeff":
        return cls(kind, N, fn)

    def __call__(self, x) -> Fraction:
        if isinstance(x, FormalSum):
            return sum((c * self(b) for b, c in x), Fraction(0))
        w = _as_word(x)
        if w.order > self.N:
            raise CapacityError(
                f"coefficient map truncated at order {self.N}, asked for order {w.order}"
            )
        if w not in self._cache:
            self._cache[w] = Fraction(self._fn(w))
        return self._cache[w]

    def table(self, N: int | None = None) -> dict[PlanarForest, Fraction]:
        N = self.N if N is None else N
        out: dict[PlanarForest, Fraction] = {}
        for n in range(0, N + 1):
            for w in enumerate_forests(n, planar=True):
                out[w] = self(w)
        return out


def eta_mkw(N: int) -> LBCoeff:
    """Convolution unit: 1 on the empty word, 0 elsewhere."""
    return LBCoeff.from_table({EMPTY_WORD: 1}, N, kind="character")


def dot_lb(N: int) -> LBCoeff:
    """The single-vertex field, the identity for substitution."""
    return LBCoeff.from_table({DOT_WORD: 1}, N, kind="infinitesimal")


# ---------------------------------------------------------------------------
# Coproducts
# ---------------------------------------------------------------------------


def deconcat(omega: PlanarForest | PlanarTree) -> FormalSum:
    """Deconcatenation: all ways to split a word in two."""
    omega = _as_word(omega)
    w = omega.word
    return tensor_sum(
        (PlanarForest(w[:i]), PlanarForest(w[i:]), 1) for i in range(len(w) + 1)
    )


def _tree_cut_structures(
    tree: PlanarTree,
) -> list[tuple[tuple[PlanarForest, ...], PlanarTree]]:
    """Left admissible cut structures of a planar tree.

    Each structure is (pruned blocks, remaining tree). A block is the
    word of subtrees removed by one elementary cut (a prefix of some
    vertex's children); blocks from distinct cuts are kept separate so
    the caller can shuffle them. The no-cut structure ((), tree) is
    included; cutting above the root is not.
    """
    kids = tree.children
    out = []
    for i in range(0, len(kids) + 1):
        head: tuple[PlanarForest, ...]
        head = (PlanarForest(kids[:i]),) if i else ()
        per_child = [_tree_cut_structures(k) for k in kids[i:]]
        for combo in itertools.product(*per_child):
            blocks = head
            remaining = []
            for bl, rem in combo:
                blocks += bl
                remaining.append(rem)
            out.append((blocks, PlanarTree(remaining, tree.color)))
    return out


def _multi_shuffle(blocks: tuple[PlanarForest, ...]) -> FormalSum:
    out = FormalSum.term(EMPTY_WORD)
    for block in blocks:
        out = out.map_basis(lambda w: shuffle(w, block))
    return out


_MKW_CACHE: dict[PlanarForest, FormalSum] = {}


def delta_mkw(omega: PlanarForest | PlanarTree) -> FormalSum:
    """Planar-forest coproduct via left admissible cuts.

    The pruned parts land in the left slot, combined by shuffling one
    block per cut; the right slot keeps the rooted remainder.
    """
    omega = _as_word(omega)
    if not omega.word:
        return tensor_sum([(EMPTY_WORD, EMPTY_WORD, 1)])
    if omega in _MKW_CACHE:
        return _MKW_CACHE[omega]
    trees = omega.word
    terms = [(Tensor(omega, EMPTY_WORD), 1)]
    for i in range(0, len(trees)):
        head = (PlanarForest(trees[:i]),) if i else ()
        per_child = [_tree_cut_structures(t) for t in trees[i:]]
        for combo in itertools.product(*per_child):
            blocks = head
            remaining = []
            for bl, rem in combo:
                blocks += bl
                remaining.append(rem)
            if not blocks:
                if i == 0:
                    terms.append((Tensor(EMPTY_WORD, omega), 1))
                continue
            right = PlanarForest(remaining)
            terms.extend((Tensor(w, right), c) for w, c in _multi_shuffle(blocks))
    out = _MKW_CACHE[omega] = FormalSum(terms)
    return out


_MKW_REC_CACHE: dict[PlanarForest, FormalSum] = {}


def delta_mkw_recursive(omega: PlanarForest | PlanarTree) -> FormalSum:
    """The same coproduct through its defining recursion (second route)."""
    omega = _as_word(omega)
    if not omega.word:
        return tensor_sum([(EMPTY_WORD, EMPTY_WORD, 1)])
    if omega in _MKW_REC_CACHE:
        return _MKW_REC_CACHE[omega]
    body, last = PlanarForest(omega.word[:-1]), omega.word[-1]
    left_part = delta_mkw_recursive(body)
    lifted = delta_mkw_recursive(bminus(last)).map_basis(
        lambda t: Tensor(t.left, PlanarForest((bplus(t.right, last.color),)))
    )
    terms = [(Tensor(omega, EMPTY_WORD), 1)]
    for t1, c1 in left_part:
        for t2, c2 in lifted:
            right = t1.right * t2.right
            terms.extend((Tensor(w, right), c1 * c2 * c) for w, c in shuffle(t1.left, t2.left))
    out = _MKW_REC_CACHE[omega] = FormalSum(terms)
    return out


_S_MKW_CACHE: dict[PlanarForest, FormalSum] = {}


def antipode_mkw(omega: PlanarForest | PlanarTree) -> FormalSum:
    """Antipode for the planar coproduct (graded-connected recursion)."""
    omega = _as_word(omega)
    if not omega.word:
        return FormalSum.term(EMPTY_WORD)
    if omega in _S_MKW_CACHE:
        return _S_MKW_CACHE[omega]
    terms = [(omega, -1)]
    for t, c in delta_mkw(omega):
        if t.left.word and t.right.word:
            terms.extend((shuffle(w, t.right), -c * a) for w, a in antipode_mkw(t.left))
    out = _S_MKW_CACHE[omega] = FormalSum(terms)
    return out


def convolve_mkw(alpha: LBCoeff, beta: LBCoeff, N: int) -> LBCoeff:
    """Convolution against the planar coproduct (series composition)."""
    if alpha.N < N or beta.N < N:
        raise DomainError(
            f"convolution to order {N} needs both maps at that order "
            f"(got {alpha.N} and {beta.N})"
        )

    def fn(w: PlanarForest) -> Fraction:
        return sum(
            (c * alpha(t.left) * beta(t.right) for t, c in delta_mkw(w)),
            Fraction(0),
        )

    kind = "character" if alpha.kind == beta.kind == "character" else "plain"
    return LBCoeff(kind, N, fn)


# ---------------------------------------------------------------------------
# Non-commutative Bell polynomials and the Faa di Bruno coproduct
# ---------------------------------------------------------------------------


class BellWord:
    """A word in the letters d_i, graded by the sum of the indices."""

    __slots__ = ("word", "grade", "serial", "_hash")

    def __init__(self, word: Iterable[int] = ()):
        w = tuple(int(i) for i in word)
        if any(i < 1 for i in w):
            raise DomainError("Bell letters are indexed from 1")
        self.word = w
        self.grade = sum(w)
        self.serial = ".".join(f"d{i}" for i in w) if w else "1"
        self._hash = hash(w)

    def __mul__(self, other: "BellWord") -> "BellWord":
        return BellWord(self.word + other.word)

    def __len__(self) -> int:
        return len(self.word)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BellWord):
            return self.word == other.word
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"BellWord({self.serial!r})"


def _bell_derive(x: FormalSum) -> FormalSum:
    """The derivation sending d_i to d_{i+1}, extended by Leibniz."""
    return FormalSum(
        (BellWord(w.word[:pos] + (w.word[pos] + 1,) + w.word[pos + 1 :]), c)
        for w, c in x
        for pos in range(len(w.word))
    )


_BELL_CACHE: list[FormalSum] = [FormalSum.term(BellWord())]


def bell(n: int) -> FormalSum:
    """The n-th non-commutative Bell polynomial."""
    if n < 0:
        raise DomainError("Bell polynomials are indexed from 0")
    while len(_BELL_CACHE) <= n:
        prev = _BELL_CACHE[-1]
        step = prev.map_basis(lambda w: BellWord((1,) + w.word)) + _bell_derive(prev)
        _BELL_CACHE.append(step)
    return _BELL_CACHE[n]


def bell_partial(n: int, k: int) -> FormalSum:
    """The length-k part of the n-th Bell polynomial."""
    if n < 1 or not 1 <= k <= n:
        raise DomainError(f"bell_partial needs 1 <= k <= n, got n={n}, k={k}")
    return bell(n).filter(lambda w: len(w) == k)


def _fdb_prepend(x: FormalSum) -> FormalSum:
    return x.map_basis(lambda w: BellWord((1,) + w.word))


def _fdb_prepend_tensor(x: FormalSum) -> FormalSum:
    return x.map_basis(
        lambda t: Tensor(BellWord((1,) + t.left.word), BellWord((1,) + t.right.word))
    )


def _fdb_derive_tensor(x: FormalSum) -> FormalSum:
    terms = []
    for t, c in x:
        terms.extend((Tensor(u, t.right), c * a) for u, a in _bell_derive(FormalSum.term(t.left)))
        lifted = BellWord((1,) + t.left.word)
        terms.extend((Tensor(lifted, v), c * a) for v, a in _bell_derive(FormalSum.term(t.right)))
    return FormalSum(terms)


def _fdb_words(n: int) -> list[BellWord]:
    out: list[BellWord] = []

    def rec(prefix: list[int], rem: int) -> None:
        if rem == 0:
            out.append(BellWord(prefix))
            return
        for first in range(1, rem + 1):
            rec(prefix + [first], rem - first)

    rec([], n)
    return out


def _invert_rational(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    size = len(matrix)
    aug = [
        row[:] + [Fraction(1 if i == j else 0) for j in range(size)]
        for i, row in enumerate(matrix)
    ]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            raise BflowError("operator words failed to span a Bell grade")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        head = aug[col][col]
        aug[col] = [entry / head for entry in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


_FDB_CACHE: dict[BellWord, FormalSum] = {
    BellWord(): FormalSum.term(Tensor(BellWord(), BellWord()))
}


def _fdb_fill_grade(n: int) -> None:
    """Compute the coproduct of every grade-n word at once.

    Each word is expanded over the images P(prepend, derive) d_1 with P
    ranging over the 2^(n-1) operator words, and the same P is replayed
    on d_1 (x) d_1 with the moves prepend -> prepend (x) prepend and
    derive -> derive (x) id + prepend (x) derive.
    """
    words = _fdb_words(n)
    index = {w: i for i, w in enumerate(words)}
    size = len(words)
    columns: list[list[Fraction]] = [[Fraction(0)] * size for _ in range(size)]
    tensors: list[FormalSum] = []
    for r, ops in enumerate(itertools.product((0, 1), repeat=n - 1)):
        image = FormalSum.term(BellWord((1,)))
        replay = FormalSum.term(Tensor(BellWord((1,)), BellWord((1,))))
        for op in reversed(ops):
            if op == 0:
                image = _fdb_prepend(image)
                replay = _fdb_prepend_tensor(replay)
            else:
                image = _bell_derive(image)
                replay = _fdb_derive_tensor(replay)
        for w, c in image:
            columns[index[w]][r] = c
        tensors.append(replay)
    inverse = _invert_rational(columns)
    for w, j in index.items():
        _FDB_CACHE[w] = FormalSum((tensors[r], inverse[r][j]) for r in range(size))


def fdb_coproduct(x: BellWord | FormalSum) -> FormalSum:
    """Faa di Bruno coproduct on Bell words.

    The letter d_1 is group-like and the raising derivation d_i -> d_{i+1}
    passes across the coproduct as derive (x) id + prepend (x) derive,
    while prepending d_1 passes as prepend (x) prepend.  Those two rules
    propagate Delta from d_1 (x) d_1 to every word, and on the letters
    they reproduce Delta(d_n) = sum_k B_{n,k} (x) d_k.  The result is
    coassociative; it is not the termwise product of the letter rows,
    from which it first differs at d_3.d_1.
    """
    if isinstance(x, FormalSum):
        return x.map_basis(fdb_coproduct)
    if x not in _FDB_CACHE:
        _fdb_fill_grade(x.grade)
    return _FDB_CACHE[x]


# ---------------------------------------------------------------------------
# Endomorphism calculus and flow-representation conversions
# ---------------------------------------------------------------------------


def _convolution_series(x, coeffs: list[Fraction], kind: str, N: int) -> LBCoeff:
    """w -> sum_k coeffs[k] x^{*k}(w) under the planar convolution, x^{*0} the unit.

    x is read only on nonempty words, as if it vanished on the empty word,
    so x^{*k} vanishes below order k and x^{*k}(w) = sum c x^{*(k-1)}(left)
    x(right) over the terms of delta_mkw(w) with both sides nonempty. The
    memo of powers belongs to the returned map.
    """
    memo: dict[tuple[int, PlanarForest], Fraction] = {}

    def power(k: int, w: PlanarForest) -> Fraction:
        if k == 1:
            return x(w)
        if (k, w) not in memo:
            total = Fraction(0)
            for t, c in delta_mkw(w):
                if t.left.order >= k - 1 and t.right.word:
                    total += c * power(k - 1, t.left) * x(t.right)
            memo[k, w] = total
        return memo[k, w]

    def fn(w: PlanarForest) -> Fraction:
        if not w.word:
            return coeffs[0]
        return sum((coeffs[k] * power(k, w) for k in range(1, w.order + 1)), Fraction(0))

    return LBCoeff(kind, N, fn)


def eulerian_idempotent(w: PlanarForest | PlanarTree) -> FormalSum:
    """log of the identity under convolution, at a basis word: the sum of
    (-1)^(k+1)/k J^{*k}(w), J = Id - unit counit, expanded word by word
    with a memo local to the call. eulerian_apply reaches the same values
    without expanding the idempotent."""
    w = _as_word(w)
    memo: dict[tuple[int, PlanarForest], FormalSum] = {}

    def power(k: int, u: PlanarForest) -> FormalSum:
        if k == 1:
            return FormalSum.term(u)
        if (k, u) not in memo:
            memo[k, u] = FormalSum(
                (shuffle(v, t.right), c * a)
                for t, c in delta_mkw(u)
                if t.left.word and t.right.word
                for v, a in power(k - 1, t.left)
            )
        return memo[k, u]

    return FormalSum(
        (power(k, w), Fraction((-1) ** (k + 1), k)) for k in range(1, w.order + 1)
    )


def eulerian_apply(alpha: LBCoeff, N: int) -> LBCoeff:
    """Backward-error form of a flow character: compose with the
    eulerian idempotent. The result vanishes on the empty word and on
    shuffles of nonempty words.

    For a character this is the convolution logarithm
    log*(alpha) = sum_{k>=1} (-1)^(k+1)/k (alpha - eta)^{*k}.
    """
    if alpha.kind != "character":
        raise DomainError("the eulerian logarithm is defined for characters")
    if alpha.N < N:
        raise DomainError(f"character truncated at {alpha.N}, need {N}")
    coeffs = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, N + 1)]
    return _convolution_series(alpha, coeffs, "infinitesimal", N)


def gl_exp(beta: LBCoeff, N: int) -> LBCoeff:
    """Exponential of a field along the Grossman-Larson pairing: the
    convolution exponential exp*(beta) = sum_{k>=0} beta^{*k} / k!.
    Inverse of eulerian_apply."""
    if beta(EMPTY_WORD) != 0:
        raise DomainError("gl_exp needs a field: beta(1) must be 0")
    if beta.N < N:
        raise DomainError(f"field truncated at {beta.N}, need {N}")
    coeffs = [Fraction(1, math.factorial(k)) for k in range(N + 1)]
    return _convolution_series(beta, coeffs, "character", N)


def dynkin_map(w: PlanarForest | PlanarTree) -> FormalSum:
    """The Dynkin convolution S * Y on the shuffle algebra of words:
    sum over deconcatenations of shuffle(sign-reversed prefix, graded
    suffix)."""
    parts = _as_word(w).word
    terms = []
    for i in range(len(parts)):
        right = PlanarForest(parts[i:])
        terms.append((shuffle(PlanarForest(parts[:i][::-1]), right), (-1) ** i * right.order))
    return FormalSum(terms)


def dynkin_apply(alpha: LBCoeff, N: int) -> LBCoeff:
    """Lie form of a flow character: apply the graded Dynkin map.

    The grade-0 component is set to 0.
    """
    if alpha.kind != "character":
        raise DomainError("the Dynkin form is defined for characters")
    if alpha.N < N:
        raise DomainError(f"character truncated at {alpha.N}, need {N}")

    def fn(w: PlanarForest) -> Fraction:
        if not w.word:
            return Fraction(0)
        return alpha(dynkin_map(w)) / w.order

    return LBCoeff("infinitesimal", N, fn)


def kappa(grades: tuple[int, ...]) -> Fraction:
    """The block weight: product of grades over product of partial sums."""
    num = 1
    den = 1
    run = 0
    for j in grades:
        num *= j
        run += j
        den *= run
    return Fraction(num, den)


def q_apply(gamma: LBCoeff, N: int) -> LBCoeff:
    """Flow character of a Lie element: weighted sum over all splittings
    of a word into consecutive nonempty blocks. Inverse of dynkin_apply."""
    if gamma.N < N:
        raise DomainError(f"series truncated at {gamma.N}, need {N}")

    def fn(w: PlanarForest) -> Fraction:
        if not w.word:
            return Fraction(1)
        total = Fraction(0)
        for blocks in _compositions(w.word):
            value = kappa(tuple(b.order for b in blocks))
            for b in blocks:
                value *= gamma(b)
                if not value:
                    break
            total += value
        return total

    return LBCoeff("character", N, fn)


def _compositions(parts: tuple) -> Iterable[list[PlanarForest]]:
    if not parts:
        yield []
        return
    for i in range(1, len(parts) + 1):
        head = PlanarForest(parts[:i])
        for rest in _compositions(parts[i:]):
            yield [head] + rest


# ---------------------------------------------------------------------------
# The exact flow and method series
# ---------------------------------------------------------------------------


def exact_flow_lb(N: int) -> LBCoeff:
    """Lie form of the exact flow, from its fixed point: the value on
    B+(w) is the flow-character value on w divided by the new order.
    Supported on single trees."""
    if N < 1:
        raise DomainError("need N >= 1")
    values: dict[PlanarForest, Fraction] = {}

    def gamma_fn(w: PlanarForest) -> Fraction:
        return values.get(w, Fraction(0))

    gamma = LBCoeff("infinitesimal", N, gamma_fn)
    for n in range(1, N + 1):
        q = q_apply(gamma, n - 1) if n > 1 else None
        for w in enumerate_forests(n - 1, planar=True):
            target = PlanarForest((bplus(w),))
            values[target] = (q(w) if q else Fraction(1)) / n
    return LBCoeff.from_table(values, N, kind="infinitesimal")


def _sigma_midpoint(N: int) -> dict[PlanarForest, Fraction]:
    """Grade-by-grade solve of the midpoint fixed point: sigma equals
    the half-step frozen exponential of sigma grafted onto the field,
    i.e. sum over j of B+(sigma^j) / (2^j j!), concatenation powers."""
    values: dict[PlanarForest, Fraction] = {}
    for n in range(1, N + 1):
        # concatenation powers of the truncated sigma, grade n - 1 part
        total: dict[PlanarForest, Fraction] = {}
        layer = {EMPTY_WORD: Fraction(1)}
        fact = 1
        for j in range(0, n):
            if j:
                fact *= j
                new_layer: dict[PlanarForest, Fraction] = {}
                for w, c in layer.items():
                    for t, v in values.items():
                        u = w * t
                        if u.order <= n - 1:
                            new_layer[u] = new_layer.get(u, Fraction(0)) + c * v
                layer = new_layer
            scale = Fraction(1, 2**j * fact)
            for w, c in layer.items():
                if w.order == n - 1:
                    target = PlanarForest((bplus(w),))
                    total[target] = total.get(target, Fraction(0)) + scale * c
        values.update(total)
    return values


def _conc_exp_character(values: Mapping[PlanarForest, Fraction], N: int) -> LBCoeff:
    """Flow character of a frozen Lie-algebra element supported on
    trees: the value on a word is the product over its letters divided
    by the factorial of the length."""

    def fn(w: PlanarForest) -> Fraction:
        out = Fraction(1)
        for tree in w.word:
            out *= values.get(PlanarForest((tree,)), Fraction(0))
            if not out:
                return out
        fact = 1
        for k in range(2, len(w.word) + 1):
            fact *= k
        return out / fact

    return LBCoeff("character", N, fn)


def method_series(method: str, representation: str, N: int) -> LBCoeff:
    """Series data of the two worked methods.

    exponential_euler: type1 is the flow character exp of the single
    vertex; type3 is the single-vertex field itself. lie_implicit_midpoint:
    type1 is the defining stage series sigma (an infinitesimal supported
    on trees); type3 is the Dynkin form of its frozen flow character.
    """
    if representation not in ("type1", "type3"):
        raise DomainError(f"unknown representation {representation!r}")
    if method == "exponential_euler":
        if representation == "type3":
            return dot_lb(N)
        return _conc_exp_character({DOT_WORD: Fraction(1)}, N)
    if method == "lie_implicit_midpoint":
        sigma = _sigma_midpoint(N)
        if representation == "type1":
            return LBCoeff.from_table(sigma, N, kind="infinitesimal")
        return dynkin_apply(_conc_exp_character(sigma, N), N)
    raise DomainError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


_ASTAR_CACHES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _inner_cut_structures(word: PlanarForest):
    """Cut structures of B+(word) with no cut at the added root."""
    per_child = [_tree_cut_structures(t) for t in word.word]
    for combo in itertools.product(*per_child):
        blocks: tuple[PlanarForest, ...] = ()
        remaining = []
        for bl, rem in combo:
            blocks += bl
            remaining.append(rem)
        yield blocks, PlanarForest(remaining)


def lb_substitution_character(alpha, omega: PlanarForest | PlanarTree) -> FormalSum:
    """The dual substitution map: expand a word in terms of the words
    whose substituted series hit it.

    alpha is the coefficient map of the series replacing the vertex (an
    LBCoeff or a callable on words). The result is a formal sum of
    planar forests; pairing a series beta against it substitutes alpha
    into beta.
    """
    omega = _as_word(omega)
    try:
        memo = _ASTAR_CACHES.setdefault(alpha, {})
    except TypeError:
        memo = {}
    return _astar(alpha, omega, memo)


def _astar(alpha, omega: PlanarForest, memo: dict) -> FormalSum:
    if not omega.word:
        return FormalSum.term(EMPTY_WORD)
    if omega in memo:
        return memo[omega]
    terms = []
    parts = omega.word
    for i in range(len(parts)):
        w1 = PlanarForest(parts[:i])
        w2 = PlanarForest(parts[i:])
        left = _astar(alpha, w1, memo)
        for blocks, rest in _inner_cut_structures(w2):
            weight = alpha(rest)
            if not weight:
                continue
            pruned = _multi_shuffle(blocks)
            for p, c in pruned:
                grafted = _astar(alpha, p, memo).map_basis(
                    lambda u: PlanarForest((bplus(u),))
                )
                terms.append((concat(left, grafted), c * weight))
    out = memo[omega] = FormalSum(terms)
    return out


def lb_substitute(alpha, beta: LBCoeff, N: int) -> LBCoeff:
    """Substitute the field alpha into the series beta (coefficientwise)."""
    if isinstance(alpha, LBCoeff) and alpha(EMPTY_WORD) != 0:
        raise DomainError("substitution needs a field: alpha(1) must be 0")
    if beta.N < N:
        raise DomainError(f"series truncated at {beta.N}, need {N}")

    def fn(w: PlanarForest) -> Fraction:
        return beta(lb_substitution_character(alpha, w))

    return LBCoeff(beta.kind, N, fn)
