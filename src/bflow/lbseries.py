"""The planar-forest Hopf algebra and flow representations for Lie-Butcher series.

The algebra here has three layers. The Hopf algebra of planar forests
carries the shuffle product and a coproduct built from left admissible
cuts; its convolution composes Lie-Butcher series. The coefficient-map
base, the convolution and its exp/log series are those of ``hopf``,
shared with B-series and read here against this coproduct.
Non-commutative Bell polynomials and the Faa di Bruno coproduct describe
how derivatives of a flow pull back. On top sit the conversions between the
three standard presentations of a flow map: the full series (a shuffle
character), the backward-error field (the eulerian logarithm), and the
Lie element whose exponential is the flow (Dynkin form), together with
the substitution law for replacing the vector field by a series.

Both coproducts are built by cached recursion. Their coefficients are
integers: each recursion step adds them as ints, read off the cached
sums of smaller elements, and wraps the result with ``hopf.wrap_rows``,
one shared Fraction per distinct multiplicity.
The planar (MKW) coproduct recurses over the last tree of a word,
Delta(omega t) = omega t (x) 1 + Delta(omega) * Delta'(t) with
Delta'(t) = (id (x) B+) Delta(B-(t)), where * shuffles the left slots and
concatenates the right ones; the antipode and the substitution law read
the same memo. The Faa di Bruno coproduct recurses on the first letter
of a Bell word: d_1 passes as prepend (x) prepend, and
d_a u = D(d_{a-1} u) - d_{a-1} D(u) reduces d_a to d_{a-1}.

The substitution law, the Dynkin map and the Q (block-composition) map
are fixed integer structures on a word, paired with a map's values. Each
is a table of integer rows over words (``_astar_rows``, ``_dynkin_rows``,
``_q_rows``), built once per word and shared by every map, so a new map
pays only its own sums: one ``exact_sum`` per value.

Every module-wide memo is a cached function (``functools.cache``).
``delta_mkw``, ``antipode_mkw`` and ``bell`` check their argument and
call one, which the recursions call directly. Words are PlanarForest
values and Bell words ``BellWord``s, each built once by its constructor
and shared, so the caches compare and hash them by identity. A cache may
be emptied (``cache_clear``) at any time; an intern table never is.
Coefficients are exact rationals.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .algebra import FormalSum, Tensor, tensor_sum
from .errors import DomainError
from .forest_core import (
    _SERIAL,
    EMPTY_WORD,
    PlanarForest,
    PlanarTree,
    _as_word,
    _shuffle,
    enumerate_forests,
    shuffle,
)
from .hopf import Coeff, convolution_exp, convolution_log, convolve, exact_sum, wrap_rows

PDOT = PlanarTree()
DOT_WORD = PlanarForest((PDOT,))


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


@functools.cache
def _mkw_lifted(tree: PlanarTree) -> tuple[tuple[PlanarForest, PlanarForest, int], ...]:
    """Delta'(t) = (id (x) B+) Delta(B-(t)), B+ with the colour of t, as
    (left, right, multiplicity) triples."""
    return tuple(
        (left, PlanarForest((PlanarTree(right.word, tree.color),)), c.numerator)
        for (left, right), c in _delta_mkw(PlanarForest(tree.children))
    )


def delta_mkw(omega: PlanarForest | PlanarTree) -> FormalSum:
    """Planar-forest coproduct via left admissible cuts.

    The pruned parts land in the left slot, combined by shuffling one
    block per cut; the right slot keeps the rooted remainder. Built by
    recursion over the last tree, Delta(omega t) = omega t (x) 1 +
    Delta(omega) * Delta'(t) with Delta'(t) = (id (x) B+) Delta(B-(t)),
    where * shuffles the left slots and concatenates the right ones
    (Munthe-Kaas & Wright 2008). The multiplicities are integers, so the
    recursion adds them as ints, reading the cached sums' numerators.
    """
    return _delta_mkw(_as_word(omega))


@functools.cache
def _delta_mkw(omega: PlanarForest) -> FormalSum:
    if not omega.word:
        return wrap_rows({Tensor(EMPTY_WORD, EMPTY_WORD): 1})
    acc = {(omega, EMPTY_WORD): 1}
    lifted = _mkw_lifted(omega.word[-1])
    for (l1, r1), c1 in _delta_mkw(PlanarForest(omega.word[:-1])):
        c1 = c1.numerator
        for l2, r2, c2 in lifted:
            right = r1 * r2
            for left, m in _shuffle(l1, l2):
                key = (left, right)
                acc[key] = acc.get(key, 0) + c1 * c2 * m.numerator
    return wrap_rows({Tensor(l, r): c for (l, r), c in acc.items()})


def antipode_mkw(omega: PlanarForest | PlanarTree) -> FormalSum:
    """Antipode for the planar coproduct (graded-connected recursion):
    S(omega) = -omega - sum c S(l) sh r over the terms c l (x) r of
    Delta(omega) with both sides nonempty, on integer coefficients."""
    return _antipode_mkw(_as_word(omega))


@functools.cache
def _antipode_mkw(omega: PlanarForest) -> FormalSum:
    if not omega.word:
        return wrap_rows({EMPTY_WORD: 1})
    acc = {omega: -1}
    for t, c in _delta_mkw(omega):
        if t.left.word and t.right.word:
            for u, a in _antipode_mkw(t.left):
                ca = c.numerator * a.numerator
                for w, m in _shuffle(u, t.right):
                    acc[w] = acc.get(w, 0) - ca * m.numerator
    return wrap_rows(acc)


# ---------------------------------------------------------------------------
# Coefficient maps
# ---------------------------------------------------------------------------


class LBCoeff(Coeff):
    """A truncated rational coefficient map on planar forests.

    Unlike the non-planar case, a shuffle character is not determined by
    its tree values alone, so values are stored per word. The kind flag
    records what the map is claimed to be: ``character`` (1 on the empty
    word, multiplicative over shuffles), ``infinitesimal`` (0 on the
    empty word, vanishing on shuffles of nonempty words), or ``plain``.
    """

    __slots__ = ()
    basis = PlanarForest
    coproduct = staticmethod(_delta_mkw)

    @classmethod
    def from_table(cls, values: Mapping, N: int, kind: str = "plain") -> "LBCoeff":
        """Word values, missing means 0. A ``character`` table is checked
        once, here: it must be 1 on the empty word and shuffle
        multiplicative on the words up to order N, else DomainError."""
        table = {_as_word(k): Fraction(v) for k, v in values.items()}
        value = lambda w: table.get(w, Fraction(0))
        if kind == "character":
            table.setdefault(EMPTY_WORD, Fraction(1))
            _check_kind(value, kind, N)
        return cls(kind, N, value)

    @classmethod
    def from_function(cls, fn, N: int, kind: str = "plain") -> "LBCoeff":
        return cls(kind, N, fn)

    def _kind_value(self, x) -> Fraction:
        # values are stored per word, so the kind rule is the word value
        value = self._cache.get(x)
        return self._cached(_as_word(x)) if value is None else value

    def validate(self) -> None:
        """Check the claimed kind on the words up to the truncation order,
        raising DomainError at the first failure. A ``character`` must be
        1 on the empty word and shuffle multiplicative, an
        ``infinitesimal`` 0 on the empty word and on shuffles of nonempty
        words; ``plain`` claims nothing. No constructor calls this."""
        if self.kind != "plain":
            _check_kind(self, self.kind, self.N)


def _check_kind(value: Callable[[PlanarForest], Fraction], kind: str, N: int) -> None:
    """Raise DomainError at the first word pair that breaks the kind: the
    value on the empty word, then nonempty words u <= v (in enumeration
    order) with |u| + |v| <= N where alpha(u sh v) differs from
    alpha(u) alpha(v) for a character, or from 0 for an infinitesimal."""
    character = kind == "character"
    unit = 1 if character else 0
    if value(EMPTY_WORD) != unit:
        raise DomainError(f"{kind} must be {unit} on the empty word, got {value(EMPTY_WORD)}")
    words = [w for n in range(1, N) for w in enumerate_forests(n, planar=True)]
    for i, u in enumerate(words):
        for v in words[i:]:
            if u.order + v.order > N:
                break
            lhs = value(u) * value(v) if character else 0
            rhs = sum((c * value(w) for w, c in _shuffle(u, v)), Fraction(0))
            if lhs != rhs:
                raise DomainError(
                    f"not a shuffle {kind}: alpha of the shuffle of {u.serial} and "
                    f"{v.serial} is {rhs}, want {lhs}"
                )


def eta_mkw(N: int) -> LBCoeff:
    """Convolution unit: 1 on the empty word, 0 elsewhere."""
    return LBCoeff.from_table({EMPTY_WORD: 1}, N, kind="character")


def dot_lb(N: int) -> LBCoeff:
    """The single-vertex field, the identity for substitution."""
    return LBCoeff.from_table({DOT_WORD: 1}, N, kind="infinitesimal")


# Convolution against the planar coproduct (series composition).
convolve_mkw = convolve


# ---------------------------------------------------------------------------
# Non-commutative Bell polynomials and the Faa di Bruno coproduct
# ---------------------------------------------------------------------------


class BellWord:
    """A word in the letters d_i, graded by the sum of the indices.

    Bell words are interned as trees are (``forest_core._Basis``): the
    constructor looks the letter tuple up in ``_interned`` and checks and
    builds a word only on a miss, so equality and hashing are identity,
    and pickling and copying rebuild through the constructor."""

    __slots__ = ("word", "grade", "serial")
    _interned: dict = {}

    def __new__(cls, word: Iterable[int] = ()):
        w = tuple(word)
        out = cls._interned.get(w)
        if out is None:
            w = tuple(int(i) for i in w)
            if any(i < 1 for i in w):
                raise DomainError("Bell letters are indexed from 1")
            out = cls._interned.get(w)
        if out is None:
            out = object.__new__(cls)
            out.word = w
            out.grade = sum(w)
            out.serial = ".".join(f"d{i}" for i in w) if w else "1"
            # setdefault keeps the object another thread may have stored
            out = cls._interned.setdefault(w, out)
        return out

    def __reduce__(self):
        return BellWord, (self.word,)

    def __mul__(self, other: "BellWord") -> "BellWord":
        return BellWord(self.word + other.word)

    def __len__(self) -> int:
        return len(self.word)

    def __repr__(self) -> str:
        return f"BellWord({self.serial!r})"


def _raised(word: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
    """The terms of the raising derivation D at a word, one per letter."""
    return (word[:pos] + (word[pos] + 1,) + word[pos + 1 :] for pos in range(len(word)))


def _bell_derive(x: FormalSum) -> FormalSum:
    """The derivation sending d_i to d_{i+1}, extended by Leibniz."""
    return FormalSum((BellWord(u), c) for w, c in x for u in _raised(w.word))


def bell(n: int) -> FormalSum:
    """The n-th non-commutative Bell polynomial."""
    if n < 0:
        raise DomainError("Bell polynomials are indexed from 0")
    return _bell(n)


@functools.cache
def _bell(n: int) -> FormalSum:
    if not n:
        return FormalSum.term(BellWord())
    prev = _bell(n - 1)
    return prev.map_basis(lambda w: BellWord((1,) + w.word)) + _bell_derive(prev)


def bell_partial(n: int, k: int) -> FormalSum:
    """The length-k part of the n-th Bell polynomial."""
    if n < 1 or not 1 <= k <= n:
        raise DomainError(f"bell_partial needs 1 <= k <= n, got n={n}, k={k}")
    return bell(n).filter(lambda w: len(w) == k)


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


def fdb_coproduct(x: BellWord | FormalSum) -> FormalSum:
    """Faa di Bruno coproduct on Bell words.

    The letter d_1 is group-like and the raising derivation d_i -> d_{i+1}
    passes across the coproduct as D~ = derive (x) id + prepend (x) derive,
    while prepending d_1 passes as prepend (x) prepend.  Those two rules
    propagate Delta from d_1 (x) d_1 to every word, and on the letters
    they reproduce Delta(d_n) = sum_k B_{n,k} (x) d_k.  The result is
    coassociative; it is not the termwise product of the letter rows,
    from which it first differs at d_3.d_1.

    Built by recursion on the first letter: Delta(d_1 u) = (prepend (x)
    prepend) Delta(u), and for a > 1, from d_a u = D(d_{a-1} u) -
    d_{a-1} D(u), Delta(d_a u) = D~ Delta(d_{a-1} u) - sum Delta(d_{a-1} v)
    over the terms v of D(u). Every word on the right has a lower grade,
    or the same grade and a smaller first letter.
    """
    if isinstance(x, FormalSum):
        return x.map_basis(fdb_coproduct)
    return _fdb(x.word)


@functools.cache
def _fdb(word: tuple[int, ...]) -> FormalSum:
    """The recursion of fdb_coproduct on letter tuples, cached; the
    coefficients are integers and are added as ints."""
    if not word:
        return wrap_rows({Tensor(BellWord(), BellWord()): 1})
    a, rest = word[0], word[1:]
    acc: dict = {}
    if a == 1:
        for t, c in _fdb(rest):
            acc[(1,) + t.left.word, (1,) + t.right.word] = c.numerator
    else:
        for t, c in _fdb((a - 1,) + rest):
            l, r, c = t.left.word, t.right.word, c.numerator
            for u in _raised(l):
                acc[u, r] = acc.get((u, r), 0) + c
            for v in _raised(r):
                acc[(1,) + l, v] = acc.get(((1,) + l, v), 0) + c
        for v in _raised(rest):
            for t, c in _fdb((a - 1,) + v):
                key = t.left.word, t.right.word
                acc[key] = acc.get(key, 0) - c.numerator
    return wrap_rows({Tensor(BellWord(l), BellWord(r)): c for (l, r), c in acc.items() if c})


# ---------------------------------------------------------------------------
# Endomorphism calculus and flow-representation conversions
# ---------------------------------------------------------------------------


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
    log*(alpha) = sum_{k>=1} (-1)^(k+1)/k (alpha - eta)^{*k};
    DomainError unless alpha is a character.
    """
    return convolution_log(alpha, N)


def gl_exp(beta: LBCoeff, N: int) -> LBCoeff:
    """Exponential of a field along the Grossman-Larson pairing: the
    convolution exponential exp*(beta) = sum_{k>=0} beta^{*k} / k!.
    Inverse of eulerian_apply."""
    return convolution_exp(beta, N)


def dynkin_map(w: PlanarForest | PlanarTree) -> FormalSum:
    """The Dynkin convolution S * Y on the shuffle algebra of words:
    sum over deconcatenations of shuffle(sign-reversed prefix, graded
    suffix). Read off the memoised rows of ``_dynkin_rows``."""
    return FormalSum(_dynkin_rows(_as_word(w)))


@functools.cache
def _dynkin_rows(w: PlanarForest) -> tuple:
    """dynkin_map(w) as (word, int multiplicity) rows, built once per
    word."""
    parts = w.word
    acc: dict[PlanarForest, int] = {}
    for i in range(len(parts)):
        right = PlanarForest(parts[i:])
        sign = (-1) ** i * right.order
        for u, m in _shuffle(PlanarForest(parts[:i][::-1]), right):
            acc[u] = acc.get(u, 0) + sign * m.numerator
    return tuple((u, c) for u, c in acc.items() if c)


def dynkin_apply(alpha: LBCoeff, N: int) -> LBCoeff:
    """Lie form of a flow character: apply the graded Dynkin map, alpha
    paired with the memoised integer rows of dynkin_map(w) and divided by
    the order of w, one ``exact_sum`` per value.

    The grade-0 component is set to 0.
    """
    if alpha.kind != "character":
        raise DomainError("the Dynkin form is defined for characters")
    if alpha.N < N:
        raise DomainError(f"character truncated at {alpha.N}, need {N}")
    value = alpha._kind_value

    def fn(w: PlanarForest) -> Fraction:
        if not w.word:
            return Fraction(0)
        return exact_sum(((c, (value(u),)) for u, c in _dynkin_rows(w)), w.order)

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
    of a word into consecutive nonempty blocks, kappa of the block grades
    times the product of gamma over the blocks. The splittings and their
    weights are memoised integer rows over one denominator per word, so
    each value is one ``exact_sum``. Inverse of dynkin_apply."""
    if gamma.N < N:
        raise DomainError(f"series truncated at {gamma.N}, need {N}")

    def fn(w: PlanarForest) -> Fraction:
        if not w.word:
            return Fraction(1)
        den, rows = _q_rows(w)
        return exact_sum(_products(gamma, rows), den)

    return LBCoeff("character", N, fn)


@functools.cache
def _q_rows(w: PlanarForest) -> tuple[int, tuple]:
    """The splittings of a nonempty word into consecutive blocks as (den,
    rows): each row (c, blocks) has c / den the kappa of the block grades,
    den the lcm of the kappa denominators. Built once per word."""
    splits = [(kappa(tuple(b.order for b in blocks)), blocks) for blocks in _compositions(w.word)]
    den = math.lcm(*(k.denominator for k, _ in splits))
    return den, tuple((k.numerator * (den // k.denominator), blocks) for k, blocks in splits)


def _compositions(parts: tuple) -> Iterable[tuple[PlanarForest, ...]]:
    if not parts:
        yield ()
        return
    for i in range(1, len(parts) + 1):
        head = PlanarForest(parts[:i])
        for rest in _compositions(parts[i:]):
            yield (head,) + rest


def _products(value: Callable, rows: Iterable) -> Iterable[tuple[int, list]]:
    """(c, the values of the words) for each row (c, words), leaving out a
    row at its first word of value 0."""
    for c, words in rows:
        factors = []
        for u in words:
            v = value(u)
            if not v:
                break
            factors.append(v)
        else:
            yield c, factors


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
            target = PlanarForest((PlanarTree(w.word),))
            values[target] = (q(w) if q else Fraction(1)) / n
    return LBCoeff.from_table(values, N, kind="infinitesimal")


def _word_value(letters: Mapping[PlanarTree, Fraction], word) -> Fraction:
    """The concatenation exponential of a frozen element with the given
    letter values, on a word: the product over its letters divided by the
    factorial of its length."""
    out = Fraction(1)
    for tree in word:
        out *= letters.get(tree, Fraction(0))
        if not out:
            return out
    return out / math.factorial(len(word))


def _sigma_midpoint(N: int) -> dict[PlanarForest, Fraction]:
    """The midpoint stage series: sigma is the field grafted onto the
    half-step frozen exponential of sigma, so its value on B+(w) is the
    concatenation exponential of sigma/2 on w. Solved order by order, since
    the letters of w have lower order than B+(w)."""
    values: dict[PlanarForest, Fraction] = {}
    halves: dict[PlanarTree, Fraction] = {}
    for n in range(N):
        for w in enumerate_forests(n, planar=True):
            tree = PlanarTree(w.word)
            value = _word_value(halves, w.word)
            values[PlanarForest((tree,))] = value
            halves[tree] = value / 2
    return values


def _conc_exp_character(values: Mapping[PlanarForest, Fraction], N: int) -> LBCoeff:
    """Flow character of a frozen Lie-algebra element supported on
    trees, the concatenation exponential of its letter values."""
    letters = {w.word[0]: v for w, v in values.items() if len(w.word) == 1}
    return LBCoeff("character", N, lambda w: _word_value(letters, w.word))


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


def lb_substitution_character(alpha, omega: PlanarForest | PlanarTree) -> FormalSum:
    """The dual substitution map: expand a word in terms of the words
    whose substituted series hit it.

    alpha is the coefficient map of the series replacing the vertex (an
    LBCoeff or a callable on words). The result is a formal sum of
    planar forests; pairing a series beta against it substitutes alpha
    into beta. The structure is the memoised integer rows of the word
    (``_astar_rows``); alpha enters only through their sums.
    """
    return FormalSum(
        (u, exact_sum(_products(alpha, weights))) for u, weights in _astar_rows(_as_word(omega))
    )


@functools.cache
def _astar_rows(omega: PlanarForest) -> tuple:
    """The image of omega under substitution with the alpha values left
    symbolic, as rows (u, weights), weights = ((c, rests), ...): the
    coefficient of the word u is the sum over the weights of the int c
    times the product of alpha over the rest words.

    Over the splits omega = w1 w2 (w2 nonempty) and the terms
    c pruned (x) rest of the product of Delta'(t) over the trees of w2:
    c alpha(rest) times A(w1) concatenated with B+ of A(pruned). Unrolled,
    Delta(t1..tk) = sum_i (t1..ti (x) 1) * Delta'(t_{i+1}) ... Delta'(t_k),
    and each Delta' puts one tree on the right, so that product is the
    part of Delta(w2) whose right word has as many trees as w2. The rests
    of a row are sorted by serial, so equal products share one int c.
    Built once per word.
    """
    if not omega.word:
        return ((EMPTY_WORD, ((1, ()),)),)
    acc: dict[PlanarForest, dict[tuple, int]] = {}
    parts = omega.word
    for i in range(len(parts)):
        left = _astar_rows(PlanarForest(parts[:i]))
        size = len(parts) - i
        for (pruned, rest), c in _delta_mkw(PlanarForest(parts[i:])):
            if len(rest.word) != size:
                continue
            c = c.numerator
            for inner, weights2 in _astar_rows(pruned):
                grafted = (PlanarTree(inner.word),)
                for u1, weights1 in left:
                    row = acc.setdefault(PlanarForest(u1.word + grafted), {})
                    for c1, rests1 in weights1:
                        for c2, rests2 in weights2:
                            key = tuple(sorted((*rests1, rest, *rests2), key=_SERIAL))
                            row[key] = row.get(key, 0) + c * c1 * c2
    return tuple((u, tuple((c, rests) for rests, c in row.items())) for u, row in acc.items())


def lb_substitute(alpha, beta: LBCoeff, N: int) -> LBCoeff:
    """Substitute the field alpha into the series beta (coefficientwise):
    beta paired with the image of each word under alpha. The image is the
    memoised integer rows of ``_astar_rows``, shared by every map, so a
    value is one ``exact_sum`` over them: each row's alpha values (left
    out at the first 0) times beta of its word."""
    if isinstance(alpha, LBCoeff) and alpha(EMPTY_WORD) != 0:
        raise DomainError("substitution needs a field: alpha(1) must be 0")
    if beta.N < N:
        raise DomainError(f"series truncated at {beta.N}, need {N}")
    value = beta._kind_value

    def terms(w: PlanarForest):
        for u, weights in _astar_rows(w):
            b = value(u)
            if b:
                for c, values in _products(alpha, weights):
                    values.append(b)
                    yield c, values

    def fn(w: PlanarForest) -> Fraction:
        return exact_sum(terms(w))

    return LBCoeff(beta.kind, N, fn)
