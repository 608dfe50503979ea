"""Independent computations the checkers compare the package against.

Nothing here imports bflow. Trees are parsed from their serial strings into
nested tuples of children, forests and words are tuples of serials, and
every count, weight and product is computed from those plain structures.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

# Rooted trees per order (OEIS A000081), n = 1..9.
A000081 = (1, 1, 2, 4, 9, 20, 48, 115, 286)


def catalan(n: int) -> int:
    out = 1
    for k in range(n):
        out = out * 2 * (2 * k + 1) // (k + 2)
    return out


def bell_number(n: int) -> int:
    """Bell numbers from the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


# ---------------------------------------------------------------------------
# Trees as nested tuples
# ---------------------------------------------------------------------------


def parse_word(text: str) -> tuple:
    """Serial of a forest or word -> tuple of trees; a tree is the tuple of
    its children. ``1`` is the empty word. Colours are not used here."""
    text = text.strip()
    if text == "1":
        return ()
    stack: list[list] = [[]]
    for ch in text:
        if ch == "[":
            stack.append([])
        elif ch == "]":
            node = tuple(stack.pop())
            stack[-1].append(node)
        elif not ch.isspace():
            raise ValueError(f"unexpected {ch!r} in {text!r}")
    if len(stack) != 1:
        raise ValueError(f"unbalanced brackets in {text!r}")
    return tuple(stack[0])


def parse_tree(text: str) -> tuple:
    word = parse_word(text)
    if len(word) != 1:
        raise ValueError(f"expected one tree in {text!r}")
    return word[0]


def order(tree: tuple) -> int:
    return 1 + sum(order(c) for c in tree)


def factorial(tree: tuple) -> int:
    """Tree factorial: |t| times the factorials of the subtrees."""
    out = order(tree)
    for c in tree:
        out *= factorial(c)
    return out


def canon(tree: tuple) -> tuple:
    """Canonical form of a non-planar tree (children sorted recursively)."""
    return tuple(sorted(canon(c) for c in tree))


def symmetry(tree: tuple) -> int:
    out = 1
    kids = [canon(c) for c in tree]
    for shape in set(kids):
        m = kids.count(shape)
        out *= symmetry(shape) ** m
        for k in range(2, m + 1):
            out *= k
    return out


def cut_count(tree: tuple) -> int:
    """Admissible cuts of a tree, the empty cut included, the full one not."""
    out = 1
    for c in tree:
        out *= cut_count(c) + 1
    return out


# ---------------------------------------------------------------------------
# Runge-Kutta elementary weights
# ---------------------------------------------------------------------------


def stage_weights(a, tree: tuple, memo: dict | None = None) -> list[Fraction]:
    """Phi_i(t) = sum_j a_ij prod_children Phi_j(child)."""
    if memo is not None and tree in memo:
        return memo[tree]
    s = len(a)
    kids = [stage_weights(a, c, memo) for c in tree]
    out = []
    for i in range(s):
        total = Fraction(0)
        for j in range(s):
            term = Fraction(a[i][j])
            for k in kids:
                term *= k[j]
            total += term
        out.append(total)
    if memo is not None:
        memo[tree] = out
    return out


def elementary_weight(a, b, tree: tuple, memo: dict | None = None) -> Fraction:
    """sum_j b_j prod_children Phi_j(child); pass one ``memo`` dict per
    tableau to share stage weights between trees."""
    s = len(b)
    kids = [stage_weights(a, c, memo) for c in tree]
    total = Fraction(0)
    for j in range(s):
        term = Fraction(b[j])
        for k in kids:
            term *= k[j]
        total += term
    return total


def compose_tableaus(a1, b1, a2, b2):
    """The tableau of one step of (a1, b1) followed by one of (a2, b2)."""
    s1, s2 = len(b1), len(b2)
    a = [[Fraction(0)] * (s1 + s2) for _ in range(s1 + s2)]
    for i in range(s1):
        for j in range(s1):
            a[i][j] = Fraction(a1[i][j])
    for i in range(s2):
        for j in range(s1):
            a[s1 + i][j] = Fraction(b1[j])
        for j in range(s2):
            a[s1 + i][s1 + j] = Fraction(a2[i][j])
    return a, [Fraction(x) for x in b1] + [Fraction(x) for x in b2]


def classical_order(a, b, serials_by_order) -> tuple[int, str | None]:
    """Largest n with weight = 1/t! on every tree up to n, and the first
    violating serial in the given scan order."""
    for n, serials in enumerate(serials_by_order, start=1):
        for s in serials:
            t = parse_tree(s)
            if elementary_weight(a, b, t) != Fraction(1, factorial(t)):
                return n - 1, s
    return len(serials_by_order), None


# ---------------------------------------------------------------------------
# Words, shuffles and Bell polynomials
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def shuffle(u: tuple, v: tuple) -> dict:
    """Shuffle of two words (tuples of letters) as {word: multiplicity}."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out: dict = {}
    for w, c in shuffle(u[1:], v).items():
        key = (u[0],) + w
        out[key] = out.get(key, 0) + c
    for w, c in shuffle(u, v[1:]).items():
        key = (v[0],) + w
        out[key] = out.get(key, 0) + c
    return out


def words_of(serial: str) -> tuple:
    """A planar word's serial -> tuple of its tree serials."""
    return tuple(_tree_serials(serial))


def _tree_serials(text: str) -> list[str]:
    text = text.strip()
    if text == "1":
        return []
    out, depth, start = [], 0, None
    for i, ch in enumerate(text):
        if ch == "[":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth == 0:
                out.append(text[start : i + 1])
    return out


@lru_cache(maxsize=None)
def planar_words(n: int) -> tuple:
    """The planar words of order n, as tuples of tree serials."""
    if n == 0:
        return ((),)
    return tuple(
        (t,) + rest for k in range(1, n + 1) for t in planar_tree_serials(k) for rest in planar_words(n - k)
    )


@lru_cache(maxsize=None)
def planar_tree_serials(n: int) -> tuple:
    """Serials of the planar trees of order n, sorted: B+ of every word of
    order n - 1."""
    return tuple(sorted("[" + "".join(w) + "]" for w in planar_words(n - 1)))


@lru_cache(maxsize=None)
def mkw_coproduct(word: tuple) -> dict:
    """The MKW coproduct of a planar word (tuple of tree serials) as
    {(left word, right word): coefficient}, by its defining recursion
    Delta(w B+(v)) = w B+(v) (x) 1 + Delta(w) . (id (x) B+) Delta(v), where
    the product shuffles the left factors and concatenates the right ones."""
    if not word:
        return {((), ()): 1}
    body, last = word[:-1], word[-1]
    out = {(word, ()): 1}
    lifted = [(l, "[" + "".join(r) + "]", c) for (l, r), c in mkw_coproduct(words_of(last[1:-1])).items()]
    for (l1, r1), c1 in mkw_coproduct(body).items():
        for l2, tree, c2 in lifted:
            right = r1 + (tree,)
            for w, m in shuffle(l1, l2).items():
                out[(w, right)] = out.get((w, right), 0) + c1 * c2 * m
    return {k: c for k, c in out.items() if c}


def bell_polynomials(n_max: int) -> list[dict]:
    """Non-commutative Bell polynomials as {letters tuple: coefficient}:
    B_0 = 1 and B_{n+1} = d_1 B_n + D(B_n), with D the derivation d_i ->
    d_{i+1}."""
    out = [{(): 1}]
    for _ in range(n_max):
        prev = out[-1]
        nxt: dict = {}
        for w, c in prev.items():
            key = (1,) + w
            nxt[key] = nxt.get(key, 0) + c
            for pos in range(len(w)):
                key = w[:pos] + (w[pos] + 1,) + w[pos + 1 :]
                nxt[key] = nxt.get(key, 0) + c
        out.append(nxt)
    return out


def compositions(n: int) -> list[tuple]:
    out = []
    for cuts in range(n):
        for pos in combinations(range(1, n), cuts):
            edges = (0,) + pos + (n,)
            out.append(tuple(edges[i + 1] - edges[i] for i in range(len(edges) - 1)))
    return out


# ---------------------------------------------------------------------------
# Float reference integrators
# ---------------------------------------------------------------------------


def rk4_reference(rhs, y0, h: float, steps: int):
    """Classical RK4 on y' = rhs(y), numpy arrays in and out."""
    y = y0.copy()
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


@lru_cache(maxsize=None)
def nonplanar_forests(n: int) -> frozenset:
    """Canonical serial tuples (sorted) of the non-planar forests of order n."""
    if n == 0:
        return frozenset({()})
    out = set()
    for k in range(1, n + 1):
        for t in nonplanar_serials(k):
            for f in nonplanar_forests(n - k):
                out.add(tuple(sorted((t,) + f)))
    return frozenset(out)


@lru_cache(maxsize=None)
def nonplanar_serials(n: int) -> tuple:
    """Serials of the non-planar trees of order n (children sorted by serial)."""
    if n == 1:
        return ("[]",)
    return tuple(sorted("[" + "".join(f) + "]" for f in nonplanar_forests(n - 1)))
