"""The per-element object model of the groups A, B, D and I2(m): the tests'
independent reference for the package's window arrays and closed forms.

An element is a SignedPermutation (the window (w(1), ..., w(n)) of type A,
B or D), a DihedralElement (the map x -> shift + sign*x on Z/m) or, for
lengths, descents and inverses, a tuple of factor elements.  Lengths are
counted on the window, or for I2(m) are word lengths by breadth-first
search on the Cayley graph (bfs_word_lengths); a descent is a length drop,
read off the window where possible.  Generators are indexed as in
coxmal.coxeter.  The tower's stage choices are built by writing down each
local window and counting its inversions, and pmf and star follow their
definitions element by element.
"""

import itertools
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from coxmal.coxeter import GroupDescriptor, ProductDescriptor, _check_enum_cap
from coxmal.mallows import _length_weights, normalization_constant
from window_reference import itertools_windows


@dataclass(frozen=True)
class SignedPermutation:
    """A window (w(1), ..., w(n)) of a type A, B or D element."""

    window: tuple[int, ...]

    def __post_init__(self):
        mags = sorted(abs(v) for v in self.window)
        if mags != list(range(1, len(self.window) + 1)):
            raise ValueError(f"not a signed permutation window: {self.window}")

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(tuple(range(1, n + 1)))

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.window) + "]"


@dataclass(frozen=True)
class DihedralElement:
    """Element of I2(m): the map x -> shift + sign*x on Z/m.

    sign +1 gives the m rotations, sign -1 the m reflections.
    """

    m: int
    shift: int
    sign: int

    def __post_init__(self):
        if self.m < 3:
            raise ValueError("need m >= 3")
        if not (0 <= self.shift < self.m) or self.sign not in (1, -1):
            raise ValueError(f"bad dihedral element ({self.shift}, {self.sign})")

    @classmethod
    def identity(cls, m: int) -> "DihedralElement":
        return cls(m, 0, 1)


def identity_element(g):
    if g.kind == "I2":
        return DihedralElement.identity(g.rank)
    return SignedPermutation.identity(g.window_size)


# ---------------------------------------------------------------------------
# composition and inversion (no descriptor needed)


def compose(u, v):
    """The product uv, acting as (uv)(x) = u(v(x))."""
    if isinstance(u, DihedralElement):
        return DihedralElement(u.m, (u.shift + u.sign * v.shift) % u.m, u.sign * v.sign)
    uw = u.window
    return SignedPermutation(tuple(uw[x - 1] if x > 0 else -uw[-x - 1] for x in v.window))


def invert(w):
    if isinstance(w, tuple):
        return tuple(invert(f) for f in w)
    if isinstance(w, DihedralElement):
        return DihedralElement(w.m, (-w.sign * w.shift) % w.m, w.sign)
    out = [0] * len(w.window)
    for pos, val in enumerate(w.window, start=1):
        if val > 0:
            out[val - 1] = pos
        else:
            out[-val - 1] = -pos
    return SignedPermutation(tuple(out))


# ---------------------------------------------------------------------------
# length


def window_length(kind: str, win: tuple[int, ...]) -> int:
    """Inversions, plus under B and D the pairs i < j with w(i) + w(j) < 0,
    plus under B the negative entries."""
    n = len(win)
    out = 0
    for i in range(n):
        for j in range(i + 1, n):
            out += win[i] > win[j]
            if kind != "A":
                out += win[i] + win[j] < 0
        if kind == "B":
            out += win[i] < 0
    return out


@lru_cache(maxsize=None)
def bfs_word_lengths(g):
    """Independent length oracle: breadth-first search on the Cayley graph
    from the identity, using only generator application."""
    start = identity_element(g)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for i in range(g.num_generators):
            nxt = apply_right_generator(w, i, g)
            if nxt not in dist:
                dist[nxt] = dist[w] + 1
                queue.append(nxt)
    return dist


def length(w, g) -> int:
    if isinstance(g, ProductDescriptor):
        return sum(length(f, fg) for f, fg in zip(w, g.factors))
    if g.kind == "I2":
        return bfs_word_lengths(g)[w]
    return window_length(g.kind, w.window)


# ---------------------------------------------------------------------------
# generator actions


def generator_element(i: int, g):
    """The generator s_i as a group element."""
    return apply_right_generator(identity_element(g), i, g)


def _product_locate(i: int, g: ProductDescriptor):
    for k, f in enumerate(g.factors):
        if i < f.num_generators:
            return k, i
        i -= f.num_generators
    raise IndexError("generator index out of range")


def apply_right_generator(w, i: int, g):
    """w * s_i."""
    if g.kind == "I2":
        return compose(w, DihedralElement(g.rank, i, -1))
    if not 0 <= i < g.num_generators:
        raise IndexError(f"generator index {i} out of range for {g}")
    win = list(w.window)
    if g.kind == "A":
        win[i], win[i + 1] = win[i + 1], win[i]
    elif i >= 1:
        win[i - 1], win[i] = win[i], win[i - 1]
    elif g.kind == "B":
        win[0] = -win[0]
    else:  # D, generator 0
        win[0], win[1] = -win[1], -win[0]
    return SignedPermutation(tuple(win))


def apply_left_generator(w, i: int, g):
    """s_i * w, computed by remapping window values."""
    if g.kind == "I2":
        return compose(DihedralElement(g.rank, i, -1), w)
    if not 0 <= i < g.num_generators:
        raise IndexError(f"generator index {i} out of range for {g}")
    if g.kind == "A":
        a, b = i + 1, i + 2
        table = {a: b, b: a}
    elif i >= 1:  # B or D, value swap i <-> i+1 preserving sign
        a, b = i, i + 1
        table = {a: b, b: a, -a: -b, -b: -a}
    elif g.kind == "B":
        table = {1: -1, -1: 1}
    else:  # D, generator 0
        table = {1: -2, 2: -1, -1: 2, -2: 1}
    return SignedPermutation(tuple(table.get(v, v) for v in w.window))


# ---------------------------------------------------------------------------
# descents


def is_right_descent(w, i: int, g) -> bool:
    """Whether l(w s_i) < l(w), via window comparisons where possible."""
    if isinstance(g, ProductDescriptor):
        k, j = _product_locate(i, g)
        return is_right_descent(w[k], j, g.factors[k])
    if g.kind == "I2":
        return length(apply_right_generator(w, i, g), g) < length(w, g)
    win = w.window
    if g.kind == "A":
        return win[i] > win[i + 1]
    if i >= 1:
        return win[i - 1] > win[i]
    if g.kind == "B":
        return win[0] < 0
    return win[0] + win[1] < 0  # D


def is_left_descent(w, i: int, g) -> bool:
    return is_right_descent(invert(w), i, g)


def descent_indicator(w, i: int, g, side: str = "right") -> int:
    if side == "right":
        return int(is_right_descent(w, i, g))
    if side == "left":
        return int(is_left_descent(w, i, g))
    raise ValueError(f"side must be 'right' or 'left', got {side!r}")


def descent_number(w, g, side: str = "right") -> int:
    return sum(descent_indicator(w, i, g, side) for i in range(g.num_generators))


def two_sided_descent(w, g) -> int:
    """t(w) = des(w) + des(w^{-1})."""
    return descent_number(w, g, "right") + descent_number(w, g, "left")


def star(w, i: int, side: str, g):
    """w when it descends at s_i on that side, else w s_i (right) or s_i w (left)."""
    if descent_indicator(w, i, g, side):
        return w
    if side == "right":
        return apply_right_generator(w, i, g)
    return apply_left_generator(w, i, g)


# ---------------------------------------------------------------------------
# enumeration and the Mallows measure


def enumerate_group(g):
    """Every element of the group, under the enumeration cap: A, B and D in
    the row order of itertools_windows (permutations times sign choices),
    I2(m) as the m rotations then the m reflections, and a product as the
    itertools product of its factors' elements."""
    _check_enum_cap(g)
    if isinstance(g, ProductDescriptor):
        return list(itertools.product(*(enumerate_group(f) for f in g.factors)))
    if g.kind == "I2":
        return [DihedralElement(g.rank, shift, sign) for sign in (1, -1) for shift in range(g.rank)]
    return [SignedPermutation(tuple(row)) for row in itertools_windows(g).tolist()]


@lru_cache(maxsize=None)
def dihedral_elements(m: int) -> tuple:
    """The elements of I2(m) in the row order of the package's dihedral
    tables: e, then for each length l = 1..m-1 the alternating word of
    length l that starts with s1 and the one that starts with s0, then w0,
    each built by applying the generators to e."""
    g = GroupDescriptor("I2", m)

    def word(l, first):
        w = identity_element(g)
        for k in range(l):
            w = apply_right_generator(w, (first + k) % 2, g)
        return w

    return (identity_element(g), *(word(l, f) for l in range(1, m) for f in (1, 0)), word(m, 0))


def pmf(w, spec) -> float:
    """mu_q(w) under a one-factor spec, finite at q far from 1: for q > 1,
    q^l / Z(q) = (1/q)^(l(w0) - l) / Z(1/q)."""
    [(g, q)] = spec.factor_specs()
    weight, _ = _length_weights(g, q, length(w, g))
    return float(weight) / normalization_constant(g, min(q, 1.0 / q))


# ---------------------------------------------------------------------------
# tower stage choices


@lru_cache(maxsize=None)
def stage_candidates(kind: str, m: int):
    """Choices when the tower fills window position m, as (a, s, contribution).

    a picks the a-th smallest remaining label, s its sign, and contribution
    is the length of the minimal coset representative realizing the choice,
    counted on the local window.
    """
    signs = (1,) if kind == "A" else (1, -1)
    out = []
    for a in range(1, m + 1):
        for s in signs:
            rest = [x for x in range(1, m + 1) if x != a]
            if kind == "D" and s < 0:
                rest[0] = -rest[0]
            out.append((a, s, window_length(kind, tuple(rest + [s * a]))))
    return tuple(out)


def stage_choices(kind: str, m: int):
    """The closed form of stage_candidates, in its order: type A offers
    a = 1..m, contributing m - a; types B and D offer each a with s = 1,
    contributing m - a, then with s = -1, contributing m + a - 1 under B and
    m + a - 2 under D."""
    out = []
    for a in range(1, m + 1):
        out.append((a, 1, m - a))
        if kind != "A":
            out.append((a, -1, m + a - (1 if kind == "B" else 2)))
    return tuple(out)


def stage_distribution(kind: str, m: int, q: float) -> np.ndarray:
    """Probabilities of the stage choices, in stage_candidates order."""
    contrib = np.array([c for _, _, c in stage_choices(kind, m)], dtype=np.float64)
    w = np.power(q, contrib - (contrib.max() if q > 1.0 else 0.0))
    return w / w.sum()
