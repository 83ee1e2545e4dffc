"""Finite Coxeter groups of types A, B, D and I2(m).

Types A, B and D are stored through window notation: an element w is the
tuple ``(w(1), ..., w(n))``.  A windows are plain permutations of 1..n,
B windows carry arbitrary signs, D windows have an even number of negative
entries.  The action on negative positions is determined by w(-i) = -w(i)
and is never stored.

Generators are indexed 0..num_generators-1:

* type A: generator i swaps window positions i and i+1 (0-based),
* type B: generator 0 negates the first window entry, generator i >= 1
  swaps positions i-1 and i (so it compares w(i) and w(i+1) in 1-based
  terms),
* type D: generator 0 maps (w(1), w(2)) to (-w(2), -w(1)), the rest act
  exactly as in type B,
* type I2(m): generators 0 and 1 are the two reflections s0: x -> -x and
  s1: x -> 1-x of Z/m; elements are stored as (shift, sign) pairs.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_ENUM_CAP = 10_000_000
ENUM_CAP_ENV = "COXMAL_ENUM_CAP"

KIND_ORDER = ("A", "B", "D", "I2")


class EnumerationCapError(RuntimeError):
    """Raised when a group is too large to enumerate under the active cap."""


# ---------------------------------------------------------------------------
# descriptors


@dataclass(frozen=True)
class GroupDescriptor:
    """An irreducible factor: kind in {A, B, D, I2} plus rank.

    For I2 the ``rank`` slot stores m, the rotation order of the m-gon.
    """

    kind: str
    rank: int

    def __post_init__(self):
        if self.kind not in KIND_ORDER:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "A" and self.rank < 1:
            raise ValueError("type A needs rank >= 1")
        if self.kind == "B" and self.rank < 2:
            raise ValueError("type B needs rank >= 2")
        if self.kind == "D" and self.rank < 4:
            raise ValueError("type D needs rank >= 4")
        if self.kind == "I2" and self.rank < 3:
            raise ValueError("type I2(m) needs m >= 3")

    @property
    def num_generators(self) -> int:
        return 2 if self.kind == "I2" else self.rank

    @property
    def window_size(self) -> int:
        """Number of window entries (positions 1..n the element is stored on)."""
        if self.kind == "A":
            return self.rank + 1
        if self.kind == "I2":
            raise ValueError("I2 elements are not stored as windows")
        return self.rank

    def order(self) -> int:
        if self.kind == "A":
            return math.factorial(self.rank + 1)
        if self.kind == "B":
            return (1 << self.rank) * math.factorial(self.rank)
        if self.kind == "D":
            return (1 << (self.rank - 1)) * math.factorial(self.rank)
        return 2 * self.rank

    def longest_length(self) -> int:
        """Length of the longest element."""
        if self.kind == "A":
            r = self.rank
            return r * (r + 1) // 2
        if self.kind == "B":
            return self.rank * self.rank
        if self.kind == "D":
            return self.rank * (self.rank - 1)
        return self.rank

    def __str__(self) -> str:
        if self.kind == "I2":
            return f"I2({self.rank})"
        return f"{self.kind}{self.rank}"


@dataclass(frozen=True)
class ProductDescriptor:
    """A direct product of irreducible factors, e.g. B4 x A2 x I2(5)."""

    factors: tuple[GroupDescriptor, ...]

    def __post_init__(self):
        if len(self.factors) < 1:
            raise ValueError("product needs at least one factor")

    @property
    def num_generators(self) -> int:
        return sum(f.num_generators for f in self.factors)

    def order(self) -> int:
        return math.prod(f.order() for f in self.factors)

    def longest_length(self) -> int:
        return sum(f.longest_length() for f in self.factors)

    def __str__(self) -> str:
        return " x ".join(str(f) for f in self.factors)


_IRRED_RE = re.compile(r"^(?:([ABD])\s*(\d+)|I2\s*\(\s*(\d+)\s*\))$")


def parse_group(text: str):
    """Parse a descriptor like ``"B4"``, ``"I2(7)"`` or ``"B4 x A2 x I2(5)"``.

    Returns a GroupDescriptor for a single factor and a ProductDescriptor
    when the text contains ``x``-separated factors.
    """
    parts = [p.strip() for p in text.strip().split(" x ")]
    if not parts or any(not p for p in parts):
        raise ValueError(f"cannot parse group descriptor {text!r}")
    factors = []
    for part in parts:
        m = _IRRED_RE.match(part)
        if m is None:
            raise ValueError(f"cannot parse group descriptor {part!r}")
        if m.group(1) is not None:
            factors.append(GroupDescriptor(m.group(1), int(m.group(2))))
        else:
            factors.append(GroupDescriptor("I2", int(m.group(3))))
    if len(factors) == 1:
        return factors[0]
    return ProductDescriptor(tuple(factors))


def descriptor_factors(g) -> tuple[GroupDescriptor, ...]:
    if isinstance(g, ProductDescriptor):
        return g.factors
    return (g,)


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class SignedPermutation:
    """A window (w(1), ..., w(n)) of a type A, B or D element."""

    window: tuple[int, ...]

    def __post_init__(self):
        mags = sorted(abs(v) for v in self.window)
        if mags != list(range(1, len(self.window) + 1)):
            raise ValueError(f"not a signed permutation window: {self.window}")

    @property
    def n(self) -> int:
        return len(self.window)

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

    def __str__(self) -> str:
        return f"r{self.shift}" + ("f" if self.sign < 0 else "")


def identity_element(g):
    if isinstance(g, ProductDescriptor):
        return tuple(identity_element(f) for f in g.factors)
    if g.kind == "I2":
        return DihedralElement.identity(g.rank)
    return SignedPermutation.identity(g.window_size)


# ---------------------------------------------------------------------------
# composition and inversion (no descriptor needed)


def compose(u, v):
    """The product uv, acting as (uv)(x) = u(v(x))."""
    if isinstance(u, tuple):
        return tuple(compose(a, b) for a, b in zip(u, v))
    if isinstance(u, DihedralElement):
        return DihedralElement(
            u.m, (u.shift + u.sign * v.shift) % u.m, u.sign * v.sign
        )
    uw = u.window
    out = []
    for x in v.window:
        out.append(uw[x - 1] if x > 0 else -uw[-x - 1])
    return SignedPermutation(tuple(out))


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


def _window_length(kind: str, win: tuple[int, ...]) -> int:
    n = len(win)
    inv = 0
    for i in range(n):
        wi = win[i]
        for j in range(i + 1, n):
            if wi > win[j]:
                inv += 1
    if kind == "A":
        return inv
    if kind == "B":
        # pairs 1 <= i <= j <= n with w(i) + w(j) < 0
        extra = 0
        for i in range(n):
            if 2 * win[i] < 0:
                extra += 1
            wi = win[i]
            for j in range(i + 1, n):
                if wi + win[j] < 0:
                    extra += 1
        return inv + extra
    if kind == "D":
        extra = 0
        for i in range(n):
            wi = win[i]
            for j in range(i + 1, n):
                if wi + win[j] < 0:
                    extra += 1
        return inv + extra
    raise ValueError(f"no window length for kind {kind!r}")


@lru_cache(maxsize=None)
def _dihedral_length_table(m: int) -> dict:
    """Word lengths in I2(m) by breadth-first search over the Cayley graph."""
    gens = (DihedralElement(m, 0, -1), DihedralElement(m, 1, -1))
    dist = {DihedralElement.identity(m): 0}
    frontier = [DihedralElement.identity(m)]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                ws = compose(w, s)
                if ws not in dist:
                    dist[ws] = dist[w] + 1
                    nxt.append(ws)
        frontier = nxt
    return dist


def length(w, g) -> int:
    if isinstance(g, ProductDescriptor):
        return sum(length(f, fg) for f, fg in zip(w, g.factors))
    if g.kind == "I2":
        return _dihedral_length_table(g.rank)[w]
    return _window_length(g.kind, w.window)


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
    if isinstance(g, ProductDescriptor):
        k, j = _product_locate(i, g)
        return tuple(
            apply_right_generator(f, j, g.factors[k]) if t == k else f
            for t, f in enumerate(w)
        )
    if g.kind == "I2":
        return compose(w, DihedralElement(g.rank, i, -1))
    if not 0 <= i < g.num_generators:
        raise IndexError(f"generator index {i} out of range for {g}")
    win = list(w.window)
    if g.kind == "A":
        win[i], win[i + 1] = win[i + 1], win[i]
    elif g.kind == "B":
        if i == 0:
            win[0] = -win[0]
        else:
            win[i - 1], win[i] = win[i], win[i - 1]
    else:  # D
        if i == 0:
            win[0], win[1] = -win[1], -win[0]
        else:
            win[i - 1], win[i] = win[i], win[i - 1]
    return SignedPermutation(tuple(win))


def apply_left_generator(w, i: int, g):
    """s_i * w, computed by remapping window values."""
    if isinstance(g, ProductDescriptor):
        k, j = _product_locate(i, g)
        return tuple(
            apply_left_generator(f, j, g.factors[k]) if t == k else f
            for t, f in enumerate(w)
        )
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
        table = _dihedral_length_table(g.rank)
        return table[apply_right_generator(w, i, g)] < table[w]
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
        return 1 if is_right_descent(w, i, g) else 0
    if side == "left":
        return 1 if is_left_descent(w, i, g) else 0
    raise ValueError(f"side must be 'right' or 'left', got {side!r}")


def descent_number(w, g, side: str = "right") -> int:
    return sum(descent_indicator(w, i, g, side) for i in range(g.num_generators))


def two_sided_descent(w, g) -> int:
    """t(w) = des(w) + des(w^{-1})."""
    return descent_number(w, g, "right") + descent_number(w, g, "left")


# ---------------------------------------------------------------------------
# enumeration


def _check_enum_cap(g) -> None:
    limit = int(os.environ.get(ENUM_CAP_ENV, DEFAULT_ENUM_CAP))
    if g.order() > limit:
        raise EnumerationCapError(f"{g} has {g.order()} elements, above the cap {limit}")


def enumerate_group(g):
    """Yield every element of the group, respecting the enumeration cap.

    Signed permutations come out as permutation-times-sign-choices; type D
    keeps only windows with an even number of negative entries.
    """
    _check_enum_cap(g)
    yield from _enumerate_uncapped(g)


def _enumerate_uncapped(g):
    if isinstance(g, ProductDescriptor):
        pools = [list(_enumerate_uncapped(f)) for f in g.factors]
        for combo in itertools.product(*pools):
            yield combo
        return
    if g.kind == "I2":
        for sign in (1, -1):
            for shift in range(g.rank):
                yield DihedralElement(g.rank, shift, sign)
        return
    n = g.window_size
    if g.kind == "A":
        for perm in itertools.permutations(range(1, n + 1)):
            yield SignedPermutation(perm)
        return
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            if g.kind == "D" and signs.count(-1) % 2 != 0:
                continue
            yield SignedPermutation(tuple(s * v for s, v in zip(signs, perm)))


def enumerate_windows(g):
    """Every element of an A, B or D group and its length, as read-only
    (order, n) int64 windows and (order,) int64 lengths.

    The cap is checked on every call; the last group is cached, since
    neither array depends on q.
    """
    if isinstance(g, ProductDescriptor) or g.kind == "I2":
        raise ValueError(f"{g} is not stored as windows; enumerate its A, B, D factors")
    _check_enum_cap(g)
    return _insertion_windows(g)


@lru_cache(maxsize=1)
def _insertion_windows(g: GroupDescriptor):
    """(W, lengths) of enumerate_windows, built by inserting magnitude k =
    1..n at every position p, with each sign, into every window of the
    magnitudes below k.  All of those are smaller than k, so +k adds the
    k - 1 - p inversions with the entries after it; -k adds the p
    inversions with the entries before it and k - 1 pairs whose sum is
    negative, plus its own negative entry under B.  Under D the sign of n
    makes the count of negative entries even.  Rows come in blocks of one
    (position, sign), each block a copy of the rows below k.
    """
    kind, n = g.kind, g.window_size
    W = np.empty((1, 0), dtype=np.int64)
    lengths = np.zeros(1, dtype=np.int64)
    for k in range(1, n + 1):
        if kind == "A":
            signs = (1,)
        elif kind == "D" and k == n:
            signs = (1 - 2 * (np.count_nonzero(W < 0, axis=1) % 2),)  # one per row
        else:
            signs = (1, -1)
        out = np.empty((k, len(signs), len(W), k), dtype=np.int64)
        lens = np.empty(out.shape[:3], dtype=np.int64)
        for p in range(k):
            for j, s in enumerate(signs):
                block = out[p, j]
                block[:, :p], block[:, p], block[:, p + 1 :] = W[:, :p], s * k, W[:, p:]
                lens[p, j] = lengths + (k - 1 - s * p + (kind == "B") * (s < 0))
        W, lengths = out.reshape(-1, k), lens.ravel()
    W.setflags(write=False)
    lengths.setflags(write=False)
    return W, lengths


# ---------------------------------------------------------------------------
# vectorized window helpers (batches as integer arrays of shape (count, n))


def windows_invert(W: np.ndarray) -> np.ndarray:
    count, n = W.shape
    pos = np.arange(1, n + 1, dtype=W.dtype)
    V = np.empty_like(W)
    idx = np.abs(W) - 1
    vals = np.sign(W) * pos[None, :]
    np.put_along_axis(V, idx, vals, axis=1)
    return V


def windows_descents(kind: str, W: np.ndarray) -> np.ndarray:
    """(rows, generators) booleans: whether each window descends at s_i on the right."""
    if kind not in ("A", "B", "D"):
        raise ValueError(f"no window descents for kind {kind!r}")
    s0 = int(kind != "A")  # B and D have s_0 in front of the adjacent swaps
    out = np.empty((len(W), W.shape[1] - 1 + s0), dtype=bool)
    np.greater(W[:, :-1], W[:, 1:], out=out[:, s0:])
    if kind == "B":
        out[:, 0] = W[:, 0] < 0
    elif kind == "D":
        out[:, 0] = W[:, 0] + W[:, 1] < 0
    return out
