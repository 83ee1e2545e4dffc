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
  s1: x -> 1-x of Z/m.  No I2(m) element is stored: its laws are closed
  forms in the length list 0, 1, 1, ..., m-1, m-1, m (mallows._dihedral_lengths).
"""

from __future__ import annotations

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
# enumeration


def _check_enum_cap(g) -> None:
    limit = int(os.environ.get(ENUM_CAP_ENV, DEFAULT_ENUM_CAP))
    if g.order() > limit:
        raise EnumerationCapError(f"{g} has {g.order()} elements, above the cap {limit}")


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
    """The inverse of every row: entry v at position p of a row puts p, with
    the sign of v, at position |v| of its inverse, all rows in one scatter
    into the flat output."""
    count, n = W.shape
    idx = np.abs(W)
    idx += np.arange(-1, count * n - 1, n)[:, None]
    vals = np.sign(W)
    vals *= np.arange(1, n + 1, dtype=W.dtype)
    V = np.empty(W.shape, dtype=W.dtype)
    V.reshape(-1)[idx.reshape(-1)] = vals.reshape(-1)
    return V


def windows_descents(kind: str, W: np.ndarray) -> np.ndarray:
    """(rows, generators) booleans: whether each window descends at s_i on
    the right.  Built as the (generators, rows) transpose, so that each
    comparison runs down a whole column, not along an n-entry row."""
    if kind not in ("A", "B", "D"):
        raise ValueError(f"no window descents for kind {kind!r}")
    s0 = int(kind != "A")  # B and D have s_0 in front of the adjacent swaps
    T = W.T
    out = np.empty((len(T) - 1 + s0, len(W)), dtype=bool)
    np.greater(T[:-1], T[1:], out=out[s0:])
    if kind == "B":
        np.less(T[0], 0, out=out[0])
    elif kind == "D":
        np.less(T[0] + T[1], 0, out=out[0])
    return out.T
