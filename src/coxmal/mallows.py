"""Mallows measures mu_q(w) = q^l(w) / Z on finite Coxeter groups.

Sampling walks a tower of parabolic quotients: window positions are filled
from the right, each stage choosing a minimal coset representative with
probability proportional to q^(its length).  Stage m of type A offers m
choices with length contributions m-a for a = 1..m; types B and D offer 2m
signed choices.  Type D towers stop at stage 2 (the four sign/swap choices
there are the whole D2 base) and the first window entry is forced by the
remaining label.  Dihedral factors are sampled directly from their 2m
element table.

Batch draws have one output, a statistic per draw (sample_statistic).  At
q != 1 one C kernel, tower_rows, shared by A, B and D, makes each row in
one pass: draw, pop and statistic.  Read from its heavy end, every stage's
choice law is a truncated geometric law in its length contribution with
ratio q' = min(q, 1/q) (type D first picks one of its two halves), so the
cumulative weights of every stage are a prefix of one table of about 2n
entries, built once per factor of a sample_statistic call in O(n).  Each
stage takes one double from the chunk's numpy bit generator through its
bitgen_t interface, so a chunk reads the stream of
rng.random((rows, stages)), and finds its choice by an indexed inverse-CDF
search on that prefix: it starts from a guide entry that is a lower bound
on the choice, so it only steps up, and it stops within the prefix (the
proofs are at the table and the kernel).  At q > 1 the choice is reflected
about the stage's largest contribution.  A pop closes its gap from the
shorter side, the labels below moving up or those above moving down, by
four scalar moves next to the gap and memmove only for the rest; the label
scratch has four pad slots at each end for those moves.  No choice array
and no per-stage table exists.  At q = 1 the kernel uniform_rows draws
each row itself by an inside-out Fisher-Yates shuffle, one 64-bit word per
entry, plus a rare redraw (probability below n / 2^63 per entry): entry
i's word puts label i + 1 at a position uniform on 0..i by Lemire's
multiply-and-reject, and under B and D its low bit gives the sign at
position i.  So the law is exactly uniform, and nothing is sorted.  Both
kernels compute each row's t, des or des_inv while the row is in cache:
the decode records the inverse as it places each label, the shuffle's
sign pass writes it, and one shared routine counts the descents of both,
so no window array is built.  A length is the sum of its tower choices'
contributions, so sampled lengths decode nothing; at q = 1 they come from
the same kernel on a linear table.
The exact laws share no code with the decode: their windows and lengths
come from coxeter.enumerate_windows, which inserts each magnitude into the
windows of the smaller ones, so a decode defect moves the samples but not
the laws they are tested against.
A third kernel, window_stats, runs the shared descent routine on window
rows from elsewhere (the enumerated windows of the exact laws and of the
size-bias coupling table), after checking that each is a signed
permutation.  The kernels run without the GIL, so sampler threads overlap.
They are compiled with the system C compiler on first use (about 0.15 s
with gcc 12) into a per-user cache, $XDG_CACHE_HOME/coxmal or
~/.cache/coxmal, keyed by the source, flags, compiler and platform; later
processes load the cached library (under 1 ms), and rebuild one that is
cut short or that the loader rejects.  A cache directory that cannot be
written or that another user could write is not used: each process then
compiles into a private temporary directory.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shlex
import shutil
import struct
import subprocess
import sysconfig
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coxeter import (
    GroupDescriptor,
    ProductDescriptor,
    _check_enum_cap,
    descriptor_factors,
    enumerate_windows,
    parse_group,
)
from .reports import CheckResult

Q_ONE_WINDOW = 1e-6  # |q-1| below this: evaluate q-integers by direct summation
SAMPLE_CHUNK = 16384


# ---------------------------------------------------------------------------
# q-integers and normalization constants


def q_integer(m: int, q: float) -> float:
    """[m]_q = 1 + q + ... + q^(m-1), summed directly near q = 1."""
    if m < 0:
        raise ValueError("q-integer needs m >= 0")
    if abs(q - 1.0) < Q_ONE_WINDOW:
        return float(sum(q**k for k in range(m)))
    return (q**m - 1.0) / (q - 1.0)

def q_factorial(m: int, q: float) -> float:
    out = 1.0
    for i in range(1, m + 1):
        out *= q_integer(i, q)
    return out

def q_even_double_factorial(k: int, q: float) -> float:
    """[2k]!!_q = [2]_q [4]_q ... [2k]_q."""
    out = 1.0
    for i in range(1, k + 1):
        out *= q_integer(2 * i, q)
    return out


def normalization_constant(g, q: float) -> float:
    """Z(q) = sum over the group of q^length, in closed form."""
    if isinstance(g, ProductDescriptor):
        return math.prod(normalization_constant(f, q) for f in g.factors)
    _check_q(q)
    try:  # a float power raises OverflowError where products reach inf
        if g.kind == "A":
            z = q_factorial(g.rank + 1, q)
        elif g.kind == "B":
            z = q_even_double_factorial(g.rank, q)
        elif g.kind == "D":
            z = q_integer(g.rank, q) * q_even_double_factorial(g.rank - 1, q)
        else:
            m = g.rank
            z = 1.0 + 2.0 * q * q_integer(m - 1, q) + q**m
    except OverflowError:
        z = math.inf
    if not math.isfinite(z):
        raise ValueError(f"normalization constant for {g} at q={q} overflows a double")
    return z


def _check_q(q: float) -> None:
    if not (isinstance(q, (int, float)) and math.isfinite(q) and q > 0):
        raise ValueError(f"q must be a finite positive real, got {q!r}")


# ---------------------------------------------------------------------------
# model spec


@dataclass(frozen=True)
class MallowsSpec:
    """A group descriptor plus one q per irreducible factor."""

    group: object
    qs: tuple[float, ...]

    def __post_init__(self):
        nf = len(descriptor_factors(self.group))
        if len(self.qs) != nf:
            raise ValueError(f"need {nf} q values, got {len(self.qs)}")
        for q in self.qs:
            _check_q(q)

    @classmethod
    def make(cls, group, q) -> "MallowsSpec":
        """Broadcast a scalar q over all factors, or accept one q per factor."""
        if isinstance(group, str):
            group = parse_group(group)
        nf = len(descriptor_factors(group))
        if isinstance(q, (int, float)):
            qs = (float(q),) * nf
        else:
            qs = tuple(float(x) for x in q)
            if len(qs) == 1:
                qs = qs * nf
        return cls(group, qs)

    @property
    def q(self) -> float:
        qs = set(self.qs)
        if len(qs) != 1:
            raise ValueError("spec has factor-dependent q values")
        return self.qs[0]

    def factor_specs(self):
        return list(zip(descriptor_factors(self.group), self.qs))

    def __str__(self) -> str:
        qs = sorted(set(self.qs))
        qtxt = f"q={self.qs[0]:g}" if len(qs) == 1 else "q=" + ",".join(
            f"{q:g}" for q in self.qs
        )
        return f"{self.group} {qtxt}"


def _length_weights(g, q: float, lengths):
    """Mallows weights q^(L - ref) for an array of lengths L, and ref.

    ref is l(w0) when q > 1 and 0 otherwise, so every weight lies in
    (0, 1] and none overflows at q far from 1; the true weight is the
    scaled one times q^ref.
    """
    ref = g.longest_length() if q > 1.0 else 0
    return np.power(q, np.asarray(lengths, dtype=np.float64) - ref), ref


# ---------------------------------------------------------------------------
# the tower's prefix table


def _prefix_table(kind: str, n: int, q: float):
    """The one table the tower kernel draws every stage from: (flip, S,
    guide, pw).

    Read from its heavy end, each stage's choice law is a truncated
    geometric law with ratio q' = min(q, 1/q) (see tower_rows), so every
    stage's cumulative weights are a prefix of S[k] = q'^0 + ... + q'^k,
    k < size, with size = 2n under B and n otherwise; S[size] = inf ends
    any walk.  pw[k] = q'^k for k <= size (D reads pw[m - 1]), and flip is
    q > 1.  A value x starts its search at guide[floor(x * inv)], inv =
    4 size / S[size - 1]: four buckets per entry, so that small towers,
    whose stages span few buckets, rarely step (at window sizes 3 to 7 that
    cut the kernel's time by 17-27%, at rank 200 by 3-5%).  guide[j]
    is the first k with S[k] > low_j, low_j the rounded
    j / inv * (1 - 2^-50).  With u = 2^-53, floor(x * inv) >= j as rounded
    gives x >= j / (inv (1 + u)), and low_j <= j / inv (1 + u)^2
    (1 - 2^-50) is below that, so the answer for x is at least guide[j]:
    the search only steps up.  x < S[size - 1] (1 + 4u) keeps the index
    within the 4 size + 1 guide entries.  At q = 1 the table is linear,
    S[k] = k + 1, and the draw uniform.  About 32 size bytes: 100 KB at
    B1600.
    """
    size = 2 * n if kind == "B" else n
    pw = np.power(min(q, 1.0 / q), np.arange(size + 1, dtype=np.float64))
    S = np.cumsum(pw)
    S[size] = np.inf
    low = np.arange(4 * size + 1) / (4 * size / S[size - 1]) * (1.0 - 2.0**-50)
    return q > 1.0, S, np.searchsorted(S, low, side="right").astype(np.int32), pw


# ---------------------------------------------------------------------------
# dihedral factors


def _dihedral_lengths(m: int) -> np.ndarray:
    """Lengths of the 2m elements of I2(m) in table order: the identity, the
    two elements of each length 1..m-1 (one alternating word starting with
    each generator), then the longest element."""
    return np.concatenate(([0], np.repeat(np.arange(1, m), 2), [m]))


def _dihedral_table(g: GroupDescriptor, q: float) -> np.ndarray:
    """Probabilities of the I2(m) elements, in _dihedral_lengths order."""
    w, _ = _length_weights(g, q, _dihedral_lengths(g.rank))
    return w / w.sum()


# ---------------------------------------------------------------------------
# batch draws


def _map_chunks(g: GroupDescriptor, count: int, seed, threads: int, draw):
    """draw(cnt, rng) for each chunk of count seeded draws from g, in chunk
    order.

    The chunk layout is fixed and each chunk's rng is default_rng of its own
    spawned seed, so the thread count never changes the results.  draw runs
    in the thread that handles the chunk and reduces its rows there, so that
    only one chunk of rows per thread is alive.  No pool starts for one
    chunk, and never more workers than chunks.
    """
    if count == 0:
        return []
    if g.kind != "I2":
        _decode_lib()  # build before the pool starts, so threads never race to compile
    starts = range(0, count, SAMPLE_CHUNK)
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = seq.spawn(len(starts))

    def worker(lo, child):
        return draw(min(SAMPLE_CHUNK, count - lo), np.random.default_rng(child))

    workers = min(threads, len(starts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, starts, children))
    return [worker(lo, s) for lo, s in zip(starts, children)]


def _chunk_stats(kind: str, n: int, table, cnt: int, rng, which: int) -> np.ndarray:
    """Statistic STATISTICS[which] of cnt draws from rng, computed by the
    kernel that makes each row while the row is in cache: tower_rows on the
    prefix table (_prefix_table), uniform_rows when table is None (t, des
    and des_inv at q = 1).  No window array is built."""
    out = np.empty(cnt, dtype=np.int64)
    if table is None:
        return _uniform(kind, n, cnt, rng, which, out)
    return _tower(kind, n, table, cnt, rng, which, out)


def _tower(kind: str, n: int, table, cnt: int, rng, which: int, out) -> np.ndarray:
    """The C kernel tower_rows on cnt rows drawn from rng, a Generator on
    any numpy bit generator: statistic STATISTICS[which] of each into the
    (cnt,) array out.  Row r takes the uniforms of row r of
    rng.random((cnt, stages)), one per stage, and draws, pops and counts
    in one pass; a length sums the choices' contributions and decodes
    nothing.  rng's lock is held for the call, and the kernel releases the
    GIL; its scratch belongs to this call, so threads share none.
    """
    flip, S, guide, pw = table
    labels = np.zeros(n + 8, dtype=np.int32)
    row = np.empty(2 * n, dtype=np.int64)
    bg = rng.bit_generator
    with bg.lock:
        bad = _decode_lib().tower_rows(
            cnt, n, "ABD".index(kind), which, bg.ctypes.bit_generator, flip,
            S.ctypes.data, guide.ctypes.data, pw.ctypes.data,
            labels.ctypes.data, row.ctypes.data, out.ctypes.data,
        )
    if bad:
        raise ValueError(f"the bit generator gave a uniform outside [0, 1) in row {bad - 1}")
    return out


_DECODE_C = r"""
#include <stdint.h>
#include <string.h>

/* numpy's bit generator interface, as in numpy/random/bitgen.h (a test
   compares the two field by field) */
typedef struct bitgen {
  void *state;
  uint64_t (*next_uint64)(void *st);
  uint32_t (*next_uint32)(void *st);
  double (*next_double)(void *st);
  uint64_t (*next_raw)(void *st);
} bitgen_t;

static int64_t row_descents(const int64_t *w, int64_t n, int type)
{
    int64_t d = type == 1 ? w[0] < 0 : type == 2 ? w[0] + w[1] < 0 : 0;
    for (int64_t i = 0; i + 1 < n; i++)
        d += w[i] > w[i + 1];
    return d;
}

/* Statistic which (0, 1, 2: t, des, des_inv) of the window w of type 0, 1
   or 2 (A, B or D) whose inverse is inv: right descents count adjacent
   drops w[i] > w[i+1], plus w[0] < 0 under B and w[0] + w[1] < 0 under D,
   and des_inv counts them on the inverse. */
static int64_t row_stat(const int64_t *w, const int64_t *inv, int64_t n, int type, int which)
{
    int64_t d = which == 2 ? 0 : row_descents(w, n, type);
    return which == 1 ? d : d + row_descents(inv, n, type);
}

/* The tower choices of one row, drawn from the numpy bit generator bg:
   stage m = n, n - 1, ... (down to 1, or to 2 under D) of type 0, 1 or 2
   (A, B or D) takes one v = next_double, so rows drawn one after another
   read the stream of rng.random((rows, stages)).  Stage m's choice goes to
   row[m - 1] as 2 p + neg: it pops the p-th smallest remaining label, with
   sign -1 when neg is 1.  Returns the sum of the choices' length
   contributions c, or -1 for a double outside [0, 1).

   Stage m's choice law is a truncated geometric law in c, weight q^c: c in
   0..m-1 under A (p = m - 1 - c) and 0..2m-1 under B (neg for c >= m,
   p = c - m); under D two halves of m choices, j in 0..m-1 with sign + and
   c = j, or sign - and c = m - 1 + j (p = m - 1 - j or j).  Read from the
   heavy end, every weight is q'^k, q' = min(q, 1/q): c = k, or at q > 1
   (flip = 1) c = top - k, top the stage's largest c.  So each stage's
   cumulative weights are the prefix S[0..M) of one table (_prefix_table),
   M = 2m under B and m otherwise, and the stage takes the first k with
   S[k] > x = v S[M-1].  Under D it picks its half first: x = v (h + w h)
   with h = S[m-1] and w = pw[m-1] = q'^(m-1), and x >= h takes the light
   half (sign - at q < 1, + at q > 1), searched at x = (x - h) / w, with c
   counted from m - 1.

   The search starts at guide[(int64_t)(x * inv)], a lower bound on k (the
   proof is at _prefix_table), and steps up.  It stops by M - 1: S[0] = 1,
   so S[M-1] >= 1 is a normal double, and v <= 1 - 2^-53 gives
   v S[M-1] < S[M-1] after rounding; D's heavy half has x < h by its test.
   Only the light half's quotient may round past S[m-1]: the sentinel
   S[size] = inf ends that walk, and the clamp to M - 1 takes it back.  At
   q' = 1e-3, w is at most 1e-18 from m = 7 on, subnormal from m = 104
   and 0 from m = 109; h + w h then rounds to h, so the light half is never
   taken and the division never meets w = 0.  type is a constant at each
   call, so the compiler drops the other types' branches. */
static inline __attribute__((always_inline)) int64_t
draw_row(int64_t n, const int type, int flip, bitgen_t *bg, const double *S,
         const int32_t *guide, const double *pw, double inv, int64_t *row)
{
    int64_t len = 0;
    for (int64_t m = n; m >= (type == 2 ? 2 : 1); m--) {
        int64_t M = type == 1 ? 2 * m : m;
        double v = bg->next_double(bg->state), h = S[M - 1], x = v * h;
        if (!(v >= 0.0 && v < 1.0))
            return -1;
        int light = 0;
        if (type == 2) {
            double w = pw[m - 1];
            x = v * (h + w * h);
            light = x >= h;
            if (light)
                x = (x - h) / w;
        }
        int64_t k = guide[(int64_t)(x * inv)];
        while (S[k] <= x)
            k++;
        k = k < M ? k : M - 1;
        int64_t c = light ? m - 1 + k : k;
        if (flip)
            c = (type == 0 ? m - 1 : type == 1 ? 2 * m - 1 : 2 * m - 2) - c;
        len += c;
        int neg = type == 2 ? light ^ flip : c >= m;
        int64_t p = neg ? c - (type == 2 ? m - 1 : m) : m - 1 - c;
        row[m - 1] = 2 * p + neg;
    }
    return len;
}

/* Statistic which (0..3: t, des, des_inv, length) of cnt tower rows of
   type 0, 1 or 2 (A, B or D) and window size n, each drawn (draw_row),
   decoded and counted in one pass, so no choice or window array exists.
   flip is q > 1, and S, guide and pw are the prefix table
   (_prefix_table).  For which = 3 the row's length is the sum of its
   contributions, and nothing is decoded.  Otherwise stage m pops its
   label into position m, and under D a negative choice also negates the
   smallest label left; labels no stage pops fill the leftmost positions.
   Placing label v at position m records the inverse, m with the sign of v
   at |v|, so row holds the window in row[0..n) and its inverse in
   row[n..2n), and out[r] is the window's statistic which (row_stat).  buf
   is scratch for n + 8 labels; the remaining ones are lab[0..left), and
   lab starts at buf + 4.  A pop closes its gap from the shorter side: the
   labels below p move up one and lab advances, or the labels above p move
   down one.  Either way the four moves next to the gap are unconditional
   scalar copies and memmove shifts only the rest, so a short shift takes
   no branch on its length.  The copies may read four slots past either end
   of the labels: lab never falls below buf + 4, and its top end never
   rises above buf + n + 4, so the pads hold them.  Returns 0, or 1 + the
   first row given a double outside [0, 1). */
int64_t tower_rows(int64_t cnt, int64_t n, int type, int which, bitgen_t *bg, int flip,
                   const double *S, const int32_t *guide, const double *pw,
                   int32_t *buf, int64_t *row, int64_t *out)
{
    int64_t last = type == 2 ? 2 : 1, size = type == 1 ? 2 * n : n;
    double inv = (double)(4 * size) / S[size - 1]; /* _prefix_table's buckets */
    int64_t *winv = row + n;
    for (int64_t r = 0; r < cnt; r++) {
        int64_t len = type == 0 ? draw_row(n, 0, flip, bg, S, guide, pw, inv, row)
                    : type == 1 ? draw_row(n, 1, flip, bg, S, guide, pw, inv, row)
                    : draw_row(n, 2, flip, bg, S, guide, pw, inv, row);
        if (len < 0)
            return r + 1;
        if (which == 3) {
            out[r] = len;
            continue;
        }
        int32_t *lab = buf + 4;
        int64_t left = n;
        for (int64_t i = 0; i < n; i++)
            lab[i] = (int32_t)(i + 1);
        for (int64_t m = n; m >= last; m--) {
            int64_t p = row[m - 1] >> 1, neg = row[m - 1] & 1;
            int64_t s = 1 - 2 * neg, u = s * lab[p], sg = (u > 0) - (u < 0);
            row[m - 1] = u;
            winv[sg * u - 1] = sg * m;
            left--;
            if (p < left - p) {
                lab[p] = lab[p - 1];
                lab[p - 1] = lab[p - 2];
                lab[p - 2] = lab[p - 3];
                lab[p - 3] = lab[p - 4];
                if (p > 4)
                    memmove(lab + 1, lab, (size_t)(p - 4) * sizeof *lab);
                lab++;
            } else {
                lab[p] = lab[p + 1];
                lab[p + 1] = lab[p + 2];
                lab[p + 2] = lab[p + 3];
                lab[p + 3] = lab[p + 4];
                if (left - p > 4)
                    memmove(lab + p + 4, lab + p + 5, (size_t)(left - p - 4) * sizeof *lab);
            }
            if (type == 2 && neg)
                lab[0] = -lab[0];
        }
        for (int64_t i = 0; i < left; i++) {
            int64_t u = lab[i], sg = (u > 0) - (u < 0);
            row[i] = u;
            winv[sg * u - 1] = sg * (i + 1);
        }
        out[r] = row_stat(row, winv, n, type, which);
    }
    return 0;
}

/* Statistic which (row_stat) of uniform windows of type 0, 1 or 2 (A, B or
   D), drawn row by row from a numpy bit generator (bitgen_t,
   numpy/random/bitgen.h) by an inside-out Fisher-Yates shuffle.  Entry i
   of a row takes one word x = next_uint64 and puts label i + 1 at a
   position j uniform on 0..i, moving the label there to position i.  j
   comes from the top 63 bits y = x >> 1 by Lemire's multiply-and-reject
   (arXiv:1805.10941): with m = y (i + 1) as a 128-bit product, j = m >> 63,
   and the word is redrawn while m mod 2^63 < 2^63 mod (i + 1), which
   happens with probability below (i + 1) / 2^63, so the law is exactly
   uniform.  Under B and D the accepted word's low bit gives the sign
   2 (x & 1) - 1 at position i, and under D the last position's sign is the
   product of the others', so that the signs have even weight.  A second
   pass applies the signs and records the inverse: entry i is v with sign
   s, so the inverse holds i + 1 with sign s at v - 1.  sg (n slots) holds
   the signs, row[0..n) the window and row[n..2n) its inverse, and out[r]
   is the window's statistic which. */
void uniform_rows(int64_t cnt, int64_t n, int type, int which, bitgen_t *bg,
                  int64_t *restrict sg, int64_t *restrict row, int64_t *restrict out)
{
    const uint64_t top = (uint64_t)1 << 63, low63 = top - 1;
    int64_t *inv = row + n;
    for (int64_t r = 0; r < cnt; r++) {
        for (int64_t i = 0; i < n; i++) {
            uint64_t range = (uint64_t)i + 1;
            uint64_t x = bg->next_uint64(bg->state);
            unsigned __int128 m = (unsigned __int128)(x >> 1) * range;
            if (((uint64_t)m & low63) < range) { /* 2^63 mod range < range */
                uint64_t reject = top % range;
                while (((uint64_t)m & low63) < reject) {
                    x = bg->next_uint64(bg->state);
                    m = (unsigned __int128)(x >> 1) * range;
                }
            }
            int64_t j = (int64_t)(m >> 63);
            row[i] = row[j];
            row[j] = i + 1;
            sg[i] = 2 * (int64_t)(x & 1) - 1;
        }
        /* signs by arithmetic, not branches: the bits are coin flips */
        int64_t prod = 1;
        for (int64_t i = 0; i < n; i++) {
            int64_t s = type ? sg[i] : 1, v = row[i];
            if (type == 2 && i == n - 1)
                s = prod;
            prod *= s;
            row[i] = s * v;
            inv[v - 1] = s * (i + 1);
        }
        out[r] = row_stat(row, inv, n, type, which);
    }
}

/* Statistic which (row_stat) of each row of the row-major (cnt, n) windows
   W of type 0, 1 or 2, after a validating build of its inverse in inv (n
   slots).  Returns 0, or 1 + the first row that is not a signed
   permutation of 1..n: an entry 0 or outside [-n, n], or a magnitude seen
   twice. */
int64_t window_stats(int64_t cnt, int64_t n, int type, int which,
                     const int64_t *W, int64_t *inv, int64_t *out)
{
    for (int64_t r = 0; r < cnt; r++) {
        const int64_t *w = W + r * n;
        memset(inv, 0, (size_t)n * sizeof *inv);
        for (int64_t i = 0; i < n; i++) {
            int64_t v = w[i], a = v < 0 ? -v : v;
            if (a < 1 || a > n || inv[a - 1])
                return r + 1;
            inv[a - 1] = v < 0 ? -(i + 1) : i + 1;
        }
        out[r] = row_stat(w, inv, n, type, which);
    }
    return 0;
}
"""
# -O1: -O2 is not measurably faster.  Pinned to one CPU, t of 1e5 B200 rows
# took 0.61-0.71 s at -O2 against 0.63-0.66 s at -O1 (medians of 7, gcc 12),
# with the same output.  -ffp-contract=off keeps a * b + c two roundings on
# targets with fused multiply-add, so the tower draw stays bit-equal to its
# numpy reference.
_DECODE_FLAGS = ("-O1", "-ffp-contract=off", "-shared", "-fPIC", "-Wall", "-Wextra")


def _compile_decoder(directory: str) -> tuple[str, str]:
    """Compile _DECODE_C in directory; returns the library path and the compiler's stderr."""
    src, lib = os.path.join(directory, "decode.c"), os.path.join(directory, "decode.so")
    with open(src, "w") as f:
        f.write(_DECODE_C)
    cmd = shlex.split(sysconfig.get_config_var("CC") or "cc") + [*_DECODE_FLAGS, "-o", lib, src]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise RuntimeError(f"cannot run the C compiler: {shlex.join(cmd)}: {exc}") from exc
    if done.returncode != 0:
        raise RuntimeError(f"the C compiler failed: {shlex.join(cmd)}\n{done.stderr}")
    return lib, done.stderr


def _cached_library() -> str | None:
    """Where the per-user cache keeps the kernels, or None if it must not be used.

    The file is kernels-<key>.so in $XDG_CACHE_HOME/coxmal (~/.cache/coxmal
    when that is unset), and key hashes the kernel source and flags, the
    compiler command with its resolved path, size and mtime, and the
    platform.  The cache is not used when its directory cannot be made or
    written, is not owned by this user or is group- or world-writable, or
    when the file exists and another user owns it.
    """
    cmd = shlex.split(sysconfig.get_config_var("CC") or "cc")
    compiler = shutil.which(cmd[0])
    if compiler is None:
        raise RuntimeError(f"cannot run the C compiler: {shlex.join(cmd)}: not found")
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    directory = os.path.join(base, "coxmal")
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        st = os.stat(directory)
    except OSError:
        return None
    writable = os.access(directory, os.W_OK | os.X_OK)
    if st.st_uid != os.getuid() or st.st_mode & 0o022 or not writable:
        return None
    cc = os.stat(compiler)
    keyed = (_DECODE_C, _DECODE_FLAGS, cmd, compiler, cc.st_size, cc.st_mtime_ns)
    key = hashlib.sha256(repr((*keyed, sysconfig.get_platform())).encode()).hexdigest()[:32]
    path = os.path.join(directory, f"kernels-{key}.so")
    try:
        if os.stat(path).st_uid != os.getuid():
            return None
    except FileNotFoundError:
        pass
    return path


def _segments_in_file(path: str) -> bool:
    """False when a PT_LOAD segment of the ELF file at path ends past the file's end.

    dlopen maps such a file, and the first touch of a page beyond the end
    kills the process with SIGBUS.  A missing file, or headers that cannot
    be read, are left to ctypes, which rejects them.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
        end = "<" if data[5] == 1 else ">"
        if data[4] == 2:  # ELFCLASS64: e_phoff at 32, p_offset at 8, p_filesz at 32
            word, at_phoff, at_phnum, at_offset, at_filesz = "Q", 32, 54, 8, 32
        else:  # ELFCLASS32: e_phoff at 28, p_offset at 4, p_filesz at 16
            word, at_phoff, at_phnum, at_offset, at_filesz = "I", 28, 42, 4, 16
        [phoff] = struct.unpack_from(end + word, data, at_phoff)
        phentsize, phnum = struct.unpack_from(end + "HH", data, at_phnum)
        for h in range(phoff, phoff + phnum * phentsize, phentsize):
            [p_type] = struct.unpack_from(end + "I", data, h)
            [offset] = struct.unpack_from(end + word, data, h + at_offset)
            [filesz] = struct.unpack_from(end + word, data, h + at_filesz)
            if p_type == 1 and offset + filesz > len(data):  # PT_LOAD
                return False
    except (OSError, IndexError, ValueError, struct.error):
        pass
    return True


@lru_cache(maxsize=None)
def _decode_lib() -> ctypes.CDLL:
    """The compiled tower and statistic kernels, loaded once per process on first use.

    They load from the per-user cache (_cached_library).  A missing file,
    one cut short inside a loaded segment (_segments_in_file), or one that
    ctypes rejects (empty, cut short in its headers, or built for another
    machine), is built in a temporary directory beside it and renamed into
    place: the rename is atomic, so processes that build at once each leave
    a complete file.  Without a usable cache the build goes to a private
    temporary directory, and the library stays mapped after that is removed.
    """
    path = _cached_library()
    if path is None:
        with tempfile.TemporaryDirectory() as d:
            lib = ctypes.CDLL(_compile_decoder(d)[0])
    else:
        try:
            if not _segments_in_file(path):
                raise OSError(f"{path} is cut short inside a loaded segment")
            lib = ctypes.CDLL(path)
        except OSError:
            with tempfile.TemporaryDirectory(dir=os.path.dirname(path)) as d:
                os.replace(_compile_decoder(d)[0], path)
            lib = ctypes.CDLL(path)
    lib.tower_rows.argtypes = (
        (ctypes.c_int64,) * 2 + (ctypes.c_int,) * 2 + (ctypes.c_void_p, ctypes.c_int) + (ctypes.c_void_p,) * 6
    )
    lib.tower_rows.restype = ctypes.c_int64
    lib.uniform_rows.argtypes = (ctypes.c_int64,) * 2 + (ctypes.c_int,) * 2 + (ctypes.c_void_p,) * 4
    lib.uniform_rows.restype = None
    lib.window_stats.argtypes = (ctypes.c_int64,) * 2 + (ctypes.c_int,) * 2 + (ctypes.c_void_p,) * 3
    lib.window_stats.restype = ctypes.c_int64
    return lib


def _uniform(kind: str, n: int, cnt: int, rng, which: int, out) -> np.ndarray:
    """The C kernel uniform_rows on cnt rows drawn from rng, a Generator on
    any numpy bit generator: statistic STATISTICS[which] of each into the
    (cnt,) array out.  Each row is an inside-out Fisher-Yates shuffle:
    entry i takes one word x of rng's next_uint64 stream, whose top 63 bits
    give a position uniform on 0..i by Lemire's multiply-and-reject, so the
    law is exactly uniform; a word is redrawn with probability below
    (i + 1) / 2**63.  Under B and D position i has the sign
    2 * (x & 1) - 1 of its accepted word; under D the last sign is the
    product of the others, so the first n - 1 iid signs stay uniform over
    the even-weight sign vectors.  The kernel draws the words itself, so no
    (cnt, n) input array exists.  rng's lock is held for the call, and the
    kernel releases the GIL; its scratch belongs to this call, so threads
    share none.
    """
    sg = np.empty(n, dtype=np.int64)
    row = np.empty(2 * n, dtype=np.int64)
    bg = rng.bit_generator
    with bg.lock:
        _decode_lib().uniform_rows(
            cnt, n, "ABD".index(kind), which, bg.ctypes.bit_generator,
            sg.ctypes.data, row.ctypes.data, out.ctypes.data,
        )
    return out


STATISTICS = ("t", "des", "des_inv", "length")  # the kernels' `which` codes (window_stats: the first three)


def _check_statistic(statistic: str) -> None:
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")


def _dihedral_stat_values(g: GroupDescriptor, statistic: str) -> np.ndarray:
    """Statistic values of the I2(m) elements, read off their lengths.

    The identity has no descent, the longest element (length m) descends
    at both generators, every other element at one, on either side.
    """
    _check_statistic(statistic)
    lengths = _dihedral_lengths(g.rank)
    des = (lengths > 0) + (lengths == g.rank).astype(np.int64)
    return {"length": lengths, "des": des, "des_inv": des, "t": 2 * des}[statistic]


def _windows_stat(kind: str, W: np.ndarray, statistic: str) -> np.ndarray:
    """t, des or des_inv of every row of an (rows, n) window array of type kind.

    For windows from outside the sampler (the enumerated windows behind
    the exact laws and the size-bias coupling table, whose stars are looked
    up among them, not recounted): the C kernel window_stats rejects a row
    that is not a signed permutation, then counts with the sampler's
    descent routine.  It
    releases the GIL for the whole call; the scratch buffer belongs to this
    call, so threads share none.  Lengths are summed from tower choices
    instead.
    """
    if statistic not in STATISTICS[:3]:
        raise ValueError(f"unknown statistic {statistic!r} for window rows (not length)")
    if kind not in ("A", "B", "D"):
        raise ValueError(f"no window statistics for kind {kind!r}")
    W = np.ascontiguousarray(W, dtype=np.int64)
    if W.ndim != 2 or W.shape[1] < 2:
        raise ValueError(f"need a (rows, n >= 2) window array, got shape {W.shape}")
    cnt, n = W.shape
    out = np.empty(cnt, dtype=np.int64)
    inv = np.empty(n, dtype=np.int64)
    bad = _decode_lib().window_stats(
        cnt, n, "ABD".index(kind), STATISTICS.index(statistic),
        W.ctypes.data, inv.ctypes.data, out.ctypes.data,
    )
    if bad:
        raise ValueError(f"window row {bad - 1} is not a signed permutation of 1..{n}")
    return out


def sample_statistic(
    spec: MallowsSpec, statistic: str, count: int, seed, threads: int = 1
) -> np.ndarray:
    """Seeded batch of statistic values; sums over product factors.

    The kernel that makes each row computes its statistic, in the thread
    that drew the chunk, so no window array is built.  Lengths are summed
    from drawn tower choices, not decoded, also at q = 1, where t, des and
    des_inv do not walk the tower.
    """
    _check_statistic(statistic)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    factor_seeds = seq.spawn(len(descriptor_factors(spec.group)))
    total = np.zeros(count, dtype=np.int64)
    for (g, q), child in zip(spec.factor_specs(), factor_seeds):
        chunks = _map_chunks(g, count, child, threads, _statistic_draw(g, q, statistic))
        if chunks:
            total += np.concatenate(chunks)
    return total


def _statistic_draw(g: GroupDescriptor, q: float, statistic: str):
    """The draw(cnt, rng) of _map_chunks that returns cnt values of statistic."""
    if g.kind == "I2":
        vals = _dihedral_stat_values(g, statistic)
        probs = _dihedral_table(g, q)
        return lambda cnt, rng: vals[rng.choice(len(probs), size=cnt, p=probs)]
    kind, n = g.kind, g.window_size
    # built once, before the sampler threads start, and shared by every chunk;
    # t, des and des_inv at q = 1 do not walk the tower
    table = _prefix_table(kind, n, q) if statistic == "length" or q != 1.0 else None
    which = STATISTICS.index(statistic)
    return lambda cnt, rng: _chunk_stats(kind, n, table, cnt, rng, which)


# ---------------------------------------------------------------------------
# identities and bounds checked against enumeration


def normalization_enumeration_check(g, q: float) -> CheckResult:
    """Closed-form Z(q) against the brute-force sum of q^length.

    The two are independent: the closed form is a product of q-integers
    (the tower's stage sums), while the A, B and D lengths are counted by
    inserting each magnitude into the windows of the smaller ones
    (enumerate_windows) and the I2(m) lengths are listed, one per element.
    A product's lengths are its factors' summed over every tuple of
    elements.
    """
    closed = normalization_constant(g, q)
    _check_enum_cap(g)  # on every call and on the product's order: the windows may be cached
    lengths = 0
    for f in descriptor_factors(g):
        lf = _dihedral_lengths(f.rank) if f.kind == "I2" else enumerate_windows(f)[1]
        lengths = np.add.outer(lengths, lf).ravel()
    w, ref = _length_weights(g, q, lengths)
    brute = float(w.sum()) * q**ref
    rel = abs(brute - closed) / closed
    tol = 1e-10
    return CheckResult(
        name="normalization-constant",
        target=f"{g} q={q:g}",
        passed=rel <= tol,
        observed=rel,
        tolerance=tol,
        detail={"closed_form": closed, "enumerated": brute},
    )


def reversal_identity_check(g, q: float, statistic: str = "t") -> CheckResult:
    """law_q(stat) must equal the reflected law at 1/q.

    Multiplying by the longest element reflects length about l(w0), descent
    number about n and the two-sided statistic about 2n, while turning the
    measure at q into the measure at 1/q.
    """
    from .moments import DiscreteDistribution, exact_distribution

    spec_q = MallowsSpec.make(g, q)
    spec_r = MallowsSpec.make(g, 1.0 / q)
    dist_q = exact_distribution(spec_q, statistic)
    dist_r = exact_distribution(spec_r, statistic)
    if statistic == "length":
        pivot = spec_q.group.longest_length()
    elif statistic in ("des", "des_inv"):
        pivot = spec_q.group.num_generators
    else:  # t; exact_distribution has rejected any other statistic
        pivot = 2 * spec_q.group.num_generators
    reflected = DiscreteDistribution(pivot - dist_r.values[::-1], dist_r.probs[::-1])
    tv = dist_q.tv_distance(reflected)
    tol = 1e-12
    return CheckResult(
        name=f"reversal-{statistic}",
        target=str(spec_q),
        passed=tv <= tol,
        observed=tv,
        tolerance=tol,
    )


def pattern_probability_bound_check(
    g: GroupDescriptor, q: float, positions, values
) -> CheckResult:
    """P(w matches the pattern) <= q^l(w') / (tail of the normalization).

    The witness w' fills the free positions with the unused magnitudes in
    increasing order; for type D an odd number of negative pattern entries
    forces one sign flip, placed at the smallest free position.

    Stated for q <= 1 (for q > 1 elements longer than the witness carry more
    weight, not less, and the inequality genuinely fails).
    """
    if g.kind not in ("B", "D"):
        raise ValueError("pattern bound applies to types B and D")
    if q > 1:
        raise ValueError("pattern bound is stated for q <= 1")
    n = g.window_size
    positions = tuple(positions)
    values = tuple(values)
    if len(positions) != len(values):
        raise ValueError("need matching position and value tuples")
    if not positions:
        return CheckResult(
            name="pattern-probability-bound",
            target=f"{g} q={q:g} empty pattern",
            passed=True,
            observed=1.0,
            bound=1.0,
        )
    if len(set(positions)) != len(positions) or not all(
        1 <= c <= n for c in positions
    ):
        raise ValueError(f"positions must be distinct and within 1..{n}")
    mags = [abs(v) for v in values]
    if len(set(mags)) != len(mags) or not all(1 <= a <= n for a in mags):
        raise ValueError("pattern values must use distinct magnitudes within range")
    k = len(positions)
    if g.kind == "D" and k >= n:
        raise ValueError("type D pattern bound needs at least one free position")

    win = [0] * n
    for c, v in zip(positions, values):
        win[c - 1] = v
    free_pos = [p for p in range(1, n + 1) if p not in set(positions)]
    free_vals = sorted(set(range(1, n + 1)) - set(mags))
    for p, v in zip(free_pos, free_vals):
        win[p - 1] = v
    if g.kind == "D" and sum(1 for v in values if v < 0) % 2 == 1:
        win[free_pos[0] - 1] = -win[free_pos[0] - 1]
    witness = "[" + ",".join(map(str, win)) + "]"

    W, lengths = enumerate_windows(g)
    wt = _length_weights(g, q, lengths)[0]
    match = np.all(W[:, np.array(positions) - 1] == values, axis=1)
    row = np.flatnonzero(match & np.all(W == win, axis=1))
    if not len(row):
        raise RuntimeError(f"witness {witness} does not match its own pattern")
    exact = float(wt[match].sum() / wt.sum())

    lw = int(lengths[row[0]])
    if g.kind == "B":
        bound = q**lw * q_even_double_factorial(n - k, q) / q_even_double_factorial(n, q)
    else:
        bound = (
            q**lw
            * q_integer(n - k, q)
            * q_even_double_factorial(n - k - 1, q)
            / (q_integer(n, q) * q_even_double_factorial(n - 1, q))
        )
    ok = exact <= bound * (1.0 + 1e-9) + 1e-15
    return CheckResult(
        name="pattern-probability-bound",
        target=f"{g} q={q:g} positions={positions} values={values}",
        passed=ok,
        observed=exact,
        bound=bound,
        detail={"witness": witness, "witness_length": lw},
    )
