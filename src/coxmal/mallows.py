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
q != 1 they run two small C kernels per chunk, shared by A, B and D:
draw_choices turns one uniform per stage into that stage's choice by
indexed inverse-CDF search, bit-identical to numpy's searchsorted, and
decode_rows places the chosen labels.  The search starts from a guide
entry that is a lower bound on the choice, so it only steps up and checks no
bound (the proof is at the kernel).  A pop closes its gap from the shorter
side, the labels below moving up or those above moving down, by four scalar
moves next to the gap and memmove only for the rest; the label scratch has
four pad slots at each end for those moves.  Neither loop then branches on
where the stage mass sits, which at q far from 1 is the first or the last
choice.  The stage tables are built together, once per factor of a
sample_statistic call, before the sampler threads start, and nothing keeps
them after it returns.  At q = 1 the kernel uniform_rows draws each row
itself by an inside-out Fisher-Yates shuffle, one 64-bit word per entry
from any numpy bit generator through its bitgen_t interface, plus a rare
redraw (probability below n / 2^63 per entry): entry i's word puts label
i + 1 at a position uniform on 0..i by Lemire's multiply-and-reject, and
under B and D its low bit gives the sign at position i.  So the law is
exactly uniform, and nothing is sorted.  Both kernels compute each row's
t, des or des_inv while the row is in cache: the decode records the
inverse as it places each label, the shuffle's sign pass writes it, and
one shared routine counts the descents of both, so no window array is
built.  A length is the sum of its tower choices' contributions, so
sampled lengths decode nothing, q = 1 included.
The exact laws share no code with the decode: their windows and lengths
come from coxeter.enumerate_windows, which inserts each magnitude into the
windows of the smaller ones, so a decode defect moves the samples but not
the laws they are tested against.
A fourth kernel, window_stats, runs the shared descent routine on window
rows from elsewhere (the exact laws, the size-bias stars), after checking
that each is a signed permutation.  The kernels run without the GIL, so
sampler threads overlap.  They are compiled with the system C compiler on
first use (about 0.15 s with gcc 12) into a per-user cache,
$XDG_CACHE_HOME/coxmal or ~/.cache/coxmal, keyed by the source, flags,
compiler and platform; later processes load the cached library (under
1 ms), and rebuild one that is cut short or that the loader rejects.  A
cache directory that cannot be written or that another user could write
is not used: each process then compiles into a private temporary
directory.
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
    SignedPermutation,
    _check_enum_cap,
    _dihedral_length_table,
    _window_length,
    descriptor_factors,
    enumerate_group,
    enumerate_windows,
    length,
    parse_group,
)
from .reports import CheckResult

Q_ONE_WINDOW = 1e-6  # |q-1| below this: evaluate q-integers by direct summation
SAMPLE_CHUNK = 16384
STAGE_BLOCK = 16  # stages whose uniforms are drawn at once: bounds the buffer


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


def _windows_and_weights(g: GroupDescriptor, q: float):
    """Every window of an A, B or D group with its scaled weight (_length_weights)."""
    W, lengths = enumerate_windows(g)
    return W, _length_weights(g, q, lengths)[0]


def pmf(w, spec: MallowsSpec) -> float:
    """mu_q(w), finite at q far from 1.

    For q > 1 each factor is reflected as in _length_weights:
    q^l / Z(q) = (1/q)^(l(w0) - l) / Z(1/q).
    """
    factors = descriptor_factors(spec.group)
    ws = w if isinstance(w, tuple) and len(factors) > 1 else (w,)
    out = 1.0
    for wf, (f, q) in zip(ws, spec.factor_specs()):
        weight, _ = _length_weights(f, q, length(wf, f))
        out *= float(weight) / normalization_constant(f, min(q, 1.0 / q))
    return out


# ---------------------------------------------------------------------------
# tower stage tables


@lru_cache(maxsize=None)
def stage_candidates(kind: str, m: int):
    """Choices when the tower fills window position m, as (a, s, contribution).

    a picks the a-th smallest remaining label, s its sign, and contribution
    is the length of the minimal coset representative realizing the choice.
    Built directly by writing down the local window and counting inversions;
    the closed-form twin below must agree (tests compare them).
    """
    signs = (1,) if kind == "A" else (1, -1)
    out = []
    for a in range(1, m + 1):
        for s in signs:
            rest = [x for x in range(1, m + 1) if x != a]
            if kind == "D" and s < 0:
                rest[0] = -rest[0]
            win = tuple(rest + [s * a])
            out.append((a, s, _window_length(kind, win)))
    return tuple(out)


def _stage_choices(kind: str, m: int):
    """Closed-form (a, s, contribution) int64 arrays, same ordering as stage_candidates.

    Type A offers a = 1..m, contributing m - a.  Types B and D offer each a
    with s = 1, contributing m - a, then with s = -1, contributing m + a - 1
    under B and m + a - 2 under D.
    """
    a = np.arange(1, m + 1, dtype=np.int64)
    if kind == "A":
        return a, np.ones(m, dtype=np.int64), m - a
    a = np.repeat(a, 2)
    s = np.tile(np.array([1, -1], dtype=np.int64), m)
    return a, s, np.where(s > 0, m - a, m + a - (1 if kind == "B" else 2))


def _tower_stages(kind: str, n: int):
    return range(n, 1 if kind == "D" else 0, -1)


def _tower_tables(kind: str, n: int, q: float):
    """Every stage table of the tower, concatenated for the draw_choices kernel.

    Returns (off, cum, guide, pop, sgn).  Stage n - t owns entries
    off[t]:off[t + 1] of the others: its cumulative weights, its guide table
    and each choice's pop index (a - 1) and sign, in _stage_choices order.
    The weights are q^contribution, scaled at q > 1 by the stage's largest
    weight so that none exceeds 1.  A uniform v starts its search at guide
    entry floor(v * len) (Chen and Asau's indexed search), and
    guide[off[t] + j] is a lower bound on the choice of every v in that
    bucket: the first choice whose cumulative weight exceeds j/len of the
    stage total shrunk by 1 - 2^-50, which lies below every v * total of
    the bucket despite rounding (the proof is at draw_choices), so the
    kernel only ever steps up.  The stages are built together, one padded
    row each, and only the guide search runs per stage; a row's valid
    prefix sums the same weights in the same order as a cumsum of that
    stage alone, so the tables are bit-equal to a stage-by-stage build.
    A B or D table set holds 17 n^2 bytes (44 MB at B1600).
    """
    per = 1 if kind == "A" else 2  # choices per label
    m = np.array(_tower_stages(kind, n))[:, None]  # stage sizes, a column
    c = np.arange(per * n)  # choice index, a row
    a, s = c // per + 1, np.where(c % per, -1, 1)
    shift = np.where(s > 0, -a, a - (1 if kind == "B" else 2))  # contribution - m
    valid = c < per * m
    # cum holds the contributions, then the weights, then their running
    # sums, in place: at rank 1600 each padded array is 41 MB
    cum = np.add(m, shift, dtype=np.float64)
    cum[~valid] = 0.0  # pads: no larger than any contribution
    if q > 1.0:
        cum -= cum.max(axis=1, keepdims=True)
    np.cumsum(np.power(q, cum, out=cum), axis=1, out=cum)
    sizes = valid.sum(axis=1)
    low = c / sizes[:, None]
    low *= cum[np.arange(len(m)), sizes - 1][:, None]
    low *= 1.0 - 2.0**-50  # below the stage total too: no search passes the last choice
    guide = np.concatenate(
        [np.searchsorted(cum[t, :z], low[t, :z], side="right") for t, z in enumerate(sizes.tolist())],
        dtype=np.int32,
    )
    del low  # freed before the flat outputs are built
    return (
        np.concatenate(([0], np.cumsum(sizes))),
        cum[valid],
        guide,
        np.broadcast_to(a - 1, valid.shape)[valid].astype(np.int32),
        np.broadcast_to(s, valid.shape)[valid].astype(np.int8),
    )


def stage_distribution(kind: str, m: int, q: float) -> np.ndarray:
    """Probabilities of the stage choices, in stage_candidates order."""
    contrib = _stage_choices(kind, m)[2].astype(np.float64)
    w = np.power(q, contrib - (contrib.max() if q > 1.0 else 0.0))
    return w / w.sum()


# ---------------------------------------------------------------------------
# dihedral factors


@lru_cache(maxsize=None)
def _dihedral_elements(m: int):
    table = _dihedral_length_table(m)
    elems = sorted(table, key=lambda w: (table[w], w.sign, w.shift))
    lengths = np.array([table[w] for w in elems], dtype=np.float64)
    return tuple(elems), lengths


def _dihedral_table(g: GroupDescriptor, q: float) -> np.ndarray:
    """Probabilities of the I2(m) elements, in _dihedral_elements order."""
    w, _ = _length_weights(g, q, _dihedral_elements(g.rank)[1])
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


def _chunk_stats(kind: str, n: int, tables, cnt: int, rng, which: int) -> np.ndarray:
    """Statistic STATISTICS[which] of cnt draws from rng, computed by the
    kernel that makes each row while the row is in cache: the tower decode
    of draws from the tower tables (_tower_tables) at q != 1, uniform_rows
    when tables is None (q = 1).  No window array is built."""
    out = np.empty(cnt, dtype=np.int64)
    if tables is None:
        return _uniform(kind, n, cnt, rng, which, out)
    return _decode(kind, n, *_draw_choices(tables, cnt, rng), which, out)


def _draw_choices(tables, cnt: int, rng):
    """Tower choices (pops, signs) of cnt windows from the tower tables
    (_tower_tables), as _decode takes them.

    Stage n - t of every window takes the t-th run of cnt uniforms v from
    rng, and its choice is the first whose cumulative weight exceeds
    v * total: exactly np.searchsorted(cum, v * cum[-1], side="right")
    clamped to the last choice.  The uniforms are drawn STAGE_BLOCK stages
    at a time into one buffer, the same stream as one rng.random(cnt) per
    stage, and each block runs the C kernel draw_choices, which releases
    the GIL for the whole call.
    """
    off, cum, guide, pop, sgn = tables
    stages = len(off) - 1
    pops = np.empty((cnt, stages), dtype=np.int32)
    signs = np.empty((cnt, stages), dtype=np.int8)
    buf = np.empty((min(stages, STAGE_BLOCK), cnt))
    draw = _decode_lib().draw_choices
    for first in range(0, stages, STAGE_BLOCK):
        u = rng.random(out=buf[: min(STAGE_BLOCK, stages - first)])
        bad = draw(
            cnt, stages, first, first + len(u), u.ctypes.data,
            off.ctypes.data, cum.ctypes.data, guide.ctypes.data, pop.ctypes.data,
            sgn.ctypes.data, pops.ctypes.data, signs.ctypes.data,
        )
        if bad:
            raise ValueError(f"uniform outside [0, 1) for choice row {bad - 1}")
    return pops, signs


def _decode(kind: str, n: int, pops: np.ndarray, signs: np.ndarray, which: int, out) -> np.ndarray:
    """The C kernel decode_rows: statistic STATISTICS[which] of the windows
    of the tower choices into the (rows,) array out.  Column t of pops and
    signs is stage n - t, which pops the pops[:, t]-th smallest remaining
    label into position n - t with sign signs[:, t]; type D's last label
    fills position 1.  It releases the GIL for the whole call; its scratch
    belongs to this call, so threads share none.
    """
    cnt, stages = pops.shape
    need = len(_tower_stages(kind, n))
    if signs.shape != pops.shape or stages != need:
        raise ValueError(f"type {kind} windows of size {n} need {need} choice columns")
    pops = np.ascontiguousarray(pops, dtype=np.int32)
    signs = np.ascontiguousarray(signs, dtype=np.int8)
    labels = np.zeros(n + 8, dtype=np.int32)
    row = np.empty(2 * n, dtype=np.int64)
    bad = _decode_lib().decode_rows(
        cnt, n, stages, "ABD".index(kind), which,
        pops.ctypes.data, signs.ctypes.data, labels.ctypes.data, row.ctypes.data, out.ctypes.data,
    )
    if bad:
        raise ValueError(f"pop index out of range in choice row {bad - 1}")
    return out


def _choice_lengths(kind: str, n: int, pops: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Lengths of the windows that _decode decodes from these tower choices.

    A window's length is the sum of its stage contributions (_stage_choices):
    stage m's pop index p = a - 1 adds m - 1 - p with sign 1, and with sign
    -1 adds m + p under B, m + p - 1 under D.  No window is decoded.
    """
    m = np.arange(n, n - pops.shape[1], -1, dtype=np.int32)
    neg = m + pops - (1 if kind == "D" else 0)
    return np.where(signs > 0, m - 1 - pops, neg).sum(axis=1, dtype=np.int64)


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

/* Row r of pops and signs holds the tower choices of window r; column t is
   stage m = n - t, which pops the pops[t]-th smallest remaining label into
   position m with sign signs[t].  Under type D (type 2) a negative choice
   also negates the smallest label left.  Labels no stage pops fill the
   leftmost positions.  Window r goes to row[0..n); placing label v at
   position p also records the inverse, p with the sign of v at |v|, in
   row[n..2n), and out[r] is the window's statistic which (row_stat).  buf
   is scratch for n + 8 labels; the remaining ones are lab[0..left), and lab
   starts at buf + 4.  A pop closes its gap from the shorter side: the
   labels below k move up one and lab advances, or the labels above k move
   down one.  Either way the four moves next to the gap are unconditional
   scalar copies and memmove shifts only the rest, so a short shift takes no
   branch on its length.  The copies may read four slots past either end of
   the labels: lab never falls below buf + 4, and its top end never rises
   above buf + n + 4, so the pads hold them.  Returns 0, or 1 + the first
   row with a pop index out of range. */
int64_t decode_rows(int64_t cnt, int64_t n, int64_t stages, int type, int which,
                    const int32_t *pops, const int8_t *signs,
                    int32_t *buf, int64_t *row, int64_t *out)
{
    int64_t *inv = row + n;
    for (int64_t r = 0; r < cnt; r++) {
        const int32_t *p = pops + r * stages;
        const int8_t *s = signs + r * stages;
        int32_t *lab = buf + 4;
        int64_t left = n;
        for (int64_t i = 0; i < n; i++)
            lab[i] = (int32_t)(i + 1);
        for (int64_t t = 0; t < stages; t++) {
            int64_t k = p[t];
            if (k < 0 || k >= left)
                return r + 1;
            int64_t v = s[t] * lab[k], sg = (v > 0) - (v < 0);
            row[n - 1 - t] = v;
            inv[sg * v - 1] = sg * (n - t);
            left--;
            if (k < left - k) {
                lab[k] = lab[k - 1];
                lab[k - 1] = lab[k - 2];
                lab[k - 2] = lab[k - 3];
                lab[k - 3] = lab[k - 4];
                if (k > 4)
                    memmove(lab + 1, lab, (size_t)(k - 4) * sizeof *lab);
                lab++;
            } else {
                lab[k] = lab[k + 1];
                lab[k + 1] = lab[k + 2];
                lab[k + 2] = lab[k + 3];
                lab[k + 3] = lab[k + 4];
                if (left - k > 4)
                    memmove(lab + k + 4, lab + k + 5, (size_t)(left - k - 4) * sizeof *lab);
            }
            if (type == 2 && s[t] < 0)
                lab[0] = -lab[0];
        }
        for (int64_t i = 0; i < left; i++) {
            int64_t v = lab[i], sg = (v > 0) - (v < 0);
            row[i] = v;
            inv[sg * v - 1] = sg * (i + 1);
        }
        out[r] = row_stat(row, inv, n, type, which);
    }
    return 0;
}

/* Columns first to last - 1 of the row-major (cnt, stages) tower choices
   pops and signs, from stage-major uniforms: u[(t - first) * cnt + r]
   drives column t of row r.  Column t's choice table is entries off[t] to
   off[t + 1] - 1 of cum (cumulative weights), guide, pop and sgn.  A
   uniform v starts at guide entry j = floor(v * len) and steps up to the
   first choice k with cum[k] > x = v * total, which is exactly numpy's
   searchsorted(cum, x, side="right"), flat runs of cum included.  The walk
   needs no bound checks:
   - guide[j] is the first choice whose cum exceeds low, the rounded
     j / len * total * (1 - 2^-50).  With u = 2^-53, (int64)(v * len) >= j
     gives v >= j / (len (1 + u)), so x >= v total (1 - u) >= low, because
     low <= j / len * total (1 + u)^3 (1 - 2^-50) and
     (1 + u)^4 (1 - 2^-50) <= 1 - u.  So the walk never has to step down.
   - v <= 1 - u and total >= 1 (the largest weight is 1) give x < total =
     cum[len - 1], so the walk stops by the last choice.
   Rows go in blocks so the row-major outputs are written while their cache
   lines are held.  Returns 0, or 1 + a row with a uniform outside
   [0, 1). */
int64_t draw_choices(int64_t cnt, int64_t stages, int64_t first, int64_t last,
                     const double *u, const int64_t *off, const double *cum,
                     const int32_t *guide, const int32_t *pop, const int8_t *sgn,
                     int32_t *pops, int8_t *signs)
{
    for (int64_t r0 = 0; r0 < cnt; r0 += 64) {
        int64_t r1 = r0 + 64 < cnt ? r0 + 64 : cnt;
        for (int64_t t = first; t < last; t++) {
            const double *c = cum + off[t], *ut = u + (t - first) * cnt;
            const int32_t *g = guide + off[t], *p = pop + off[t];
            const int8_t *s = sgn + off[t];
            int64_t len = off[t + 1] - off[t];
            double total = c[len - 1];
            for (int64_t r = r0; r < r1; r++) {
                double v = ut[r], x = v * total;
                if (!(v >= 0.0 && v < 1.0))
                    return r + 1;
                int64_t j = (int64_t)(v * len);
                int64_t k = g[j < len ? j : len - 1];
                while (c[k] <= x)
                    k++;
                pops[r * stages + t] = p[k];
                signs[r * stages + t] = s[k];
            }
        }
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
# with the same output.
_DECODE_FLAGS = ("-O1", "-shared", "-fPIC", "-Wall", "-Wextra")


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
    lib.decode_rows.argtypes = (ctypes.c_int64,) * 3 + (ctypes.c_int,) * 2 + (ctypes.c_void_p,) * 5
    lib.decode_rows.restype = ctypes.c_int64
    lib.draw_choices.argtypes = (ctypes.c_int64,) * 4 + (ctypes.c_void_p,) * 8
    lib.draw_choices.restype = ctypes.c_int64
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


STATISTICS = ("t", "des", "des_inv", "length")  # the first three: the kernels' `which` codes


def _check_statistic(statistic: str) -> None:
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")


def _dihedral_stat_values(g: GroupDescriptor, statistic: str) -> np.ndarray:
    """Statistic values of the I2(m) elements, read off their lengths.

    The identity has no descent, the longest element (length m) descends
    at both generators, every other element at one, on either side.
    """
    _check_statistic(statistic)
    lengths = _dihedral_elements(g.rank)[1].astype(np.int64)
    des = (lengths > 0) + (lengths == g.rank).astype(np.int64)
    return {"length": lengths, "des": des, "des_inv": des, "t": 2 * des}[statistic]


def _windows_stat(kind: str, W: np.ndarray, statistic: str) -> np.ndarray:
    """t, des or des_inv of every row of an (rows, n) window array of type kind.

    For windows from outside the sampler (the exact laws, the size-bias
    stars): the C kernel window_stats rejects a row that is not a signed
    permutation, then counts with the sampler's descent routine.  It
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
    tables = _tower_tables(kind, n, q) if statistic == "length" or q != 1.0 else None
    if statistic == "length":
        return lambda cnt, rng: _choice_lengths(kind, n, *_draw_choices(tables, cnt, rng))
    which = STATISTICS.index(statistic)
    return lambda cnt, rng: _chunk_stats(kind, n, tables, cnt, rng, which)


# ---------------------------------------------------------------------------
# identities and bounds checked against enumeration


def normalization_enumeration_check(g, q: float) -> CheckResult:
    """Closed-form Z(q) against the brute-force sum of q^length.

    The lengths are the object model's: the tower's summed contributions
    would equal the closed form by construction.
    """
    closed = normalization_constant(g, q)
    _check_enum_cap(g)  # on every call: the lengths below may be cached
    w, ref = _length_weights(g, q, _object_lengths(g))
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


@lru_cache(maxsize=1)
def _object_lengths(g) -> tuple[int, ...]:
    """The object model's length of every element, built once per group."""
    return tuple(length(w, g) for w in enumerate_group(g))


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
    witness = SignedPermutation(tuple(win))

    W, wt = _windows_and_weights(g, q)
    match = np.all(W[:, np.array(positions) - 1] == values, axis=1)
    if not np.all(W[match] == win, axis=1).any():
        raise RuntimeError(f"witness {witness} does not match its own pattern")
    exact = float(wt[match].sum() / wt.sum())

    lw = length(witness, g)
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
        detail={"witness": str(witness), "witness_length": lw},
    )
