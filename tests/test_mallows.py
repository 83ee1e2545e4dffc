import ctypes
import gc
import itertools
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import threading
import tracemalloc
import types
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.stats

import coxmal
from coxmal.coxeter import (
    EnumerationCapError,
    SignedPermutation,
    descent_number,
    enumerate_group,
    enumerate_windows,
    length,
    parse_group,
    two_sided_descent,
)
from coxmal.mallows import (
    _DECODE_C,
    _DECODE_FLAGS,
    SAMPLE_CHUNK,
    STAGE_BLOCK,
    MallowsSpec,
    _choice_lengths,
    _chunk_stats,
    _compile_decoder,
    _decode,
    _decode_lib,
    _dihedral_stat_values,
    _dihedral_table,
    _draw_choices,
    _map_chunks,
    _segments_in_file,
    _stage_choices,
    _tower_stages,
    _tower_tables,
    _uniform,
    _windows_and_weights,
    _windows_stat,
    normalization_constant,
    normalization_enumeration_check,
    pattern_probability_bound_check,
    pmf,
    q_even_double_factorial,
    q_factorial,
    q_integer,
    reversal_identity_check,
    sample_statistic,
    stage_candidates,
    stage_distribution,
)
from coxmal.moments import exact_distribution, goodness_of_fit
from window_reference import (
    chunk_windows,
    itertools_windows,
    reference_decode,
    reference_uniform,
    sampled_windows,
    windows_lengths,
    windows_statistic,
)

STATS = ("t", "des", "des_inv", "length")
WINDOW_STATS = ("t", "des", "des_inv")  # the statistics of the window_stats kernel


def test_q_analogues():
    assert q_integer(4, 1.0) == 4.0
    assert q_integer(3, 2.0) == 7.0
    assert math.isclose(q_factorial(4, 0.5), 1 * 1.5 * 1.75 * 1.875)
    # near q = 1 the direct sum takes over; continuity across the switch
    assert abs(q_integer(7, 1.0 + 1e-7) - q_integer(7, 1.0 - 1e-7)) < 1e-5
    assert q_even_double_factorial(3, 1.0) == 2 * 4 * 6


@pytest.mark.parametrize(
    "name", ["A2", "A4", "B2", "B4", "D4", "I2(3)", "I2(8)", "B3 x A2", "A2 x I2(5)"]
)
@pytest.mark.parametrize("q", [0.5, 1.0, 3.0])
def test_normalization_closed_form(name, q):
    g = parse_group(name)
    brute = sum(q ** length(w, g) for w in enumerate_group(g))
    closed = normalization_constant(g, q)
    assert math.isclose(brute, closed, rel_tol=1e-12)
    check = normalization_enumeration_check(g, q)
    assert check.passed


def test_normalization_rejects_bad_q():
    g = parse_group("B3")
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            normalization_constant(g, bad)


def test_spec_broadcast_and_q_access():
    spec = MallowsSpec.make("B3 x A2", 0.5)
    assert spec.qs == (0.5, 0.5)
    assert spec.q == 0.5
    spec2 = MallowsSpec.make("B3 x A2", [0.5, 2.0])
    with pytest.raises(ValueError):
        spec2.q
    with pytest.raises(ValueError):
        MallowsSpec.make("B3 x A2", [0.5, 1.0, 2.0])
    assert MallowsSpec.make("B3 x A2", [0.5]).qs == (0.5, 0.5)
    assert str(MallowsSpec.make("B4", 0.5)) == "B4 q=0.5"


def test_pmf_identity_and_ratio():
    g = parse_group("B3")
    spec = MallowsSpec.make(g, 0.5)
    e = SignedPermutation.identity(3)
    assert math.isclose(pmf(e, spec), 1.0 / normalization_constant(g, 0.5))
    w = SignedPermutation((-1, 2, 3))
    assert math.isclose(pmf(w, spec) / pmf(e, spec), 0.5 ** length(w, g))
    total = sum(pmf(w, spec) for w in enumerate_group(g))
    assert math.isclose(total, 1.0, rel_tol=1e-12)


@pytest.mark.parametrize("name", ["A4", "B3", "D4"])
@pytest.mark.parametrize("q", [0.5, 2.0])
def test_pmf_matches_enumerated_weights(name, q):
    g = parse_group(name)
    W, wt = _windows_and_weights(g, q)
    spec = MallowsSpec.make(g, q)
    got = np.array([pmf(SignedPermutation(tuple(row)), spec) for row in W.tolist()])
    assert np.abs(got - wt / wt.sum()).max() <= 1e-14


def test_pmf_finite_far_from_one():
    """At q = 1e31 the longest element carries all the mass; q^l overflows."""
    spec = MallowsSpec.make("A4", 1e31)
    assert math.isclose(pmf(SignedPermutation((5, 4, 3, 2, 1)), spec), 1.0, rel_tol=1e-14)
    assert pmf(SignedPermutation.identity(5), spec) < 1e-300


@pytest.mark.parametrize("kind", ["A", "B", "D"])
def test_stage_tables_agree(kind):
    """The enumerated stage table and its closed form must be identical."""
    for m in range(2 if kind == "D" else 1, 10):
        closed = tuple(zip(*(x.tolist() for x in _stage_choices(kind, m))))
        assert stage_candidates(kind, m) == closed


def _list_contributions(kind, m):
    """The stage contributions as tuples, built by a Python loop."""
    out = []
    for a in range(1, m + 1):
        out.append((a, 1, m - a))
        if kind != "A":
            out.append((a, -1, m + a - (1 if kind == "B" else 2)))
    return out


def _list_tower_tables(kind, n, q):
    """_tower_tables built stage by stage from Python lists of choices."""
    stages = []
    for m in _tower_stages(kind, n):
        cands = stage_candidates(kind, m) if m <= 8 else _list_contributions(kind, m)
        a = np.array([c[0] for c in cands], dtype=np.int64)
        s = np.array([c[1] for c in cands], dtype=np.int64)
        contrib = np.array([c[2] for c in cands], dtype=np.float64)
        if q > 1.0:
            contrib = contrib - contrib.max()
        stages.append((a, s, np.cumsum(np.power(q, contrib))))
    guides = []
    for _, _, cum in stages:
        size = len(cum)
        low = np.arange(size) / size * cum[-1] * (1.0 - 2.0**-50)
        guides.append(np.minimum(np.searchsorted(cum, low, side="right"), size - 1))
    return (
        np.cumsum([0] + [len(cum) for _, _, cum in stages], dtype=np.int64),
        np.concatenate([cum for _, _, cum in stages]),
        np.concatenate(guides).astype(np.int32),
        np.concatenate([a for a, _, _ in stages]).astype(np.int32) - 1,
        np.concatenate([s for _, s, _ in stages]).astype(np.int8),
    )


@pytest.mark.parametrize("kind", ["A", "B", "D"])
@pytest.mark.parametrize("q", [1e-3, 0.5, 2.0, 1e3])
def test_tower_tables_equal_the_list_build(kind, q):
    """The numpy closed form builds the same tables, to the bit, as the
    enumerated choices (stages up to 8) and the list loop (the rest).  Rank
    201 holds every stage table from 1 to 201."""
    for m in range(2 if kind == "D" else 1, 9):
        assert stage_candidates(kind, m) == tuple(_list_contributions(kind, m))
    for n in (2, 3, 50, 201):
        got, want = _tower_tables(kind, n, q), _list_tower_tables(kind, n, q)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (n, x.dtype)


def _smallest_in_bucket(j, size):
    """The smallest double v with (int64)(v * size) >= j, elementwise, found
    by nextafter steps from j / size."""
    v = j / size
    while True:
        down = np.nextafter(v, 0.0)
        step = (v > 0) & ((down * size).astype(np.int64) >= j)
        if not step.any():
            break
        v = np.where(step, down, v)
    while True:
        step = (v * size).astype(np.int64) < j
        if not step.any():
            return v
        v = np.where(step, np.nextafter(v, 1.0), v)


@pytest.mark.parametrize("kind", ["A", "B", "D"])
@pytest.mark.parametrize("q", [1e-3, 0.25, 0.5, 0.97, 1.0, 1.03, 2.0, 4.0, 1e3])
def test_guide_is_a_lower_bound(kind, q):
    """draw_choices only steps up from its guide entry, and stops by the last
    choice without a bound check.  So every guide entry j must be at most
    the choice of the smallest uniform of its bucket (the choices grow with
    v), and the largest uniform must land below the stage total."""
    for n in (2, 3, 7, 50, 201):
        off, cum, guide, _, _ = _tower_tables(kind, n, q)
        for t in range(len(off) - 1):
            c, g = cum[off[t] : off[t + 1]], guide[off[t] : off[t + 1]]
            size = len(c)
            v = _smallest_in_bucket(np.arange(size), size)
            assert ((v * size).astype(np.int64) == np.arange(size)).all()
            choice = np.minimum(np.searchsorted(c, v * c[-1], side="right"), size - 1)
            assert (g <= choice).all(), (n, t)
            assert np.nextafter(1.0, 0.0) * c[-1] < c[-1]


@pytest.mark.parametrize("name,q", [("A3", 0.7), ("B3", 0.7), ("B3", 2.5), ("D4", 0.7)])
def test_tower_walk_reproduces_pmf(name, q):
    """Walk every choice sequence of the tower, decode it, and accumulate its
    probability: the resulting law must equal q^len / Z exactly.  This is the
    sampler's correctness proof with the randomness stripped out."""
    g = parse_group(name)
    kind, n = g.kind, g.window_size
    spec = MallowsSpec.make(g, q)
    stages = list(_tower_stages(kind, n))
    law = {}
    choice_lists = [
        list(zip(stage_candidates(kind, m), stage_distribution(kind, m, q)))
        for m in stages
    ]
    for combo in itertools.product(*choice_lists):
        prob = 1.0
        labels = list(range(1, n + 1))
        win = [0] * n
        for ((a, s, _), p), m in zip(combo, stages):
            prob *= p
            win[m - 1] = s * labels.pop(a - 1)
            if kind == "D" and s < 0:
                labels[0] = -labels[0]
        if kind == "D":
            win[0] = labels[0]
        w = SignedPermutation(tuple(win))
        assert w not in law, "two choice sequences decoded to the same element"
        law[w] = prob
    assert len(law) == g.order()
    for w, p in law.items():
        assert abs(p - pmf(w, spec)) < 1e-14


def test_stage_products_telescope_to_normalization():
    for name, q in (("B5", 0.6), ("D5", 0.6), ("A5", 1.7)):
        g = parse_group(name)
        kind, n = g.kind, g.window_size
        prod = 1.0
        for m in _tower_stages(kind, n):
            prod *= sum(q ** c for c in _stage_choices(kind, m)[2].tolist())
        assert math.isclose(prod, normalization_constant(g, q), rel_tol=1e-12)


@pytest.mark.parametrize(
    "name,q",
    [("A4", 0.5), ("B4", 0.5), ("D4", 2.0), ("A200", 0.5), ("B200", 0.5), ("D200", 2.0)],
)
def test_sample_windows_deterministic_across_threads(name, q):
    """Sampled t and lengths do not depend on the thread count.  More than
    two chunks, so threads=3 really splits the work; at rank 200 the decoder
    runs long enough without the GIL for the threads to overlap."""
    spec = MallowsSpec.make(name, q)
    count = 2 * SAMPLE_CHUNK + 1
    for stat in ("t", "length"):
        a = sample_statistic(spec, stat, count, seed=42, threads=1)
        b = sample_statistic(spec, stat, count, seed=42, threads=3)
        assert np.array_equal(a, b), stat
        c = sample_statistic(spec, stat, count, seed=43, threads=1)
        assert not np.array_equal(a, c), stat


def _random_choices(kind, n, count, rng):
    stages = list(_tower_stages(kind, n))
    pops = np.stack([rng.integers(0, m, count) for m in stages], axis=1).astype(np.int32)
    signs = np.ones(pops.shape, dtype=np.int8)
    if kind != "A":
        signs[rng.random(pops.shape) < 0.5] = -1
    return pops, signs


@pytest.mark.parametrize("kind", ["A", "B", "D"])
@pytest.mark.parametrize("n", [2, 4, 7, 50, 300])
def test_decode_rows_matches_reference(kind, n):
    """Random stage choices; n = 2 is type D's smallest tower, n = 300 has
    labels above 255.  Fixed rows pop at either end and in the middle, where
    the decoder closes the gap from one side or the other, and alternate
    the ends, with D negations after the low-end pops.  The kernel's t, des
    and des_inv equal those of the reference decode's windows."""
    rng = np.random.default_rng(1000 * n + ord(kind))
    pops, signs = _random_choices(kind, n, 2500, rng)
    left = np.array(list(_tower_stages(kind, n)), dtype=np.int32)  # labels left at each stage
    bottom = np.zeros_like(left)
    even = np.arange(len(left)) % 2 == 0
    fixed = [left - 1, bottom, left // 2, (left - 1) // 2]
    fixed += [np.where(even, bottom, left - 1), np.where(even, left - 1, bottom)]
    pops = np.concatenate([pops] + [np.tile(row, (20, 1)) for row in fixed])
    neg = np.where(fixed[4] == 0, -1, 1), np.where(fixed[5] == 0, -1, 1)
    fixed_signs = [signs[:80], np.tile(neg[0], (20, 1)), np.tile(neg[1], (20, 1))]
    signs = np.concatenate([signs] + fixed_signs).astype(np.int8)
    if kind == "A":
        signs[:] = 1
    W = reference_decode(kind, n, pops, signs)
    assert np.array_equal(np.sort(np.abs(W), axis=1), np.tile(np.arange(1, n + 1), (len(W), 1)))
    if kind == "D":
        assert ((W < 0).sum(axis=1) % 2 == 0).all()
        unflipped = reference_decode(kind, n, pops, signs, d_flip=False)
    for which, stat in enumerate(WINDOW_STATS):
        got = _decode(kind, n, pops, signs, which, np.empty(len(pops), dtype=np.int64))
        assert got.dtype == np.int64
        assert np.array_equal(got, windows_statistic(kind, W, stat)), stat
        if kind == "D" and n > 2:
            # negative control: the comparison sees a decode without the D
            # flip (at n = 2 both decodes give the same statistics)
            assert not np.array_equal(got, windows_statistic(kind, unflipped, stat)), stat


def test_decode_rows_rejects_bad_choices():
    pops, signs = _random_choices("B", 5, 10, np.random.default_rng(0))
    out = np.empty(10, dtype=np.int64)
    for bad in (5, -1):  # stage 5 offers pop indices 0..4
        p = pops.copy()
        p[3, 0] = bad
        for which in range(3):
            with pytest.raises(ValueError, match="row 3"):
                _decode("B", 5, p, signs, which, out)
    with pytest.raises(ValueError):
        _decode("D", 5, pops, signs, 0, out)  # D5 has four stages, not five
    with pytest.raises(ValueError):
        _decode("B", 5, pops, signs[:, :4], 0, out)


def _stage_arrays(kind, m, q):
    """(a, s, cumweight) arrays of one stage, weights scaled to <= 1: the
    stage-by-stage reference of _tower_tables and the draw_choices kernel."""
    a, s, contrib = _stage_choices(kind, m)
    contrib = contrib.astype(np.float64)
    if q > 1.0:
        contrib = contrib - contrib.max()
    return a, s, np.cumsum(np.power(q, contrib))


def _reference_choices(kind, n, q, cnt, uniforms, side="right"):
    """The per-stage numpy inverse-CDF draws: the draw_choices kernel's
    reference.  uniforms yields one array of cnt uniforms per stage, stage n
    first."""
    stages = list(_tower_stages(kind, n))
    pops = np.empty((cnt, len(stages)), dtype=np.int32)
    signs = np.empty((cnt, len(stages)), dtype=np.int8)
    for t, (m, u) in enumerate(zip(stages, uniforms)):
        a_arr, s_arr, cum = _stage_arrays(kind, m, q)
        col = np.searchsorted(cum, u * cum[-1], side=side)
        np.minimum(col, len(cum) - 1, out=col)
        pops[:, t] = a_arr[col] - 1
        signs[:, t] = s_arr[col]
    return pops, signs


def _tie_uniforms(kind, n, q, cnt, rng):
    """Stage-major uniforms whose first entries put u * total on, or a few
    ulps beside, every cumulative weight and every guide boundary of the
    stage, where a search that breaks ties the wrong way or stops at its
    guide entry picks another choice; the rest are random."""
    stages = list(_tower_stages(kind, n))
    u = rng.random((len(stages), cnt))
    for t, m in enumerate(stages):
        cum = _stage_arrays(kind, m, q)[2]
        near = [np.concatenate([cum / cum[-1], np.arange(len(cum)) / len(cum)])]
        for _ in range(2):
            near += [np.nextafter(near[-1], 0.0), np.nextafter(near[-1], 1.0)]
        r = np.unique(np.concatenate(near))
        r = r[r < 1.0]
        u[t, : len(r)] = r
    return u


class _Rows:
    """Stands in for the generator: random(out=...) hands out the rows of u
    in order."""

    def __init__(self, u):
        self.u, self.next = u, 0

    def random(self, out):
        out[...] = self.u[self.next : self.next + len(out)]
        self.next += len(out)
        return out


@pytest.mark.parametrize("kind", ["A", "B", "D"])
@pytest.mark.parametrize("n", [2, 4, 7, 50, 200, 300])
@pytest.mark.parametrize("q", [1e-3, 0.3, 0.97, 1.03, 3.0, 1e3])
def test_stage_choices_match_reference(kind, n, q):
    """The C stage draws equal numpy's searchsorted walk bit for bit, on the
    seeded stream and on uniforms that land on ties.  Row counts are no
    multiple of the kernel's row block, and stage counts span several
    STAGE_BLOCKs and part of one."""
    stages = len(_tower_stages(kind, n))
    cnt = 20 * n + 37
    seed = 1000 * n + ord(kind)
    tables = _tower_tables(kind, n, q)
    got = _draw_choices(tables, cnt, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    want = _reference_choices(kind, n, q, cnt, (rng.random(cnt) for _ in range(stages)))
    assert got[0].dtype == np.int32 and got[1].dtype == np.int8
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    u = _tie_uniforms(kind, n, q, cnt, np.random.default_rng(seed))
    got = _draw_choices(tables, cnt, _Rows(u))
    want = _reference_choices(kind, n, q, cnt, u)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    # negative control: the ties are there, and the comparison sees them
    left = _reference_choices(kind, n, q, cnt, u, side="left")
    assert not (np.array_equal(got[0], left[0]) and np.array_equal(got[1], left[1]))


def test_draw_choices_rejects_bad_uniforms():
    u = np.random.default_rng(0).random((5, 10))
    for bad in (1.0, -0.25, np.nan):
        v = u.copy()
        v[2, 3] = bad
        with pytest.raises(ValueError, match="row 3"):
            _draw_choices(_tower_tables("B", 5, 0.5), 10, _Rows(v))


class _Bitgen(ctypes.Structure):
    """numpy's bitgen_t (numpy/random/bitgen.h)."""

    _fields_ = [
        ("state", ctypes.c_void_p),
        ("next_uint64", ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)),
        ("next_uint32", ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)),
        ("next_double", ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)),
        ("next_raw", ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)),
    ]


class _FakeBitgen:
    """A stand-in for a numpy Generator, as _uniform reads it, whose bit
    generator hands out the given 64-bit words by next_uint64.  calls logs,
    by name, each bitgen_t function the kernel calls."""

    def __init__(self, words):
        words = iter(np.asarray(words, dtype=np.uint64).tolist())
        self.calls = []

        def logged(name, value):
            def call(state):
                self.calls.append(name)
                return value()

            return call

        self._fns = [
            ftype(logged(name, (lambda: next(words)) if name == "next_uint64" else (lambda: 0)))
            for name, ftype in _Bitgen._fields_[1:]
        ]
        self.struct = _Bitgen(None, *self._fns)
        self.bit_generator, self.lock = self, threading.Lock()
        self.ctypes = types.SimpleNamespace(bit_generator=ctypes.addressof(self.struct))


def _fed_uniform_rows(kind, words, which):
    """uniform_rows fed the (cnt, n) words by a fake bit generator: statistic
    which of each row, after checking that the kernel made exactly one
    next_uint64 call per entry and no other call."""
    cnt, n = words.shape
    rng = _FakeBitgen(words.ravel())
    out = _uniform(kind, n, cnt, rng, which, np.empty(cnt, dtype=np.int64))
    assert rng.calls == ["next_uint64"] * words.size
    return out


@pytest.mark.parametrize("kind", ["A", "B", "D"])
@pytest.mark.parametrize("n", [2, 3, 49, 50, 149, 200, 201])
def test_uniform_rows_matches_stable_argsort(kind, n):
    """The shuffle kernel's t, des and des_inv are those of the reference
    shuffle (reference_uniform), on the seeded stream and, fed by a fake bit
    generator, on other words.  (The name is older than the shuffle, which
    sorts nothing.)"""
    cnt = 600
    words = np.random.default_rng(n).integers(0, 2**64, (cnt, n), dtype=np.uint64)
    want = reference_uniform(kind, words)
    for which, stat in enumerate(WINDOW_STATS):
        got = _uniform(kind, n, cnt, np.random.default_rng(n), which, np.empty(cnt, dtype=np.int64))
        assert np.array_equal(got, windows_statistic(kind, want, stat)), stat

    cnt = 101
    words = np.random.default_rng(1000 * n + ord(kind)).integers(0, 2**64, (cnt, n), dtype=np.uint64)
    want = reference_uniform(kind, words)
    unfixed = reference_uniform(kind, words, parity=False)
    for which, stat in enumerate(WINDOW_STATS):
        got = _fed_uniform_rows(kind, words, which)
        assert np.array_equal(got, windows_statistic(kind, want, stat)), stat
        if kind == "D" and stat != "des_inv":
            # negative control: the comparison sees the parity fix.  des_inv
            # sees the last sign only in rows whose last entry is +-n (the
            # flipped inverse entry +-n adds a descent on one side and takes
            # one away on the other), about one row in n
            assert not np.array_equal(got, windows_statistic(kind, unfixed, stat)), stat


@pytest.mark.parametrize("kind", ["A", "B", "D"])
def test_uniform_rows_redraw_rejected_words(kind):
    """Entry 2 draws its position from range 3, whose rejection threshold is
    2**63 mod 3 = 2: a word whose m = (x >> 1) * 3 has m mod 2**63 of 0
    or 1 is rejected, and one with 2 is kept.  Fed a rejected word at entry
    2 of every row, the kernel makes exactly one more next_uint64 call per
    row and gives the rows that the words without it give, signs included."""
    inv3 = pow(3, -1, 2**63)
    rejected = [0, 2 * inv3]  # m mod 2**63 = 0 and 1; both have sign bit 0
    cnt = 60
    words = np.random.default_rng(ord(kind)).integers(0, 2**64, (cnt, 3), dtype=np.uint64)
    words[:, 2] |= np.uint64(1)  # so the kept word's sign differs from the rejected one's
    words[0, 2] = 2 * (2 * inv3 % 2**63) + 1  # m mod 2**63 = 2: kept
    stream = np.insert(words, 2, np.array(rejected, dtype=np.uint64)[np.arange(cnt) % 2], axis=1)
    want = reference_uniform(kind, words)
    for which, stat in enumerate(WINDOW_STATS):
        rng = _FakeBitgen(stream.ravel())
        got = _uniform(kind, 3, cnt, rng, which, np.empty(cnt, dtype=np.int64))
        assert rng.calls == ["next_uint64"] * stream.size
        assert np.array_equal(got, windows_statistic(kind, want, stat)), stat


@pytest.mark.parametrize("kind", ["A", "B", "D"])
@pytest.mark.parametrize(
    "bit_generator",
    [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox, np.random.SFC64],
)
def test_uniform_rows_take_one_word_per_entry(kind, bit_generator):
    """uniform_rows draws one word per entry from any numpy bit generator:
    its rows are the reference shuffle of the words of
    rng.integers(0, 2**64, (cnt, n), dtype=np.uint64),
    and rng ends where that call leaves it, for each statistic, at an odd,
    an even and a zero cnt * n, also after an odd-sized int32 draw, whose
    left-over 32-bit half word (in the generators that keep one) the words
    leave alone."""
    for cnt, n in ((3, 7), (4, 7), (3, 8), (0, 5), (1, 201), (773, 50)):
        for before in (0, 3):

            def fresh():
                rng = np.random.Generator(bit_generator(1000 * cnt + n))
                rng.integers(0, 2, before, np.int32)
                return rng

            for which, stat in enumerate(WINDOW_STATS):
                ref, rng = fresh(), fresh()
                want = reference_uniform(kind, ref.integers(0, 2**64, (cnt, n), dtype=np.uint64))
                got = _uniform(kind, n, cnt, rng, which, np.empty(cnt, dtype=np.int64))
                assert np.array_equal(got, windows_statistic(kind, want, stat))
                assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
                assert np.array_equal(rng.integers(0, 2, 5, np.int32), ref.integers(0, 2, 5, np.int32))
                assert np.array_equal(rng.random(3), ref.random(3))


def test_bitgen_layout_matches_numpy():
    """The bitgen_t that the kernels declare is numpy's, field for field, so
    a numpy release that changes the interface fails here, not in a run."""

    def fields(text):
        [body] = re.findall(r"typedef struct bitgen \{(.*?)\} bitgen_t;", text, re.S)
        return [" ".join(f.split()) for f in body.split(";") if f.strip()]

    with open(os.path.join(np.get_include(), "numpy", "random", "bitgen.h")) as f:
        want = fields(f.read())
    assert fields(_DECODE_C) == want
    assert [name for name, _ in _Bitgen._fields_] == [re.search(r"\*(\w+)", f)[1] for f in want]


@pytest.mark.parametrize("name", ["A1", "A5", "B2", "B4", "D4", "D5"])
def test_window_stats_matches_references_on_enumerations(name):
    """Every element: the C kernel equals the numpy references and the object
    model bit for bit, for t, des and des_inv."""
    g = parse_group(name)
    W = itertools_windows(g)
    got = {stat: _windows_stat(g.kind, W, stat) for stat in WINDOW_STATS}
    for stat in WINDOW_STATS:
        assert got[stat].dtype == np.int64
        assert np.array_equal(got[stat], windows_statistic(g.kind, W, stat)), stat
    elems = list(enumerate_group(g))
    assert np.array_equal(got["des"], [descent_number(w, g) for w in elems])
    assert np.array_equal(got["des_inv"], [descent_number(w, g, "left") for w in elems])
    assert np.array_equal(got["t"], [two_sided_descent(w, g) for w in elems])


@pytest.mark.parametrize("name", ["A200", "B200", "D200"])
@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_window_stats_matches_references_on_samples(name, q):
    g = parse_group(name)
    W = sampled_windows(g, q, 4096, seed=11)
    for stat in WINDOW_STATS:
        want = windows_statistic(g.kind, W, stat)
        assert np.array_equal(_windows_stat(g.kind, W, stat), want), stat
        if g.kind == "D" and stat != "des_inv":
            # negative control: the comparison sees the type-B s_0 rule
            assert not np.array_equal(_windows_stat("B", W, stat), want), stat


def test_window_stats_rejects_bad_windows():
    W = itertools_windows(parse_group("B3"))[:10].copy()
    for bad in (0, 4, -4):
        V = W.copy()
        V[7, 1] = bad
        for stat in WINDOW_STATS:
            with pytest.raises(ValueError, match="row 7"):
                _windows_stat("B", V, stat)
    V = W.copy()
    V[5] = (1, -1, 2)  # magnitude 1 twice
    with pytest.raises(ValueError, match="row 5"):
        _windows_stat("B", V, "des")
    with pytest.raises(ValueError, match="unknown statistic"):
        _windows_stat("B", W, "foo")
    with pytest.raises(ValueError, match="unknown statistic 'length'"):
        _windows_stat("B", W, "length")
    with pytest.raises(ValueError):
        _windows_stat("I2", W, "t")


@pytest.mark.parametrize("kind", ["A", "B", "D"])
@pytest.mark.parametrize("n", [2, 3, 7, 50, 201])
@pytest.mark.parametrize("q", [1e-3, 0.5, 1.0, 2.0, 1e3])
def test_fused_rows_equal_window_stats(kind, n, q):
    """The kernels that make each row compute its statistic from the inverse
    they record while placing the labels: the values equal window_stats and
    the numpy reference on the same seeded windows, decoded (q != 1) or
    uniform (q = 1)."""
    cnt, seed = 300, 1000 * n + ord(kind)
    W = chunk_windows(kind, n, q, cnt, np.random.default_rng(seed))
    tables = None if q == 1.0 else _tower_tables(kind, n, q)
    for which, stat in enumerate(WINDOW_STATS):
        got = _chunk_stats(kind, n, tables, cnt, np.random.default_rng(seed), which)
        want = _windows_stat(kind, W, stat)
        assert got.dtype == np.int64 and np.array_equal(got, want), stat
        assert np.array_equal(got, windows_statistic(kind, W, stat)), stat


ENUMERATED_GROUPS = [f"A{r}" for r in range(1, 8)] + [f"B{r}" for r in range(2, 8)] + [
    f"D{r}" for r in range(4, 8)
]


def _lexsorted(W):
    return W[np.lexsort(W.T[::-1])]


@pytest.mark.parametrize("name", ENUMERATED_GROUPS)
def test_tower_enumeration_equals_itertools(name):
    """The exact laws' window enumeration, which inserts each magnitude into
    the windows of the smaller ones and walks no tower, has the itertools
    enumeration's rows, as a set, and each length, summed from the
    insertions, is the numpy reference's count on the row (and, up to rank
    5, the object model's).  (The name is older than the insertion.)"""
    g = parse_group(name)
    W, lengths = enumerate_windows(g)
    assert W.dtype == lengths.dtype == np.int64 and W.shape == (g.order(), g.window_size)
    assert not W.flags.writeable and not lengths.flags.writeable
    assert np.array_equal(_lexsorted(W), _lexsorted(itertools_windows(g)))
    assert np.array_equal(lengths, windows_lengths(g.kind, W))
    if g.rank <= 5:
        assert lengths.tolist() == [length(SignedPermutation(tuple(w)), g) for w in W.tolist()]


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "D5"])
def test_stage_tables_are_a_bijection_onto_the_group(name):
    """Every tuple of tower stage choices, decoded by the reference decode,
    gives each element of the group once, and the length summed from its
    choices (_choice_lengths) is that element's length in the object model."""
    g = parse_group(name)
    kind, n = g.kind, g.window_size
    stages = [_stage_choices(kind, m) for m in _tower_stages(kind, n)]
    pick = np.array(list(itertools.product(*(range(len(a)) for a, _, _ in stages))))
    pops = np.stack([a[pick[:, t]] - 1 for t, (a, _, _) in enumerate(stages)], axis=1)
    signs = np.stack([s[pick[:, t]] for t, (_, s, _) in enumerate(stages)], axis=1)
    pops, signs = pops.astype(np.int32), signs.astype(np.int8)
    W = reference_decode(kind, n, pops, signs)
    assert len(W) == g.order() == len(np.unique(W, axis=0))
    assert np.array_equal(_lexsorted(W), _lexsorted(itertools_windows(g)))
    want = [length(SignedPermutation(tuple(w)), g) for w in W.tolist()]
    assert _choice_lengths(kind, n, pops, signs).tolist() == want


def test_tower_enumeration_checks_the_cap_on_every_call(monkeypatch):
    """A cap lowered after the group is cached still refuses it, in the
    window enumeration and in the object-model lengths of the Z check.
    (The name is older than the insertion enumeration.)"""
    g = parse_group("B3")
    assert enumerate_windows(g)[0].shape == (48, 3)
    assert normalization_enumeration_check(g, 0.5).passed
    monkeypatch.setenv("COXMAL_ENUM_CAP", "47")
    with pytest.raises(EnumerationCapError):
        enumerate_windows(g)
    with pytest.raises(EnumerationCapError):
        exact_distribution(MallowsSpec.make(g, 0.5), "t")
    with pytest.raises(EnumerationCapError):
        normalization_enumeration_check(g, 2.0)
    monkeypatch.setenv("COXMAL_ENUM_CAP", "48")
    assert enumerate_windows(g)[0].shape == (48, 3)
    for name in ("I2(5)", "B3 x A2"):
        with pytest.raises(ValueError, match="not stored as windows"):
            enumerate_windows(parse_group(name))


def _factor_windows(spec, count, seed):
    """The windows sample_statistic draws for each factor of spec."""
    children = np.random.SeedSequence(seed).spawn(len(spec.qs))
    return [
        (g.kind, sampled_windows(g, q, count, child))
        for (g, q), child in zip(spec.factor_specs(), children)
    ]


def _factor_tower_windows(spec, count, seed):
    """The windows of the tower choices that sample_statistic draws for each
    factor's lengths, by the reference decode: the sampled windows at
    q != 1, the decoded q = 1 tower choices at q = 1."""
    children = np.random.SeedSequence(seed).spawn(len(spec.qs))
    out = []
    for (g, q), child in zip(spec.factor_specs(), children):
        kind, n, tables = g.kind, g.window_size, _tower_tables(g.kind, g.window_size, q)

        def draw(cnt, rng):
            return reference_decode(kind, n, *_draw_choices(tables, cnt, rng))

        out.append((kind, np.concatenate(_map_chunks(g, count, child, 1, draw))))
    return out


@pytest.mark.parametrize(
    "group,q", [("A200", 2.0), ("B200", 0.5), ("D200", 0.5), ("B50 x B50 x A49", 1.0)]
)
def test_sample_statistic_equals_reference_on_sampled_windows(monkeypatch, group, q):
    """The fused draw-and-reduce path changes no output: it equals the numpy
    reference on the sampled windows, at any thread count; lengths equal the
    reference on the rows of the drawn tower choices, which at q = 1 are not
    the sampled windows.  A small chunk keeps several chunks, and a partial
    last one, cheap at rank 200."""
    monkeypatch.setattr(coxmal.mallows, "SAMPLE_CHUNK", 256)
    spec = MallowsSpec.make(group, q)
    count = 3 * 256 + 5
    windows = _factor_windows(spec, count, seed=21)
    tower = _factor_tower_windows(spec, count, seed=21)
    if q != 1.0:
        assert all(np.array_equal(W, V) for (_, W), (_, V) in zip(windows, tower))
    for stat in STATS:
        rows = tower if stat == "length" else windows
        want = sum(windows_statistic(kind, W, stat) for kind, W in rows)
        for threads in (1, 3):
            got = sample_statistic(spec, stat, count, seed=21, threads=threads)
            assert np.array_equal(got, want), (stat, threads)


def test_sample_statistic_equals_reference_at_full_chunks():
    spec = MallowsSpec.make("B200", 0.5)
    count = 2 * SAMPLE_CHUNK + 5
    [(kind, W)] = _factor_windows(spec, count, seed=22)
    want = windows_statistic(kind, W, "t")
    for threads in (1, 3):
        assert np.array_equal(sample_statistic(spec, "t", count, seed=22, threads=threads), want)


def test_sampled_lengths_skip_the_decode(monkeypatch):
    """Sampled lengths, q = 1 included, are sums of the drawn choices'
    contributions: the same values, with no window decoded or reduced."""
    monkeypatch.setattr(coxmal.mallows, "SAMPLE_CHUNK", 256)
    cases = [(name, q) for name in ("A6", "B6", "D6") for q in (0.5, 1.0, 2.0)]
    want = [sample_statistic(MallowsSpec.make(g, q), "length", 600, seed=5) for g, q in cases]

    def no_windows(*args, **kwargs):
        raise AssertionError("decoded windows for sampled lengths")

    monkeypatch.setattr(coxmal.mallows, "_decode", no_windows)
    monkeypatch.setattr(coxmal.mallows, "_windows_stat", no_windows)
    for (g, q), w in zip(cases, want):
        assert np.array_equal(sample_statistic(MallowsSpec.make(g, q), "length", 600, seed=5), w)


def test_sampled_statistics_build_no_windows(monkeypatch):
    """t, des and des_inv come from the kernels that make the rows: no
    window array is built or reduced, at q = 1 either, and the values are
    the same."""
    monkeypatch.setattr(coxmal.mallows, "SAMPLE_CHUNK", 256)
    cases = [(g, q, stat) for g in ("A6", "B6", "D6", "B3 x A2") for q in (0.5, 1.0, 2.0)
             for stat in WINDOW_STATS]
    want = [sample_statistic(MallowsSpec.make(g, q), stat, 600, seed=5) for g, q, stat in cases]

    def no_windows(*args, **kwargs):
        raise AssertionError("built a window array for a sampled statistic")

    monkeypatch.setattr(coxmal.mallows, "_windows_stat", no_windows)
    for (g, q, stat), w in zip(cases, want):
        got = sample_statistic(MallowsSpec.make(g, q), stat, 600, seed=5, threads=2)
        assert np.array_equal(got, w), (g, q, stat)


@pytest.mark.parametrize("q", [0.5, 1.0])
def test_sampled_t_holds_no_window_array(q):
    """Sampling t of one B200 chunk holds the chunk's inputs and little
    more: at q = 0.5 the choices and the STAGE_BLOCK uniform buffer, at
    q = 1 only the (cnt,) output, because uniform_rows draws each row's
    words itself.  A (SAMPLE_CHUNK, 200) int64 window
    array alone is 26 MB."""
    n = 200
    spec = MallowsSpec.make(f"B{n}", q)
    sample_statistic(spec, "t", 64, seed=1)  # kernels and tables built untraced
    if q == 1.0:
        inputs = SAMPLE_CHUNK * 8
    else:
        inputs = SAMPLE_CHUNK * n * (4 + 1) + STAGE_BLOCK * SAMPLE_CHUNK * 8
    tracemalloc.start()
    try:
        sample_statistic(spec, "t", SAMPLE_CHUNK, seed=2, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < inputs + 2**20, (peak, inputs)


def test_thread_pool_never_outnumbers_the_chunks(monkeypatch):
    """One chunk runs in the calling thread, and a pool never starts more
    workers than there are chunks."""
    started = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(coxmal.mallows, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(coxmal.mallows, "SAMPLE_CHUNK", 256)
    g = parse_group("B4")

    def draw(cnt, rng):
        return threading.current_thread()

    assert _map_chunks(g, 256, 1, 2, draw) == [threading.current_thread()]
    assert started == []
    assert len(_map_chunks(g, 3 * 256, 1, 8, draw)) == 3
    assert started == [3]


def test_tower_tables_are_built_once_per_call(monkeypatch):
    """One sample_statistic call builds each q != 1 or length factor's tower
    tables once, before the sampler threads start, and every chunk shares
    them; t at q = 1 does not walk the tower and builds none."""
    built = []

    def counted(kind, n, q):
        built.append((kind, n, q))
        return _tower_tables(kind, n, q)

    monkeypatch.setattr(coxmal.mallows, "_tower_tables", counted)
    spec = MallowsSpec.make("B200 x D50", [2.0, 0.5])
    sample_statistic(spec, "t", 2 * SAMPLE_CHUNK, seed=3, threads=2)
    assert built == [("B", 200, 2.0), ("D", 50, 0.5)]
    built.clear()
    sample_statistic(MallowsSpec.make("D50", 1.0), "length", 2 * SAMPLE_CHUNK, seed=3, threads=2)
    assert built == [("D", 50, 1.0)]
    built.clear()
    sample_statistic(MallowsSpec.make("B200", 1.0), "t", 2 * SAMPLE_CHUNK, seed=3, threads=2)
    assert built == []


def test_tower_tables_do_not_outlive_the_call(monkeypatch):
    """Nothing keeps a call's tower tables once it returns: at B1600 they
    hold 44 MB, so a kept set per q grows by that much over a q sweep."""
    refs = []

    def watched(kind, n, q):
        tables = _tower_tables(kind, n, q)
        refs.extend(weakref.ref(arr) for arr in tables)
        return tables

    monkeypatch.setattr(coxmal.mallows, "_tower_tables", watched)
    for statistic in ("t", "length"):
        sample_statistic(MallowsSpec.make("B200", 0.5), statistic, 2 * SAMPLE_CHUNK, seed=3, threads=2)
    gc.collect()
    assert len(refs) == 10 and all(ref() is None for ref in refs)


def test_dihedral_draws_keep_their_stream(monkeypatch):
    """Dihedral factors share the chunk runner and keep their stream: one
    spawned child per chunk, each drawing default_rng(child).choice."""
    monkeypatch.setattr(coxmal.mallows, "SAMPLE_CHUNK", 256)
    spec = MallowsSpec.make("I2(5) x I2(5)", [0.5, 2.0])
    sizes = [256, 256, 256, 5]
    want = np.zeros(sum(sizes), dtype=np.int64)
    for (g, q), child in zip(spec.factor_specs(), np.random.SeedSequence(23).spawn(2)):
        probs = _dihedral_table(g, q)
        idx = [
            np.random.default_rng(c).choice(len(probs), size=k, p=probs)
            for k, c in zip(sizes, child.spawn(len(sizes)))
        ]
        want += _dihedral_stat_values(g, "t")[np.concatenate(idx)]
    for threads in (1, 3):
        got = sample_statistic(spec, "t", sum(sizes), seed=23, threads=threads)
        assert np.array_equal(got, want), threads


def test_unknown_statistic_is_rejected_before_any_windows(monkeypatch):
    """So is a negative count, with its own message."""
    def no_windows(*args, **kwargs):
        raise AssertionError("built windows for an unknown statistic")

    monkeypatch.setattr(coxmal.mallows, "_chunk_stats", no_windows)
    monkeypatch.setattr(coxmal.mallows, "_draw_choices", no_windows)
    monkeypatch.setattr(coxmal.mallows, "enumerate_windows", no_windows)
    monkeypatch.setattr(coxmal.moments, "enumerate_windows", no_windows)
    for group in ("B200", "I2(5)", "B4 x I2(5)"):
        with pytest.raises(ValueError, match="unknown statistic 'foo'"):
            sample_statistic(MallowsSpec.make(group, 0.5), "foo", 50_000, seed=1)
    with pytest.raises(ValueError, match="unknown statistic 'foo'"):
        exact_distribution(MallowsSpec.make("B4 x I2(5)", 0.5), "foo")
    for group in ("B200", "I2(5)", "B4 x I2(5)"):
        with pytest.raises(ValueError, match="count must be >= 0, got -1"):
            sample_statistic(MallowsSpec.make(group, 0.5), "t", -1, seed=1)


def test_decoder_compiles_without_warnings():
    assert {"-Wall", "-Wextra"} <= set(_DECODE_FLAGS)
    with tempfile.TemporaryDirectory() as d:
        lib, stderr = _compile_decoder(d)
        assert os.path.isfile(lib)
    assert stderr == ""


def test_import_does_not_compile():
    src = os.path.dirname(os.path.dirname(coxmal.__file__))
    code = (
        "import coxmal.cli; from coxmal.mallows import _decode_lib; "
        "assert _decode_lib.cache_info().currsize == 0"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def _missing_compiler(cmd, **kwargs):
    raise FileNotFoundError(2, "No such file or directory", cmd[0])


def _failing_compiler(cmd, **kwargs):
    return subprocess.CompletedProcess(cmd, 1, "", "fatal error: no input")


@pytest.mark.parametrize("run", [_missing_compiler, _failing_compiler])
def test_compiler_failure_raises(monkeypatch, tmp_path, run):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))  # empty cache: the draw must compile
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    _decode_lib.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(subprocess, "run", run)
            with pytest.raises(RuntimeError, match=re.escape(compiler)) as err:
                sample_statistic(MallowsSpec.make("B3", 0.5), "t", 10, seed=1)
        if run is _failing_compiler:
            assert "fatal error: no input" in str(err.value)
    finally:
        _decode_lib.cache_clear()
    _decode_lib()
    assert _decode_lib.cache_info().currsize == 1


def test_compiler_not_on_path_raises(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    _decode_lib.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(shutil, "which", lambda name: None)
            with pytest.raises(RuntimeError, match=re.escape(compiler)):
                sample_statistic(MallowsSpec.make("B3", 0.5), "t", 10, seed=1)
    finally:
        _decode_lib.cache_clear()
    assert list(tmp_path.iterdir()) == []


# A fresh interpreter draws B3 at q = 0.5 and prints the sampled t, des and
# des_inv, which the tower decode kernel computes, and every path it handed
# to ctypes.CDLL.  Settings (a JSON object in argv[1]): "warm"
# makes any compile fail; "flags" and "source" are appended to the kernel
# flags and source before the first draw.
KERNEL_PROBE = """
import ctypes, json, subprocess, sys
settings = json.loads(sys.argv[1])
loaded = []


class RecordingCDLL(ctypes.CDLL):
    def __init__(self, name, *args, **kwargs):
        loaded.append(name)
        super().__init__(name, *args, **kwargs)


def no_compiler(cmd, **kwargs):
    raise AssertionError("compiled with a warm kernel cache")


ctypes.CDLL = RecordingCDLL
if settings.get("warm"):
    subprocess.run = no_compiler
import numpy as np
import coxmal.mallows as m

m._DECODE_FLAGS += tuple(settings.get("flags", ()))
m._DECODE_C += settings.get("source", "")
spec = m.MallowsSpec.make("B3", 0.5)
stats = {s: m.sample_statistic(spec, s, 2000, seed=1).tolist() for s in ("t", "des", "des_inv")}
print(json.dumps({"stats": stats, "loaded": loaded}))
"""


def _probe_command(cache, **settings):
    src = os.path.dirname(os.path.dirname(coxmal.__file__))
    env = {**os.environ, "PYTHONPATH": src, "XDG_CACHE_HOME": str(cache)}
    return [sys.executable, "-c", KERNEL_PROBE, json.dumps(settings)], env


def _kernel_probe(cache, **settings):
    cmd, env = _probe_command(cache, **settings)
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _cached_kernels(cache):
    return sorted((cache / "coxmal").glob("kernels-*.so"))


def _seed_cache(cache):
    """cache/coxmal holding a copy of the kernels this process loaded, under
    the same key (the key does not depend on the cache directory)."""
    lib = _decode_lib()._name
    (cache / "coxmal").mkdir(mode=0o700)
    shutil.copy(lib, cache / "coxmal")
    return cache / "coxmal" / os.path.basename(lib)


def _reference_draws():
    """The probe's statistics, drawn in this process."""
    spec = MallowsSpec.make("B3", 0.5)
    return {s: sample_statistic(spec, s, 2000, seed=1).tolist() for s in WINDOW_STATS}


def test_warm_kernel_cache_loads_without_compiling(tmp_path):
    cold = _kernel_probe(tmp_path)
    [lib] = _cached_kernels(tmp_path)
    assert (tmp_path / "coxmal").stat().st_mode & 0o777 == 0o700
    warm = _kernel_probe(tmp_path, warm=True)
    assert cold["loaded"] == [str(lib)] * 2  # missed, built, loaded
    assert warm["loaded"] == [str(lib)]
    assert warm["stats"] == cold["stats"] == _reference_draws()
    assert os.listdir(tmp_path / "coxmal") == [lib.name]


@pytest.mark.parametrize(
    "change", [{"flags": ["-DCOXMAL_UNUSED"]}, {"source": "\n/* changed */\n"}],
    ids=["flags", "source"],
)
def test_kernel_cache_key_changes_with_flags_and_source(tmp_path, change):
    base = _seed_cache(tmp_path)
    changed = _kernel_probe(tmp_path, **change)
    [lib] = set(_cached_kernels(tmp_path)) - {base}
    assert changed["loaded"] == [str(lib)] * 2
    assert changed["stats"] == _reference_draws()


def test_racing_kernel_builders_leave_one_library(tmp_path):
    cmd, env = _probe_command(tmp_path)
    procs = [
        subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], [err for _, err in outs]
    first, second = (json.loads(out) for out, _ in outs)
    [lib] = _cached_kernels(tmp_path)
    assert set(first["loaded"]) == set(second["loaded"]) == {str(lib)}
    assert first["stats"] == second["stats"] == _reference_draws()
    assert os.listdir(tmp_path / "coxmal") == [lib.name]


def _unwritable(cache):
    (cache / "file").write_text("")
    return cache / "file"


def _chmod(mode):
    def make(cache):
        (cache / "coxmal").mkdir(mode=0o700)
        os.chmod(cache / "coxmal", mode)
        return cache
    return make


def _other_users_directory(cache):
    (cache / "coxmal").mkdir(mode=0o700)
    os.chown(cache / "coxmal", os.getuid() + 1, -1)
    return cache


@pytest.mark.parametrize(
    "make",
    [_unwritable, _chmod(0o770), _chmod(0o707), _other_users_directory],
    ids=["below-a-file", "group-writable", "world-writable", "other-owner"],
)
def test_untrusted_kernel_cache_builds_privately(tmp_path, make):
    if make is _other_users_directory and os.getuid() != 0:
        pytest.skip("giving a directory to another user needs root")
    cache = make(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    got = _kernel_probe(cache)
    [loaded] = got["loaded"]
    assert not loaded.startswith(str(tmp_path))
    assert not os.path.exists(loaded)  # its private build directory is gone
    assert sorted(tmp_path.rglob("*")) == before
    assert got["stats"] == _reference_draws()


def test_kernel_file_of_another_user_is_not_loaded(tmp_path):
    if os.getuid() != 0:
        pytest.skip("giving a file to another user needs root")
    lib = _seed_cache(tmp_path)
    lib.write_bytes(b"not a library")
    os.chown(lib, os.getuid() + 1, -1)
    got = _kernel_probe(tmp_path)
    assert got["loaded"] != [str(lib)] and not os.path.exists(got["loaded"][0])
    assert lib.read_bytes() == b"not a library"
    assert got["stats"] == _reference_draws()


def _cut_to(size):
    return lambda data: data[:size]


def _foreign_machine(data):
    return data[:18] + (0xB7).to_bytes(2, "little") + data[20:]  # e_machine: AArch64


@pytest.mark.parametrize(
    "damage", [_cut_to(0), _cut_to(64), _foreign_machine], ids=["empty", "header-only", "aarch64"]
)
def test_cached_kernels_that_do_not_load_are_rebuilt(tmp_path, damage):
    lib = _seed_cache(tmp_path)
    good = lib.read_bytes()
    lib.write_bytes(damage(good))
    got = _kernel_probe(tmp_path)
    assert got["loaded"] == [str(lib), str(lib)]  # rejected, rebuilt, loaded
    assert len(lib.read_bytes()) == len(good)
    assert os.listdir(tmp_path / "coxmal") == [lib.name]
    assert got["stats"] == _reference_draws()


def test_cached_kernels_cut_inside_a_segment_are_rebuilt(tmp_path):
    """dlopen maps a file cut past its program headers, and touching the
    missing pages would kill the process with SIGBUS; it is rebuilt instead,
    without being loaded."""
    lib = _seed_cache(tmp_path)
    good = lib.read_bytes()
    lib.write_bytes(good[: len(good) // 2])
    assert _segments_in_file(str(_decode_lib()._name)) and not _segments_in_file(str(lib))
    got = _kernel_probe(tmp_path)  # asserts exit code 0
    assert got["loaded"] == [str(lib)]
    assert len(lib.read_bytes()) == len(good)
    assert os.listdir(tmp_path / "coxmal") == [lib.name]
    assert got["stats"] == _reference_draws()


def test_sample_statistic_deterministic_for_products():
    spec = MallowsSpec.make("B3 x I2(5) x A2", [0.5, 1.0, 2.0])
    a = sample_statistic(spec, "t", 4000, seed=9, threads=1)
    b = sample_statistic(spec, "t", 4000, seed=9, threads=4)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "name,q,stat",
    [
        ("B3", 0.5, "t"),
        ("B3", 1.0, "t"),
        ("D4", 2.0, "t"),
        ("A3", 0.25, "length"),
        ("A3", 1.0, "length"),
        ("B3", 1.0, "length"),
        ("D4", 1.0, "length"),
        ("I2(5)", 0.5, "des"),
        ("B4", 4.0, "des_inv"),
    ],
)
def test_sampler_matches_exact_law(name, q, stat):
    spec = MallowsSpec.make(name, q)
    dist = exact_distribution(spec, stat)
    xs = sample_statistic(spec, stat, 20000, seed=101)
    _, _, p = goodness_of_fit(xs, dist)
    assert p > 1e-3


def test_uniform_shortcut_matches_tower():
    """q = 1 windows come from the uniform_rows shuffle kernel, not the
    tower; their law must match the q = 1 tower law, including the type D
    sign-parity fix."""
    for name in ("A3", "B3", "D4"):
        spec = MallowsSpec.make(name, 1.0)
        dist = exact_distribution(spec, "t")
        xs = sample_statistic(spec, "t", 20000, seed=7)
        _, _, p = goodness_of_fit(xs, dist)
        assert p > 1e-3


def _mutant_t_gof(monkeypatch, tmp_path, mutant, names, q):
    """p-values of the t law checks above at q, run with the kernels built
    from the mutant source in their own cache.  Only the sample comes from
    the mutant: the exact law's windows come from enumerate_windows, which
    no kernel decodes."""
    assert mutant != _DECODE_C
    _decode_lib.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setenv("XDG_CACHE_HOME", str(tmp_path))
            m.setattr(coxmal.mallows, "_DECODE_C", mutant)
            ps = {}
            for name in names:
                spec = MallowsSpec.make(name, q)
                xs = sample_statistic(spec, "t", 20000, seed=7)
                ps[name] = goodness_of_fit(xs, exact_distribution(spec, "t"))[2]
            return ps
    finally:
        _decode_lib.cache_clear()


def test_uniform_law_check_rejects_signs_that_follow_their_uniform(monkeypatch, tmp_path):
    """The law check above can fail: a uniform_rows that takes each sign from
    its word's top bit, the bit that also sets the entry's shuffle position,
    is rejected on t at B3 and D4 at the same 20,000 draws."""
    mutant = _DECODE_C.replace("(x & 1)", "(x >> 63)")
    for name, p in _mutant_t_gof(monkeypatch, tmp_path, mutant, ("B3", "D4"), 1.0).items():
        assert p < 1e-3, (name, p)


def test_uniform_law_check_rejects_sattolo_shuffle(monkeypatch, tmp_path):
    """A uniform_rows whose entry i takes its position from range i instead
    of i + 1 (Sattolo's shuffle) makes only cyclic permutations; the law
    check rejects it on t at A3, B3 and D4 at the same 20,000 draws."""
    mutant = _DECODE_C.replace("range = (uint64_t)i + 1;", "range = (uint64_t)i;")
    for name, p in _mutant_t_gof(monkeypatch, tmp_path, mutant, ("A3", "B3", "D4"), 1.0).items():
        assert p < 1e-3, (name, p)


@pytest.mark.parametrize("q", [0.5, 2.0])
def test_tower_law_check_rejects_flipped_pop_signs(monkeypatch, tmp_path, q):
    """A decode_rows that flips the sign of every pop turns each B window w
    into -w = w0 w, whose length is l(w0) - l(w), so the sampled law of t
    is the law at 1/q.  The t law check rejects it at B3 at 20,000 draws,
    as verify's sampler-gof cells draw."""
    mutant = _DECODE_C.replace("s[t] * lab[k]", "-s[t] * lab[k]")
    [p] = _mutant_t_gof(monkeypatch, tmp_path, mutant, ("B3",), q).values()
    assert p < 1e-3, p


def test_kernel_argtypes_match_their_c_prototypes():
    """_decode_lib declares the ctypes signature of each exported kernel by
    hand, and a mismatch passes arguments wrongly without an error: each
    must follow its prototype in _DECODE_C, with int64_t as c_int64, int as
    c_int, any pointer as c_void_p and void as None."""
    ctype = {"int64_t": ctypes.c_int64, "int": ctypes.c_int, "void": None}
    exported = re.findall(r"^(\w+) (\w+)\(([^)]*)\)", _DECODE_C, re.M)
    names = ["decode_rows", "draw_choices", "uniform_rows", "window_stats"]
    assert [name for _, name, _ in exported] == names  # static helpers excluded
    lib = _decode_lib()
    for ret, name, params in exported:
        args = [ctypes.c_void_p if "*" in p else ctype[p.split()[0]] for p in params.split(",")]
        fn = getattr(lib, name)
        assert fn.restype is ctype[ret], name
        assert list(fn.argtypes) == args, name


def _element_gof_p(g, W) -> float:
    """Chi-square p-value of the rows of W against the uniform law on the
    elements of the A, B or D group g; 0.0 if a row is not an element."""
    elements = itertools_windows(g)
    n = elements.shape[1]
    code = (2 * n + 1) ** np.arange(n)
    keys, counts = np.unique((W + n) @ code, return_counts=True)
    if not np.isin(keys, (elements + n) @ code).all():
        return 0.0
    never_drawn = np.zeros(len(elements) - len(keys))
    return scipy.stats.chisquare(np.concatenate((counts, never_drawn))).pvalue


@pytest.mark.parametrize("name", ["A3", "B3", "D4"])
def test_uniform_windows_follow_the_uniform_law(name):
    """At q = 1 every element is equally likely: the windows that the
    reference shuffle makes of the sampler's own words (100,000 rows, which
    the kernel's statistics match row for row) pass a chi-square over all
    24, 48 or 192 elements.  Under D the same test rejects the windows
    without the parity fix, which no law of t can see."""
    g = parse_group(name)
    count, seed = 100_000, 31
    assert _element_gof_p(g, sampled_windows(g, 1.0, count, seed)) > 1e-3
    if g.kind == "D":
        n = g.window_size
        unfixed = _map_chunks(
            g, count, seed, 1,
            lambda cnt, rng: reference_uniform("D", rng.integers(0, 2**64, (cnt, n), dtype=np.uint64), parity=False),
        )
        assert _element_gof_p(g, np.concatenate(unfixed)) < 1e-3


def test_a_type_batch_decoder_matches_exact_law():
    """For type A with q < 1, batch sampling goes through the stage draws
    and the blocked batch decoder; its law must be the exact one, which the
    insertion enumeration builds without the decoder."""
    exact = exact_distribution(MallowsSpec.make("A4", 0.5), "t")
    fast = sample_statistic(MallowsSpec.make("A4", 0.5), "t", 20000, seed=3)
    assert goodness_of_fit(fast, exact)[2] > 1e-3
    # sanity: the test does reject a genuinely different law
    other = sample_statistic(MallowsSpec.make("A4", 1.0), "t", 20000, seed=3)
    assert goodness_of_fit(other, exact)[2] < 1e-3


def test_frequency_ratio_law():
    """Sampled frequencies of two fixed elements approach the q^dl ratio."""
    g = parse_group("B2")
    q = 0.5
    xs = sampled_windows(g, q, 60000, seed=77)
    e = (1, 2)
    s0 = (-1, 2)
    counts = {e: 0, s0: 0}
    for row in map(tuple, xs.tolist()):
        if row in counts:
            counts[row] += 1
    ratio = counts[s0] / counts[e]
    assert abs(ratio - q) < 0.02


@pytest.mark.parametrize(
    "name,q", [("B3", 0.5), ("B4", 0.25), ("D4", 0.5), ("D4", 0.3), ("B3", 1.0)]
)
def test_reversal_identity(name, q):
    g = parse_group(name)
    for stat in ("t", "length"):
        check = reversal_identity_check(g, q, stat)
        assert check.passed, check.line()


def test_reversal_self_dual_at_q1():
    """At q = 1 the length law is symmetric about half the longest length."""
    g = parse_group("B3")
    dist = exact_distribution(MallowsSpec.make(g, 1.0), "length")
    vals, probs = dist.values, dist.probs
    for v, p in zip(vals, probs):
        mirrored = 9 - v
        assert math.isclose(p, dist.prob(mirrored), rel_tol=1e-12)


def test_pattern_bound_examples():
    b3 = parse_group("B3")
    c = pattern_probability_bound_check(b3, 0.5, (1,), (1,))
    assert c.passed and c.observed <= c.bound
    d4 = parse_group("D4")
    c = pattern_probability_bound_check(d4, 0.5, (1, 2), (-1, -2))
    assert c.passed
    c = pattern_probability_bound_check(b3, 0.5, (), ())
    assert c.passed and c.observed == 1.0 and c.bound == 1.0
    # the bound needs q <= 1 and at least one free D position
    with pytest.raises(ValueError):
        pattern_probability_bound_check(b3, 2.0, (1,), (1,))
    with pytest.raises(ValueError):
        pattern_probability_bound_check(d4, 0.5, (1, 2, 3, 4), (1, 2, 3, 4))
    with pytest.raises(ValueError):
        pattern_probability_bound_check(b3, 0.5, (1, 2), (1, 1))


def test_pattern_bound_sweep():
    """Exact probability never exceeds the bound, across many patterns."""
    b3 = parse_group("B3")
    for q in (0.25, 0.75, 1.0):
        for c1 in (1, 2, 3):
            for v1 in (-3, -1, 2):
                check = pattern_probability_bound_check(b3, q, (c1,), (v1,))
                assert check.passed, check.line()
    d4 = parse_group("D4")
    for q in (0.5, 1.0):
        for vals in ((2, 4), (-2, 4), (-4, -3)):
            check = pattern_probability_bound_check(d4, q, (2, 3), vals)
            assert check.passed, check.line()
