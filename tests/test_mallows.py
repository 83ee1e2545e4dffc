import ctypes
import gc
import inspect
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
from coxmal.coxeter import EnumerationCapError, enumerate_windows, parse_group
from coxmal.mallows import (
    _DECODE_C,
    _DECODE_FLAGS,
    SAMPLE_CHUNK,
    MallowsSpec,
    _chunk_stats,
    _compile_decoder,
    _decode_lib,
    _dihedral_lengths,
    _dihedral_stat_values,
    _dihedral_table,
    _length_weights,
    _map_chunks,
    _prefix_table,
    _segments_in_file,
    _tower,
    _uniform,
    _windows_stat,
    normalization_constant,
    normalization_enumeration_check,
    pattern_probability_bound_check,
    q_even_double_factorial,
    q_factorial,
    q_integer,
    reversal_identity_check,
    sample_statistic,
)
from coxmal.moments import exact_distribution, goodness_of_fit
from object_reference import (
    SignedPermutation,
    descent_number,
    dihedral_elements,
    enumerate_group,
    length,
    pmf,
    stage_candidates,
    stage_choices,
    stage_distribution,
    two_sided_descent,
)
from window_reference import (
    chunk_windows,
    itertools_windows,
    reference_choices,
    reference_decode,
    reference_uniform,
    sampled_windows,
    stage_choice,
    tower_stages,
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


# closed-form mutants of Z: (function, text, mutated text, group whose check must fail)
Z_MUTANTS = {
    "i2-top-power": ("normalization_constant", "q**m", "q**(m + 1)", "I2(5)"),
    "b-odd-factors": ("q_even_double_factorial", "q_integer(2 * i, q)", "q_integer(2 * i - 1, q)", "B3"),
}


@pytest.mark.parametrize("mutant", sorted(Z_MUTANTS))
@pytest.mark.parametrize("q", [0.5, 2.0])
def test_normalization_check_rejects_closed_form_mutants(monkeypatch, mutant, q):
    """The Z check can fail: with I2's q^m taken as q^(m+1), or B's
    [2]_q [4]_q ... [2k]_q as [1]_q [3]_q ... [2k-1]_q, it FAILs at I2(5)
    and B3, so the listed I2(m) lengths and the inserted B lengths are not
    read off the closed form.  A3 keeps passing under both."""
    name, text, mutated, group = Z_MUTANTS[mutant]
    source = inspect.getsource(getattr(coxmal.mallows, name))
    assert source.count(text) == 1
    namespace = {}
    exec(source.replace(text, mutated), vars(coxmal.mallows), namespace)
    monkeypatch.setattr(coxmal.mallows, name, namespace[name])
    check = normalization_enumeration_check(parse_group(group), q)
    assert check.name == "normalization-constant" and not check.passed, check.line()
    assert check.observed > 1e-3
    assert normalization_enumeration_check(parse_group("A3"), q).passed


@pytest.mark.parametrize("m", range(3, 13))
def test_dihedral_closed_forms_equal_the_object_model(m):
    """I2(m)'s lengths, statistic values and table, read off the closed
    length list, equal the object model's on its elements in the same row
    order (by length, reflections first, then shift)."""
    g = parse_group(f"I2({m})")
    elements = dihedral_elements(m)
    lengths = [length(w, g) for w in elements]
    assert np.array_equal(_dihedral_lengths(m), lengths)
    want = {
        "length": lengths,
        "des": [descent_number(w, g) for w in elements],
        "des_inv": [descent_number(w, g, "left") for w in elements],
        "t": [two_sided_descent(w, g) for w in elements],
    }
    for stat in STATS:
        assert np.array_equal(_dihedral_stat_values(g, stat), want[stat]), stat
    for q in (0.3, 1.0, 2.5):
        weights = _length_weights(g, q, lengths)[0]
        assert np.array_equal(_dihedral_table(g, q), weights / weights.sum())
        spec = MallowsSpec.make(g, q)
        assert np.allclose(_dihedral_table(g, q), [pmf(w, spec) for w in elements], rtol=1e-12, atol=0)


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
    W, lengths = enumerate_windows(g)
    wt = _length_weights(g, q, lengths)[0]
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
        assert stage_candidates(kind, m) == stage_choices(kind, m)


def _list_prefix_table(kind, n, q, pw):
    """_prefix_table built from the powers pw by Python loops over floats."""
    size = 2 * n if kind == "B" else n
    S, total = [], 0.0
    for w in pw[:size]:
        total += w
        S.append(total)
    S.append(math.inf)
    inv = 4 * size / S[size - 1]
    low = [j / inv * (1.0 - 2.0**-50) for j in range(4 * size + 1)]
    guide = [next(k for k, v in enumerate(S) if v > x) for x in low]
    return q > 1.0, np.array(S), np.array(guide, dtype=np.int32)


def _table_stage_law(kind, m, q):
    """{(a, s): probability} of stage m's choices as the tower kernel draws
    them: table index k with weight q'^k (D's light half times q'^(m - 1)),
    mapped to a choice by stage_choice."""
    flip, S, _, pw = _prefix_table(kind, m, q)
    M = 2 * m if kind == "B" else m
    k = np.arange(M)
    light = np.zeros(M, dtype=bool)
    weight = pw[:M]
    if kind == "D":
        k, light = np.tile(k, 2), np.repeat([False, True], M)
        weight = np.concatenate([pw[:M], pw[m - 1] * pw[:M]])
    pops, signs, _ = stage_choice(kind, m, flip, k, light)
    law = {}
    for a, s, w in zip((pops + 1).tolist(), signs.tolist(), (weight / weight.sum()).tolist()):
        law[a, s] = law.get((a, s), 0.0) + w
    return law


@pytest.mark.parametrize("kind", ["A", "B", "D"])
@pytest.mark.parametrize("q", [1e-3, 0.5, 2.0, 1e3])
def test_tower_tables_equal_the_list_build(kind, q):
    """The numpy prefix table equals, to the bit, the one that Python loops
    build from its powers, at ranks 2 to 201, and the powers are q'^k to
    an ulp; and read through the kernel's choice rule
    (stage_choice) its prefixes give every stage the law of
    stage_distribution, on the enumerated choices (stages up to 8) and the
    closed form (the rest).  (The name is older than the shared table.)"""
    qq = min(q, 1.0 / q)
    for n in (2, 3, 50, 201):
        got = _prefix_table(kind, n, q)
        pw = got[3].tolist()
        assert got[3].dtype == np.float64 and len(pw) == (2 * n if kind == "B" else n) + 1
        # numpy's pow against Python's, to an ulp (an absolute one among subnormals)
        assert all(abs(w - qq**k) <= 2**-52 * qq**k + 5e-324 for k, w in enumerate(pw))
        want = _list_prefix_table(kind, n, q, pw)
        assert got[0] is want[0]
        for x, y in zip(got[1:3], want[1:]):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (n, x.dtype)
    for m in list(range(2 if kind == "D" else 1, 9)) + [50, 201]:
        cands = stage_candidates(kind, m) if m <= 8 else stage_choices(kind, m)
        want = dict(zip([c[:2] for c in cands], stage_distribution(kind, m, q).tolist()))
        got = _table_stage_law(kind, m, q)
        assert got.keys() == want.keys()
        assert all(abs(got[c] - want[c]) <= 1e-12 * want[c] + 1e-300 for c in want), m


def _smallest_in_bucket(j, inv):
    """The smallest double x with (int64)(x * inv) >= j, elementwise, found
    by nextafter steps from j / inv."""
    x = j / inv
    while True:
        down = np.nextafter(x, 0.0)
        step = (x > 0) & ((down * inv).astype(np.int64) >= j)
        if not step.any():
            break
        x = np.where(step, down, x)
    while True:
        step = (x * inv).astype(np.int64) < j
        if not step.any():
            return x
        x = np.where(step, np.nextafter(x, np.inf), x)


@pytest.mark.parametrize("kind", ["A", "B", "D"])
@pytest.mark.parametrize("q", [1e-3, 0.25, 0.5, 0.97, 1.0, 1.03, 2.0, 4.0, 1e3])
def test_guide_is_a_lower_bound(kind, q):
    """tower_rows only steps up from its guide entry, and each stage's
    search stops within its prefix.  So every guide entry j must be at most
    the answer for the smallest x of its bucket (the answers grow with x);
    the largest uniform must land below every prefix total S[M - 1], in a
    bucket the guide has; and D's light half, whose quotient may round past
    S[m - 1], must end at the sentinel at the latest, where the clamp takes
    it back.  At q' = 1e-3 the light half is never taken from m = 7 on,
    where its weight q'^(m - 1) rounds away next to 1, and from m = 109 on
    that weight is 0."""
    top = np.nextafter(1.0, 0.0)
    for n in (2, 3, 7, 50, 201):
        flip, S, guide, pw = _prefix_table(kind, n, q)
        size, buckets = len(S) - 1, len(guide) - 1
        assert buckets == 4 * size and guide.dtype == np.int32 and np.isinf(S[size])
        inv = buckets / S[size - 1]
        x = _smallest_in_bucket(np.arange(buckets + 1), inv)
        assert ((x * inv).astype(np.int64) == np.arange(buckets + 1)).all()
        assert (guide <= np.searchsorted(S, x, side="right")).all(), n
        h = S[:size]
        assert (top * h < h).all() and ((top * h * inv).astype(np.int64) <= buckets).all()
        if kind == "D":
            h = S[:n]
            total = h + pw[:n] * h
            light = top * total >= h
            if q in (1e-3, 1e3):
                assert not light[6:].any()  # w <= 1e-18 from m = 7 on
                assert n < 109 or pw[n - 1] == 0.0
            x = (top * total[light] - h[light]) / pw[:n][light]
            assert ((x * inv).astype(np.int64) <= buckets).all()
            assert (np.searchsorted(S, x, side="right") <= size).all()


@pytest.mark.parametrize("name,q", [("A3", 0.7), ("B3", 0.7), ("B3", 2.5), ("D4", 0.7)])
def test_tower_walk_reproduces_pmf(name, q):
    """Walk every choice sequence of the tower, decode it, and accumulate its
    probability: the resulting law must equal q^len / Z exactly.  This is the
    sampler's correctness proof with the randomness stripped out."""
    g = parse_group(name)
    kind, n = g.kind, g.window_size
    spec = MallowsSpec.make(g, q)
    stages = list(tower_stages(kind, n))
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
        for m in tower_stages(kind, n):
            prod *= sum(q**c for _, _, c in stage_choices(kind, m))
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
    stages = list(tower_stages(kind, n))
    pops = np.stack([rng.integers(0, m, count) for m in stages], axis=1).astype(np.int32)
    signs = np.ones(pops.shape, dtype=np.int8)
    if kind != "A":
        signs[rng.random(pops.shape) < 0.5] = -1
    return pops, signs


def _uniforms_for(kind, n, pops, signs):
    """Uniforms that make tower_rows on the linear (q = 1) table choose the
    given pops and signs: there every table index k has weight 1, so x = u *
    total = k + 1/2 (under D, m + k + 1/2 in the light half, of sign -)
    selects k."""
    m = np.array(list(tower_stages(kind, n)))
    neg = signs < 0
    if kind == "D":
        return (np.where(neg, pops + m, m - 1 - pops) + 0.5) / (2 * m)
    c = np.where(neg, pops + m, m - 1 - pops)
    return (c + 0.5) / ((2 if kind == "B" else 1) * m)


def _fed_tower_rows(kind, n, q, U, which):
    """tower_rows fed the (rows, stages) uniforms U by a fake bit generator:
    statistic which of each row, after checking that the kernel made
    exactly one next_double call per stage and no other call."""
    rng = _FakeBitgen(doubles=U.ravel())
    out = _tower(kind, n, _prefix_table(kind, n, q), len(U), rng, which, np.empty(len(U), dtype=np.int64))
    assert rng.calls == ["next_double"] * U.size
    return out


@pytest.mark.parametrize("kind", ["A", "B", "D"])
@pytest.mark.parametrize("n", [2, 4, 7, 50, 300])
def test_decode_rows_matches_reference(kind, n):
    """The decode in tower_rows: random stage choices, fed to the kernel as
    the uniforms that choose them on the linear table; n = 2 is type D's
    smallest tower, n = 300 has labels above 255.  Fixed rows pop at either
    end and in the middle, where the decoder closes the gap from one side
    or the other, and alternate the ends, with D negations after the
    low-end pops.  The kernel's t, des, des_inv and length equal those of
    the reference decode's windows.  (The name is older than the one-pass
    kernel.)"""
    rng = np.random.default_rng(1000 * n + ord(kind))
    # fewer random rows at n = 300: the fake generator calls back per stage
    pops, signs = _random_choices(kind, n, 2500 if n <= 50 else 300, rng)
    left = np.array(list(tower_stages(kind, n)), dtype=np.int32)  # labels left at each stage
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
    U = _uniforms_for(kind, n, pops, signs)
    drawn = reference_choices(kind, n, 1.0, U)
    assert np.array_equal(drawn[0], pops) and np.array_equal(drawn[1], signs)
    W = reference_decode(kind, n, pops, signs)
    assert np.array_equal(np.sort(np.abs(W), axis=1), np.tile(np.arange(1, n + 1), (len(W), 1)))
    if kind == "D":
        assert ((W < 0).sum(axis=1) % 2 == 0).all()
        unflipped = reference_decode(kind, n, pops, signs, d_flip=False)
    for which, stat in enumerate(STATS):
        got = _fed_tower_rows(kind, n, 1.0, U, which)
        assert got.dtype == np.int64
        assert np.array_equal(got, windows_statistic(kind, W, stat)), stat
        if kind == "D" and n > 2 and stat != "length":
            # negative control: the comparison sees a decode without the D
            # flip (at n = 2 both decodes give the same statistics)
            assert not np.array_equal(got, windows_statistic(kind, unflipped, stat)), stat


def _ties(targets, total):
    """Uniforms u with u * total on each target x, where one of the nine
    doubles nearest x / total puts it exactly, else the nearest, each with
    the doubles next to it."""
    cands = [targets / total]
    for _ in range(4):
        cands = [np.nextafter(cands[0], 0.0)] + cands + [np.nextafter(cands[-1], 1.0)]
    cands = np.array(cands)
    exact = cands * total == targets
    u = cands[np.where(exact.any(axis=0), exact.argmax(axis=0), 4), np.arange(len(targets))]
    return np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)])


def _tie_uniforms(kind, n, q, rng, cap=None):
    """(rows, stages) uniforms that put x on, or an ulp beside, every
    prefix weight S[k] of each stage (in both halves under D) and every
    guide boundary below the stage total, where a search that breaks ties
    the wrong way or stops at its guide entry picks another choice.  A
    stage's values fill the first rows of its column, a random cap of them
    where there are more; the rest are random."""
    _, S, guide, pw = _prefix_table(kind, n, q)
    buckets = len(guide) - 1
    bounds = np.arange(buckets + 1) / (buckets / S[-2])
    cols = []
    for m in tower_stages(kind, n):
        M = 2 * m if kind == "B" else m
        h = S[M - 1]
        if kind == "D":
            total = h + pw[m - 1] * h
            r = _ties(np.concatenate([S[:m], h + pw[m - 1] * S[:m], bounds[bounds < h]]), total)
        else:
            r = _ties(np.concatenate([S[:M], bounds[bounds < h]]), h)
        r = np.unique(r)
        r = r[(r >= 0.0) & (r < 1.0)]
        cols.append(r if cap is None or len(r) <= cap else rng.choice(r, cap, replace=False))
    u = rng.random((max(map(len, cols)), len(cols)))
    for t, r in enumerate(cols):
        u[: len(r), t] = r
    return u


@pytest.mark.parametrize("kind", ["A", "B", "D"])
@pytest.mark.parametrize("n", [2, 4, 7, 50, 200, 300])
@pytest.mark.parametrize("q", [1e-3, 0.3, 0.97, 1.03, 3.0, 1e3])
def test_stage_choices_match_reference(kind, n, q):
    """The draws of tower_rows equal numpy's searchsorted walk on the
    prefix table (reference_choices) bit for bit: each row's summed
    contributions, on the seeded stream, after which the generator is
    where rng.random((cnt, stages)) leaves it, and on uniforms that land on
    ties and guide boundaries.  (The name is older than the one-pass
    kernel.)"""
    stages = len(tower_stages(kind, n))
    cnt = 20 * n + 37
    seed = 1000 * n + ord(kind)
    table = _prefix_table(kind, n, q)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _tower(kind, n, table, cnt, rng, 3, np.empty(cnt, dtype=np.int64))
    want = reference_choices(kind, n, q, ref.random((cnt, stages)))[2].sum(axis=1)
    assert np.array_equal(got, want)
    assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)

    # the fake generator calls back per stage: at most 637 tie rows past n = 50
    u = _tie_uniforms(kind, n, q, np.random.default_rng(seed), None if n <= 50 else 637)
    got = _fed_tower_rows(kind, n, q, u, 3)
    assert np.array_equal(got, reference_choices(kind, n, q, u)[2].sum(axis=1))
    # negative controls: the comparison sees a search that stops at its
    # guide entry, and one that breaks ties the other way where a double
    # u * S[M - 1] lands on a weight (at A2, q = 0.97 none does)
    assert not np.array_equal(got, reference_choices(kind, n, q, u, side="guide")[2].sum(axis=1))
    if n > 2:
        assert not np.array_equal(got, reference_choices(kind, n, q, u, side="left")[2].sum(axis=1))


def test_draw_choices_rejects_bad_uniforms():
    """A bit generator whose next_double leaves [0, 1) stops tower_rows
    with the row it was in.  (The name is older than the one-pass kernel.)"""
    u = np.random.default_rng(0).random((10, 5))
    for bad in (1.0, -0.25, np.nan):
        v = u.copy()
        v[3, 2] = bad
        for which in range(4):
            with pytest.raises(ValueError, match="row 3"):
                _fed_tower_rows("B", 5, 0.5, v, which)


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
    """A stand-in for a numpy Generator, as _uniform and _tower read it,
    whose bit generator hands out the given 64-bit words by next_uint64 and
    the given doubles by next_double.  calls logs, by name, each bitgen_t
    function the kernel calls."""

    def __init__(self, words=(), doubles=()):
        words = iter(np.asarray(words, dtype=np.uint64).tolist())
        doubles = iter(np.asarray(doubles, dtype=np.float64).tolist())
        self.calls = []

        def logged(name, value):
            def call(state):
                self.calls.append(name)
                return value()

            return call

        feeds = {"next_uint64": lambda: next(words), "next_double": lambda: next(doubles)}
        self._fns = [
            ftype(logged(name, feeds.get(name, lambda: 0)))
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
    """The kernels that make each row equal the numpy reference draw bit
    for bit, for all four statistics: tower_rows, at q != 1 and for lengths
    at q = 1 (the linear table), against rng.random((cnt, stages)), a
    searchsorted per stage on the prefix table and the reference decode
    (reference_choices, reference_decode), after which the generator is
    where rng.random leaves it; uniform_rows for t, des and des_inv at
    q = 1.  t, des and des_inv also equal window_stats on the same
    windows, and lengths the windows' counted lengths."""
    cnt, seed = 300, 1000 * n + ord(kind)
    stages = len(tower_stages(kind, n))
    W = chunk_windows(kind, n, q, cnt, np.random.default_rng(seed))
    table = None if q == 1.0 else _prefix_table(kind, n, q)
    for which, stat in enumerate(WINDOW_STATS):
        rng = np.random.default_rng(seed)
        got = _chunk_stats(kind, n, table, cnt, rng, which)
        want = _windows_stat(kind, W, stat)
        assert got.dtype == np.int64 and np.array_equal(got, want), stat
        assert np.array_equal(got, windows_statistic(kind, W, stat)), stat
        if q != 1.0:
            ref = np.random.default_rng(seed)
            ref.random((cnt, stages))
            assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _chunk_stats(kind, n, _prefix_table(kind, n, q), cnt, rng, STATS.index("length"))
    pops, signs, contrib = reference_choices(kind, n, q, ref.random((cnt, stages)))
    assert got.dtype == np.int64 and np.array_equal(got, contrib.sum(axis=1))
    assert np.array_equal(got, windows_lengths(kind, reference_decode(kind, n, pops, signs)))
    assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)


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
    """Every tuple of table indices, mapped to stage choices by the kernel's
    rule (stage_choice) at q < 1 and, reflected, at q > 1 and decoded by the
    reference decode, gives each element of the group once, and the sum of
    its contributions is that element's length in the object model.  (The
    name is older than the shared table.)"""
    g = parse_group(name)
    kind, n = g.kind, g.window_size
    elements = _lexsorted(itertools_windows(g))
    for flip in (False, True):
        stages = []
        for m in tower_stages(kind, n):
            M = 2 * m if kind == "B" else m
            k, light = np.arange(M), np.zeros(M, dtype=bool)
            if kind == "D":
                k, light = np.tile(k, 2), np.repeat([False, True], M)
            stages.append(stage_choice(kind, m, flip, k, light))
        pick = np.array(list(itertools.product(*(range(len(c)) for _, _, c in stages))))
        pops, signs, contrib = (
            np.stack([x[i][pick[:, t]] for t, x in enumerate(stages)], axis=1) for i in range(3)
        )
        W = reference_decode(kind, n, pops.astype(np.int32), signs.astype(np.int8))
        assert len(W) == g.order() == len(np.unique(W, axis=0))
        assert np.array_equal(_lexsorted(W), elements)
        want = [length(SignedPermutation(tuple(w)), g) for w in W.tolist()]
        assert contrib.sum(axis=1).tolist() == want


def test_tower_enumeration_checks_the_cap_on_every_call(monkeypatch):
    """A cap lowered after the group is cached still refuses it, in the
    window enumeration and in the enumerated lengths of the Z check, and
    the Z check refuses a product above the cap whose factors each fit.
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
    monkeypatch.setenv("COXMAL_ENUM_CAP", "100")
    assert normalization_enumeration_check(parse_group("A2"), 0.5).passed
    with pytest.raises(EnumerationCapError, match="288 elements"):
        normalization_enumeration_check(parse_group("B3 x A2"), 0.5)
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
    factor's lengths, by the reference draw and decode: the sampled windows
    at q != 1, the decoded choices on the linear table at q = 1."""
    children = np.random.SeedSequence(seed).spawn(len(spec.qs))
    out = []
    for (g, q), child in zip(spec.factor_specs(), children):
        kind, n = g.kind, g.window_size

        def draw(cnt, rng):
            U = rng.random((cnt, len(tower_stages(kind, n))))
            return reference_decode(kind, n, *reference_choices(kind, n, q, U)[:2])

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
    contributions (reference_choices): the same values, with no window
    reduced and no uniform row drawn."""
    monkeypatch.setattr(coxmal.mallows, "SAMPLE_CHUNK", 256)
    cases = [(name, q) for name in ("A6", "B6", "D6") for q in (0.5, 1.0, 2.0)]

    def no_windows(*args, **kwargs):
        raise AssertionError("decoded windows for sampled lengths")

    monkeypatch.setattr(coxmal.mallows, "_uniform", no_windows)
    monkeypatch.setattr(coxmal.mallows, "_windows_stat", no_windows)
    for name, q in cases:
        g = parse_group(name)
        kind, n = g.kind, g.window_size

        def draw(cnt, rng):
            U = rng.random((cnt, len(tower_stages(kind, n))))
            return reference_choices(kind, n, q, U)[2].sum(axis=1)

        child = np.random.SeedSequence(5).spawn(1)[0]
        want = np.concatenate(_map_chunks(g, 600, child, 1, draw))
        assert np.array_equal(sample_statistic(MallowsSpec.make(g, q), "length", 600, seed=5), want)


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


@pytest.mark.parametrize("stat", ["t", "length"])
@pytest.mark.parametrize("q", [0.5, 1.0])
@pytest.mark.parametrize("group", ["A200", "B200", "D200"])
def test_sampled_t_holds_no_window_array(group, q, stat):
    """Sampling t or lengths of one rank-200 chunk holds the (cnt,) output
    and little more, at every q: tower_rows and uniform_rows draw each
    row's uniforms or words themselves, and the prefix table is a few KB.
    Any (SAMPLE_CHUNK, n) array, even of int8, is 3.2 MB or more, over
    the bound; a window array of int64 is 26 MB."""
    spec = MallowsSpec.make(group, q)
    sample_statistic(spec, stat, 64, seed=1)  # kernels built untraced
    tracemalloc.start()
    try:
        sample_statistic(spec, stat, SAMPLE_CHUNK, seed=2, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SAMPLE_CHUNK * 8 + 2**20, peak


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
    """One sample_statistic call builds each q != 1 or length factor's
    prefix table once, before the sampler threads start, and every chunk
    shares it; t at q = 1 does not walk the tower and builds none.  (The
    name is older than the shared table.)"""
    built = []

    def counted(kind, n, q):
        built.append((kind, n, q))
        return _prefix_table(kind, n, q)

    monkeypatch.setattr(coxmal.mallows, "_prefix_table", counted)
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
    """Nothing keeps a call's prefix table once it returns, so a q sweep
    holds one table at a time.  (The name is older than the shared
    table.)"""
    refs = []

    def watched(kind, n, q):
        table = _prefix_table(kind, n, q)
        refs.extend(weakref.ref(arr) for arr in table[1:])
        return table

    monkeypatch.setattr(coxmal.mallows, "_prefix_table", watched)
    for statistic in ("t", "length"):
        sample_statistic(MallowsSpec.make("B200", 0.5), statistic, 2 * SAMPLE_CHUNK, seed=3, threads=2)
    gc.collect()
    assert len(refs) == 6 and all(ref() is None for ref in refs)


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
    monkeypatch.setattr(coxmal.mallows, "_prefix_table", no_windows)
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


@pytest.mark.parametrize("stat", STATS)
@pytest.mark.parametrize("q", [0.5, 2.0])
@pytest.mark.parametrize("name", ["A3", "B3", "D4", "D5"])
def test_tower_sampler_matches_exact_laws(name, q, stat):
    """Every statistic of the tower kernel, at q < 1 and q > 1, against its
    exact law from the insertion enumeration, at verify's 20,000 draws."""
    spec = MallowsSpec.make(name, q)
    xs = sample_statistic(spec, stat, 20000, seed=103)
    assert goodness_of_fit(xs, exact_distribution(spec, stat))[2] > 1e-3


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


def _mutant_t_gof(monkeypatch, tmp_path, mutant, names, q, statistic="t"):
    """p-values of the law checks above at q, of t or another statistic,
    run with the kernels built from the mutant source in their own cache.
    Only the sample comes from the mutant: the exact law's windows come
    from enumerate_windows, which no kernel decodes."""
    assert mutant != _DECODE_C
    _decode_lib.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setenv("XDG_CACHE_HOME", str(tmp_path))
            m.setattr(coxmal.mallows, "_DECODE_C", mutant)
            ps = {}
            for name in names:
                spec = MallowsSpec.make(name, q)
                xs = sample_statistic(spec, statistic, 20000, seed=7)
                ps[name] = goodness_of_fit(xs, exact_distribution(spec, statistic))[2]
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
    """A tower_rows that flips the sign of every pop turns each B window w
    into -w = w0 w, whose length is l(w0) - l(w), so the sampled law of t
    is the law at 1/q.  The t law check rejects it at B3 at 20,000 draws,
    as verify's sampler-gof cells draw."""
    mutant = _DECODE_C.replace("s * lab[p]", "-s * lab[p]")
    [p] = _mutant_t_gof(monkeypatch, tmp_path, mutant, ("B3",), q).values()
    assert p < 1e-3, p


# text patches of tower_rows's draw, each rejected by the t law check at
# verify's GOF groups and 20,000 draws (p = 0 to double precision, or below
# 1e-160, at seed 7)
DRAW_MUTANTS = {
    # the stage search takes the next choice
    "next-choice": ("k = k < M ? k : M - 1;", "k = k + 1 < M ? k + 1 : M - 1;", ("A3", "B3", "D4"), 0.5),
    # D's light half weighs q'^m instead of q'^(m - 1)
    "d-light-weight": ("double w = pw[m - 1];", "double w = pw[m];", ("D4",), 0.5),
}


@pytest.mark.parametrize("name", list(DRAW_MUTANTS))
def test_tower_law_check_rejects_draw_mutants(monkeypatch, tmp_path, name):
    old, new, groups, q = DRAW_MUTANTS[name]
    assert _DECODE_C.count(old) == 1
    ps = _mutant_t_gof(monkeypatch, tmp_path, _DECODE_C.replace(old, new), groups, q)
    for group, p in ps.items():
        assert p < 1e-3, (group, p)


def test_tower_law_check_rejects_a_dropped_reflection(monkeypatch):
    """A table whose flip is always off draws at q > 1 the choices of
    q' = 1/q, so the sampled law of t is the law at 1/q.  (Dropped in the
    kernel's text instead, D's half signs would still follow q > 1 and pop
    outside the labels.)  The t law check rejects it at verify's GOF
    groups, q = 2 and 20,000 draws (p = 0 to double precision)."""

    def unflipped(kind, n, q):
        return (False, *_prefix_table(kind, n, q)[1:])

    monkeypatch.setattr(coxmal.mallows, "_prefix_table", unflipped)
    for name in ("A3", "B3", "D4"):
        spec = MallowsSpec.make(name, 2.0)
        xs = sample_statistic(spec, "t", 20000, seed=7)
        assert goodness_of_fit(xs, exact_distribution(spec, "t"))[2] < 1e-3, name


def test_kernel_argtypes_match_their_c_prototypes():
    """_decode_lib declares the ctypes signature of each exported kernel by
    hand, and a mismatch passes arguments wrongly without an error: each
    must follow its prototype in _DECODE_C, with int64_t as c_int64, int as
    c_int, any pointer as c_void_p and void as None."""
    ctype = {"int64_t": ctypes.c_int64, "int": ctypes.c_int, "void": None}
    exported = re.findall(r"^(\w+) (\w+)\(([^)]*)\)", _DECODE_C, re.M)
    names = ["tower_rows", "uniform_rows", "window_stats"]
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


PATTERNS = [("B3", (1,), (1,)), ("D4", (1, 2), (-1, -2))]
PATTERNS += [("B3", (c1,), (v1,)) for c1 in (1, 2, 3) for v1 in (-3, -1, 2)]
PATTERNS += [("D4", (2, 3), vals) for vals in ((2, 4), (-2, 4), (-4, -3))]


@pytest.mark.parametrize(
    "name,positions,values",
    PATTERNS,
    ids=[f"{g}:{','.join(map(str, c))}={','.join(map(str, v))}" for g, c, v in PATTERNS],
)
def test_pattern_witness_is_the_shortest_match(name, positions, values):
    """The witness of every pattern the tests above run, with its length,
    is the object model's unique shortest element matching the pattern."""
    g = parse_group(name)
    detail = pattern_probability_bound_check(g, 0.5, positions, values).detail
    matches = [
        w for w in enumerate_group(g) if all(w.window[c - 1] == v for c, v in zip(positions, values))
    ]
    shortest = min(length(w, g) for w in matches)
    [witness] = [w for w in matches if length(w, g) == shortest]
    assert detail == {"witness": str(witness), "witness_length": shortest}
    assert type(detail["witness_length"]) is int
