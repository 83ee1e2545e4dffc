"""Numpy references for the window kernels, the size-bias stars, the
window enumeration, the tower draw and decode, and the sampled windows.

These are the array kernels the package used before the statistics moved
into C, an itertools enumeration of the group, a tower draw and decode in
numpy, and the seeded windows whose statistics the sampler returns; the
tests keep them to check the package bit for bit.
"""

import itertools
import math

import numpy as np

from coxmal.coxeter import ProductDescriptor, _check_enum_cap, windows_descents, windows_invert
from coxmal.mallows import _map_chunks, _prefix_table
from coxmal.sizebias import _ensure_right_batch


def itertools_windows(g) -> np.ndarray:
    """Every element of an A, B or D group as an (order, n) int64 window array.

    Rows come in the order enumerate_group yields the elements, under the
    same cap.
    """
    if isinstance(g, ProductDescriptor) or g.kind == "I2":
        raise ValueError(f"{g} is not stored as windows; enumerate its A, B, D factors")
    _check_enum_cap(g)
    n = g.window_size
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(1, n + 1))),
        dtype=np.int64,
        count=math.factorial(n) * n,
    ).reshape(-1, n)
    if g.kind == "A":
        return perms
    signs = np.array(list(itertools.product((1, -1), repeat=n)), dtype=np.int64)
    if g.kind == "D":
        signs = signs[np.count_nonzero(signs < 0, axis=1) % 2 == 0]
    return (perms[:, None, :] * signs[None, :, :]).reshape(-1, n)


def windows_descent_counts(kind: str, W: np.ndarray) -> np.ndarray:
    """Right-descent numbers for a batch of windows."""
    return np.count_nonzero(windows_descents(kind, W), axis=1).astype(np.int64)


def windows_two_sided(kind: str, W: np.ndarray) -> np.ndarray:
    return windows_descent_counts(kind, W) + windows_descent_counts(
        kind, windows_invert(W)
    )


def windows_lengths(kind: str, W: np.ndarray) -> np.ndarray:
    """Lengths for a batch of windows; quadratic in n, one numpy pass per column."""
    count, n = W.shape
    out = np.zeros(count, dtype=np.int64)
    for i in range(n - 1):
        wi = W[:, i : i + 1]
        rest = W[:, i + 1 :]
        out += np.count_nonzero(wi > rest, axis=1)
        if kind in ("B", "D"):
            out += np.count_nonzero(rest < -wi, axis=1)
    if kind == "B":
        out += np.count_nonzero(W < 0, axis=1)
    return out


def windows_statistic(kind: str, W: np.ndarray, statistic: str) -> np.ndarray:
    """The reference value of t, des, des_inv or length for each row."""
    if statistic == "t":
        return windows_two_sided(kind, W)
    if statistic == "des":
        return windows_descent_counts(kind, W)
    if statistic == "des_inv":
        return windows_descent_counts(kind, windows_invert(W))
    if statistic == "length":
        return windows_lengths(kind, W)
    raise ValueError(f"unknown statistic {statistic!r}")


def coupling_descents(kind: str, W: np.ndarray):
    """(des, star_des) in the layout of sizebias._exact_coupling, each star
    recounted: des[r] is (des(w), des(w^-1)) and star_des[r, s, i] the same
    for the star of w at s_i, s = 0 on the right and 1 on the left."""
    V = windows_invert(W)
    gens = W.shape[1] - (kind == "A")
    star_des = np.empty((len(W), 2, gens, 2), dtype=np.int32)
    for i in range(gens):
        for s, source in enumerate((W, V)):
            S = _ensure_right_batch(kind, source, i)
            star_des[:, s, i, s] = windows_descent_counts(kind, S)
            star_des[:, s, i, 1 - s] = windows_descent_counts(kind, windows_invert(S))
    des = np.stack((windows_descent_counts(kind, W), windows_descent_counts(kind, V)), axis=1)
    return des, star_des


def reference_uniform(kind: str, words, parity=True) -> np.ndarray:
    """Uniform windows from (rows, n) uint64 words, all rows at once: the
    inside-out Fisher-Yates shuffle of uniform_rows, entry i putting label
    i + 1 at position j = (word >> 1) * (i + 1) >> 63 and moving the label
    there to position i, and under B and D the sign 2 (word & 1) - 1 at each
    position, with type D's last sign the product of the others
    (parity=False drops that fix: the negative control).  Asserts that no
    word falls in the kernel's rejection region, m mod 2**63 <
    2**63 mod (i + 1), where the kernel would draw another word; that has
    probability below n**2 / 2**63 per row."""
    cnt, n = words.shape
    W = np.zeros((cnt, n), dtype=np.int64)
    rows = np.arange(cnt)
    for i in range(n):
        m = (words[:, i] >> np.uint64(1)).astype(object) * (i + 1)
        assert not np.any(m % 2**63 < 2**63 % (i + 1)), f"a word of entry {i} is rejected"
        j = (m >> 63).astype(np.int64)
        W[:, i] = W[rows, j]
        W[rows, j] = i + 1
    if kind == "A":
        return W
    signs = 2 * (words & np.uint64(1)).astype(np.int64) - 1
    if kind == "D" and parity:
        signs[:, -1] = np.prod(signs[:, :-1], axis=1)
    return W * signs


def tower_stages(kind: str, n: int):
    """The tower's stages m, in the order a row draws them: n down to 1, or
    to 2 under D, whose last label fills position 1."""
    return range(n, 1 if kind == "D" else 0, -1)


def stage_choice(kind: str, m: int, flip: bool, k, light):
    """(pops, signs, contributions) of stage m's table indices k, light
    marking type D's light half: the contribution c is k, plus m - 1 in the
    light half, reflected about the stage's largest contribution when flip
    (q > 1); it pops the p-th smallest remaining label, p = m - 1 - c with
    sign +, or with sign - p = c - m under B and the light half's k under
    D (its half has sign - at q < 1)."""
    k, light = np.asarray(k), np.asarray(light, dtype=bool)
    c = k + np.where(light, m - 1, 0)
    if flip:
        c = {"A": m - 1, "B": 2 * m - 1, "D": 2 * m - 2}[kind] - c
    neg = light ^ flip if kind == "D" else c >= m
    pops = np.where(neg, c - (m - 1 if kind == "D" else m), m - 1 - c)
    return pops, np.where(neg, -1, 1), c


def reference_choices(kind: str, n: int, q: float, U, side="right"):
    """Tower choices (pops, signs, contributions) of the (rows, stages)
    uniforms U, one stage at a time over all rows: the reference of the
    tower_rows draw.  Column t is stage m = n - t.  A stage takes the first
    k with S[k] > x = u * S[M - 1] on the prefix table (_prefix_table) by
    searchsorted, M = 2m under B and m otherwise (the negative controls:
    side="left" takes the first k with S[k] >= x, side="guide" the guide
    entry of x without a walk); under D it first picks its
    half, x = u * (h + w * h) with h = S[m - 1] and w = q'^(m - 1), and
    x >= h takes the light half at (x - h) / w.  k is clamped to M - 1 and
    mapped by stage_choice."""
    flip, S, guide, pw = _prefix_table(kind, n, q)
    cnt, stages = U.shape
    pops = np.empty((cnt, stages), dtype=np.int32)
    signs = np.empty((cnt, stages), dtype=np.int8)
    contrib = np.empty((cnt, stages), dtype=np.int64)
    for t in range(stages):
        m = n - t
        M = 2 * m if kind == "B" else m
        h = S[M - 1]
        x = U[:, t] * h
        light = np.zeros(cnt, dtype=bool)
        if kind == "D":
            w = pw[m - 1]
            x = U[:, t] * (h + w * h)
            light = x >= h
            x[light] = (x[light] - h) / w
        if side == "guide":  # the negative control that does not walk
            k = np.minimum(guide[(x * (len(guide) - 1) / S[-2]).astype(np.int64)], M - 1)
        else:
            k = np.minimum(np.searchsorted(S, x, side=side), M - 1)
        pops[:, t], signs[:, t], contrib[:, t] = stage_choice(kind, m, flip, k, light)
    return pops, signs, contrib


def reference_decode(kind: str, n: int, pops, signs, d_flip=True) -> np.ndarray:
    """The windows of tower choices, decoded one stage at a time over a
    block of rows: the reference of the tower_rows decode.  Column t of
    pops and signs is stage m = n - t, which takes the pops[:, t]-th
    smallest remaining label into position m with sign signs[:, t].  Under
    D a negative choice also negates the smallest label left (d_flip=False
    drops that: the negative control), and the last label fills position 1."""
    cnt, stages = pops.shape
    W = np.empty((cnt, n), dtype=np.int64)
    cols = np.arange(n)
    for lo in range(0, cnt, 1024):  # a block's labels stay in cache
        p, sg, out = pops[lo : lo + 1024], signs[lo : lo + 1024], W[lo : lo + 1024]
        labels = np.tile(np.arange(1, n + 1, dtype=np.int16), (len(p), 1))  # n < 2**15
        rows = np.arange(len(p))
        for t in range(stages):
            left = n - t
            out[:, left - 1] = sg[:, t] * labels[rows, p[:, t]]
            # the labels above the popped one move down a slot
            np.copyto(labels[:, : left - 1], labels[:, 1:left], where=cols[: left - 1] >= p[:, t, None])
            if kind == "D" and d_flip:
                labels[:, 0] *= sg[:, t]
        out[:, : n - stages] = labels[:, : n - stages]
    return W


def chunk_windows(kind: str, n: int, q: float, cnt: int, rng) -> np.ndarray:
    """The cnt windows whose statistics the sampler draws from rng: the
    reference decode of the tower choices of rng.random((cnt, stages)) at
    q != 1; at q = 1 the uniform windows of
    rng.integers(0, 2**64, (cnt, n), dtype=np.uint64)."""
    if q != 1.0:
        U = rng.random((cnt, len(tower_stages(kind, n))))
        return reference_decode(kind, n, *reference_choices(kind, n, q, U)[:2])
    return reference_uniform(kind, rng.integers(0, 2**64, (cnt, n), dtype=np.uint64))


def sampled_windows(g, q: float, count: int, seed, threads: int = 1) -> np.ndarray:
    """(count, n) windows of count seeded draws from the A, B or D group g at
    q, chunk by chunk as sample_statistic draws a factor from that factor's
    seed: t, des and des_inv of a one-factor spec seeded by s are the
    statistics of sampled_windows(g, q, count, SeedSequence(s).spawn(1)[0])."""
    kind, n = g.kind, g.window_size
    chunks = _map_chunks(g, count, seed, threads, lambda cnt, rng: chunk_windows(kind, n, q, cnt, rng))
    return np.concatenate(chunks) if chunks else np.empty((0, n), dtype=np.int64)
