"""Acceptance gate.

One test per verification family, each printing a single PASS/FAIL line
(run with -s to see them on success).  Tolerances here are the contract;
do not loosen them to make a run pass.
"""

import math

import numpy as np
import pytest

from coxmal.coxeter import parse_group
from coxmal.mallows import (
    MallowsSpec,
    normalization_enumeration_check,
    reversal_identity_check,
    sample_statistic,
)
from coxmal.moments import (
    exact_distribution,
    goodness_of_fit,
    mean_two_sided,
    variance_bounds_two_sided,
)
from coxmal.normal import (
    exact_w2_floor,
    smooth_bound_checks,
    tail_bound_check,
    w2_with_se,
    wasserstein_from_samples,
)
from coxmal.sizebias import (
    conditional_star_law_check,
    coupling_boundedness_check,
    covariance_type_sums,
    size_bias_law_check,
    stein_bound_rhs,
)

GRID_GROUPS = (
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "B4",
    "D4",
    "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)",
)
GRID_QS = (0.25, 0.5, 1.0, 2.0, 4.0)

BIG_CELLS = tuple(
    (name, q) for name in ("A100", "A200", "B100", "B200") for q in (0.5, 1.0)
)
BIG_COUNT = 100_000


def emit(tag, ok, detail):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def big_samples():
    """One seeded 1e5 draw of t per medium-rank cell, shared by the
    distance checks and the empirical tail checks."""
    out = {}
    for i, (name, q) in enumerate(BIG_CELLS):
        spec = MallowsSpec.make(name, q)
        out[(name, q)] = sample_statistic(spec, "t", BIG_COUNT, seed=900 + i, threads=4)
    return out


def test_c01_normalization_identity():
    worst = 0.0
    for name in GRID_GROUPS:
        g = parse_group(name)
        for q in GRID_QS:
            c = normalization_enumeration_check(g, q)
            worst = max(worst, abs(c.observed))
    emit(
        "c01",
        worst <= 1e-10,
        f"normalization constant vs enumeration, {len(GRID_GROUPS) * len(GRID_QS)}"
        f" cells, worst rel err {worst:.2e} (tol 1e-10)",
    )


def test_c02_mean_formula():
    worst = 0.0
    for name in GRID_GROUPS:
        g = parse_group(name)
        for q in GRID_QS:
            mean = exact_distribution(MallowsSpec.make(g, q), "t").mean()
            formula = mean_two_sided(g, q)
            worst = max(worst, abs(mean - formula) / formula)
    emit(
        "c02",
        worst <= 1e-10,
        f"E(t) = 2qn/(1+q), {len(GRID_GROUPS) * len(GRID_QS)} cells,"
        f" worst rel err {worst:.2e} (tol 1e-10)",
    )


def test_c03_variance_bounds():
    cells = main_ok = coro_ok = coro_info = 0
    ok = True
    for name in GRID_GROUPS:
        g = parse_group(name)
        if g.kind not in ("A", "B", "D"):
            continue  # bounds are stated for the three infinite families
        for q in GRID_QS:
            var = exact_distribution(MallowsSpec.make(g, q), "t").variance()
            b = variance_bounds_two_sided(g, q)
            cells += 1
            inside = max(0.0, b.lower) - 1e-12 <= var <= b.upper + 1e-12
            main_ok += inside
            ok &= inside
            if b.corollary_applicable:
                inside_c = b.corollary_lower - 1e-12 <= var <= b.corollary_upper + 1e-12
                coro_ok += inside_c
                ok &= inside_c
            else:
                coro_info += 1
    emit(
        "c03",
        ok,
        f"Var(t) within bounds at {main_ok}/{cells} cells, simplified bounds"
        f" at {coro_ok} cells, {coro_info} informational (rank hypothesis)",
    )


def test_c04_reversal_symmetry():
    worst = 0.0
    for name in ("B3", "B4", "D4"):
        g = parse_group(name)
        for q in (0.25, 0.5):
            c = reversal_identity_check(g, q, "t")
            worst = max(worst, abs(c.observed))
    emit(
        "c04",
        worst <= 1e-12,
        f"law(t;q) vs reflected law(t;1/q), 6 cells, worst TV {worst:.2e}"
        f" (tol 1e-12)",
    )


def test_c05_size_bias_law():
    worst = 0.0
    names = ("A2", "A3", "A5", "B2", "B3", "B5", "D4", "D5")
    for name in names:
        g = parse_group(name)
        for q in (0.5, 1.0, 2.0):
            c = size_bias_law_check(g, q)
            worst = max(worst, abs(c.observed))
    worst_cond = 0.0
    cond_names = ("A3", "A5", "B3", "B5", "D4", "D5")
    for name in cond_names:
        for q in (0.5, 2.0):
            c = conditional_star_law_check(parse_group(name), q)
            worst_cond = max(worst_cond, c.observed)
    emit(
        "c05",
        worst <= 1e-12 and worst_cond <= 1e-12,
        f"law(t(w*)) vs size-bias of law(t), {3 * len(names)} cells, worst TV"
        f" {worst:.2e}; law(w_i*) vs law(w | descent at s_i), every i and side,"
        f" {2 * len(cond_names)} cells, worst TV {worst_cond:.2e} (tol 1e-12)",
    )


def test_c06_coupling_boundedness():
    ok = True
    triples = []
    for name in (
        "A1", "A2", "A3", "A4", "A5", "A6",
        "B2", "B3", "B4", "B5", "B6",
        "D4", "D5", "D6",
    ):
        c = coupling_boundedness_check(parse_group(name))
        ok &= bool(c.passed)
        triples.append(
            (
                c.detail["max_right_des_shift"],
                c.detail["max_left_des_shift"],
                c.detail["max_t_shift"],
            )
        )
    worst = tuple(max(col) for col in zip(*triples))
    emit(
        "c06",
        ok,
        f"exhaustive coupling shifts at rank <= 6: max |des right| {worst[0]}"
        f" (<=3), left {worst[1]} (<=1), |t - t*| {worst[2]} (<=4)",
    )


def test_c07_covariance_types():
    ok = True
    worst_recon = 0.0
    for name in ("B3", "B4", "D4"):
        g = parse_group(name)
        for q in (0.5, 1.0):
            checks = covariance_type_sums(g, q)
            worst_recon = max(worst_recon, checks[0].observed)
            ok &= checks[0].observed <= 1e-8
            for c in checks[1:]:
                ok &= c.passed is True
    emit(
        "c07",
        ok,
        f"2,4,4,2,2,2-weighted type sums reconstruct Var(S1+..+S4), 6 cells,"
        f" worst gap {worst_recon:.2e} (tol 1e-8); all per-type bounds hold",
    )


def test_c08_smooth_function_gaps():
    ok = True
    info_rows = 0
    worst_margin = math.inf
    for q in (0.5, 1.0, 2.0):
        for c in smooth_bound_checks(parse_group("B4"), q):
            ok &= c.passed is True
            worst_margin = min(worst_margin, c.bound - c.observed)
        for c in smooth_bound_checks(parse_group("D4"), q):
            if c.passed is None:
                info_rows += 1
            else:
                ok &= c.passed is True
    emit(
        "c08",
        ok,
        f"|E h((t-mu)/sigma) - E h(Z)| within Stein bounds for sin/tanh/clamp"
        f" at B4 (min margin {worst_margin:.3g}); D4 published-constant rows"
        f" informational ({info_rows}), generic form asserted",
    )


def test_c09_medium_rank_w1_w2(big_samples):
    ok = True
    worst_w1 = worst_w2 = -math.inf
    for (name, q), xs in big_samples.items():
        g = parse_group(name)
        n = g.num_generators
        k = min(q, 1.0 / q)
        w1, s1 = wasserstein_from_samples(xs, 1, 2.0 * n)
        rhs1 = stein_bound_rhs(g, q, "w1").value
        ok &= w1.value + s1 <= rhs1
        worst_w1 = max(worst_w1, (w1.value + s1) / rhs1)
        w2, s2 = wasserstein_from_samples(xs, 2, 2.0 * n)
        rhs2 = 100.0 * (n * k) ** -0.25 * math.sqrt(math.log(n * k))
        ok &= w2.value + s2 <= rhs2
        worst_w2 = max(worst_w2, (w2.value + s2) / rhs2)
    emit(
        "c09",
        ok,
        f"A/B at rank 100/200, q in (0.5, 1), 1e5 draws: W1 and W2 below"
        f" their bounds with DKW slack added (worst used fractions"
        f" {worst_w1:.3g}, {worst_w2:.3g})",
    )


def test_c10_tail_bounds(big_samples):
    ok = True
    for name in ("B4", "D4"):
        for q in (0.5, 1.0, 2.0):
            c = tail_bound_check(parse_group(name), q)
            ok &= c.passed is True
    worst = -math.inf
    for q in (0.5, 1.0):
        xs = big_samples[("B200", q)]
        mu = mean_two_sided(parse_group("B200"), q)
        slack = math.sqrt(math.log(1000.0) / (2.0 * len(xs)))
        for x in range(0, 401):
            upper = float(np.mean(xs - mu >= x))
            lower = float(np.mean(xs - mu <= -x))
            bu = math.exp(-x * x / (8.0 * (x / 3.0 + mu)))
            bl = math.exp(-x * x / (8.0 * mu))
            worst = max(worst, upper - slack - bu, lower - slack - bl)
        ok &= worst <= 0.0
    emit(
        "c10",
        ok,
        f"exponential tail bounds: exact at B4/D4 over x in 0..2n; empirical"
        f" at B200 (1e5 draws, 0.999 binomial slack), worst excess {worst:.2e}",
    )


def test_c11_sampler_exactness():
    ok = True
    min_p = 1.0
    cells = [(name, q) for name in ("B3", "D4") for q in (0.5, 1.0, 2.0)] + [("A4", 0.5)]
    for (name, q), seed in zip(cells, (70, 71, 72, 73, 74, 75, 80)):
        spec = MallowsSpec.make(name, q)
        xs = sample_statistic(spec, "t", 100_000, seed=seed, threads=4)
        _, _, p = goodness_of_fit(xs, exact_distribution(spec, "t"))
        ok &= p > 1e-3
        min_p = min(min_p, p)
    emit(
        "c11",
        ok,
        f"chi-square GOF of 1e5 draws vs exact law, {len(cells)} cells (B3, D4 at"
        f" q = 0.5, 1, 2; A4 at q = 0.5), min p {min_p:.3g} (> 1e-3)",
    )


def test_c12_product_trend():
    vals = []
    for j, seed in ((1, 41), (2, 42), (4, 43), (8, 44)):
        spec = MallowsSpec.make(" x ".join(["B50"] * j), 1.0)
        v, se, _ = w2_with_se(spec, BIG_COUNT, seed=seed, threads=4)
        vals.append((j, v, se))
    trend_ok = all(
        vals[i + 1][1] <= vals[i][1] + 2.0 * (vals[i][2] + vals[i + 1][2])
        for i in range(len(vals) - 1)
    )
    fixed = MallowsSpec.make("I2(5) x I2(5)", 1.0)
    floor = exact_w2_floor(fixed)
    xs = sample_statistic(fixed, "t", BIG_COUNT, seed=45, threads=4)
    w2, _ = wasserstein_from_samples(xs, 2, 8.0)
    away_ok = floor > 0.0 and w2.value >= floor / 2.0
    path = " -> ".join(f"{v:.4f}" for _, v, _ in vals)
    emit(
        "c12",
        trend_ok and away_ok,
        f"W2 over 1,2,4,8 copies of B50 non-increasing within 2*SE ({path});"
        f" I2(5) x I2(5) stays at {w2.value:.4f} >= floor/2 = {floor / 2:.4f}",
    )
