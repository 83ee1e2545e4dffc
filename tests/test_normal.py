import math

import numpy as np
import pytest

from coxmal.coxeter import parse_group
from coxmal.mallows import MallowsSpec, sample_statistic
from coxmal.moments import DiscreteDistribution, exact_distribution
from coxmal.normal import (
    EPS_U,
    NORMAL_EXPECTATION,
    SMOOTH_TEST_FUNCTIONS,
    exact_w2_floor,
    smooth_bound_checks,
    tail_bound_check,
    w1_bound_check,
    w1_to_normal_by_cdf,
    w2_bound_check,
    w2_with_se,
    wasserstein_from_samples,
    wasserstein_p_to_normal,
)


def point_mass():
    """delta_0 with its centering and scale: (law, mu, sigma)."""
    return DiscreteDistribution(np.array([0]), np.array([1.0])), 0.0, 1.0


def test_point_mass_oracles():
    """W1(delta_0, Z) = E|Z| = sqrt(2/pi) and W2(delta_0, Z) = 1, up to the
    reported slack (the EPS_U clip is the only gap left)."""
    w1 = wasserstein_p_to_normal(*point_mass(), 1)
    assert abs(w1.value - math.sqrt(2 / math.pi)) <= w1.tail_slack
    assert w1.tail_slack < 1e-9
    w2 = wasserstein_p_to_normal(*point_mass(), 2)
    assert abs(w2.value - 1.0) <= w2.tail_slack
    with pytest.raises(ValueError):
        wasserstein_p_to_normal(*point_mass(), 3)


def test_w1_routes_agree():
    """Quantile-integral and CDF-integral routes, two independent codes,
    agree to within the quantile route's reported slack."""
    two_point = DiscreteDistribution(np.array([-1, 1]), np.array([0.5, 0.5]))
    laws = [(two_point, 0.0, 1.0)]
    for name in ("A3", "B4", "D5"):
        for q in (0.25, 0.5, 1.0, 2.0, 4.0):
            dist = exact_distribution(MallowsSpec.make(name, q), "t")
            laws.append((dist, dist.mean(), dist.std()))
    for law in laws:
        w = wasserstein_p_to_normal(*law, 1)
        assert abs(w.value - w1_to_normal_by_cdf(*law)) <= w.tail_slack


def _mpmath_distance(dist, mu, sigma, p):
    """W_p by 40-digit quadrature of |x - z|^p phi(z) over each plateau's
    z-range, with the same EPS_U clip as the code under test."""
    import mpmath as mp

    with mp.workdps(40):
        cuts = np.concatenate([[0.0], np.cumsum(dist.probs)])
        cuts[-1] = 1.0
        total = mp.mpf(0)
        for k, x in enumerate((dist.values - mu) / sigma):
            a, b = max(float(cuts[k]), EPS_U), min(float(cuts[k + 1]), 1.0 - EPS_U)
            if b <= a:
                continue
            x = mp.mpf(float(x))
            za, zb = (mp.sqrt(2) * mp.erfinv(2 * mp.mpf(u) - 1) for u in (a, b))
            cuts_z = [za, x, zb] if za < x < zb else [za, zb]
            integrand = lambda z: abs(x - z) ** p * mp.npdf(z)
            total += mp.quad(integrand, cuts_z, method="gauss-legendre")
        return float(total ** (mp.mpf(1) / p))


def test_closed_form_distances_match_mpmath():
    laws = []
    for g, q in (("B6", 0.5), ("D6", 2.0), ("A5", 1.0)):
        dist = exact_distribution(MallowsSpec.make(g, q), "t")
        laws.append((dist, dist.mean(), dist.std()))
    xs = sample_statistic(MallowsSpec.make("B200", 0.5), "t", 4096, seed=3)
    sampled = DiscreteDistribution.from_samples(xs)
    laws.append((sampled, float(xs.mean()), float(xs.std(ddof=1))))
    for law in laws:
        for p in (1, 2):
            ref = _mpmath_distance(*law, p)
            assert abs(wasserstein_p_to_normal(*law, p).value - ref) <= 1e-13 * ref


def test_w2_dominates_w1():
    for name, q in (("B3", 0.5), ("B4", 1.0), ("D4", 2.0), ("I2(6)", 0.5)):
        dist = exact_distribution(MallowsSpec.make(name, q), "t")
        w1 = wasserstein_p_to_normal(dist, dist.mean(), dist.std(), 1).value
        w2 = wasserstein_p_to_normal(dist, dist.mean(), dist.std(), 2).value
        assert w2 >= w1 - 1e-12


def test_normalization_requires_positive_sigma():
    dist = DiscreteDistribution(np.array([0]), np.array([1.0]))
    for sigma in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            wasserstein_p_to_normal(dist, 0.0, sigma, 2)
        with pytest.raises(ValueError):
            w1_to_normal_by_cdf(dist, 0.0, sigma)


def test_distance_shift_invariance():
    """Shifting the support and the centering together changes nothing."""
    vals = np.array([0, 1, 3])
    probs = np.array([0.25, 0.5, 0.25])
    base = DiscreteDistribution(vals, probs)
    moved = DiscreteDistribution(vals + 7, probs)
    a = wasserstein_p_to_normal(base, 1.0, 1.5, 2).value
    b = wasserstein_p_to_normal(moved, 8.0, 1.5, 2).value
    assert math.isclose(a, b, rel_tol=1e-10)


def test_binomial_laws_converge():
    """Distance to normal shrinks along binomial laws; a self-check of the
    metric rather than of any sampler."""
    from scipy.stats import binom

    values = []
    for n in (8, 32, 128):
        ks = np.arange(n + 1)
        d = DiscreteDistribution(ks, binom.pmf(ks, n, 0.5))
        values.append(wasserstein_p_to_normal(d, n * 0.5, math.sqrt(n * 0.25), 2).value)
    assert values[0] > values[1] > values[2]


def test_smooth_test_functions_have_zero_normal_mean():
    """smooth_bound_checks takes E h(Z) = NORMAL_EXPECTATION = 0 for every
    test function; quadrature against phi agrees."""
    from scipy.integrate import quad

    assert set(SMOOTH_TEST_FUNCTIONS) == {"sin", "tanh", "clamp"}
    assert NORMAL_EXPECTATION == 0.0
    for h in SMOOTH_TEST_FUNCTIONS.values():
        integrand = lambda x: float(h(x)) * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        val, _ = quad(integrand, -12.0, 12.0, limit=200)
        assert abs(val - NORMAL_EXPECTATION) < 1e-12


def test_smooth_bound_checks_pass():
    for q in (0.5, 1.0, 2.0):
        for c in smooth_bound_checks(parse_group("B4"), q):
            assert c.passed is not False, c.line()
    d4 = smooth_bound_checks(parse_group("D4"), 1.0)
    assert any(c.passed is None for c in d4)  # published constants need n >= 30
    assert all(c.passed for c in d4 if c.name.startswith("smooth-gap-generic"))


def test_w1_bound_check_exact():
    c = w1_bound_check(parse_group("B4"), 1.0)
    assert c.passed and c.observed < c.bound
    # the published constants are stated for D with n >= 30, and for B only;
    # outside that the comparison is informational
    for name in ("D4", "A4"):
        c = w1_bound_check(parse_group(name), 1.0)
        assert c.passed is None and c.observed < c.bound, c.line()


def test_w2_bound_hypothesis_flag():
    c = w2_bound_check(parse_group("B4"), 1.0)
    assert c.passed is None  # nk = 4 < 50
    assert "hypothesis" in c.note
    xs = sample_statistic(MallowsSpec.make("B100", 1.0), "t", 20000, seed=2, threads=2)
    c = w2_bound_check(parse_group("B100"), 1.0, xs)
    assert c.passed


def test_tail_bound_check_refuses_one_draw():
    """One drawn value makes every tail frequency 0 or 1: the check refuses
    it, as the other sampled checks do, instead of passing on its slack."""
    with pytest.raises(ValueError, match="at least 2 draws"):
        tail_bound_check(parse_group("B4"), 0.5, np.array([3]))


def test_tail_bound_check_exact():
    for name, q in (("B4", 0.5), ("B4", 1.0), ("D4", 0.5)):
        c = tail_bound_check(parse_group(name), q)
        assert c.passed, c.line()
    with pytest.raises(ValueError):
        tail_bound_check(parse_group("I2(5)"), 0.5)


def test_tail_bound_check_mc():
    xs = sample_statistic(MallowsSpec.make("B30", 0.5), "t", 20000, seed=9, threads=2)
    c = tail_bound_check(parse_group("B30"), 0.5, xs)
    assert c.passed
    assert c.bound > 0  # one-sided binomial slack present


def test_wasserstein_from_samples_slack_accounting():
    spec = MallowsSpec.make("B20", 1.0)
    xs = sample_statistic(spec, "t", 20000, seed=21)
    w1, s1 = wasserstein_from_samples(xs, 1, 40.0)
    w2, s2 = wasserstein_from_samples(xs, 2, 40.0)
    assert w1.value > 0 and w2.value >= w1.value - 1e-12
    assert s1 > 0 and s2 > 0
    # DKW band at 20k draws dominates the slack; it must shrink with count
    xs_big = sample_statistic(spec, "t", 80000, seed=21)
    _, s1_big = wasserstein_from_samples(xs_big, 1, 40.0)
    assert s1_big < s1


def test_w2_with_se_reports_spread():
    spec = MallowsSpec.make("B30", 1.0)
    v, se, slack = w2_with_se(spec, 16000, seed=5, threads=2)
    assert v > 0 and se > 0 and slack >= 0
    assert se < v


def test_exact_w2_floor_positive():
    floor = exact_w2_floor(MallowsSpec.make("I2(5) x I2(5)", 1.0))
    assert floor > 0.4
    # a near-normal law cannot certify a floor meaningfully larger than zero
    assert floor < 1.0
