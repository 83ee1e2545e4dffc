import math

import numpy as np
import pytest

import coxmal.moments
from coxmal.coxeter import parse_group
from coxmal.mallows import MallowsSpec, sample_statistic
from coxmal.moments import (
    DiscreteDistribution,
    _merge_bins,
    cube_moment_bound_check,
    descent_indicator_mean_check,
    exact_distribution,
    goodness_of_fit,
    mean_formula_check,
    mean_two_sided,
    variance_bounds_check,
    variance_bounds_two_sided,
)
from object_reference import descent_number, enumerate_group, length, pmf, two_sided_descent


def bernoulli(p):
    return DiscreteDistribution(np.array([0, 1]), np.array([1 - p, p]))


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([1, 1]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([2, 1]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([0, 1]), np.array([0.9, 0.2]))
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([0, 1]), np.array([1.1, -0.1]))


def test_distribution_moments():
    d = bernoulli(0.25)
    assert math.isclose(d.mean(), 0.25)
    assert math.isclose(d.variance(), 0.25 * 0.75)
    assert math.isclose(d.std(), math.sqrt(0.1875))
    assert d.prob(0) == 0.75 and d.prob(1) == 0.25 and d.prob(7) == 0.0


def test_tv_distance():
    a = bernoulli(0.25)
    b = bernoulli(0.75)
    assert math.isclose(a.tv_distance(b), 0.5)
    assert a.tv_distance(a) == 0.0


def test_size_bias_of_bernoulli():
    """Size-biasing a Bernoulli gives the point mass at 1."""
    sb = bernoulli(0.3).size_bias()
    assert sb.support() == [1]
    assert math.isclose(sb.probs[0], 1.0)
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([0]), np.array([1.0])).size_bias()


def test_size_bias_matches_weighting():
    vals = np.array([1, 2, 5])
    probs = np.array([0.5, 0.3, 0.2])
    d = DiscreteDistribution(vals, probs)
    sb = d.size_bias()
    expect = vals * probs / d.mean()
    assert np.allclose(sb.probs, expect)


def test_convolve_binomial():
    b = bernoulli(0.4)
    two = b.convolve(b)
    assert two.support() == [0, 1, 2]
    assert np.allclose(two.probs, [0.36, 0.48, 0.16])


def test_from_samples_and_csv_round_trip(tmp_path):
    xs = np.array([3, 1, 3, 3, 2, 1])
    d = DiscreteDistribution.from_samples(xs, provenance={"origin": "test"})
    assert d.support() == [1, 2, 3]
    assert np.allclose(d.probs, [2 / 6, 1 / 6, 3 / 6])
    path = tmp_path / "d.csv"
    d.to_csv(path)
    assert path.read_text() == (
        "# origin=test\n"
        "value,probability\n"
        f"1,{2 / 6!r}\n"
        f"2,{1 / 6!r}\n"
        f"3,{3 / 6!r}\n"
    )


OBJECT_STATISTICS = {
    "t": two_sided_descent,
    "des": descent_number,
    "des_inv": lambda w, g: descent_number(w, g, side="left"),
    "length": length,
}


@pytest.mark.parametrize("statistic", sorted(OBJECT_STATISTICS))
@pytest.mark.parametrize("name", ["A4", "B4", "D5", "I2(5)"])
@pytest.mark.parametrize("q", [0.3, 2.0])
def test_exact_distribution_agrees_with_direct_enumeration(statistic, name, q):
    """Cross-route oracle: accumulate pmf() element by element over objects."""
    g = parse_group(name)
    spec = MallowsSpec.make(g, q)
    law = {}
    for w in enumerate_group(g):
        v = OBJECT_STATISTICS[statistic](w, g)
        law[v] = law.get(v, 0.0) + pmf(w, spec)
    dist = exact_distribution(spec, statistic)
    assert dist.support() == sorted(law)
    for v, p in zip(dist.values, dist.probs):
        assert math.isclose(p, law[int(v)], rel_tol=1e-12)


def test_exact_distribution_of_product_convolves():
    spec = MallowsSpec.make("B2 x I2(3)", [0.5, 2.0])
    prod = exact_distribution(spec, "t")
    a = exact_distribution(MallowsSpec.make("B2", 0.5), "t")
    b = exact_distribution(MallowsSpec.make("I2(3)", 2.0), "t")
    conv = a.convolve(b)
    assert prod.support() == conv.support()
    assert np.allclose(prod.probs, conv.probs, atol=1e-14)


@pytest.mark.parametrize("name", ["A2", "B3", "D4", "I2(7)"])
@pytest.mark.parametrize("q", [0.3, 1.0, 2.0])
def test_mean_formula(name, q):
    g = parse_group(name)
    dist = exact_distribution(MallowsSpec.make(g, q), "t")
    assert math.isclose(dist.mean(), mean_two_sided(g, q), rel_tol=1e-12)


def test_mean_formula_value():
    assert mean_two_sided(parse_group("B4"), 1.0) == 4.0
    assert math.isclose(mean_two_sided(parse_group("A3"), 0.5), 2 * 0.5 * 3 / 1.5)


def test_variance_bounds_b3_values():
    """Hand-computed bound values at q = 1: lower 0.5, upper 2.5."""
    b = variance_bounds_two_sided(parse_group("B3"), 1.0)
    assert math.isclose(b.lower, 0.5)
    assert math.isclose(b.upper, 2.5)
    var = exact_distribution(MallowsSpec.make("B3", 1.0), "t").variance()
    assert b.lower <= var <= b.upper


@pytest.mark.parametrize("name", ["A2", "A4", "B2", "B4", "D4"])
@pytest.mark.parametrize("q", [0.25, 0.6, 1.0, 2.0, 5.0])
def test_variance_bounds_contain_exact(name, q):
    g = parse_group(name)
    b = variance_bounds_two_sided(g, q)
    var = exact_distribution(MallowsSpec.make(g, q), "t").variance()
    assert max(0.0, b.lower) <= var <= b.upper
    if b.corollary_applicable:
        assert b.corollary_lower <= var <= b.corollary_upper


def test_variance_bounds_fold_q():
    """Bounds are stated after folding q above 1 back to 1/q."""
    b_low = variance_bounds_two_sided(parse_group("B4"), 0.5)
    b_high = variance_bounds_two_sided(parse_group("B4"), 2.0)
    assert math.isclose(b_low.lower, b_high.lower)
    assert math.isclose(b_low.upper, b_high.upper)


def test_variance_corollary_flags():
    # D corollary needs rank at least 30
    d = variance_bounds_two_sided(parse_group("D4"), 0.5)
    assert not d.corollary_applicable
    b = variance_bounds_two_sided(parse_group("B4"), 0.5)
    assert b.corollary_applicable
    nk = 4 * 0.5
    assert math.isclose(b.corollary_lower, nk / 6)
    assert math.isclose(b.corollary_upper, 4 * nk)
    a = variance_bounds_two_sided(parse_group("A4"), 0.5)
    assert math.isclose(a.corollary_upper, 8 * nk)
    with pytest.raises(ValueError):
        variance_bounds_two_sided(parse_group("I2(5)"), 0.5)


def test_cube_moment_bound():
    c = cube_moment_bound_check(parse_group("B4"), 1.0)
    assert c.passed
    assert math.isclose(c.bound, 136.0)  # (nr)^3 + 24 (nr)^2 + 16 nr at nr = 2
    c = cube_moment_bound_check(parse_group("D4"), 0.5)
    assert c.passed
    des = sample_statistic(MallowsSpec.make("B3", 0.5), "des", 20000, seed=4)
    c = cube_moment_bound_check(parse_group("B3"), 0.5, des)
    assert c.passed


def test_descent_indicator_mean():
    """Dihedral groups included; products are refused."""
    for name in ("A3", "B3", "D4", "I2(5)"):
        for q in (0.5, 1.0, 3.0):
            c = descent_indicator_mean_check(parse_group(name), q)
            assert c.passed, c.line()
    with pytest.raises(ValueError):
        descent_indicator_mean_check(parse_group("B3 x A2"), 0.5)


def test_empirical_distribution_matches_exact():
    spec = MallowsSpec.make("B3", 2.0)
    dist = DiscreteDistribution.from_samples(sample_statistic(spec, "t", 20000, seed=11))
    exact = exact_distribution(spec, "t")
    assert abs(dist.mean() - exact.mean()) <= 5 * math.sqrt(dist.variance() / 20000)


def test_moment_checks_pass_on_the_law_they_state():
    for name, q in (("A4", 2.0), ("B4", 0.5), ("D4", 1.0)):
        g = parse_group(name)
        xs = sample_statistic(MallowsSpec.make(g, q), "t", 100_000, seed=12)
        for drawn in (None, xs):
            assert mean_formula_check(g, q, drawn).passed
            assert variance_bounds_check(g, q, drawn).passed


def test_mean_formula_check_fails_on_a_law_at_another_q(monkeypatch):
    real = coxmal.moments.exact_distribution

    def shifted(spec, statistic="t"):
        return real(MallowsSpec.make(spec.group, 1.02 * spec.q), statistic)

    monkeypatch.setattr(coxmal.moments, "exact_distribution", shifted)
    for name in ("A4", "B4", "D4", "I2(5)"):
        for q in (0.25, 0.5, 1.0, 2.0, 4.0):
            assert mean_formula_check(parse_group(name), q).passed is False
    g = parse_group("B4")
    xs = sample_statistic(MallowsSpec.make(g, 1.1 * 0.5), "t", 100_000, seed=12)
    c = mean_formula_check(g, 0.5, xs)
    assert c.passed is False and c.observed > c.bound > 0


def test_variance_bounds_check_fails_on_a_law_of_another_group(monkeypatch):
    """Var t of A4 lies above B2's upper bound at every q of the verify grid.
    A law at 1.02 q would not do: the bounds have room to spare."""
    real = coxmal.moments.exact_distribution

    def a4(spec, statistic="t"):
        return real(MallowsSpec.make("A4", spec.q), statistic)

    b2 = parse_group("B2")
    for q in (0.25, 0.5, 1.0, 2.0, 4.0):
        xs = sample_statistic(MallowsSpec.make("A4", q), "t", 100_000, seed=13)
        c = variance_bounds_check(b2, q, xs)
        assert c.passed is False and c.observed > c.bound + c.detail["slack"]
    monkeypatch.setattr(coxmal.moments, "exact_distribution", a4)
    for q in (0.25, 0.5, 1.0, 2.0, 4.0):
        c = variance_bounds_check(b2, q)
        assert c.passed is False and c.observed > c.bound
    with pytest.raises(ValueError, match="at least 2 draws"):
        variance_bounds_check(b2, 0.5, np.array([3]))


def test_mean_formula_check_refuses_one_draw():
    """One drawn value has no standard error: the check refuses it, as the
    variance check does, instead of failing on a zero bound."""
    with pytest.raises(ValueError, match="at least 2 draws"):
        mean_formula_check(parse_group("B4"), 0.5, np.array([3]))


def test_cube_moment_bound_check_refuses_one_draw():
    """One drawn des has no standard deviation: the check refuses it instead
    of reporting a FAIL with a nan slack."""
    with pytest.raises(ValueError, match="at least 2 draws"):
        cube_moment_bound_check(parse_group("B4"), 0.5, np.array([3]))


def test_goodness_of_fit_behaviour():
    rng = np.random.default_rng(0)
    d = bernoulli(0.5)
    xs = rng.integers(0, 2, size=5000)
    _, _, p = goodness_of_fit(xs, d)
    assert p > 1e-3
    skewed = np.zeros(5000, dtype=np.int64)
    _, _, p_bad = goodness_of_fit(skewed, d)
    assert p_bad < 1e-12
    outside = np.full(100, 7)
    _, _, p_out = goodness_of_fit(outside, d)
    assert p_out == 0.0


def _random_law(rng):
    k = int(rng.integers(1, 12))
    probs = rng.dirichlet(np.full(k, rng.uniform(0.3, 3.0)))
    return DiscreteDistribution(np.sort(rng.choice(40, k, replace=False)), probs)


def _counts(xs, support):
    return np.array([(xs == v).sum() for v in support], dtype=float)


def test_goodness_of_fit_is_scipy_chisquare_to_the_bit():
    """Same statistic and p-value as scipy.stats.chisquare on the pooled bins."""
    from scipy.stats import chisquare

    rng = np.random.default_rng(10)
    compared = 0
    for it in range(3000):
        d = _random_law(rng)
        count = int(rng.integers(5, 1000))
        xs = rng.choice(d.values, count, p=d.probs)
        min_expected = (1.0, 5.0, 10.0, 20.0)[it % 4]
        stat, dof, p = goodness_of_fit(xs, d, min_expected)
        obs, exp = _merge_bins(_counts(xs, d.values), d.probs * count, min_expected)
        if len(obs) < 2:
            assert (stat, dof, p) == (0.0, 0, 1.0)
            continue
        ref = chisquare(obs, exp * (obs.sum() / exp.sum()))
        assert (stat, dof, p) == (float(ref.statistic), len(obs) - 1, float(ref.pvalue))
        compared += 1
    assert compared > 2000
