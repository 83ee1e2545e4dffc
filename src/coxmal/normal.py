"""Wasserstein distance to the standard normal and exponential tail checks.

One-dimensional W_p is computed through the monotone (quantile) coupling:
W_p^p = integral over u in (0,1) of |F^{-1}(u) - ndtri(u)|^p.  On a plateau
u in [a, b] where F^{-1} = x, the substitution u = Phi(z) turns the integral
into closed forms in Phi and phi (antiderivatives x Phi(z) + phi(z) and
Phi(z) - z phi(z)), so no quadrature runs.  The open interval is clipped at
[eps, 1-eps] and the clipped tails are bounded analytically; that bound, plus
a floating-point rounding bound on the closed forms, travels with the result
as a reported slack instead of being dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .mallows import MallowsSpec, sample_statistic
from .moments import DiscreteDistribution, _check_draws, exact_distribution, mean_two_sided
from .reports import CheckResult
from .sizebias import generic_stein_bound, stein_bound_rhs, stein_error_terms

EPS_U = 1e-12
TAIL_ALPHA = 0.001  # level of the MC slack on drawn tail frequencies
W2_SE_CHUNKS = 8  # w2_with_se's standard error is the W2 spread over this many chunks
_SQRT2PI = math.sqrt(2.0 * math.pi)


def _phi(x):
    return np.exp(-0.5 * x * x) / _SQRT2PI


def _big_phi_integral(x):
    """H(x) = x Phi(x) + phi(x), the integral of Phi from -infinity to x."""
    return x * ndtr(x) + _phi(x)


@dataclass
class WassersteinDistance:
    value: float
    tail_slack: float  # bound on what the u-interval clipping can hide


def _points(dist: DiscreteDistribution, mu: float, sigma: float) -> np.ndarray:
    """The support of dist centered at mu and scaled by sigma > 0."""
    if not (sigma > 0):
        raise ValueError("normalization needs sigma > 0")
    return (dist.values.astype(np.float64) - mu) / sigma


def wasserstein_p_to_normal(
    dist: DiscreteDistribution, mu: float, sigma: float, p: int
) -> WassersteinDistance:
    """W_p between the law of (X - mu)/sigma, X ~ dist, and N(0,1), by
    quantile integration.

    Plateau [a, b] with value x, z = ndtri(u), Phi(z_a) = a, Phi(z_b) = b:
    for p = 1 the integrand (x - z) phi(z) has antiderivative
    x Phi(z) + phi(z), split at z = x; for p = 2 the integral is
    x^2 (b - a) - 2 x (phi(z_a) - phi(z_b)) + (b - a) - (z_b phi(z_b) - z_a phi(z_a)).
    """
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    xs = _points(dist, mu, sigma)
    cuts = np.concatenate([[0.0], np.cumsum(dist.probs)])
    cuts[-1] = 1.0
    a = np.maximum(cuts[:-1], EPS_U)
    b = np.minimum(cuts[1:], 1.0 - EPS_U)
    keep = b > a
    x, a, b = xs[keep], a[keep], b[keep]
    za, zb = ndtri(a), ndtri(b)
    pa, pb = _phi(za), _phi(zb)
    if p == 1:
        ux = ndtr(x)
        px = _phi(x)
        # above the plateau (x >= z throughout) the integral of (x - z) phi,
        # below it its negative, and across it both halves split at x
        whole = x * (b - a) + (pb - pa)
        split = x * (2.0 * ux - a - b) + (2.0 * px - pa - pb)
        terms = np.where(ux >= b, whole, np.where(ux <= a, -whole, split))
        sizes = np.abs(x) * (2.0 * ux + a + b) + 2.0 * px + pa + pb
    else:
        width = b - a
        terms = (x * x + 1.0) * width - 2.0 * x * (pa - pb) - (zb * pb - za * pa)
        sizes = (x * x + 1.0) * width + 2.0 * np.abs(x) * (pa + pb)
        sizes += np.abs(zb * pb) + np.abs(za * pa)
    total = float(np.sum(terms))
    # a generous floating-point error bound: 64 ulps of the summed magnitudes
    rounding = 64.0 * np.finfo(np.float64).eps * float(np.sum(sizes))
    z = ndtri(EPS_U)  # about -7.03; the clipped quantile range
    if p == 1:
        tail = EPS_U * (abs(xs[0]) + abs(xs[-1])) + 2.0 * _phi(z)
    else:
        tail = 2.0 * EPS_U * (xs[0] ** 2 + xs[-1] ** 2) + 4.0 * (
            EPS_U + abs(z) * _phi(z)
        )
    value = total ** (1.0 / p)
    slack = float((total + tail + rounding) ** (1.0 / p) - value)
    return WassersteinDistance(value=value, tail_slack=slack)


def w1_to_normal_by_cdf(dist: DiscreteDistribution, mu: float, sigma: float) -> float:
    """Independent W1 route: integral of |F - Phi| over the real line, F the
    law of (X - mu)/sigma, X ~ dist.

    Between support points a < b, F = c; Phi has antiderivative
    H(x) = x Phi(x) + phi(x), and c - Phi changes sign at ndtri(c).
    """
    xs = _points(dist, mu, sigma)
    x0, xl = xs[0], xs[-1]
    total = _big_phi_integral(x0)  # integral of Phi below the support
    total += _phi(xl) - xl * (1.0 - ndtr(xl))  # of 1 - Phi above it
    a, b, c = xs[:-1], xs[1:], np.cumsum(dist.probs)[:-1]
    kink = np.clip(ndtri(np.clip(c, EPS_U, 1.0 - EPS_U)), a, b)
    # c - Phi >= 0 on [a, kink], <= 0 on [kink, b]
    below = c * (kink - a) - (_big_phi_integral(kink) - _big_phi_integral(a))
    above = (_big_phi_integral(b) - _big_phi_integral(kink)) - c * (b - kink)
    return float(total + np.sum(below + above))


# ---------------------------------------------------------------------------
# Monte Carlo helpers


def _dkw_eps(count: int, alpha: float = 0.001) -> float:
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * count))


def _moment_slack(count: int) -> float:
    """Affine-renormalization error folded into the measured side.

    Using the coupling (aX+b vs X): |W_p(aX+b, Z) - W_p(X, Z)| is at most
    |a-1| (E X^p)^{1/p} + |b| <= |sigma-hat/sigma - 1| + |mu-hat - mu|/sigma,
    bounded here at roughly four standard errors of each moment estimate.
    """
    return 4.0 / math.sqrt(2.0 * (count - 1)) + 4.0 / math.sqrt(count)


def wasserstein_from_samples(xs: np.ndarray, p: int, hard_width: float):
    """(distance, total reported slack) for a sampled integer statistic.

    hard_width is a deterministic bound on the support diameter of the raw
    statistic (2n for t); the DKW band at confidence 0.999 converts into a
    W1 perturbation eps*width, and into sqrt thereof for W2.
    """
    xs = np.asarray(xs)
    count = len(xs)
    mu = float(xs.mean())
    sigma = float(xs.std(ddof=1))
    w = wasserstein_p_to_normal(DiscreteDistribution.from_samples(xs), mu, sigma, p)
    eps = _dkw_eps(count)
    width = hard_width / sigma
    dkw = eps * width if p == 1 else width * math.sqrt(eps)
    slack = w.tail_slack + dkw + _moment_slack(count)
    return w, slack


def exact_w2_floor(spec: MallowsSpec) -> float:
    """A positive lower bound on W2(normalized t, Z) from the exact law.

    Quantile integration overestimates nothing on the clipped interval, so
    distance minus tail slack is a certified floor for the exact law itself;
    half of it is a comfortable floor for sampled versions of the same law.
    """
    dist = exact_distribution(spec, "t")
    w = wasserstein_p_to_normal(dist, dist.mean(), dist.std(), 2)
    floor = w.value - w.tail_slack
    if floor <= 0:
        raise ValueError("exact law is too close to normal to certify a floor")
    return floor


def w2_with_se(spec: MallowsSpec, count: int, seed, threads: int = 1):
    """Full-sample W2 plus a chunk-spread standard error (trend comparisons).

    The spread needs a draw in every chunk, so count must be at least
    W2_SE_CHUNKS.
    """
    if count < W2_SE_CHUNKS:
        raise ValueError(f"the W2 standard error needs at least {W2_SE_CHUNKS} samples, got {count}")
    xs = sample_statistic(spec, "t", count, seed, threads)
    mu = float(xs.mean())
    sigma = float(xs.std(ddof=1))
    full = wasserstein_p_to_normal(DiscreteDistribution.from_samples(xs), mu, sigma, 2)
    vals = []
    for part in np.array_split(xs, W2_SE_CHUNKS):
        d = DiscreteDistribution.from_samples(part)
        vals.append(wasserstein_p_to_normal(d, mu, sigma, 2).value)
    se = float(np.std(vals, ddof=1) / math.sqrt(W2_SE_CHUNKS))
    return full.value, se, full.tail_slack


# ---------------------------------------------------------------------------
# bound checks


def _measured_distance(spec: MallowsSpec, p: int, xs):
    """(W_p(normalized t, Z) plus its slack, detail, source tag).

    xs is None for the exact law, or drawn values of t, whose slack is
    wasserstein_from_samples's at len(xs) draws.
    """
    if xs is None:
        dist = exact_distribution(spec, "t")
        w = wasserstein_p_to_normal(dist, dist.mean(), dist.std(), p)
        return w.value + w.tail_slack, {f"w{p}": w.value, "tail_slack": w.tail_slack}, "exact"
    w, slack = wasserstein_from_samples(xs, p, 2.0 * spec.group.num_generators)
    return w.value + slack, {f"w{p}": w.value, "slack": slack, "count": len(xs)}, "mc"


def w1_bound_check(g, q: float, xs=None) -> CheckResult:
    """W1(normalized t, Z) against the published (180/384 + ...) / sqrt(n) form,
    informational (passed None) where the constants' hypothesis fails.

    xs is None for the exact law, or drawn values of t under (g, q).
    """
    rhs = stein_bound_rhs(g, q, "w1")
    spec = MallowsSpec.make(g, q)
    measured, detail, source = _measured_distance(spec, 1, xs)
    return CheckResult(
        name="w1-normal-bound",
        target=f"{spec} [{source}]",
        passed=(measured <= rhs.value) if rhs.hypothesis_ok else None,
        observed=measured,
        bound=rhs.value,
        note=rhs.note,
        detail=detail,
    )


def w2_bound_check(g, q: float, xs=None) -> CheckResult:
    """W2(normalized t, Z) against 100 (nk)^{-1/4} (log nk)^{1/2}, k = min(q, 1/q).

    xs is None for the exact law, or drawn values of t under (g, q).
    """
    n = g.num_generators
    k = min(q, 1.0 / q)
    nk = n * k
    rhs = 100.0 * nk**-0.25 * math.sqrt(math.log(nk)) if nk > 1 else math.inf
    applicable = nk >= 50
    spec = MallowsSpec.make(g, q)
    measured, detail, source = _measured_distance(spec, 2, xs)
    detail["nk"] = nk
    return CheckResult(
        name="w2-normal-bound",
        target=f"{spec} [{source}]",
        passed=(measured <= rhs) if applicable else None,
        observed=measured,
        bound=rhs,
        note="" if applicable else "outside hypothesis nk >= 50 (informational)",
        detail=detail,
    )


# bounded test functions with |h| <= 1 and Lipschitz constant 1; each is odd,
# so E h(Z) = 0 exactly for Z ~ N(0,1)
SMOOTH_TEST_FUNCTIONS = {
    "sin": np.sin,
    "tanh": np.tanh,
    "clamp": lambda x: np.clip(x, -1.0, 1.0),
}

NORMAL_EXPECTATION = 0.0  # E h(Z) for every entry above


def smooth_bound_checks(g, q: float) -> list[CheckResult]:
    """|E h((t-mu)/sigma) - E h(Z)| against the smooth-function bounds.

    Two bounds per test function: the generic coupling-term form (always a
    real assertion) and the published per-type constants, which carry a rank
    hypothesis for type D and are informational for type A.
    """
    spec = MallowsSpec.make(g, q)
    dist = exact_distribution(spec, "t")
    mu, sigma = dist.mean(), dist.std()
    xs = (dist.values.astype(np.float64) - mu) / sigma
    terms = stein_error_terms(g, q)
    published = stein_bound_rhs(g, q, "smooth", h_sup=1.0, hp_sup=1.0)
    generic = generic_stein_bound(terms, "smooth", h_sup=1.0, hp_sup=1.0)
    out = []
    for hname, h in SMOOTH_TEST_FUNCTIONS.items():
        lhs = float(np.sum(dist.probs * h(xs)))
        gap = abs(lhs - NORMAL_EXPECTATION)
        out.append(
            CheckResult(
                name=f"smooth-gap-generic[{hname}]",
                target=str(spec),
                passed=gap <= generic,
                observed=gap,
                bound=generic,
            )
        )
        out.append(
            CheckResult(
                name=f"smooth-gap-published[{hname}]",
                target=str(spec),
                passed=(gap <= published.value) if published.hypothesis_ok else None,
                observed=gap,
                bound=published.value,
                note=published.note,
            )
        )
    return out


def tail_bound_check(g, q: float, xs=None) -> CheckResult:
    """P(t - mu >= x) <= exp(-x^2 / (8(x/3 + mu))) and
    P(t - mu <= -x) <= exp(-x^2 / (8 mu)), on an integer grid of x >= 0.

    xs is None for the exact law, or drawn values of t under (g, q); drawn
    tail frequencies get a one-sided Hoeffding slack at level TAIL_ALPHA;
    fewer than 2 are refused, as by the other sampled checks.
    """
    if getattr(g, "kind", None) not in ("A", "B", "D"):
        raise ValueError("tail bounds are stated for irreducible types A, B, D")
    _check_draws(xs)
    n = g.num_generators
    mu = mean_two_sided(g, q)
    grid = range(0, 2 * n + 1)
    spec = MallowsSpec.make(g, q)
    if xs is None:
        dist = exact_distribution(spec, "t")
        vals = dist.values.astype(np.float64)
        probs = dist.probs
        upper_p = {x: float(probs[vals >= mu + x].sum()) for x in grid}
        lower_p = {x: float(probs[vals <= mu - x].sum()) for x in grid}
        slack = 0.0
    else:
        xs = np.asarray(xs, dtype=np.float64)
        upper_p = {x: float((xs >= mu + x).mean()) for x in grid}
        lower_p = {x: float((xs <= mu - x).mean()) for x in grid}
        slack = math.sqrt(math.log(1.0 / TAIL_ALPHA) / (2.0 * len(xs)))
    worst = -math.inf
    worst_at = None
    for x in grid:
        ub = math.exp(-(x * x) / (8.0 * (x / 3.0 + mu)))
        lb = math.exp(-(x * x) / (8.0 * mu))
        for side, p, bound in (("upper", upper_p[x], ub), ("lower", lower_p[x], lb)):
            excess = p - bound
            if excess > worst:
                worst, worst_at = excess, f"{side} x={x}"
    return CheckResult(
        name="tail-bounds",
        target=f"{spec} [{'exact' if xs is None else 'mc'}]",
        passed=worst <= slack,
        observed=worst,
        bound=slack,
        note=f"worst at {worst_at}" if xs is None else f"worst at {worst_at}; mc slack {slack:.3g}",
        detail={"mu": mu, "grid_max": max(grid)},
    )
