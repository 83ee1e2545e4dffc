"""Moments of descent statistics: exact laws, sampled laws, closed-form bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc

from .mallows import (
    MallowsSpec,
    _check_statistic,
    _group_rows,
    _length_weights,
    _row_values,
    q_integer,
)
from .reports import CheckResult


# ---------------------------------------------------------------------------
# discrete distributions on integer support


@dataclass
class DiscreteDistribution:
    values: np.ndarray
    probs: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.int64)
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.values.ndim != 1 or self.values.shape != self.probs.shape:
            raise ValueError("support and mass must be matching 1-d arrays")
        if len(self.values) == 0:
            raise ValueError("empty distribution")
        if np.any(np.diff(self.values) <= 0):
            raise ValueError("support must be strictly increasing")
        if np.any(self.probs < -1e-15):
            raise ValueError("negative probability")
        if abs(self.probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {self.probs.sum()}, not 1")

    @classmethod
    def from_values(cls, values, weights, provenance=None) -> "DiscreteDistribution":
        """Law of non-negative integer values, each carrying its weight.

        Every value that occurs is in the support, even when its weight
        underflows to 0; the weights need not sum to 1.
        """
        values = np.asarray(values, dtype=np.int64)
        mass = np.bincount(values, weights=weights)
        seen = np.bincount(values) > 0
        return cls(np.flatnonzero(seen), mass[seen] / mass.sum(), provenance or {})

    @classmethod
    def from_samples(cls, xs: np.ndarray, provenance=None) -> "DiscreteDistribution":
        vals, counts = np.unique(np.asarray(xs, dtype=np.int64), return_counts=True)
        return cls(vals, counts / counts.sum(), provenance or {})

    def support(self):
        return [int(v) for v in self.values]

    def items(self):
        return [(int(v), float(p)) for v, p in zip(self.values, self.probs)]

    def prob(self, v) -> float:
        idx = np.searchsorted(self.values, v)
        if idx < len(self.values) and self.values[idx] == v:
            return float(self.probs[idx])
        return 0.0

    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    def variance(self) -> float:
        m = self.mean()
        return float(np.dot((self.values - m) ** 2, self.probs))

    def std(self) -> float:
        return math.sqrt(self.variance())

    def tv_distance(self, other: "DiscreteDistribution") -> float:
        """Half the summed gaps over the joint support, added in value order."""
        vals = np.union1d(self.values, other.values)
        mine, theirs = np.zeros(len(vals)), np.zeros(len(vals))
        mine[np.searchsorted(vals, self.values)] = self.probs
        theirs[np.searchsorted(vals, other.values)] = other.probs
        return 0.5 * sum(np.abs(mine - theirs).tolist())

    def size_bias(self) -> "DiscreteDistribution":
        """P*(x) = x P(x) / E; drops the zero atom."""
        m = self.mean()
        if m <= 0:
            raise ValueError("size-bias needs a positive mean")
        keep = self.values > 0
        return DiscreteDistribution(
            self.values[keep],
            self.values[keep] * self.probs[keep] / m,
            dict(self.provenance, size_bias=True),
        )

    def convolve(self, other: "DiscreteDistribution") -> "DiscreteDistribution":
        """Law of the sum of independent draws; supports are shifted ints."""
        lo = int(self.values[0] + other.values[0])
        a = np.zeros(int(self.values[-1] - self.values[0]) + 1)
        b = np.zeros(int(other.values[-1] - other.values[0]) + 1)
        a[self.values - self.values[0]] = self.probs
        b[other.values - other.values[0]] = other.probs
        c = np.convolve(a, b)
        vals = np.arange(lo, lo + len(c))
        keep = c > 0
        return DiscreteDistribution(vals[keep], c[keep] / c.sum())

    def to_csv(self, path_or_file) -> None:
        fh = path_or_file if hasattr(path_or_file, "write") else open(path_or_file, "w")
        try:
            for k in sorted(self.provenance):
                fh.write(f"# {k}={self.provenance[k]}\n")
            fh.write("value,probability\n")
            for v, p in self.items():
                fh.write(f"{v},{p!r}\n")
        finally:
            if fh is not path_or_file:
                fh.close()


# ---------------------------------------------------------------------------
# exact laws


def exact_distribution(spec: MallowsSpec, statistic: str = "t") -> DiscreteDistribution:
    """Law of the statistic under the spec, by enumeration (plus convolution
    across product factors, all the statistics here being additive).

    Each factor's rows come from mallows._group_rows: under A, B and D its
    windows and lengths come from coxeter.enumerate_windows, which shares
    no code with the sampler's tower decode, so the sampler-gof checks can
    see a decode defect.  Only the weights q^length depend on q.
    """
    _check_statistic(statistic)
    out = None
    for g, q in spec.factor_specs():
        lengths, _, des = _group_rows(g)
        weights = _length_weights(g, q, lengths)[0]
        dist = DiscreteDistribution.from_values(_row_values(lengths, des, statistic), weights)
        out = dist if out is None else out.convolve(dist)
    out.provenance = {
        "group": str(spec.group),
        "q": ",".join(f"{q:g}" for q in spec.qs),
        "statistic": statistic,
        "provenance": "exact",
    }
    return out


# ---------------------------------------------------------------------------
# closed-form moments and bounds


def mean_two_sided(g, q: float) -> float:
    """E(des(w) + des(w^{-1})) = 2qn/(1+q), n the number of generators."""
    return 2.0 * q * g.num_generators / (1.0 + q)


@dataclass
class VarianceBounds:
    lower: float
    upper: float
    corollary_lower: float
    corollary_upper: float
    corollary_applicable: bool
    note: str = ""


def variance_bounds_two_sided(g, q: float) -> VarianceBounds:
    """Bounds on Var(t); q > 1 is folded to 1/q (the variance is invariant)."""
    if getattr(g, "kind", None) not in ("A", "B", "D"):
        raise ValueError("variance bounds are stated for irreducible types A, B, D")
    n = g.num_generators
    qq = min(q, 1.0 / q)
    denom = (1.0 + qq) ** 2 * (1.0 + qq + qq * qq)
    base_lower = 2.0 * n * qq * (1.0 - qq + qq * qq) / denom
    if g.kind == "A":
        lower = base_lower
        upper = (
            2.0 * n * qq * (1.0 + qq) ** 2 / q_integer(n, qq)
            + 2.0 * (n + 2) * qq * (1.0 - qq + qq * qq) / denom
        )
    elif g.kind == "B":
        lower = base_lower
        upper = 2.0 * n * qq * (2.0 + qq + 2.0 * qq * qq) / denom
    else:
        lower = base_lower - 10.0 * qq * qq / (1.0 + qq) ** 2
        upper = 4.0 * n * qq * (2.0 + 2.0 * qq + 3.0 * qq**2 + qq**3) / denom
    if g.kind == "D":
        co_lower = n * qq / 12.0
        co_upper = 8.0 * n * qq
        applicable = n >= 30
        note = "" if applicable else "simplified bounds need rank >= 30 in type D"
    else:
        co_lower = n * qq / 6.0
        co_upper = (4.0 if g.kind == "B" else 8.0) * n * qq
        applicable = True
        note = "" if n >= 2 else "stated for rank >= 2"
    return VarianceBounds(lower, upper, co_lower, co_upper, applicable, note)


def _check_draws(xs) -> None:
    """A sampled check needs a sample variance, so at least 2 drawn values."""
    if xs is not None and len(xs) < 2:
        raise ValueError("a sampled variance needs at least 2 draws")


def _t_law(spec: MallowsSpec, xs) -> DiscreteDistribution:
    """The exact law of t under spec when xs is None, else the law of xs."""
    return exact_distribution(spec, "t") if xs is None else DiscreteDistribution.from_samples(xs)


def mean_formula_check(g, q: float, xs=None) -> CheckResult:
    """E t = 2qn/(1+q), to a relative error of 1e-10.

    xs is None for the exact law, or drawn values of t under (g, q), whose
    mean gets five standard errors of slack in place of the 1e-10; fewer
    than 2 are refused.
    """
    _check_draws(xs)
    spec = MallowsSpec.make(g, q)
    law = _t_law(spec, xs)
    measured, variance = law.mean(), law.variance()
    formula = mean_two_sided(g, q)
    tol = 1e-10 if xs is None else 5.0 * math.sqrt(variance / len(xs)) / formula
    rel = abs(measured - formula) / formula
    return CheckResult(
        name="mean-formula",
        target=str(spec) if xs is None else f"{spec} [mc]",
        passed=rel <= tol,
        observed=rel,
        bound=tol,
        detail={"measured": measured, "formula": formula, "variance": variance},
    )


def variance_bounds_check(g, q: float, xs=None) -> CheckResult:
    """Var t within variance_bounds_two_sided, and within the corollary's
    simplified bounds where they apply.

    xs is None for the exact law, or drawn values of t under (g, q), whose
    variance gets 5 var sqrt(2/(count-1)) of slack on every bound: five
    standard errors of a sample variance of a near-normal law.
    """
    _check_draws(xs)
    spec = MallowsSpec.make(g, q)
    var = _t_law(spec, xs).variance()
    b = variance_bounds_two_sided(g, q)
    slack = 0.0 if xs is None else 5.0 * var * math.sqrt(2.0 / (len(xs) - 1))
    lo = max(0.0, b.lower)
    ok = lo - slack <= var <= b.upper + slack
    detail = {"lower": lo, "upper": b.upper, "variance": var}
    if b.corollary_applicable:
        ok = ok and b.corollary_lower - slack <= var <= b.corollary_upper + slack
        detail["corollary"] = [b.corollary_lower, b.corollary_upper]
    if xs is not None:
        detail["slack"] = slack
    return CheckResult(
        name="variance-bounds",
        target=str(spec) if xs is None else f"{spec} [mc]",
        passed=ok,
        observed=var,
        bound=b.upper,
        note=b.note,
        detail=detail,
    )


def cube_moment_bound_check(g, q: float, des=None) -> CheckResult:
    """E(des(w)^3) <= n^3 q^3/(1+q)^3 + 24 n^2 q^2/(1+q)^2 + 16 n q/(1+q).

    des is None for the exact law, or drawn values of des under (g, q),
    whose mean gets four standard errors of slack; fewer than 2 are refused.
    """
    _check_draws(des)
    n = g.num_generators
    r = q / (1.0 + q)
    bound = (n * r) ** 3 + 24.0 * (n * r) ** 2 + 16.0 * n * r
    spec = MallowsSpec.make(g, q)
    if des is None:
        dist = exact_distribution(spec, "des")
        third = float(np.dot(dist.values.astype(float) ** 3, dist.probs))
        slack = 0.0
    else:
        cubes = np.asarray(des, dtype=float) ** 3
        third = float(cubes.mean())
        slack = 4.0 * float(cubes.std(ddof=1)) / math.sqrt(len(cubes))
    return CheckResult(
        name="cube-moment-bound",
        target=f"{spec} [{'exact' if des is None else 'mc'}]",
        passed=third <= bound + slack,
        observed=third,
        bound=bound,
        note=f"mc slack {slack:.3g}" if slack else "",
    )


def descent_indicator_mean_check(g, q: float) -> CheckResult:
    """P(des_i(w) = 1) must be exactly q/(1+q), every generator, both sides:
    the Mallows mass of the rows whose desc (mallows._group_rows) descends
    there.  A product raises ValueError."""
    target = q / (1.0 + q)
    lengths, desc, _ = _group_rows(g)
    wt = _length_weights(g, q, lengths)[0]
    worst = float(np.max(np.abs(wt @ desc.reshape(len(desc), -1) / wt.sum() - target)) / target)
    tol = 1e-10
    return CheckResult(
        name="descent-indicator-mean",
        target=f"{g} q={q:g}",
        passed=worst <= tol,
        observed=worst,
        tolerance=tol,
    )


# ---------------------------------------------------------------------------
# goodness of fit


def _merge_bins(observed: np.ndarray, expected: np.ndarray, min_expected: float):
    """Pool adjacent support cells until every expected count clears the floor."""
    obs_bins, exp_bins = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 or acc_o > 0:
        if exp_bins:
            obs_bins[-1] += acc_o
            exp_bins[-1] += acc_e
        else:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
    return np.array(obs_bins), np.array(exp_bins)


def _pearson(observed: np.ndarray, expected: np.ndarray, dof: int):
    """(Pearson statistic, chi-square upper-tail p-value at dof).

    The same sum and the same chdtrc call as scipy.stats.chisquare, so
    goodness_of_fit agrees with scipy to the bit.
    """
    stat = float(((observed - expected) ** 2 / expected).sum())
    return stat, float(chdtrc(float(dof), stat))


def goodness_of_fit(
    samples: np.ndarray, dist: DiscreteDistribution, min_expected: float = 5.0
):
    """Pearson chi-square of a sample against an exact law.

    Returns (statistic, dof, p-value).  Support cells are pooled so every
    expected count is at least min_expected.
    """
    xs = np.asarray(samples, dtype=np.int64)
    n = len(xs)
    support = dist.values
    outside = ~np.isin(xs, support)
    if outside.any():
        return math.inf, len(support) - 1, 0.0
    observed = np.array([(xs == v).sum() for v in support], dtype=float)
    expected = dist.probs * n
    obs_b, exp_b = _merge_bins(observed, expected, min_expected)
    if len(obs_b) < 2:
        return 0.0, 0, 1.0
    dof = len(obs_b) - 1
    stat, p = _pearson(obs_b, exp_b * (obs_b.sum() / exp_b.sum()), dof)
    return stat, dof, p

