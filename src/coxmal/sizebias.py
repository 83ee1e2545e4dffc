"""Size-bias coupling for the two-sided descent and Stein error terms.

The coupled element w* is built from w by forcing a descent at a uniformly
random generator on a uniformly random side: on the right, w stays put when
it already descends at s_i and becomes w s_i otherwise; on the left the same
rule is applied through the inverse.  Averaging the resulting t(w*) over the
2n (generator, side) choices realizes the size-bias distribution of
t(w) = des(w) + des(w^{-1}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coxeter import windows_descents, windows_invert
from .mallows import (
    MallowsSpec,
    _dihedral_stat_values,
    _dihedral_table,
    _windows_and_weights,
    _windows_stat,
)
from .reports import CheckResult


# ---------------------------------------------------------------------------
# the coupling kernel


def _ensure_right_batch(kind: str, W: np.ndarray, i: int) -> np.ndarray:
    """Right-ensure at generator i for every row of a window batch."""
    out = W.copy()
    rows = np.nonzero(~windows_descents(kind, W)[:, i])[0]
    j = i - (kind != "A")  # s_i swaps positions j and j + 1; j = -1 is B and D's s_0
    if j >= 0:
        out[rows, j] = W[rows, j + 1]
        out[rows, j + 1] = W[rows, j]
    elif kind == "B":
        out[rows, 0] = -W[rows, 0]
    else:
        out[rows, 0] = -W[rows, 1]
        out[rows, 1] = -W[rows, 0]
    return out


def coupling_descents(kind: str, W: np.ndarray):
    """Descent numbers of w, w^-1 and every starred w*, for each row of a batch.

    Returns (des, star_des): des[r, k] is des(w) for k = 0 and des(w^-1)
    for k = 1; star_des[r, s, i, k] is the same for the star w* at s_i
    with s = 0 for the right side and s = 1 for the left.
    The left star of w is the inverse of the right star of w^-1.
    star_des is int32 to halve the largest array of a Monte Carlo batch.
    The counts come from the window_stats kernel, which rejects a row
    that is not a signed permutation.
    """
    V = windows_invert(W)
    gens = W.shape[1] - (kind == "A")
    star_des = np.empty((len(W), 2, gens, 2), dtype=np.int32)
    for i in range(gens):
        for s, source in enumerate((W, V)):
            S = _ensure_right_batch(kind, source, i)
            star_des[:, s, i, s] = _windows_stat(kind, S, "des")
            star_des[:, s, i, 1 - s] = _windows_stat(kind, S, "des_inv")
    des = np.stack((_windows_stat(kind, W, "des"), _windows_stat(kind, W, "des_inv")), axis=1)
    return des, star_des


def _exact_coupling(g, q: float):
    """(probabilities, des, star_des) over every element of g under Mallows(q).

    Windows go through coupling_descents; dihedral factors come from
    closed forms in their length list, in the same layout.
    """
    if g.kind != "I2":
        W, wt = _windows_and_weights(g, q)
        return (wt / wt.sum(), *coupling_descents(g.kind, W))
    return (_dihedral_table(g, q), *_dihedral_coupling(g))


@lru_cache(maxsize=None)
def _dihedral_coupling(g):
    """(des, star_des) over the dihedral table's rows (_dihedral_lengths).

    Every element other than e and w0 descends at one generator on each
    side.  A star leaves w at its descent and otherwise adds one to its
    length, so every star has one descent on each side, except at w0 (two)
    and where a row of length m - 1 steps up to w0.  Those two rows are the
    alternating words s1 s0 ... and s0 s1 ... of m - 1 letters, in that
    order: the first letter is the left descent, the last the right one,
    so the right descents are s0, s1 for odd m and s1, s0 for even m.
    The arrays do not depend on q, so they are built once per group and
    are read-only because the cache hands them to every caller.
    """
    m = g.rank
    d = _dihedral_stat_values(g, "des")
    des = np.stack((d, d), axis=1)
    star_des = np.ones((2 * m, 2, 2, 2), dtype=np.int64)
    star_des[-1] = 2
    odd = m % 2
    for row, right, left in ((2 * m - 3, 1 - odd, 1), (2 * m - 2, odd, 0)):
        star_des[row, 0, 1 - right] = 2
        star_des[row, 1, 1 - left] = 2
    des.setflags(write=False)
    star_des.setflags(write=False)
    return des, star_des


def _sigma_rows(des: np.ndarray, star_des: np.ndarray):
    """Per-row t, S = (S1, S2, S3, S4) and the mean of (t - t*)^2 over the 2n choices.

    S1..S4 are the four generator sums of des - des*: right-starred
    descents seen from w, left-starred seen from w, and both seen from the
    inverse.
    """
    t = des.sum(axis=1)
    per_side = (des[:, None, None, :] - star_des).sum(axis=2)  # (rows, side, k)
    S = per_side.transpose(0, 2, 1).reshape(len(des), 4)
    sq = ((t[:, None, None] - star_des.sum(axis=3)) ** 2).mean(axis=(1, 2))
    return t, S, sq


# ---------------------------------------------------------------------------
# Stein error terms


@dataclass
class SteinErrorTerms:
    variance_term: float  # Var E(X - X* | w), via the sigma-sum decomposition
    expectation_term: float  # E (X - X*)^2
    mu: float
    sigma: float
    mode: str
    count: int | None = None

    def __post_init__(self):
        if self.variance_term < -1e-12 or self.expectation_term < 0:
            raise ValueError("error terms cannot be negative")
        if self.expectation_term > 16.0 + 1e-9:
            raise ValueError("E(X-X*)^2 above 16 contradicts the 4-bounded coupling")


def stein_error_terms(g, q: float, windows=None) -> SteinErrorTerms:
    """Both Stein error terms for t(w).

    The conditional mean E(X - X*|w) is the average of the 2n per-choice
    differences, i.e. (S1+S2+S3+S4)/(2n).  windows is None for the exact
    terms, over the enumerated group weighted by the Mallows probabilities,
    or windows drawn under (g, q) for the MC terms, weighted uniformly;
    both run the same coupling kernel.
    """
    nn = 2 * g.num_generators
    if windows is None:
        p, des, star_des = _exact_coupling(g, q)
        t, S, sq = _sigma_rows(des, star_des)
        diff = S.sum(axis=1)
        m1 = float(p @ diff)
        mu = float(p @ t)
        return SteinErrorTerms(
            variance_term=max((float(p @ diff**2) - m1 * m1) / nn**2, 0.0),
            expectation_term=float(p @ sq),
            mu=mu,
            sigma=math.sqrt(float(p @ t**2) - mu * mu),
            mode="exact",
        )
    t, S, sq = _sigma_rows(*coupling_descents(g.kind, windows))
    return SteinErrorTerms(
        variance_term=float((S.sum(axis=1) / nn).var(ddof=1)),
        expectation_term=float(sq.mean()),
        mu=float(t.mean()),
        sigma=float(t.std(ddof=1)),
        mode="mc",
        count=len(windows),
    )


# ---------------------------------------------------------------------------
# covariance type sums (exact)


TYPE_MULTIPLICITIES = (2, 4, 4, 2, 2, 2)


@dataclass
class CovarianceTypeSums:
    sums: tuple
    var_total: float
    group: str
    q: float

    @property
    def reconstruction(self) -> float:
        return sum(m * s for m, s in zip(TYPE_MULTIPLICITIES, self.sums))


def covariance_type_sums(g, q: float):
    """The six covariance blocks of Var(S1+S2+S3+S4), plus their bound checks.

    Block layout over the pair grid (Sa, Sb): type 1 = (1,1); type 2 = (1,3);
    type 3 = (1,2); type 4 = (1,4); type 5 = (2,2); type 6 = (2,3); the
    multiplicities (2,4,4,2,2,2) account for symmetry and for the matching
    blocks obtained by swapping w with its inverse.
    """
    p, des, star_des = _exact_coupling(g, q)
    _, S, _ = _sigma_rows(des, star_des)
    means = p @ S
    cov = (S * p[:, None]).T @ S - np.outer(means, means)
    pairs = ((0, 0), (0, 2), (0, 1), (0, 3), (1, 1), (1, 2))
    sums = tuple(float(cov[a, b]) for a, b in pairs)
    var_total = float(cov.sum())
    result = CovarianceTypeSums(sums=sums, var_total=var_total, group=str(g), q=q)

    checks = []
    target = f"{g} q={q:g}"
    recon_err = abs(result.reconstruction - var_total)
    checks.append(
        CheckResult(
            name="covariance-reconstruction",
            target=target,
            passed=recon_err <= 1e-8,
            observed=recon_err,
            tolerance=1e-8,
        )
    )
    n = g.num_generators
    if g.kind in ("B", "D"):
        tail = 173.0 if g.kind == "B" else 287.0
        bounds = [
            63.0 * (n - 1),
            63.0 * (n - 1),
            306.0 * (n - 1) + 9.0,
            594.0 * (n - 1) + 9.0,
            tail * (n - 1) + 1.0,
            tail * (n - 1) + 1.0,
        ]
        for k, (s, b) in enumerate(zip(result.sums, bounds), start=1):
            observed = abs(s) if k == 1 else s  # type 1 is two-sided
            checks.append(
                CheckResult(
                    name=f"covariance-type-{k}-bound",
                    target=target,
                    passed=observed <= b,
                    observed=observed,
                    bound=b,
                )
            )
    else:
        checks.append(
            CheckResult(
                name="covariance-type-bounds",
                target=target,
                passed=None,
                note="type bounds are stated for B and D only",
            )
        )
    return result, checks


# ---------------------------------------------------------------------------
# size-bias law and conditional law


def size_bias_law_check(g, q: float) -> CheckResult:
    """law(t(w*)) over the (w, i, side) randomization vs the size-bias law."""
    from .moments import DiscreteDistribution, exact_distribution

    p, _, star_des = _exact_coupling(g, q)
    t_star = star_des.sum(axis=3)
    coupled = DiscreteDistribution.from_values(t_star.ravel(), np.repeat(p, t_star[0].size))
    base = exact_distribution(MallowsSpec.make(g, q), "t")
    tv = coupled.tv_distance(base.size_bias())
    tol = 1e-12
    return CheckResult(
        name="size-bias-law",
        target=f"{g} q={q:g}",
        passed=tv <= tol,
        observed=tv,
        tolerance=tol,
    )


def _window_rows(W: np.ndarray):
    """Row lookup for an enumeration W: windows -> row index, or -1 if absent.

    Windows are keyed by their entries in base 2n + 1; a row holding an
    entry outside [-n, n] is absent rather than aliased to another key.
    """
    n = W.shape[1]
    radix = (2 * n + 1) ** np.arange(n, dtype=np.int64)
    keys = (W + n) @ radix
    order = np.argsort(keys)
    sorted_keys = keys[order]

    def rows(S: np.ndarray) -> np.ndarray:
        k = (S + n) @ radix
        pos = np.minimum(np.searchsorted(sorted_keys, k), len(W) - 1)
        found = (np.abs(S) <= n).all(axis=1) & (sorted_keys[pos] == k)
        return np.where(found, order[pos], -1)

    return rows


def conditional_star_law_check(g, q: float) -> CheckResult:
    """law(w_i*) must equal law(w | descent at s_i), every generator, both sides.

    Runs on the enumerated windows (types A, B and D): each starred row is
    mapped back to its enumeration row, and the left star of w is the
    inverse of the right star of w^-1.  observed is the worst TV distance;
    a starred window outside the group fails the check.
    """
    W, wt = _windows_and_weights(g, q)
    p = wt / wt.sum()
    V = windows_invert(W)
    rows = _window_rows(W)
    inverse_row = rows(V)
    worst, at, stray = -1.0, "", 0
    for side, source in (("right", W), ("left", V)):
        descends = windows_descents(g.kind, source)
        for i in range(descends.shape[1]):
            star_rows = rows(_ensure_right_batch(g.kind, source, i))
            found = star_rows >= 0
            star_rows = star_rows[found]
            if side == "left":
                star_rows = inverse_row[star_rows]
            star_law = np.bincount(star_rows, weights=p[found], minlength=len(W))
            cond_law = np.where(descends[:, i], p, 0.0)
            cond_law /= cond_law.sum()
            tv = 0.5 * float(np.abs(star_law - cond_law).sum() + p[~found].sum())
            stray += int(np.count_nonzero(~found))
            if tv > worst:
                worst, at = tv, f"i={i} {side}"
    tol = 1e-12
    note = f"worst {at}"
    if stray:
        note += f"; {stray} starred rows outside the group"
    return CheckResult(
        name="conditional-star-law",
        target=f"{g} q={q:g}",
        passed=worst <= tol and not stray,
        observed=worst,
        tolerance=tol,
        note=note,
    )


COUPLING_SHIFT_BOUNDS = {"max_right_des_shift": 3, "max_left_des_shift": 1, "max_t_shift": 4}


def coupling_boundedness_check(g) -> CheckResult:
    """Exhaustive |des - des*| <= 3 (right), <= 1 (left), |t - t*| <= 4.

    observed is the largest used fraction of the three bounds, against 1.
    """
    _, des, star_des = _exact_coupling(g, 1.0)
    des_shift = np.abs(des[:, None, None, 0] - star_des[..., 0])
    t_shift = np.abs(des.sum(axis=1)[:, None, None] - star_des.sum(axis=3))
    shifts = {
        "max_right_des_shift": int(des_shift[:, 0].max()),
        "max_left_des_shift": int(des_shift[:, 1].max()),
        "max_t_shift": int(t_shift.max()),
    }
    used = {k: shifts[k] / b for k, b in COUPLING_SHIFT_BOUNDS.items()}
    worst = max(used, key=used.get)
    return CheckResult(
        name="coupling-boundedness",
        target=str(g),
        passed=used[worst] <= 1.0,
        observed=used[worst],
        bound=1.0,
        note=f"worst {worst}={shifts[worst]} of {COUPLING_SHIFT_BOUNDS[worst]}",
        detail=shifts,
    )


# ---------------------------------------------------------------------------
# theorem right-hand sides


@dataclass
class TheoremBound:
    value: float
    hypothesis_ok: bool
    note: str = ""


def stein_bound_rhs(
    g, q: float, which: str, h_sup: float = 1.0, hp_sup: float = 1.0
) -> TheoremBound:
    """Published bound constants for types B and D (A reuses the B form).

    which = "smooth": (360 |h| + 236 |h'| max(sqrt(q), 1/sqrt(q))) / sqrt(n)
    for B, with 768/666 for D; which = "w1": same shapes with 180+236 and
    384+666 and no test-function norms.
    """
    kind = getattr(g, "kind", None)
    if kind not in ("A", "B", "D"):
        raise ValueError("bound constants exist for irreducible types A, B, D")
    n = g.num_generators
    kappa = max(math.sqrt(q), 1.0 / math.sqrt(q))
    use_d = kind == "D"
    if which == "smooth":
        value = (
            (768.0 if use_d else 360.0) * h_sup
            + (666.0 if use_d else 236.0) * hp_sup * kappa
        ) / math.sqrt(n)
    elif which == "w1":
        value = ((384.0 if use_d else 180.0) + (666.0 if use_d else 236.0) * kappa) / math.sqrt(n)
    else:
        raise ValueError("which must be 'smooth' or 'w1'")
    if kind == "B":
        ok, note = n >= 4, "" if n >= 4 else "stated for B with n >= 4"
    elif kind == "D":
        ok, note = n >= 30, "" if n >= 30 else "stated for D with n >= 30"
    else:
        ok, note = False, "B-form constants applied to type A (informational)"
    return TheoremBound(value=value, hypothesis_ok=ok, note=note)


def generic_stein_bound(
    terms: SteinErrorTerms, which: str, h_sup: float = 1.0, hp_sup: float = 1.0
) -> float:
    """Bound assembled from measured error terms.

    smooth: 2|h| (mu/sigma^2) sqrt(variance term) + |h'| (mu/sigma^3) E(X-X*)^2
    w1:     sqrt(2/pi) (mu/sigma^2) sqrt(variance term) + (mu/sigma^3) E(X-X*)^2
    """
    if terms.sigma <= 0:
        raise ValueError("needs a positive sigma")
    s2 = terms.sigma**2
    s3 = terms.sigma**3
    root = math.sqrt(terms.variance_term)
    if which == "smooth":
        return (
            2.0 * h_sup * terms.mu / s2 * root
            + hp_sup * terms.mu / s3 * terms.expectation_term
        )
    if which == "w1":
        return (
            math.sqrt(2.0 / math.pi) * terms.mu / s2 * root
            + terms.mu / s3 * terms.expectation_term
        )
    raise ValueError("which must be 'smooth' or 'w1'")
