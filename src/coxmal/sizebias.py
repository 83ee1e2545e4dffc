"""Size-bias coupling for the two-sided descent and Stein error terms.

The coupled element w* is built from w by forcing a descent at a uniformly
random generator on a uniformly random side: on the right, w stays put when
it already descends at s_i and becomes w s_i otherwise; on the left the same
rule is applied through the inverse.  Averaging the resulting t(w*) over the
2n (generator, side) choices realizes the size-bias distribution of
t(w) = des(w) + des(w^{-1}).

The coupling is exact and does not depend on q: one table per irreducible
group (_coupling_table) holds the row of every star, in the table order of
mallows._group_rows, whose desc says at which generators each row descends
on either side.  A row that descends at s_i on the right is its own right
star there; any other row's is w s_i, looked up among the rows; and the
left star of w is the inverse of the right star of w^-1.  Every size-bias
check reads the star table and the descents, with the Mallows
probabilities of the q at hand beside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coxeter import enumerate_windows, windows_invert
from .mallows import MallowsSpec, _group_rows, _row_probs
from .reports import CheckResult


# ---------------------------------------------------------------------------
# the coupling table


def _right_action(kind: str, W: np.ndarray, i: int) -> np.ndarray:
    """w s_i for every row w of a window batch: s_i swaps positions j and
    j + 1, j = i under A and i - 1 under B and D, whose s_0 negates the
    first entry (B) or maps (w(1), w(2)) to (-w(2), -w(1)) (D)."""
    out = W.copy()
    j = i - (kind != "A")
    if j >= 0:
        out[:, [j, j + 1]] = W[:, [j + 1, j]]
    elif kind == "B":
        out[:, 0] = -W[:, 0]
    else:
        out[:, :2] = -W[:, 1::-1]
    return out


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


@lru_cache(maxsize=1)
def _coupling_table(g):
    """The star rows of an irreducible group, in its table order
    (mallows._group_rows).

    rows[r, s, i] is the row of the star of row r at s_i, with s = 0 for
    the right side and s = 1 for the left.  Under A, B and D the rows are
    enumerate_windows': a row that descends at s_i (_group_rows' desc) is
    its own right star, any other row's is _right_action's w s_i looked up
    among them, and the left star of row r is inverse[right[inverse[r]]],
    the inverse of the right star of w^-1.  A star outside the group
    raises ValueError.  Under I2(m) the rows are _dihedral_lengths':
    rows 2l - 1 and 2l are the alternating words of length l that start
    with s1 and s0; the first letter is the left descent and the last the
    right one, and a star appends or prepends s_i unless that side already
    descends there, a word of length m being w0.  rows does not depend on
    q, so the last group's table is kept; it is int32 and read-only (330 MB
    at D8).
    """
    if g.kind == "I2":
        m = g.rank

        def word(length, first):  # the row of the alternating word
            return 2 * m - 1 if length == m else 2 * length - first

        rows = np.empty((2 * m, 2, 2), dtype=np.int32)
        rows[0] = [word(1, 0), word(1, 1)]  # e: each star is one letter, on both sides
        rows[-1] = 2 * m - 1  # w0 descends everywhere
        for length in range(1, m):
            for first in (0, 1):
                r, last = 2 * length - first, first if length % 2 else 1 - first
                rows[r, 0, last], rows[r, 0, 1 - last] = r, word(length + 1, first)
                rows[r, 1, first], rows[r, 1, 1 - first] = r, word(length + 1, 1 - first)
    else:
        W = enumerate_windows(g)[0]
        desc = _group_rows(g)[1]
        lookup = _window_rows(W)
        inverse = lookup(windows_invert(W))
        rows = np.empty((len(W), 2, g.num_generators), dtype=np.int32)
        for i in range(g.num_generators):
            todo = np.flatnonzero(~desc[:, 0, i])
            star = lookup(_right_action(g.kind, W[todo], i))
            if (star < 0).any():
                r = int(todo[np.argmax(star < 0)])
                raise ValueError(f"{g}: the right star of row {r} at s_{i} is outside the group")
            rows[:, 0, i] = np.arange(len(W))
            rows[todo, 0, i] = star
            rows[:, 1, i] = inverse[rows[inverse, 0, i]]
    rows.setflags(write=False)
    return rows


def _exact_coupling(g, q: float):
    """(probabilities, des, star_des) over every row of g's table under
    Mallows(q): des[r] is (des(w), des(w^-1)), int32 sums of _group_rows'
    desc, and star_des[r, s, i] is des[rows[r, s, i]] of _coupling_table,
    so only the probabilities depend on q."""
    lengths, desc = _group_rows(g)
    des = desc.sum(axis=2, dtype=np.int32)
    return _row_probs(g, q, lengths), des, des[_coupling_table(g)]


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

    def __post_init__(self):
        if self.variance_term < -1e-12 or self.expectation_term < 0:
            raise ValueError("error terms cannot be negative")
        if self.expectation_term > 16.0 + 1e-9:
            raise ValueError("E(X-X*)^2 above 16 contradicts the 4-bounded coupling")


def stein_error_terms(g, q: float) -> SteinErrorTerms:
    """Both Stein error terms for t(w), exact over g's coupling table.

    The conditional mean E(X - X*|w) is the average of the 2n per-choice
    differences, i.e. (S1+S2+S3+S4)/(2n), weighted by the Mallows
    probabilities.
    """
    nn = 2 * g.num_generators
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
    )


# ---------------------------------------------------------------------------
# covariance type sums (exact)


TYPE_MULTIPLICITIES = (2, 4, 4, 2, 2, 2)


def covariance_type_sums(g, q: float) -> list[CheckResult]:
    """Checks on the six covariance blocks of Var(S1+S2+S3+S4): that their
    weighted sum reconstructs the variance, and the per-type bounds.

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
    reconstruction = sum(m * s for m, s in zip(TYPE_MULTIPLICITIES, sums))

    checks = []
    target = f"{g} q={q:g}"
    recon_err = abs(reconstruction - float(cov.sum()))
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
        for k, (s, b) in enumerate(zip(sums, bounds), start=1):
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
    return checks


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


def conditional_star_law_check(g, q: float) -> CheckResult:
    """law(w_i*) must equal law(w | descent at s_i), every generator, both sides.

    The star law moves each row's probability to its star's row in the
    coupling table, and the conditional law keeps the rows that descend at
    s_i on that side (_group_rows' desc), under A, B, D and I2(m) alike; a
    product raises ValueError.  observed is the worst TV distance.
    """
    lengths, desc = _group_rows(g)
    p = _row_probs(g, q, lengths)
    rows = _coupling_table(g)
    worst, at = -1.0, ""
    for s, side in enumerate(("right", "left")):
        for i in range(desc.shape[2]):
            star_law = np.bincount(rows[:, s, i], weights=p, minlength=len(p))
            cond_law = np.where(desc[:, s, i], p, 0.0)
            cond_law /= cond_law.sum()
            tv = 0.5 * float(np.abs(star_law - cond_law).sum())
            if tv > worst:
                worst, at = tv, f"i={i} {side}"
    tol = 1e-12
    return CheckResult(
        name="conditional-star-law",
        target=f"{g} q={q:g}",
        passed=worst <= tol,
        observed=worst,
        tolerance=tol,
        note=f"worst {at}",
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
