import itertools
import math

import numpy as np
import pytest

from coxmal import sizebias
from coxmal.coxeter import enumerate_windows, parse_group
from coxmal.mallows import MallowsSpec, _group_rows
from coxmal.moments import exact_distribution
from coxmal.sizebias import (
    TYPE_MULTIPLICITIES,
    conditional_star_law_check,
    coupling_boundedness_check,
    covariance_type_sums,
    generic_stein_bound,
    size_bias_law_check,
    stein_bound_rhs,
    stein_error_terms,
)
from object_reference import (
    descent_number,
    dihedral_elements,
    enumerate_group,
    invert,
    is_left_descent,
    is_right_descent,
    star,
    two_sided_descent,
)
from window_reference import coupling_descents as reference_coupling_descents
from window_reference import itertools_windows

RIGHT_ACTION = sizebias._right_action


def test_ensure_descent_idempotent():
    g = parse_group("B3")
    for w in enumerate_group(g):
        for i in range(3):
            r = star(w, i, "right", g)
            assert is_right_descent(r, i, g)
            assert star(r, i, "right", g) == r
            l = star(w, i, "left", g)
            assert is_left_descent(l, i, g)
            assert star(l, i, "left", g) == l
            # if w already descends at i the coupling leaves it alone
            if is_right_descent(w, i, g):
                assert r == w


def test_star_routes_to_sides():
    """The left star is the right star seen through the inverse."""
    g = parse_group("D4")
    for w in itertools.islice(enumerate_group(g), 0, None, 11):
        for i in range(4):
            assert star(w, i, "left", g) == invert(star(invert(w), i, "right", g))
    with pytest.raises(ValueError):
        star(next(iter(enumerate_group(g))), 0, "up", g)


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "B3", "D4"])
@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_size_bias_law(name, q):
    """law(t(w*)) equals the size-bias of law(t) exactly."""
    check = size_bias_law_check(parse_group(name), q)
    assert check.passed, check.line()
    assert check.observed <= 1e-12


@pytest.mark.parametrize("name", ["A4", "B4", "D4", "B6", "D6"])
def test_coupling_kernel_matches_objects(name):
    """des and star_des of the coupling table bit-equal to the numpy
    reference counter on the enumerated windows; per-row S1..S4 and mean
    squared t-shift against the object stars, each element mapped to its
    enumeration row (every row up to rank 4, about 400 evenly spaced rows
    at rank 6)."""
    g = parse_group(name)
    n = g.num_generators
    W = enumerate_windows(g)[0]
    _, des, star_des = sizebias._exact_coupling(g, 0.5)
    want_des, want_star_des = reference_coupling_descents(g.kind, W)
    assert np.array_equal(des, want_des)
    assert star_des.dtype == np.int32 and np.array_equal(star_des, want_star_des)
    _, S, sq = sizebias._sigma_rows(des, star_des)
    rows = sizebias._window_rows(W)(itertools_windows(g))
    step = max(1, len(W) // 400)
    for row, w in itertools.islice(zip(rows, enumerate_group(g)), 0, None, step):
        dw, dv = descent_number(w, g), descent_number(invert(w), g)
        sums = [0, 0, 0, 0]
        sq_sum = 0
        for i in range(n):
            a = star(w, i, "right", g)
            b = star(w, i, "left", g)
            da, dai = descent_number(a, g), descent_number(invert(a), g)
            db, dbi = descent_number(b, g), descent_number(invert(b), g)
            for k, d in enumerate((dw - da, dw - db, dv - dai, dv - dbi)):
                sums[k] += d
            sq_sum += (dw + dv - da - dai) ** 2 + (dw + dv - db - dbi) ** 2
        assert S[row].tolist() == sums
        assert sq[row] == sq_sum / (2 * n)


def _star_without_gen0_sign(kind, W, i):
    """The right action with the sign flip of generator 0 dropped (B and D)."""
    S = RIGHT_ACTION(kind, W, i)
    if i == 0 and kind != "A":
        S[:, : 1 if kind == "B" else 2] *= -1
    return S


@pytest.mark.parametrize(
    "broken",
    [lambda kind, W, i: W.copy(), _star_without_gen0_sign],
    ids=["no-op", "gen0-unsigned"],
)
@pytest.mark.parametrize("name", ["B3", "D4"])
def test_size_bias_law_rejects_broken_star(monkeypatch, fresh_coupling_table, broken, name):
    """Negative control: both law checks must catch a wrong right action."""
    monkeypatch.setattr(sizebias, "_right_action", broken)
    check = size_bias_law_check(parse_group(name), 0.5)
    assert check.passed is False
    assert check.observed > 1e-3
    cond = conditional_star_law_check(parse_group(name), 0.5)
    assert cond.passed is False
    assert cond.observed > 1e-3


def test_coupling_table_is_built_once_per_group():
    """desc and the star rows do not depend on q: one read-only table of
    each per group, bool desc and int32 rows, under windows (B3) and under
    closed forms (I2(5)), with the q-dependent probabilities and the int32
    descent counts of desc beside them."""
    for name, order, gens in (("B3", 48, 3), ("I2(5)", 10, 2)):
        g = parse_group(name)
        rows = sizebias._coupling_table(g)
        desc = _group_rows(g)[1]
        p_half, des_half, _ = sizebias._exact_coupling(g, 0.5)
        p_two, des_two, _ = sizebias._exact_coupling(g, 2.0)
        assert _group_rows(g)[1] is desc and sizebias._coupling_table(g) is rows
        assert not desc.flags.writeable and not rows.flags.writeable
        assert desc.dtype == bool and rows.dtype == des_half.dtype == np.int32
        assert desc.shape == rows.shape == (order, 2, gens)
        assert np.array_equal(des_half, desc.sum(axis=2)) and np.array_equal(des_two, des_half)
        assert not np.array_equal(p_half, p_two)


@pytest.mark.parametrize("m", range(3, 13))
def test_dihedral_coupling_equals_the_object_stars(m):
    """I2(m)'s closed-form star rows equal the rows of the object model's
    stars of every element, and des and star_des their descents, row for
    row in the table's order, at every generator and side."""
    g = parse_group(f"I2({m})")

    def both(w):
        return descent_number(w, g), descent_number(w, g, "left")

    elements = dihedral_elements(m)
    row = {w: r for r, w in enumerate(elements)}
    stars = [[[star(w, i, side, g) for i in range(2)] for side in ("right", "left")] for w in elements]
    assert np.array_equal(sizebias._coupling_table(g), [[[row[w] for w in side] for side in s] for s in stars])
    _, des, star_des = sizebias._exact_coupling(g, 0.5)
    assert np.array_equal(des, [both(w) for w in elements])
    assert np.array_equal(star_des, [[[both(w) for w in side] for side in s] for s in stars])


def test_conditional_star_law():
    """law(w_i*) = law(w | descent at s_i) at every generator and side,
    dihedral groups included; products are refused."""
    for name in ("A3", "B3", "D4", "I2(5)"):
        check = conditional_star_law_check(parse_group(name), 0.7)
        assert check.passed, check.line()
        assert check.observed <= 1e-12 and check.note.startswith("worst i=")
    with pytest.raises(ValueError):
        conditional_star_law_check(parse_group("B3 x A2"), 0.7)


def test_off_group_star_raises_from_both_law_checks(off_group_star):
    """A star outside the group is an error of the coupling, not a law:
    both law checks raise and name the group, side, row and generator."""
    for check in (size_bias_law_check, conditional_star_law_check):
        with pytest.raises(ValueError, match=r"B3: the right star of row 0 at s_0 is outside the group"):
            check(parse_group("B3"), 0.7)


@pytest.mark.parametrize("name", ["A3", "A4", "B3", "B4", "D4"])
def test_coupling_boundedness(name):
    check = coupling_boundedness_check(parse_group(name))
    assert check.passed
    d = check.detail
    assert d["max_right_des_shift"] <= 3
    assert d["max_left_des_shift"] <= 1
    assert d["max_t_shift"] <= 4
    limits = {"max_right_des_shift": 3, "max_left_des_shift": 1, "max_t_shift": 4}
    used = {k: d[k] / b for k, b in limits.items()}
    assert check.bound == 1.0
    assert check.observed == max(used.values())
    assert max(used, key=used.get) in check.note


def test_left_star_shift_is_tight():
    """Somewhere the left-side star moves des by the full allowed 1."""
    g = parse_group("B3")
    hit = 0
    for w in enumerate_group(g):
        for i in range(3):
            before = two_sided_descent(w, g)
            after = two_sided_descent(star(w, i, "left", g), g)
            if abs(before - after) >= 1:
                hit += 1
    assert hit > 0


@pytest.mark.parametrize("name,q", [("B3", 0.5), ("B4", 1.0), ("D4", 0.5), ("A3", 1.0)])
def test_covariance_reconstruction(name, q):
    g = parse_group(name)
    checks = covariance_type_sums(g, q)
    recon = checks[0]
    assert recon.passed
    assert recon.name == "covariance-reconstruction" and recon.observed <= 1e-8
    assert len(TYPE_MULTIPLICITIES) == 6
    for c in checks[1:]:
        assert c.passed is not False, c.line()
    if g.kind == "A":
        # bounds are stated for B and D only
        assert all(c.passed is None for c in checks[1:])


def test_covariance_bound_values():
    """The six bound lines at B4: 63(n-1), 63(n-1), 306(n-1)+9, 594(n-1)+9,
    173(n-1)+1, 173(n-1)+1 with n = 4."""
    g = parse_group("B4")
    checks = covariance_type_sums(g, 0.5)
    bounds = [c.bound for c in checks[1:]]
    assert bounds == [189, 189, 927, 1791, 520, 520]
    checks_d = covariance_type_sums(parse_group("D4"), 0.5)
    assert [c.bound for c in checks_d[1:]] == [189, 189, 927, 1791, 862, 862]


def test_type1_covariance_vanishes_far_apart():
    """Generators at Coxeter-graph distance above 3 give exactly zero
    covariance; B5 is the smallest B where such pairs exist.  B's graph is a
    path, so the distance between s_i and s_j is |i - j|."""
    g = parse_group("B5")
    p, des, star_des = sizebias._exact_coupling(g, 0.5)
    D = des[:, :1] - star_des[:, 0, :, 0]
    centered = D - p @ D
    cov = (centered * p[:, None]).T @ centered
    dist = np.abs(np.subtract.outer(np.arange(5), np.arange(5)))
    far = dist > 3
    assert far.any()
    assert np.abs(cov[far]).max() < 1e-14
    near = (dist > 0) & (dist <= 1)
    assert np.abs(cov[near]).max() > 1e-4


def test_stein_error_terms_exact_values():
    terms = stein_error_terms(parse_group("B3"), 1.0)
    assert math.isclose(terms.mu, 3.0)
    assert math.isclose(terms.sigma, math.sqrt(exact_distribution(
        MallowsSpec.make("B3", 1.0), "t").variance()))
    assert math.isclose(terms.variance_term, 0.2515432098765436, rel_tol=1e-9)
    assert math.isclose(terms.expectation_term, 0.8055555555555552, rel_tol=1e-9)
    assert terms.expectation_term <= 16.0


def test_stein_error_terms_degenerate_limit():
    terms = stein_error_terms(parse_group("B3"), 1e-4)
    assert terms.variance_term <= 0.01


def test_stein_bound_rhs_values():
    b = stein_bound_rhs(parse_group("B4"), 1.0, "w1")
    assert math.isclose(b.value, (180 + 236) / 2.0)
    assert b.hypothesis_ok
    s = stein_bound_rhs(parse_group("B100"), 1.0, "smooth")
    assert math.isclose(s.value, (360 + 236) / 10.0)
    d = stein_bound_rhs(parse_group("D30"), 4.0, "smooth")
    assert d.hypothesis_ok
    kappa = max(math.sqrt(4.0), math.sqrt(1 / 4.0))
    assert math.isclose(d.value, (768 + 666 * kappa) / math.sqrt(30))
    d4 = stein_bound_rhs(parse_group("D4"), 1.0, "w1")
    assert not d4.hypothesis_ok
    a = stein_bound_rhs(parse_group("A4"), 1.0, "w1")
    assert not a.hypothesis_ok and "informational" in a.note


def test_generic_stein_bound_shape():
    terms = stein_error_terms(parse_group("B3"), 1.0)
    mu, sig = terms.mu, terms.sigma
    expect_smooth = 2 * (mu / sig**2) * math.sqrt(terms.variance_term) + (
        mu / sig**3
    ) * terms.expectation_term
    assert math.isclose(generic_stein_bound(terms, "smooth"), expect_smooth)
    expect_w1 = math.sqrt(2 / math.pi) * (mu / sig**2) * math.sqrt(
        terms.variance_term
    ) + (mu / sig**3) * terms.expectation_term
    assert math.isclose(generic_stein_bound(terms, "w1"), expect_w1)
    # doubling the sup norms scales the matching pieces
    assert math.isclose(
        generic_stein_bound(terms, "smooth", h_sup=2.0, hp_sup=1.0)
        - generic_stein_bound(terms, "smooth"),
        2 * (mu / sig**2) * math.sqrt(terms.variance_term),
    )
    with pytest.raises(ValueError):
        generic_stein_bound(terms, "w7")
