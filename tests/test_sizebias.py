import itertools
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from coxmal import sizebias
from coxmal.coxeter import enumerate_windows, parse_group
from coxmal.mallows import MallowsSpec, _group_rows, _row_probs
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


@pytest.mark.parametrize("name,q", [("D7", 1.0), ("A7", 2.0)])
def test_size_bias_law_is_exact_to_rounding(name, q):
    """The coupled law sums at most l(w0) + 1 weighted counts per value,
    so it meets the size-bias law to rounding also where a sum over every
    (row, choice) pair strayed by 1e-13 to 1e-12."""
    check = size_bias_law_check(parse_group(name), q)
    assert check.passed and check.observed <= 1e-14, check.line()


def _coupling_columns(lengths, des, star_des):
    """t, S, sq, star_counts and shifts of the coupling table, reduced from
    per-star descents in the layout of window_reference.coupling_descents."""
    t, t_star = des.sum(axis=1), star_des.sum(axis=3)
    S = (des[:, None, None, :] - star_des).sum(axis=2).transpose(0, 2, 1).reshape(len(des), 4)
    sq = ((t[:, None, None] - t_star) ** 2).sum(axis=(1, 2))
    star_counts = np.zeros((lengths.max() + 1, des.shape[1] * star_des.shape[2] + 1), dtype=np.int64)
    np.add.at(star_counts, (np.broadcast_to(lengths[:, None, None], t_star.shape), t_star), 1)
    des_shift = np.abs(des[:, None, None, 0] - star_des[..., 0])
    t_shift = np.abs(t[:, None, None] - t_star)
    return t, S, sq, star_counts, (des_shift[:, 0].max(), des_shift[:, 1].max(), t_shift.max())


def _assert_table_reduces(g, star_des):
    """The coupling table's columns bit-equal to _coupling_columns of star_des."""
    lengths, _, des = _group_rows(g)
    table = sizebias._coupling_table(g)
    t, S, sq, star_counts, shifts = _coupling_columns(lengths, des.astype(np.int64), star_des)
    assert np.array_equal(table.t, t) and np.array_equal(table.S, S) and np.array_equal(table.sq, sq)
    assert np.array_equal(table.star_counts, star_counts) and table.shifts == shifts


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "D5"])
def test_coupling_columns_equal_the_reference_reductions(name):
    """Every column of the coupling table equals the reduction of the
    reference's recounted per-star descents."""
    g = parse_group(name)
    _assert_table_reduces(g, reference_coupling_descents(g.kind, enumerate_windows(g)[0])[1])


@pytest.mark.parametrize("name", ["A4", "B4", "D4", "B6", "D6"])
def test_coupling_kernel_matches_objects(name):
    """des and the stars' des of the coupling table bit-equal to the numpy
    reference counter on the enumerated windows; per-row S1..S4 and summed
    squared t-shift against the object stars, each element mapped to its
    enumeration row (every row up to rank 4, about 400 evenly spaced rows
    at rank 6)."""
    g = parse_group(name)
    n = g.num_generators
    W = enumerate_windows(g)[0]
    des = _group_rows(g)[2]
    table = sizebias._coupling_table(g)
    want_des, want_star_des = reference_coupling_descents(g.kind, W)
    assert np.array_equal(des, want_des) and np.array_equal(des[table.rows], want_star_des)
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
        assert table.S[row].tolist() == sums
        assert table.sq[row] == sq_sum


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
    """desc, des and the coupling do not depend on q: one read-only table
    of each per group, bool desc, uint8 des, int32 rows, int16 t and S and
    int32 sq, under windows (B3) and under closed forms (I2(5)); the checks at
    two q read them without building another."""
    for name, order, gens in (("B3", 48, 3), ("I2(5)", 10, 2)):
        g = parse_group(name)
        table = sizebias._coupling_table(g)
        lengths, desc, des = _group_rows(g)
        for q in (0.5, 2.0):
            assert size_bias_law_check(g, q).passed and conditional_star_law_check(g, q).passed
            stein_error_terms(g, q)
        assert coupling_boundedness_check(g).passed
        assert _group_rows(g)[1] is desc and sizebias._coupling_table(g) is table
        for a in (lengths, desc, des, *table[:5]):
            assert not a.flags.writeable
        assert (desc.dtype, des.dtype, table.rows.dtype) == (bool, np.uint8, np.int32)
        assert (table.t.dtype, table.S.dtype, table.sq.dtype) == (np.int16, np.int16, np.int32)
        assert desc.shape == table.rows.shape == (order, 2, gens)
        assert table.S.shape == (order, 4) and table.t.shape == table.sq.shape == (order,)
        assert table.star_counts.shape == (g.longest_length() + 1, 2 * gens + 1)
        assert table.star_counts.sum() == 2 * gens * order


@pytest.mark.parametrize("m", range(3, 13))
def test_dihedral_coupling_equals_the_object_stars(m):
    """I2(m)'s closed-form star rows equal the rows of the object model's
    stars of every element, row for row in the table's order, at every
    generator and side, and the table's other columns the reductions of
    the stars' descents."""
    g = parse_group(f"I2({m})")

    def both(w):
        return descent_number(w, g), descent_number(w, g, "left")

    elements = dihedral_elements(m)
    row = {w: r for r, w in enumerate(elements)}
    stars = [[[star(w, i, side, g) for i in range(2)] for side in ("right", "left")] for w in elements]
    want_rows = [[[row[w] for w in side] for side in s] for s in stars]
    assert np.array_equal(sizebias._coupling_table(g).rows, want_rows)
    assert np.array_equal(_group_rows(g)[2], [both(w) for w in elements])
    _assert_table_reduces(g, np.array([[[both(w) for w in side] for side in s] for s in stars]))


def test_coupling_checks_allocate_no_per_choice_array_at_a_second_q():
    """With B6's tables built, each coupling check at another q peaks under
    tracemalloc at 96 bytes per row or less: the probabilities and a few
    per-row columns, and no array with an entry per (row, choice)."""
    g = parse_group("B6")
    order = len(_group_rows(g)[0])
    checks = (size_bias_law_check, covariance_type_sums, stein_error_terms)
    for check in checks:
        check(g, 0.5)
    coupling_boundedness_check(g)
    for call in [partial(check, g, 2.0) for check in checks] + [partial(coupling_boundedness_check, g)]:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 96 * order, f"{call.func.__name__}: {peak / order:.0f} B per row"


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
    lengths, _, des = _group_rows(g)
    p, des = _row_probs(g, 0.5, lengths), des.astype(np.int64)
    D = des[:, :1] - des[sizebias._coupling_table(g).rows[:, 0], 0]
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
