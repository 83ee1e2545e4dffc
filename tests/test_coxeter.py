import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxmal.coxeter import (
    EnumerationCapError,
    ProductDescriptor,
    parse_group,
    windows_descents,
    windows_invert,
)
from object_reference import (
    SignedPermutation,
    apply_left_generator,
    apply_right_generator,
    bfs_word_lengths,
    compose,
    descent_number,
    enumerate_group,
    generator_element,
    identity_element,
    invert,
    is_left_descent,
    is_right_descent,
    length,
    two_sided_descent,
)
from window_reference import (
    itertools_windows,
    windows_descent_counts,
    windows_lengths,
    windows_two_sided,
)


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "I2(7)"])
def test_length_matches_word_length(name):
    g = parse_group(name)
    dist = bfs_word_lengths(g)
    assert len(dist) == g.order()
    for w, d in dist.items():
        assert length(w, g) == d


def test_parse_group_descriptors():
    g = parse_group("B4")
    assert g.kind == "B" and g.rank == 4 and g.num_generators == 4
    assert str(g) == "B4"
    m = parse_group("I2(7)")
    assert m.num_generators == 2 and m.order() == 14
    prod = parse_group("B3 x A2 x I2(5)")
    assert isinstance(prod, ProductDescriptor)
    assert prod.num_generators == 3 + 2 + 2
    assert prod.order() == 48 * 6 * 10
    assert str(prod) == "B3 x A2 x I2(5)"


@pytest.mark.parametrize("bad", ["D3", "B1", "A0", "I2(2)", "C4", "B4 y A1", ""])
def test_parse_group_rejects(bad):
    with pytest.raises(ValueError):
        parse_group(bad)


def test_group_orders_and_longest():
    assert parse_group("A4").order() == 120
    assert parse_group("B4").order() == 384
    assert parse_group("D4").order() == 192
    assert parse_group("A4").longest_length() == 10
    assert parse_group("B4").longest_length() == 16
    assert parse_group("D4").longest_length() == 12
    assert parse_group("I2(7)").longest_length() == 7


def test_signed_permutation_validation():
    assert str(SignedPermutation((2, -1, 3))) == "[2,-1,3]"
    with pytest.raises(ValueError):
        SignedPermutation((1, 1))
    with pytest.raises(ValueError):
        SignedPermutation((1, 3))


def test_specific_lengths():
    b2 = parse_group("B2")
    assert length(SignedPermutation((-1, 2)), b2) == 1
    d4 = parse_group("D4")
    assert length(SignedPermutation((-2, -1, 3, 4)), d4) == 1
    # the fully reversed window is longest in B
    b3 = parse_group("B3")
    w0 = SignedPermutation((-1, -2, -3))
    assert length(w0, b3) == b3.longest_length()


@pytest.mark.parametrize("name", ["A2", "B3", "D4", "I2(5)"])
def test_compose_invert_identity(name):
    g = parse_group(name)
    e = identity_element(g)
    for w in enumerate_group(g):
        assert compose(w, invert(w)) == e
        assert compose(invert(w), w) == e
        assert length(invert(w), g) == length(w, g)


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "I2(6)"])
def test_descents_are_length_drops(name):
    """The window-based descent tests must agree with the definition."""
    g = parse_group(name)
    for w in enumerate_group(g):
        lw = length(w, g)
        for i in range(g.num_generators):
            drop = length(apply_right_generator(w, i, g), g) < lw
            assert is_right_descent(w, i, g) == drop
            ldrop = length(apply_left_generator(w, i, g), g) < lw
            assert is_left_descent(w, i, g) == ldrop
            assert is_left_descent(w, i, g) == is_right_descent(invert(w), i, g)


def test_generator_application_matches_composition():
    g = parse_group("D4")
    for w in itertools.islice(enumerate_group(g), 40):
        for i in range(4):
            s = generator_element(i, g)
            assert apply_right_generator(w, i, g) == compose(w, s)
            assert apply_left_generator(w, i, g) == compose(s, w)


def test_two_sided_descent_extremes():
    for name in ("A3", "B4", "D4", "I2(5)"):
        g = parse_group(name)
        n = g.num_generators
        assert two_sided_descent(identity_element(g), g) == 0
        w0 = max(enumerate_group(g), key=lambda w: length(w, g))
        assert two_sided_descent(w0, g) == 2 * n


def test_negation_flips_descents():
    g = parse_group("B3")
    for w in enumerate_group(g):
        neg = SignedPermutation(tuple(-v for v in w.window))
        assert descent_number(neg, g) == 3 - descent_number(w, g)
        assert length(w, g) + length(neg, g) == 9


@pytest.mark.parametrize("name", ["A4", "B4", "D4", "D5", "I2(6)"])
def test_commutation_matches_composition(name):
    """Generators are involutions, and the pairs that do not commute form a
    tree on the generators (the Coxeter graph of an irreducible group)."""
    g = parse_group(name)
    e = identity_element(g)
    n = g.num_generators
    gens = [generator_element(i, g) for i in range(n)]
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if compose(gens[i], gens[j]) != compose(gens[j], gens[i])
    ]
    assert all(compose(s, s) == e for s in gens)
    assert len(edges) == n - 1
    both_ways = edges + [(j, i) for i, j in edges]
    reached = {0}
    for _ in range(n):
        reached |= {j for i, j in both_ways if i in reached}
    assert reached == set(range(n))


def test_enumeration_cap(monkeypatch):
    g = parse_group("B3")
    monkeypatch.setenv("COXMAL_ENUM_CAP", "47")
    with pytest.raises(EnumerationCapError):
        list(enumerate_group(g))
    with pytest.raises(EnumerationCapError):
        itertools_windows(g)
    monkeypatch.setenv("COXMAL_ENUM_CAP", "48")  # the cap admits a group of exactly its size
    assert len(list(enumerate_group(g))) == 48
    assert itertools_windows(g).shape == (48, 3)


def test_enumerate_product():
    g = parse_group("A1 x I2(3)")
    elems = list(enumerate_group(g))
    assert len(elems) == 12
    assert len(set(elems)) == 12
    # t of a product element is the sum over factors
    t_sum = sum(two_sided_descent(w, g) for w in elems)
    fa, fb = parse_group("A1"), parse_group("I2(3)")
    ta = sum(two_sided_descent(w, fa) for w in enumerate_group(fa))
    tb = sum(two_sided_descent(w, fb) for w in enumerate_group(fb))
    assert t_sum == fb.order() * ta + fa.order() * tb


@pytest.mark.parametrize("name", ["A3", "B4", "D4", "A5", "B5", "D5"])
def test_vectorized_window_ops(name):
    g = parse_group(name)
    kind = g.kind
    elems = list(enumerate_group(g))
    W = itertools_windows(g)
    assert W.dtype == np.int64
    assert np.array_equal(W, np.array([w.window for w in elems]))
    lens = windows_lengths(kind, W)
    V = windows_invert(W)
    des = windows_descent_counts(kind, W)
    des_inv = windows_descent_counts(kind, V)
    two = windows_two_sided(kind, W)
    ind = windows_descents(kind, W)
    for row, w in enumerate(elems):
        assert lens[row] == length(w, g)
        assert des[row] == descent_number(w, g)
        assert des_inv[row] == descent_number(w, g, side="left")
        assert two[row] == two_sided_descent(w, g)
        assert tuple(V[row]) == invert(w).window
        assert [bool(x) for x in ind[row]] == [
            is_right_descent(w, i, g) for i in range(g.num_generators)
        ]


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(1, 6))), st.lists(st.sampled_from([1, -1]), min_size=5, max_size=5))
def test_window_involutions_property(perm, signs):
    win = tuple(p * s for p, s in zip(perm, signs))
    w = SignedPermutation(win)
    g = parse_group("B5")
    assert invert(invert(w)) == w
    neg = SignedPermutation(tuple(-v for v in win))
    assert SignedPermutation(tuple(-v for v in neg.window)) == w
    assert length(invert(w), g) == length(w, g)
    n_desc = descent_number(w, g) + descent_number(invert(w), g)
    assert two_sided_descent(w, g) == n_desc
