import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxmal.coxeter import (
    EnumerationCapError,
    GroupDescriptor,
    ParabolicSubset,
    ProductDescriptor,
    SignedPermutation,
    apply_left_generator,
    apply_right_generator,
    compose,
    coxeter_graph_neighbors,
    descent_number,
    element_from_text,
    element_to_text,
    enumerate_group,
    enumerate_windows,
    generator_element,
    generators_commute,
    identity_element,
    invert,
    is_left_descent,
    is_right_descent,
    length,
    longest_element_in,
    negate,
    parabolic_decompose,
    parse_group,
    two_sided_descent,
    windows_descent_counts,
    windows_descents,
    windows_invert,
    windows_lengths,
    windows_two_sided,
)


def bfs_word_lengths(g):
    """Independent length oracle: breadth-first search on the Cayley graph
    from the identity, using only generator application."""
    start = identity_element(g)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for i in range(g.num_generators):
            nxt = apply_right_generator(w, i, g)
            if nxt not in dist:
                dist[nxt] = dist[w] + 1
                queue.append(nxt)
    return dist


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


def test_window_text_round_trip():
    w = SignedPermutation.from_text("[2,-1,3]")
    assert str(w) == "[2,-1,3]"
    assert w.value_at(1) == 2 and w.value_at(-1) == -2
    g = parse_group("B3")
    assert element_from_text(element_to_text(w), g) == w
    prod = parse_group("B2 x I2(4)")
    e = identity_element(prod)
    assert element_from_text(element_to_text(e), prod) == e


def test_signed_permutation_validation():
    with pytest.raises(ValueError):
        SignedPermutation((1, 1))
    with pytest.raises(ValueError):
        SignedPermutation((1, 3))


def test_specific_lengths():
    b2 = parse_group("B2")
    assert length(SignedPermutation.from_text("[-1,2]"), b2) == 1
    d4 = parse_group("D4")
    assert length(SignedPermutation.from_text("[-2,-1,3,4]"), d4) == 1
    # the fully reversed window is longest in B
    b3 = parse_group("B3")
    w0 = SignedPermutation.from_text("[-1,-2,-3]")
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
        assert descent_number(negate(w), g) == 3 - descent_number(w, g)
        assert length(w, g) + length(negate(w), g) == 9


def test_coxeter_graph_shapes():
    a = coxeter_graph_neighbors(parse_group("A4"))
    assert a[0] == frozenset({1}) and a[2] == frozenset({1, 3})
    d = coxeter_graph_neighbors(parse_group("D4"))
    assert d[2] == frozenset({0, 1, 3})
    assert d[0] == frozenset({2})
    d5 = coxeter_graph_neighbors(parse_group("D5"))
    assert d5[3] == frozenset({2, 4})
    i2 = coxeter_graph_neighbors(parse_group("I2(9)"))
    assert i2[0] == frozenset({1})


@pytest.mark.parametrize("name", ["A4", "B4", "D4", "D5", "I2(6)"])
def test_commutation_matches_composition(name):
    """Graph adjacency means exactly: the two generators do not commute."""
    g = parse_group(name)
    e = identity_element(g)
    for i in range(g.num_generators):
        for j in range(g.num_generators):
            if i == j:
                continue
            si, sj = generator_element(i, g), generator_element(j, g)
            commutes = compose(si, sj) == compose(sj, si)
            assert generators_commute(i, j, g) == commutes
            assert (j in coxeter_graph_neighbors(g)[i]) == (not commutes)
            assert compose(si, si) == e


@pytest.mark.parametrize(
    "name,gens",
    [("B4", (0, 2)), ("B4", (1, 2)), ("D4", (0, 1)), ("D4", (1, 2, 3)), ("A4", (0, 3))],
)
def test_parabolic_decomposition(name, gens):
    """w = u * v with v in the subgroup, lengths additive, u descent-free in S,
    and the pair unique with those properties."""
    g = parse_group(name)
    subset = ParabolicSubset(g, frozenset(gens))
    subgroup = {identity_element(g)}
    frontier = list(subgroup)
    while frontier:
        w = frontier.pop()
        for i in gens:
            nxt = apply_right_generator(w, i, g)
            if nxt not in subgroup:
                subgroup.add(nxt)
                frontier.append(nxt)
    for w in itertools.islice(enumerate_group(g), 0, None, 7):
        u, v = parabolic_decompose(w, subset, g)
        assert compose(u, v) == w
        assert length(u, g) + length(v, g) == length(w, g)
        assert not any(is_right_descent(u, i, g) for i in gens)
        assert v in subgroup
        matches = 0
        for v2 in subgroup:
            u2 = compose(w, invert(v2))
            if length(u2, g) + length(v2, g) == length(w, g) and not any(
                is_right_descent(u2, i, g) for i in gens
            ):
                matches += 1
        assert matches == 1


def test_longest_element_in_parabolic():
    g = parse_group("B4")
    subset = ParabolicSubset(g, frozenset({0, 1, 3}))
    w0 = longest_element_in(subset, g)
    # all of S are descents, nothing outside S needs to be
    assert all(is_right_descent(w0, i, g) for i in (0, 1, 3))
    # components {0,1} (a B2) and {3} (an A1) contribute 4 + 1
    assert length(w0, g) == 5


def test_enumeration_cap(monkeypatch):
    g = parse_group("B3")
    with pytest.raises(EnumerationCapError):
        list(enumerate_group(g, cap=10))
    with pytest.raises(EnumerationCapError):
        enumerate_windows(g, cap=10)
    monkeypatch.setenv("COXMAL_ENUM_CAP", "10")
    with pytest.raises(EnumerationCapError):
        list(enumerate_group(g))
    with pytest.raises(EnumerationCapError):
        enumerate_windows(g)
    monkeypatch.setenv("COXMAL_ENUM_CAP", "100")
    assert len(list(enumerate_group(g))) == 48
    assert enumerate_windows(g).shape == (48, 3)
    assert enumerate_windows(g, cap=48).shape == (48, 3)


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
    W = enumerate_windows(g)
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
    assert negate(negate(w)) == w
    assert length(invert(w), g) == length(w, g)
    n_desc = descent_number(w, g) + descent_number(invert(w), g)
    assert two_sided_descent(w, g) == n_desc
