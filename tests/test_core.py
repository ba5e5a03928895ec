import pytest
from hypothesis import given, strategies as st

from paraposet import figures
from paraposet.poset import (FinitePoset, NotAntisymmetric, NotBounded,
                             bits, mask_of)


def diamond():
    return FinitePoset.from_covers(
        ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


def test_from_covers_order():
    p = diamond()
    assert p.leq(p.index("0"), p.index("1"))
    assert not p.leq(p.index("a"), p.index("b"))
    assert p.lt(p.index("0"), p.index("a"))


def test_cycle_rejected():
    with pytest.raises(NotAntisymmetric):
        FinitePoset.from_covers(["0", "a", "b", "1"],
                                [("0", "a"), ("a", "b"), ("b", "a"), ("b", "1")])


def test_unbounded_rejected():
    with pytest.raises(NotBounded):
        FinitePoset.from_covers(["a", "b", "c"], [("a", "c"), ("b", "c")])


def test_cones_and_extrema():
    p = diamond()
    ab = mask_of([p.index("a"), p.index("b")])
    assert p.lower_cone(ab) == 1 << p.index("0")
    assert p.upper_cone(ab) == 1 << p.index("1")
    assert p.max_of(p.lower_cone(1 << p.index("1"))) == 1 << p.index("1")


def test_meet_join_lattice():
    p = diamond()
    assert p.meet(p.index("a"), p.index("b")) == p.index("0")
    assert p.join(p.index("a"), p.index("b")) == p.index("1")
    assert p.is_lattice


def test_hexagon_upper_cone_of_incomparable_atoms():
    # U(b, d) in the ten-element non-lattice example keeps b' below 1
    s = figures.fig2b()
    p = s.poset
    m = mask_of([p.index("b"), p.index("d")])
    u = p.upper_cone(m)
    assert sorted(p.labels[i] for i in bits(u)) == ["1", "b'"]
    assert [p.labels[i] for i in bits(p.min_of(u))] == ["b'"]


def test_cube_distributive():
    p = figures.boolean_cube().poset
    assert p.is_lattice and p.is_distributive


def test_pentagon_not_distributive():
    p = FinitePoset.from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])
    assert p.is_lattice and not p.is_distributive


def test_induced_filter():
    p = figures.fig1a().poset
    sub, old = p.induced(p.up[p.index("a")])
    assert sub.n == 4
    assert sub.labels[sub.bottom] == "a" and sub.labels[sub.top] == "1"
    assert all(p.leq(old[x], old[y]) == sub.leq(x, y)
               for x in range(sub.n) for y in range(sub.n))


@given(st.integers(min_value=0, max_value=255))
def test_cone_galois_closure(mask):
    p = figures.boolean_cube().poset
    low = p.lower_cone(mask)
    assert p.lower_cone(p.upper_cone(low)) == low
    up = p.upper_cone(mask)
    assert p.upper_cone(p.lower_cone(up)) == up


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
def test_cube_meet_join_bitwise(x, y):
    # on the cube of subsets the order operations are bit operations
    p = figures.boolean_cube().poset
    atoms = [p.index(a) for a in "xyz"]
    names = {i: frozenset(a for a in atoms if p.leq(a, i)) for i in range(p.n)}
    assert names[p.meet(x, y)] == names[x] & names[y]
    assert names[p.join(x, y)] == names[x] | names[y]


@st.composite
def random_bounded_posets(draw):
    # a random order on the middle, closed under transitivity by from_covers
    n = draw(st.integers(min_value=8, max_value=14))
    m = n - 2
    labels = ["0"] + [f"e{i}" for i in range(m)] + ["1"]
    covers = [("0", f"e{i}") for i in range(m)] + [(f"e{i}", "1") for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if draw(st.booleans()):
                covers.append((f"e{i}", f"e{j}"))
    return FinitePoset.from_covers(labels, covers)


def _singleton(m):
    return m.bit_length() - 1 if m and m & (m - 1) == 0 else None


@given(random_bounded_posets())
def test_meet_join_tables_match_cones(p):
    for x in range(p.n):
        for y in range(p.n):
            assert p.meets[x][y] == _singleton(p.max_of(p.down[x] & p.down[y]))
            assert p.joins[x][y] == _singleton(p.min_of(p.up[x] & p.up[y]))
            assert p.meet(x, y) == p.meets[x][y] and p.join(x, y) == p.joins[x][y]
    assert p.is_lattice == all(
        _singleton(p.max_of(p.down[x] & p.down[y])) is not None
        and _singleton(p.min_of(p.up[x] & p.up[y])) is not None
        for x in range(p.n) for y in range(x + 1, p.n))
