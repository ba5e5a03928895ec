from functools import cached_property
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from paraposet import amalgam, figures, fileformat, harness
from paraposet.poset import (SMALL_SUBSET, BadIndex, FinitePoset, NotAntisymmetric,
                             NotBounded, PosetError, bits, intersection, union)
from paraposet.universe import bounded_posets

import gallery
from gallery import FIXTURES


def mask_of(items):
    m = 0
    for i in items:
        m |= 1 << i
    return m


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


@pytest.mark.parametrize("labels, up, error, message", [
    # a negative row, a bit at position n, too few and too many rows
    (["0", "1"], [3, -1], BadIndex, "order rows do not match the element count"),
    (["0", "1"], [3, 2 | 4], BadIndex, "order rows do not match the element count"),
    (["0", "1"], [3], BadIndex, "order rows do not match the element count"),
    (["0", "1"], [3, 2, 2], BadIndex, "order rows do not match the element count"),
    # 0 does not lie below itself
    (["0", "1"], [2, 2], PosetError, "order must be reflexive"),
    # 0 < a < 1 without 0 < 1
    (["0", "a", "1"], [0b011, 0b110, 0b100], PosetError, "order must be transitive"),
    # a and b below 1 with nothing below both, and the dual
    (["a", "b", "1"], [0b101, 0b110, 0b100], NotBounded,
     "poset has no bottom or no top element"),
    (["0", "a", "b"], [0b111, 0b010, 0b100], NotBounded,
     "poset has no bottom or no top element"),
    (["0", "0"], [3, 2], PosetError, "element labels must be unique"),
    ([], [], PosetError, "poset needs at least one element"),
    # labels are compared as the strings that name them
    ([1, "1"], [3, 2], PosetError, "element labels must be unique"),
])
def test_constructor_errors(labels, up, error, message):
    with pytest.raises(PosetError) as caught:
        FinitePoset(labels, up)
    assert caught.type is error
    assert str(caught.value) == message


def test_memos_are_built_on_first_read():
    memos = ("_index", "_lower", "_upper", "_downset", "_upset")
    for n in range(1, 9):
        for p in bounded_posets(n):
            assert not set(memos) & vars(p).keys(), p.up
            assert p._index == {label: i for i, label in enumerate(p.labels)}
            for mask in range(1 << n):
                assert p._lower(mask) == intersection(p.down, p.full, mask)
                assert p._upper(mask) == intersection(p.up, p.full, mask)
                assert p._downset(mask) == union(p.down, mask)
                assert p._upset(mask) == union(p.up, mask)
            assert set(memos) <= vars(p).keys()


def test_cones_and_extrema():
    p = diamond()
    ab = mask_of([p.index("a"), p.index("b")])
    assert p.lower_cone(ab) == 1 << p.index("0")
    assert p.upper_cone(ab) == 1 << p.index("1")
    top = p.index("1")
    assert _max_of(p, p.lower_cone(1 << top)) == p.max_lower[top][top] == 1 << top


def test_meet_join_lattice():
    p = diamond()
    assert p.meet(p.index("a"), p.index("b")) == p.index("0")
    assert p.join(p.index("a"), p.index("b")) == p.index("1")
    assert p.is_lattice


def test_hexagon_upper_cone_of_incomparable_atoms():
    # U(b, d) in the ten-element non-lattice example keeps b' below 1
    s = gallery.ortho("fig2b")
    p = s.poset
    m = mask_of([p.index("b"), p.index("d")])
    u = p.upper_cone(m)
    assert sorted(p.labels[i] for i in bits(u)) == ["1", "b'"]
    assert [p.labels[i] for i in bits(p.min_upper[p.index("b")][p.index("d")])] == ["b'"]


def test_cube_distributive():
    p = figures.boolean_cube().poset
    assert p.is_lattice and p.is_distributive


def test_pentagon_not_distributive():
    p = FinitePoset.from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])
    assert p.is_lattice and not p.is_distributive


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


def _max_of(p, a):
    # Max A within the induced order
    return mask_of(x for x in bits(a) if p.up[x] & a == 1 << x)


def _min_of(p, a):
    return mask_of(x for x in bits(a) if p.down[x] & a == 1 << x)


def _assert_bound_tables_match_cones(p):
    r = range(p.n)
    # the lattice test on a fresh copy, so no table built before it can
    # serve it; it must agree with both meets and joins by definition
    fresh = FinitePoset(p.labels, p.up)
    assert fresh.is_lattice == p.is_lattice == all(
        _singleton(_max_of(p, p.down[x] & p.down[y])) is not None
        and _singleton(_min_of(p, p.up[x] & p.up[y])) is not None
        for x in r for y in r)
    for x in r:
        for y in r:
            maxl = _max_of(p, p.down[x] & p.down[y])
            minu = _min_of(p, p.up[x] & p.up[y])
            assert p.max_lower[x][y] == maxl
            assert p.min_upper[x][y] == minu
            assert p.meets[x][y] == _singleton(maxl)
            assert p.joins[x][y] == _singleton(minu)
            assert p.meet(x, y) == p.meets[x][y] and p.join(x, y) == p.joins[x][y]
    assert p.is_distributive == _cone_distributive(p)


@given(random_bounded_posets())
def test_meet_join_tables_match_cones(p):
    _assert_bound_tables_match_cones(p)


@pytest.mark.parametrize("n", range(2, 9))
def test_bound_tables_match_cones_on_every_bounded_poset(n):
    for p in bounded_posets(n):
        _assert_bound_tables_match_cones(p)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*/family.poset")),
                         ids=lambda p: p.parent.name)
def test_bound_tables_match_cones_on_fixture_carriers(path):
    carrier = amalgam.build_amalgam(fileformat.load(str(path)))
    _assert_bound_tables_match_cones(carrier.poset)


def _singletons(table):
    # the meet and join tables as they were built before they were read off
    # principal ideals: each one-element mask as its element, else None
    element = {1 << i: i for i in range(len(table))}.get
    return tuple(tuple(map(element, row)) for row in table)


def _principal_mismatches(p):
    """The cells where ``meets``/``joins`` differ from the singleton reference."""
    want = {"meet": _singletons(p.max_lower), "join": _singletons(p.min_upper)}
    got = {"meet": p.meets, "join": p.joins}
    return [(op, x, y) for op in want for x in range(p.n) for y in range(p.n)
            if got[op][x][y] != want[op][x][y]]


@pytest.mark.parametrize("path", sorted(FIXTURES.rglob("*.poset")),
                         ids=lambda p: str(p.relative_to(FIXTURES)))
def test_principal_ideal_tables_match_singletons_on_fixtures(path):
    # every structure file, the blocks of each family and the five carriers
    for p in _fixture_posets(path):
        assert _principal_mismatches(p) == [], p


def test_meets_keyed_on_up_rows_are_caught(monkeypatch):
    def meets_keyed_on_up(p):
        element = {row: m for m, row in enumerate(p.up)}.get
        return tuple(tuple(element(d_x & d_y) for d_y in p.down) for d_x in p.down)

    monkeypatch.setattr(FinitePoset, "meets", property(meets_keyed_on_up))
    assert all(_principal_mismatches(p) for n in range(2, 6) for p in bounded_posets(n))


def _bits_reference(mask):
    # the generator ``bits`` was before it returned memoised tuples
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def test_bits_matches_the_generator_on_every_12_bit_mask():
    for mask in range(1 << 12):
        got = bits(mask)
        assert type(got) is tuple
        assert got == tuple(_bits_reference(mask))


@given(st.integers(min_value=0, max_value=(1 << 22) - 1))
def test_bits_matches_the_generator_on_22_bit_masks(mask):
    assert bits(mask) == tuple(_bits_reference(mask))
    # the memo is bounded, so carriers of up to 22 elements cannot grow it
    # towards their 2^22 subsets
    info = bits.cache_info()
    assert info.maxsize == 1 << 16 and info.currsize <= info.maxsize


@pytest.mark.parametrize("n", range(1, 6))
def test_row_unions_match_subset_relations(n):
    # every pair of masks of every bounded poset with n <= 5
    for p in bounded_posets(n):
        masks = range(p.full + 1)
        for a in masks:
            for b in masks:
                assert (a & ~p._downset(b) == 0) == gallery.subset_rel(p, a, b, gallery.LE1)
                assert (b & ~p._upset(a) == 0) == gallery.subset_rel(p, a, b, gallery.LE2)
                assert p._approx2(a, b) == gallery.subset_rel(p, a, b, gallery.EQ2)


# -- LU-identities: pair-cone tables against the cone formulas --------

def _cone_variants(p, x, y, z):
    L, U = p.lower_cone, p.upper_cone
    b = 1 << x | 1 << y
    c = 1 << x | 1 << z
    d = 1 << y | 1 << z
    return (
        (L(U(b) | 1 << z), L(U(L(c) | L(d)))),
        (U(L(c) | L(d)), U(L(U(b) | 1 << z))),
        (U(L(b) | 1 << z), U(L(U(c) | U(d)))),
        (L(U(c) | U(d)), L(U(L(b) | 1 << z))),
    )


def _cone_variant_failure(p):
    r = range(p.n)
    for x in r:
        for y in r:
            for z in r:
                if any(lhs != rhs for lhs, rhs in _cone_variants(p, x, y, z)):
                    return (x, y, z)
    return None


def _cone_distributive(p):
    L, U = p.lower_cone, p.upper_cone
    r = range(p.n)
    return all(
        L(U(1 << x | 1 << y) | 1 << z) == L(U(L(1 << x | 1 << z) | L(1 << y | 1 << z)))
        for x in r for y in r for z in r)


def _cone_nary(p, xs, z):
    L, U = p.lower_cone, p.upper_cone
    cones_l = cones_u = 0
    for x in xs:
        cones_l |= L(1 << x | 1 << z)
        cones_u |= U(1 << x | 1 << z)
    xmask = mask_of(xs)
    return (L(U(xmask) | 1 << z) == L(U(cones_l)),
            U(L(xmask) | 1 << z) == U(L(cones_u)))


# the per-triple bodies the poset kernels replaced, kept as references

def _pair_cone_variants(p, x, y, z):
    """The four binary LU-identities at (x, y, z) as (lhs, rhs) masks,
    read from the pair cones."""
    lu, ul = p.pair_cones
    L, U = p._lower, p._upper
    lu_xy_z = lu[x][y] & p.down[z]
    ul_xz_yz = ul[x][z] & ul[y][z]
    ul_xy_z = ul[x][y] & p.up[z]
    lu_xz_yz = lu[x][z] & lu[y][z]
    return (
        (lu_xy_z, L(ul_xz_yz)),
        (ul_xz_yz, U(lu_xy_z)),
        (ul_xy_z, U(lu_xz_yz)),
        (lu_xz_yz, L(ul_xy_z)),
    )


def _pair_cone_variant_failure(p):
    r = range(p.n)
    for x in r:
        for y in r:
            for z in r:
                if any(lhs != rhs for lhs, rhs in _pair_cone_variants(p, x, y, z)):
                    return (x, y, z)
    return None


def _pair_cone_nary(p, xs, z):
    """The n-ary LU-identity and its dual at (xs, z), read from the pair cones."""
    lu, ul = p.pair_cones
    L, U = p._lower, p._upper
    ul_z = lu_z = p.full
    for x in xs:
        ul_z &= ul[x][z]
        lu_z &= lu[x][z]
    xmask = mask_of(xs)
    return (L(U(xmask)) & p.down[z] == L(ul_z),
            U(L(xmask)) & p.up[z] == U(lu_z))


def _pair_cone_nary_failure(p):
    for xs in combinations(range(p.n), 3):
        for z in range(p.n):
            if not all(_pair_cone_nary(p, xs, z)):
                return xs, z
    return None


def _bound_complete_reference(p, cone, extremal, rows):
    for size in range(1, SMALL_SUBSET + 1):
        for m in combinations(range(p.n), size):
            c = cone(mask_of(m))
            ext = extremal(p, c)
            for x in bits(c):
                if not ext & rows[x]:
                    return False
    return True


def _assert_identities_match_cones(p, nary_args):
    assert p.is_distributive == _cone_distributive(p)
    assert p.distributive_variant_failure == _cone_variant_failure(p)
    r = range(p.n)
    for x in r:
        for y in r:
            for z in r:
                assert _pair_cone_variants(p, x, y, z) == _cone_variants(p, x, y, z)
    for xs, z in nary_args:
        assert _pair_cone_nary(p, xs, z) == _cone_nary(p, xs, z)


def _all_nary_args(p):
    return [(xs, z) for k in (1, 2, 3)
            for xs in combinations(range(p.n), k) for z in range(p.n)]


@pytest.mark.parametrize("n", range(2, 8))
def test_lu_identities_match_cones_on_every_bounded_poset(n):
    for p in bounded_posets(n):
        _assert_identities_match_cones(p, _all_nary_args(p))


def _fixture_posets(path):
    s = fileformat.load(str(path))
    if isinstance(s, amalgam.PastedFamily):
        blocks = [blk.poset for blk in s.blocks]
        return blocks + [amalgam.build_amalgam(s).poset]
    return [getattr(s, "poset", s)]


@pytest.mark.parametrize("path", sorted(FIXTURES.rglob("*.poset")),
                         ids=lambda p: str(p.relative_to(FIXTURES)))
def test_lu_identities_match_cones_on_fixtures(path):
    for p in _fixture_posets(path):
        _assert_identities_match_cones(p, _all_nary_args(p)[::7])


@st.composite
def distributive_lattices(draw):
    # the down-sets of a random order on k points, ordered by inclusion
    k = draw(st.integers(min_value=3, max_value=5))
    below = [1 << i for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if draw(st.booleans()):
                below[j] |= below[i]
    for j in range(k):
        for i in bits(below[j]):
            below[j] |= below[i]
    ideals = [m for m in range(1 << k)
              if all(below[i] & ~m == 0 for i in bits(m))]
    labels = [str(m) for m in ideals]
    up = [mask_of(b for b, m2 in enumerate(ideals) if m & ~m2 == 0) for m in ideals]
    return FinitePoset(labels, up)


@settings(max_examples=30, deadline=None)
@given(st.one_of(random_bounded_posets(),
                 distributive_lattices().filter(lambda p: 8 <= p.n <= 14)),
       st.data())
def test_lu_identities_match_cones_on_random_posets(p, data):
    element = st.integers(min_value=0, max_value=p.n - 1)
    nary_args = data.draw(st.lists(
        st.tuples(st.lists(element, min_size=1, max_size=4), element),
        max_size=10))
    _assert_identities_match_cones(p, nary_args)


def _count_pair_cone_builds(monkeypatch):
    builds = []
    build = FinitePoset.pair_cones.func

    def counted(p):
        builds.append(p)
        return build(p)

    prop = cached_property(counted)
    prop.__set_name__(FinitePoset, "pair_cones")
    monkeypatch.setattr(FinitePoset, "pair_cones", prop)
    return builds


def test_family_load_builds_pair_cones_once_per_distinct_block(monkeypatch):
    builds = _count_pair_cone_builds(monkeypatch)
    # the four blocks of the square are copies of one order and involution
    fam = gallery.load("square/family")
    assert len(fam.blocks) == 4
    assert list(map(id, builds)) == [id(fam.blocks[0].poset)]
    # the two blocks of fig5 differ, so each is built
    builds.clear()
    fam = gallery.load("fig5/family")
    assert fam.blocks[0].poset.up != fam.blocks[1].poset.up
    assert list(map(id, builds)) == [id(blk.poset) for blk in fam.blocks]


def test_distributivity_predicates_share_one_pair_cone_build(monkeypatch):
    builds = _count_pair_cone_builds(monkeypatch)
    p = figures.boolean_cube().poset
    assert p.is_distributive
    assert p.distributive_variant_failure is None
    assert p.nary_distributive_failure is None
    assert builds == [p]


def test_bound_completeness_runs_once_per_poset(monkeypatch):
    runs = []
    body = FinitePoset._bound_complete

    def counted(p, cone, reach, rows):
        runs.append((p, rows is p.up))
        return body(p, cone, reach, rows)

    monkeypatch.setattr(FinitePoset, "_bound_complete", counted)
    [res] = harness.run_harness(6, ["completeness-finite"])
    assert res.ok
    posets = {id(p) for p, _ in runs}
    # one minimal-upper-bound and one maximal-lower-bound run per poset,
    # though many posets carry several involutions
    assert sorted((id(p), mlb) for p, mlb in runs) == sorted(
        (i, mlb) for i in posets for mlb in (False, True))
    assert res.instances > len(posets)


# -- the poset kernels against the per-triple bodies they replaced ------

def _assert_poset_kernels_match(p):
    assert p.distributive_variant_failure == _pair_cone_variant_failure(p)
    assert p.nary_distributive_failure == _pair_cone_nary_failure(p)
    assert p.is_mub_complete == _bound_complete_reference(p, p.upper_cone, _min_of, p.down)
    assert p.is_mlb_complete == _bound_complete_reference(p, p.lower_cone, _max_of, p.up)


def test_poset_kernels_match_the_replaced_bodies_on_every_bounded_poset():
    posets = [p for n in range(2, 9) for p in bounded_posets(n)]
    assert len(posets) == 406
    for p in posets:
        _assert_poset_kernels_match(p)
    # both verdicts of each kernel are reached
    assert any(p.distributive_variant_failure for p in posets)
    assert any(p.nary_distributive_failure for p in posets)
    assert any(p.is_distributive for p in posets)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*/family.poset")),
                         ids=lambda p: p.parent.name)
def test_poset_kernels_match_the_replaced_bodies_on_fixture_carriers(path):
    carrier = amalgam.build_amalgam(fileformat.load(str(path)))
    _assert_poset_kernels_match(carrier.poset)
