import time
from itertools import combinations, combinations_with_replacement

import pytest

from paraposet import figures, fileformat, universe
from paraposet import amalgam as am
from paraposet import ortho as O
from paraposet.poset import FinitePoset, bits

import gallery
from gallery import FIXTURES


def test_fig5_family_builds_eight_element_lattice():
    fam = gallery.load("fig5/family")
    carrier = am.build_amalgam(fam)
    p = carrier.poset
    assert p.n == 8
    assert p.is_lattice
    assert O.is_sharply_paraorthomodular(carrier)


def _shape(o):
    return o.poset.labels, o.poset.up, o.inv


@pytest.mark.parametrize("build, name", [
    (figures.boolean_cube, "cube"),
    (lambda: figures.greechie_cycle(3), "triangle/family"),
    (lambda: figures.greechie_cycle(4), "square/family"),
    (lambda: figures.greechie_cycle(5), "pentagon/family"),
], ids=["cube", "cycle-3", "cycle-4", "cycle-5"])
def test_parametric_builders_match_their_files(build, name):
    built, loaded = build(), gallery.load(name)
    if isinstance(built, am.PastedFamily):
        assert built.names == loaded.names
        assert built.class_of == loaded.class_of
        built, loaded = built.blocks, loaded.blocks
    else:
        built, loaded = [built], [loaded]
    assert [_shape(b) for b in built] == [_shape(b) for b in loaded]


def test_small_block_rejected():
    chain = FinitePoset.from_covers(["0", "a", "b", "1"],
                                    [("0", "a"), ("a", "b"), ("b", "1")])
    # a four-element chain is too small for a Kleene block
    with pytest.raises(am.FamilyError):
        am.validate_family([gallery.kleene_k3b2("a", "b"),
                            O.OrthoPoset(*_involute(chain))],
                           [], names=("K1", "K2"))


def _involute(p):
    # antitone involution by mirrored rank, good enough for tiny chains
    inv = [-1] * p.n
    order = sorted(range(p.n), key=lambda i: bin(p.down[i]).count("1"))
    for i, x in enumerate(order):
        inv[x] = order[p.n - 1 - i]
    return p, tuple(inv)


def test_hexagon_block_rejected():
    with pytest.raises(am.NotKleene):
        am.validate_family([gallery.kleene_k3b2("a", "b"), gallery.ortho("fig4")],
                           [], names=("K1", "K2"))


def test_kleene_check_keys_blocks_by_order_and_involution():
    # the cube has four antitone involutions; only the complement is Kleene
    cube = figures.boolean_cube()
    others = [inv for inv in universe.antitone_involutions(cube.poset) if inv != cube.inv]
    assert len(others) == 3
    for inv in others:
        other = O.validate_involution(cube.poset, inv)
        assert not O.is_kleene_lattice(other)
        with pytest.raises(am.NotKleene, match="block K2 "):
            am.validate_family([cube, other], [], names=("K1", "K2"))


def test_three_element_intersection_rejected():
    cube = figures.boolean_cube()
    other = figures.boolean_cube(("x", "u", "v"))
    glue = [[(0, "x"), (1, "x")], [(0, "x'"), (1, "x'")],
            [(0, "y"), (1, "u")]]
    with pytest.raises(am.FamilyError):
        am.validate_family([cube, other], glue, names=("K1", "K2"))


def test_triangle_classification():
    fam = figures.greechie_cycle(3)
    carrier = am.build_amalgam(fam)
    rep = am.classify_amalgam(fam, carrier)
    assert carrier.poset.n == 14
    assert len(rep.loops3) == 1 and len(rep.loops4) == 0
    assert O.is_paraorthomodular(carrier) and not rep.direct_sharply
    assert not rep.direct_lattice
    assert rep.agree
    assert rep.join_witness is not None
    a, b = rep.join_witness
    p = carrier.poset
    assert p.leq(a, carrier.inv[b])
    assert p.join(a, b) is None
    assert rep.two_block_lattices


def test_square_classification():
    fam = figures.greechie_cycle(4)
    rep = am.classify_amalgam(fam)
    assert len(rep.loops3) == 0 and len(rep.loops4) == 1
    assert rep.direct_sharply and not rep.direct_lattice
    assert rep.agree


def test_chain_and_pentagon_are_lattices():
    for fam in (gallery.load("chain/family"), figures.greechie_cycle(5)):
        rep = am.classify_amalgam(fam)
        assert not rep.loops3 and not rep.loops4
        assert rep.direct_lattice and rep.direct_sharply
        assert rep.agree


def test_loop_search_budget():
    fam = figures.greechie_cycle(5)
    assert am.find_loops(fam, 3) == []
    assert am.find_loops(fam, 4) == []
    assert len(am.find_loops(fam, 5)) == 1


def kleene_loop():
    """Four K3 x B2 blocks in a 4-loop; each block shares its chain pair
    with one neighbour and its complemented pair with the other."""
    blocks = [gallery.kleene_k3b2(atom, side, name=f"K{i + 1}")
              for i, (atom, side) in enumerate(("ad", "ab", "cb", "cd"))]
    glue = [[(i, x + s), ((i + 1) % 4, x + s)]
            for i, x in enumerate("abcd") for s in ("", "'")]
    return am.validate_family(blocks, glue, names=("K1", "K2", "K3", "K4"))


def test_kleene_loop_classification():
    fam = kleene_loop()
    carrier = am.build_amalgam(fam)
    rep = am.classify_amalgam(fam, carrier)
    assert carrier.poset.n == 10
    assert len(rep.loops3) == 0 and len(rep.loops4) == 1
    assert not rep.predicted_lattice and not rep.direct_lattice
    assert rep.direct_sharply
    assert rep.agree
    cover = am.cover_transfer(fam, carrier)
    assert not cover.violations and not cover.exceptions


def _two_block_union_reference(fam, i, j):
    """Blocks i and j pasted as a family of their own: glue their shared
    classes, validate the pair and build it."""
    glue = [[(0, fam.class_of[i].index(c)), (1, fam.class_of[j].index(c))]
            for c in fam.shared(i, j) if c not in (fam.zero, fam.one)]
    sub = am.validate_family([fam.blocks[i], fam.blocks[j]], glue,
                             names=(fam.names[i], fam.names[j]))
    return sub, am.build_amalgam(sub)


def _numbered_by_first_occurrence(fam):
    order = []
    for row in fam.class_of:
        order += [c for c in row if c not in order]
    return order == list(range(len(fam.members)))


FAMILIES = {
    **{f"fixture-{d}": (lambda d=d: gallery.load(f"{d}/family"))
       for d in ("chain", "fig5", "pentagon", "square", "triangle")},
    **{f"cycle-{n}": (lambda n=n: figures.greechie_cycle(n)) for n in (3, 4, 5)},
    "kleene-loop": kleene_loop,
}


@pytest.mark.parametrize("build", FAMILIES.values(), ids=FAMILIES.keys())
def test_two_block_union_matches_a_fresh_pasting(build):
    fam = build()
    assert _numbered_by_first_occurrence(fam)
    for i, j in combinations(range(len(fam.blocks)), 2):
        sub, ref = _two_block_union_reference(fam, i, j)
        assert _numbered_by_first_occurrence(sub)
        got = am.two_block_union(fam, i, j)
        assert (got.poset.labels, got.poset.up, got.inv) == \
            (ref.poset.labels, ref.poset.up, ref.inv)


def test_two_block_unions_are_lattices():
    fam = figures.greechie_cycle(3)
    for i in range(3):
        for j in range(i + 1, 3):
            sub = am.two_block_union(fam, i, j)
            assert sub.poset.is_lattice
            assert O.is_paraorthomodular(sub)


def test_classify_checks_the_pasting_theorem_once_per_two_block_union(monkeypatch):
    fam = FAMILIES["fixture-pentagon"]()
    carrier = am.build_amalgam(fam)
    checked = []

    def counted(o):
        checked.append(o)
        return O.is_paraorthomodular(o)

    monkeypatch.setattr(am, "is_paraorthomodular", counted)
    am.classify_amalgam(fam, carrier)
    # one build_amalgam per block pair, none on the carrier again
    assert len(checked) == len(list(combinations(range(5), 2))) == 10


def test_build_amalgam_raises_when_the_pasting_theorem_fails(monkeypatch):
    fams = [build() for name, build in FAMILIES.items() if name.startswith("fixture-")]
    assert len(fams) == 5
    monkeypatch.setattr(am, "is_paraorthomodular", lambda o: False)
    for fam in fams:
        with pytest.raises(am.PastingViolation, match="not paraorthomodular"):
            am.build_amalgam(fam)


@pytest.mark.parametrize("identify", [
    "identify K1:p K2:p K1:b1\n",
    "identify K1:p K2:p\nidentify K2:p K1:b1\n",
], ids=["one-line", "two-lines"])
def test_same_block_collapse_names_the_block(identify):
    text = "family\nblock K1 K1.poset\nblock K2 K2.poset\n" + identify
    with pytest.raises(am.FamilyError) as err:
        fileformat.build(fileformat.parse(text), basedir=str(FIXTURES / "chain"))
    assert str(err.value) == \
        "bad intersection of blocks K1 and K1: two elements of one block identified"


def test_fig5_cover_anomaly():
    fam = gallery.load("fig5/family")
    carrier = am.build_amalgam(fam)
    rep = am.cover_transfer(fam, carrier)
    assert rep.ok, rep.violations
    p = carrier.poset
    found = False
    for cx, cy, blk, between in rep.exceptions:
        if p.labels[cx] == "a" and p.labels[cy] == "a'":
            found = True
            assert "c" in {p.labels[i] for i in bits(between)}
    assert found


def test_cover_transfer_clean_on_chain():
    fam = gallery.load("chain/family")
    rep = am.cover_transfer(fam, am.build_amalgam(fam))
    assert rep.ok and not rep.exceptions


def test_classification_speed():
    t0 = time.perf_counter()
    for fam in (figures.greechie_cycle(3), figures.greechie_cycle(4),
                gallery.load("chain/family")):
        am.classify_amalgam(fam)
    assert time.perf_counter() - t0 < 5.0


def _kleene_blocks():
    """The 13 Kleene lattices with 6 <= n <= 8."""
    blocks = [o for n in range(6, 9) for o in gallery.ortho_posets(n)
              if O.is_kleene_lattice(o)]
    assert len(blocks) == 13
    return blocks


def _kleene_atoms():
    """(block, atom) over the 13 Kleene lattices with 6 <= n <= 8."""
    atoms = [(b, a) for b in _kleene_blocks() for a in range(b.n)
             if b.poset.covers_pair(b.poset.bottom, a)]
    assert len(atoms) == 21
    return atoms


def _two_block_gluings(onto):
    """Every two-block family of Kleene blocks that validates.

    {a, a'} of one block is glued to {b, b'} of another (or of a copy of
    the same one), a onto b or a onto the coatom b'; unordered pairs.
    """
    for (A, a), (B, b) in combinations_with_replacement(_kleene_atoms(), 2):
        c = b if onto == "atom" else B.inv[b]
        glue = [[(0, a), (1, c)], [(0, A.inv[a]), (1, B.inv[c])]]
        try:
            fam = am.validate_family([A, B], glue, names=("A", "B"))
        except am.FamilyError:
            continue
        yield fam


@pytest.mark.parametrize("onto, accepted", [("atom", 151), ("coatom", 0)])
def test_every_two_block_gluing_that_validates_builds_and_classifies(onto, accepted):
    count = 0
    for fam in _two_block_gluings(onto):
        count += 1
        carrier = am.build_amalgam(fam)
        assert am.classify_amalgam(fam, carrier).agree
        assert am.cover_transfer(fam, carrier).ok
    assert count == accepted


def test_no_kleene_block_has_an_atom_that_is_a_coatom():
    # so no involution fixes a middle class of a shared 4-set
    for b in _kleene_blocks():
        p = b.poset
        atoms = {e for e in range(p.n) if p.covers_pair(p.bottom, e)}
        coatoms = {e for e in range(p.n) if p.covers_pair(e, p.top)}
        assert atoms and coatoms and not atoms & coatoms, b


def _shared_sets_are_sublattices(fam):
    """The number of shared 4-sets; each must be closed under meet and join."""
    count = 0
    for i, j in combinations(range(len(fam.blocks)), 2):
        s = fam.shared(i, j)
        count += len(s) == 4
        for k in (i, j):
            p = fam.blocks[k].poset
            elems = {fam.class_of[k].index(c) for c in s}
            for x, y in combinations(elems, 2):
                assert p.meet(x, y) in elems and p.join(x, y) in elems, (fam.names, k)
    return count


def test_shared_sets_are_sublattices():
    # validate_family relies on this and checks no sublattice itself
    fams = list(_two_block_gluings("atom"))
    assert len(fams) == 151
    assert all(_shared_sets_are_sublattices(fam) == 1 for fam in fams)
    shared = {name: _shared_sets_are_sublattices(gallery.load(f"{name}/family"))
              for name in ("chain", "fig5", "triangle", "square", "pentagon")}
    assert shared == {"chain": 1, "fig5": 1, "triangle": 3, "square": 4, "pentagon": 5}
