import pytest

from paraposet import amalgam as am, figures, fileformat
from paraposet import ortho as O
from paraposet.poset import FinitePoset, PosetError

import gallery
from gallery import FIXTURES


def test_validate_involution_rejects_monotone():
    p = figures.boolean_cube().poset
    with pytest.raises(PosetError):
        O.validate_involution(p, tuple(range(p.n)))


def test_figure_profiles_weak_side():
    # the three six-element posets with a proper involution but no joins
    for name in ("fig1a", "fig1b", "fig1c"):
        o = gallery.ortho(name)
        assert O.is_paraorthomodular(o)
        assert not O.is_orthomodular(o)
        assert not O.is_sharply_paraorthomodular(o)


def test_figure_profiles_sharp_side():
    a, b = gallery.ortho("fig2a"), gallery.ortho("fig2b")
    assert O.is_sharply_paraorthomodular(a) and a.poset.is_lattice
    assert O.is_sharply_paraorthomodular(b) and not b.poset.is_lattice
    assert not O.is_orthomodular(b)
    assert O.is_sharply_paraorthomodular(gallery.ortho("fig3"))
    assert gallery.ortho("fig3").poset.is_lattice


def test_hexagon_kills_paraorthomodularity():
    o = gallery.ortho("fig4")
    assert o.poset.is_lattice
    assert not O.is_paraorthomodular(o)
    w = O.find_benzene(o)
    assert w is not None
    x, y = w
    p = o.poset
    assert p.lt(x, y)
    assert p.lower_cone((1 << o.inv[x]) | (1 << y)) == 1 << p.bottom


def test_no_hexagon_in_sharp_examples():
    assert O.find_benzene(gallery.ortho("fig2a")) is None
    assert O.find_benzene(gallery.ortho("fig3")) is None


def test_fig7_witness():
    o = gallery.ortho("fig7")
    assert o.poset.is_lattice
    assert O.paraortho_witness(o) == (o.poset.index("a"), o.poset.index("b'"))


def test_orthomodular_witness_fig2b():
    o = gallery.ortho("fig2b")
    p = o.poset
    assert O.orthomodular_witness(o) == (p.index("b"), p.index("d'"))
    assert not O.om_law_holds(o, p.index("b"), p.index("d'"))


def test_cube_is_boolean():
    o = figures.boolean_cube()
    assert O.is_orthomodular(o)
    assert O.is_boolean_poset(o)
    assert O.is_boolean_algebra(o)
    assert O.is_weakly_boolean(o)
    assert all(v == O.is_orthomodular(o) for v in O.orthomodular_verdicts(o))


def test_kleene_block():
    o = gallery.kleene_k3b2("a", "b")
    assert O.is_kleene_lattice(o)
    assert O.is_regular(o)
    assert not O.is_orthomodular(o)


def test_kleene_lattices_counted_per_n():
    # every distributive lattice with an antitone involution is
    # paraorthomodular, so is_kleene_lattice does not test it; the
    # regular ones are the Kleene lattices
    distributive, kleene = [], []
    for n in range(2, 10):
        structures = list(gallery.ortho_posets(n))
        lattices = [o for o in structures
                    if o.poset.is_lattice and o.poset.is_distributive]
        assert all(map(O.is_paraorthomodular, lattices))
        distributive.append(len(lattices))
        kleene.append(sum(map(O.is_kleene_lattice, structures)))
    assert distributive == [1, 1, 3, 1, 4, 3, 12, 7]
    assert kleene == [1, 1, 2, 1, 3, 3, 7, 6]


def test_regularity_undefined_without_meets():
    # layered bowtie: x and y share two maximal lower bounds, so x meet x'
    # does not exist once the involution swaps them
    from paraposet.poset import FinitePoset
    p = FinitePoset.from_covers(
        ["0", "p", "q", "x", "y", "u", "v", "1"],
        [("0", "p"), ("0", "q"), ("p", "x"), ("p", "y"), ("q", "x"),
         ("q", "y"), ("x", "u"), ("x", "v"), ("y", "u"), ("y", "v"),
         ("u", "1"), ("v", "1")])
    inv = [p.index(l) for l in ("1", "u", "v", "y", "x", "p", "q", "0")]
    o = O.validate_involution(p, inv)
    # the error names x and its involute, the first pair without a meet
    with pytest.raises(O.UndefinedTerm, match=r"absent for \(x, y\)$"):
        O.is_regular(o)


def test_predicate_registry_consistent():
    o = gallery.ortho("fig2a")
    assert O.PREDICATES["sharply-paraorthomodular"](o)
    assert O.PREDICATES["lattice"](o)
    assert not O.PREDICATES["orthomodular"](o)
    assert set(O.PREDICATES) >= {
        "lattice", "distributive", "orthogonal", "paraorthomodular",
        "sharply-paraorthomodular", "orthomodular", "kleene-lattice"}


def _regular_pairwise(o):
    # the definition: x ^ x' <= y v y' for every pair x, y
    p = o.poset
    terms = []
    for x in range(p.n):
        m, j = p.meet(x, o.inv[x]), p.join(x, o.inv[x])
        if m is None or j is None:
            return "undefined"
        terms.append((m, j))
    return all(p.leq(m, j) for m, _ in terms for _, j in terms)


def _regular(o):
    try:
        return O.is_regular(o)
    except O.UndefinedTerm:
        return "undefined"


def test_regularity_matches_the_pairwise_definition():
    structures = [o for n in range(2, 9) for o in gallery.ortho_posets(n)]
    structures += [am.build_amalgam(fileformat.load(str(path)))
                   for path in sorted(FIXTURES.glob("*/family.poset"))]
    verdicts = [_regular(o) for o in structures]
    assert verdicts == [_regular_pairwise(o) for o in structures]
    # each outcome occurs, so the comparison is not vacuous
    assert {True, False, "undefined"} <= set(verdicts)


# -- validation and repr -------------------------------------------------

def _chain3(name="chain3"):
    return FinitePoset.from_covers("0a1", [("0", "a"), ("a", "1")], name=name)


@pytest.mark.parametrize("inv", [(2, 1), (2, 1, 0, 1), (2, 1, 3), (-1, 1, 0), (2, -2, 0)])
def test_validate_involution_rejects_a_map_of_the_wrong_length_or_range(inv):
    # each of these fails the length check or one end of the range check
    # alone; with that check gone it raises some other error or none
    with pytest.raises(O.InvolutionError, match="must be a total self-map"):
        O.validate_involution(_chain3(), inv)


def test_ortho_repr_names_the_poset_or_its_size():
    assert repr(O.validate_involution(_chain3(), (2, 1, 0))) == "OrthoPoset(chain3)"
    assert repr(O.validate_involution(_chain3(""), (2, 1, 0))) == "OrthoPoset(3)"
