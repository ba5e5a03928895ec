import pathlib
from collections import Counter

import pytest

from paraposet import adjoint as A
from paraposet import amalgam as AM
from paraposet import figures, fileformat
from paraposet import harness as H
from paraposet import implication as I
from paraposet import ortho as O
from paraposet import relative as R
from paraposet.poset import PosetError, bits

import gallery


def cell_labels(table, x, y):
    p = table.poset
    return sorted(p.labels[i] for i in bits(table.cell(x, y)))


def test_requires_orthogonality():
    with pytest.raises(I.NotOrthogonal):
        I.impl_I(gallery.ortho("fig1a"))


def test_th1_clean_on_examples():
    for name in ("fig2a", "fig2b", "fig3", "fig5", "fig8"):
        rep = I.check_th1(gallery.ortho(name))
        assert rep.ok, rep.violations


def _th1_cells(o):
    """The join and meet cells that check_th1 reads, as (name, x, y, cell)."""
    p, inv, joins, meets = o.poset, o.inv, o.poset.joins, o.poset.meets
    for y in range(p.n):
        yi = inv[y]
        yield "y v y'", y, y, joins[y][yi]
        for x in bits(p.down[yi]):
            m = meets[inv[x]][yi]
            yield "x' ^ y' (x <= y')", x, y, m
            if m is not None:
                yield "y v (x' ^ y') (x <= y')", x, y, joins[y][m]
        for x in bits(p.up[y]):
            yield "y v x' (y <= x)", x, y, joins[y][inv[x]]
        for b in bits(p.up[y]):
            m = meets[yi][b]
            yield "y' ^ b (b >= y)", b, y, m
            if m is not None:
                yield "y v (y' ^ b) (b >= y)", b, y, joins[y][m]
        for m in bits(p.down[yi]):
            yield "y v m (m <= y')", m, y, joins[y][m]


def _fixture_structures():
    """Every ortho structure a fixture file gives: the figures, the global
    involutions of the section files, the blocks and the carriers."""
    out = []
    for path in sorted(gallery.FIXTURES.rglob("*.poset")):
        obj = fileformat.load(str(path))
        if isinstance(obj, AM.PastedFamily):
            obj = AM.build_amalgam(obj)
        elif isinstance(obj, R.SectionedPoset):
            obj = obj.ortho
        out.append(obj)
    return out


def test_orthogonality_defines_every_cell_th1_reads():
    # the argument of check_th1's docstring, checked without check_th1
    structures = [o for n in range(2, 9) for o in gallery.ortho_posets(n)]
    structures += _fixture_structures()
    orthogonal = 0
    for o in structures:
        missing = [c[:3] for c in _th1_cells(o) if c[3] is None]
        if O.is_orthogonal_poset(o):
            orthogonal += 1
            assert missing == [], (o, missing)
        else:
            # the cells include y v m for every m orthogonal to y
            assert missing, o
    assert orthogonal == 237 + 29


def _om_u_identity_reference(o):
    # ortho.om_u_identity before it required orthogonality: a missing
    # meet or join fails both readings
    p, inv = o.poset, o.inv
    meets, joins, minus = p.meets, p.joins, p.min_upper
    literal = True
    for x in range(p.n):
        meet_xi, join_x = meets[inv[x]], joins[x]
        for y in range(p.n):
            minu = minus[x][y]
            lhs = 0
            for w in bits(minu):
                m = meet_xi[w]
                j = None if m is None else join_x[m]
                if j is None:
                    return False, False
                lhs |= 1 << j
            if lhs != minu:
                if not p._approx2(lhs, minu):
                    return False, False
                literal = False
    return literal, True


def test_om_u_identity_matches_the_reference_on_orthogonal_structures():
    structures = [o for n in range(2, 9) for o in gallery.ortho_posets(n)]
    structures += [fileformat.load(str(path))
                   for path in sorted(NONLATTICES_N10.glob("*.poset"))]
    structures += _fixture_structures()
    verdicts = Counter()
    for o in structures:
        if O.is_orthogonal_poset(o):
            got = O.om_u_identity(o)
            assert got == _om_u_identity_reference(o), o
            verdicts[got] += 1
        else:
            with pytest.raises(I.NotOrthogonal):
                O.om_u_identity(o)
    # both verdicts occur among the 237 + 8 + 29 orthogonal structures
    assert verdicts == {(True, True): 39, (False, False): 235}


def test_statements_checked_only_by_their_theorems_hold_on_the_fixtures():
    # is_orthomodular, adjebp_equiv and validate_family leave these
    # statements to the theorems that register them
    structures = _fixture_structures()
    assert len(structures) == 33
    for tid in ("omui", "adji", "adjibp", "adjebp", "kleene-ortho-remark"):
        th = H.THEOREMS[tid]
        for o in structures:
            if th.applies is None or th.applies(o):
                assert th.check(o) == [], (tid, o)
    # every hypothesis holds on some of them
    orthogonal = [o for o in structures if O.is_orthogonal_poset(o)]
    assert len(orthogonal) == 29
    assert sum(I.cached(o, A.cone_adjoint) is not None for o in orthogonal) == 15
    assert sum(A.adjibp_check(o) is not None for o in structures) == 15
    assert sum(map(O.is_kleene_lattice, structures)) == 18


NONLATTICES_N10 = pathlib.Path(__file__).resolve().parent / "data" / "ortho-nonlattice-n10"


def test_every_ortho_theorem_holds_on_the_orthogonal_non_lattices_at_n10():
    # the first orthogonal structures of the sweep that are not lattices;
    # CI checks that the files are exactly those of bounded_posets(10)
    structures = [fileformat.load(str(path))
                  for path in sorted(NONLATTICES_N10.glob("*.poset"))]
    assert len(structures) == 8
    applied = Counter()
    for o in structures:
        assert O.is_orthogonal_poset(o) and not o.poset.is_lattice
        for th in H.THEOREMS.values():
            if th.stream == "ortho" and (th.applies is None or th.applies(o)):
                applied[th.id] += 1
                assert th.check(o) == [], (th.id, o)
    # every ortho theorem but the four stated for lattices
    lattice_only = {"i1-matches-i2", "i2-antitone", "lemadj", "th3"}
    assert applied == {tid: 2 if tid == "lemma-sharply" else 8
                       for tid, th in H.THEOREMS.items()
                       if th.stream == "ortho" and tid not in lattice_only}


def test_sharp_collapse_laws():
    for name in ("fig2a", "fig2b", "fig8"):
        rep = I.check_lemma_sharply(gallery.ortho(name))
        assert rep.ok, rep.violations


def test_unit_law_characterization():
    assert I.paraortho_iff_impl(gallery.ortho("fig2a")) == (True, True, True)
    direct, law, agree = I.paraortho_iff_impl(gallery.ortho("fig4"))
    assert (direct, law, agree) == (False, False, True)


def test_set_and_lattice_forms_agree_on_lattices():
    for o in (gallery.ortho("fig2a"), gallery.ortho("fig3"), figures.boolean_cube()):
        t1, t2 = I.impl_I(o), I.impl_I2(o)
        assert all(t1.cell(x, y) == t2.cell(x, y)
                   for x in range(o.n) for y in range(o.n))


def test_lattice_form_needs_lattice():
    with pytest.raises(I.NotALattice):
        I.impl_I2(gallery.ortho("fig2b"))


def test_cube_sasaki_is_classical():
    o = figures.boolean_cube()
    p = o.poset
    t = I.sasaki_impl(o)
    for x in range(p.n):
        for y in range(p.n):
            assert t.cell(x, y) == 1 << p.join(o.inv[x], y)


def test_sasaki_product_below_both_arguments():
    o = gallery.ortho("fig2a")
    p = o.poset
    t = I.sasaki_proj(o)
    for x in range(p.n):
        for y in range(p.n):
            for z in bits(t.cell(x, y)):
                assert p.leq(z, y)


def test_duality_with_sasaki():
    for o in (gallery.ortho("fig2a"), gallery.ortho("fig2b"), gallery.ortho("fig3"),
              figures.boolean_cube()):
        assert I.duality_check(o)


def test_antitone_in_first_argument():
    assert I.antitone_first_arg(I.impl_I2(gallery.ortho("fig2a")))
    assert I.antitone_first_arg(I.impl_I2(figures.boolean_cube()))


def test_unit_row_and_diagonal():
    o = gallery.ortho("fig2a")
    p = o.poset
    t = I.impl_I(o)
    for x in range(p.n):
        assert t.cell(x, x) == 1 << p.join(x, o.inv[x])
        assert t.cell(x, p.top) == 1 << p.top
        assert t.cell(p.top, x) == 1 << x


# -- tables and reports built once per structure ----------------------

ORTHO_BUILDS = (I.impl_I, I.impl_I2, I.sasaki_proj, I.sasaki_impl,
                A._sasaki_conditions, A._mixed_conditions, A.cone_adjoint)
SECTIONED_BUILDS = (R.impl_I3, R.impl_I4)


def _run_theorems(s, stream):
    for th in H.THEOREMS.values():
        if th.stream == stream and (th.applies is None or th.applies(s)):
            th.check(s)


def _assert_cached_equals_fresh(s, build):
    try:
        fresh = build(s)
    except PosetError as exc:
        with pytest.raises(type(exc)):
            I.cached(s, build)
        assert build not in s._memo
        return
    assert I.cached(s, build) == fresh
    assert I.cached(s, build) is I.cached(s, build)


@pytest.mark.parametrize("n", range(2, 6))
def test_cached_results_equal_fresh_builds(n):
    # fill the caches the way a sweep does, then rebuild every entry
    for o in gallery.ortho_posets(n):
        _run_theorems(o, "ortho")
        for build in ORTHO_BUILDS:
            _assert_cached_equals_fresh(o, build)
    for s in gallery.sectioned_posets(n):
        _run_theorems(s, "sectioned")
        for build in SECTIONED_BUILDS:
            _assert_cached_equals_fresh(s, build)


def test_every_theorem_shares_one_cone_table(monkeypatch):
    # a Boolean algebra meets every hypothesis, the adjoint product included
    o = next(o for o in gallery.ortho_posets(4) if O.is_boolean_algebra(o))
    builds = []
    impl_I = I.impl_I

    def counted(s):
        builds.append(s)
        return impl_I(s)

    for mod in (I, A, H):
        if getattr(mod, "impl_I", None) is impl_I:
            monkeypatch.setattr(mod, "impl_I", counted)
    _run_theorems(o, "ortho")
    assert A.cone_adjoint(o) is not None
    assert builds == [o]


def _count_builds(monkeypatch, name, modules):
    builds = []
    build = getattr(modules[0], name)

    def counted(s):
        builds.append(s)
        return build(s)

    for mod in modules:
        monkeypatch.setattr(mod, name, counted)
    return builds


def test_orthomodularity_read_once_per_structure(monkeypatch):
    o = next(o for o in gallery.ortho_posets(4) if O.is_boolean_algebra(o))
    verdicts = _count_builds(monkeypatch, "orthomodular_verdicts", (O, H))
    witnesses = _count_builds(monkeypatch, "orthomodular_witness", (O,))
    _run_theorems(o, "ortho")
    assert verdicts == [o]
    assert witnesses == [o]


def test_compatibility_read_once_per_structure(monkeypatch):
    # a structure meeting the hypothesis of relpara-under-c
    s = next(s for s in gallery.sectioned_posets(4) if R.check_C(s)[0])
    builds = _count_builds(monkeypatch, "check_C", (R,))
    _run_theorems(s, "sectioned")
    assert builds == [s]


def test_orthogonality_read_once_by_hypotheses(monkeypatch):
    o = next(o for o in gallery.ortho_posets(4) if O.is_boolean_algebra(o))
    builds = _count_builds(monkeypatch, "orthogonality_witness", (O,))
    for th in H.THEOREMS.values():
        if th.stream == "ortho" and th.applies is not None:
            th.applies(o)
    assert builds == [o]


def test_failed_builds_are_not_cached():
    o = gallery.ortho("fig1a")
    for _ in range(2):
        with pytest.raises(I.NotOrthogonal):
            I.check_th1(o)
        with pytest.raises(I.NotOrthogonal):
            A.lemma_AB_equiv(o)
        with pytest.raises(I.NotOrthogonal):
            A.th3_check(o)
    # the memo keeps the orthogonality witness the builds read, and no table
    assert o._memo == {O.orthogonality_witness: (1, 2)}


def test_orthogonality_witness_built_once_per_structure(monkeypatch):
    # the table builders read the witness that the hypotheses read
    builds = _count_builds(monkeypatch, "orthogonality_witness", (O,))
    # fig1a is not orthogonal, so there every table build raises
    structures = [o for n in range(2, 6) for o in gallery.ortho_posets(n)]
    structures += [gallery.ortho("fig1a"), gallery.ortho("fig2b")]
    tables = (I.impl_I, I.sasaki_proj, I.sasaki_impl)
    for o in structures:
        _run_theorems(o, "ortho")
        for build in tables:
            try:
                I.cached(o, build)
            except I.NotOrthogonal:
                assert build not in o._memo
    assert builds == structures
    assert not O.is_orthogonal_poset(structures[-2])
