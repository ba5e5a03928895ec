import pytest

from paraposet import adjoint as A
from paraposet import figures
from paraposet import harness as H
from paraposet import implication as I
from paraposet import ortho as O
from paraposet import relative as R
from paraposet import universe as U
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
    for o in U.ortho_posets(n):
        _run_theorems(o, "ortho")
        for build in ORTHO_BUILDS:
            _assert_cached_equals_fresh(o, build)
    for s in U.sectioned_posets(n):
        _run_theorems(s, "sectioned")
        for build in SECTIONED_BUILDS:
            _assert_cached_equals_fresh(s, build)


def test_every_theorem_shares_one_cone_table(monkeypatch):
    # a Boolean algebra meets every hypothesis, the adjoint product included
    o = next(o for o in U.ortho_posets(4) if O.is_boolean_algebra(o))
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
    o = next(o for o in U.ortho_posets(4) if O.is_boolean_algebra(o))
    builds = _count_builds(monkeypatch, "orthomodular_verdicts", (O, H))
    _run_theorems(o, "ortho")
    assert builds == [o]


def test_compatibility_read_once_per_structure(monkeypatch):
    # a structure meeting the hypothesis of relpara-under-c
    s = next(s for s in U.sectioned_posets(4) if R.check_C(s)[0])
    builds = _count_builds(monkeypatch, "check_C", (R,))
    _run_theorems(s, "sectioned")
    assert builds == [s]


def test_orthogonality_read_once_by_hypotheses(monkeypatch):
    o = next(o for o in U.ortho_posets(4) if O.is_boolean_algebra(o))
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
    builds = _count_builds(monkeypatch, "orthogonality_witness", (O, I))
    # fig1a is not orthogonal, so there every table build raises
    structures = [o for n in range(2, 6) for o in U.ortho_posets(n)]
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
