import pytest

from paraposet import figures
from paraposet import implication as I
from paraposet import relative as R
from paraposet.poset import bits

import gallery


EXPECTED_I3_FIG1A = {
    "0": {"0": {"1"}, "a": {"1"}, "b": {"1"}, "a'": {"1"}, "b'": {"1"}, "1": {"1"}},
    "a": {"0": {"a'"}, "a": {"1"}, "b": {"a'", "b'"}, "a'": {"1"},
          "b'": {"1"}, "1": {"1"}},
    "b": {"0": {"b'"}, "a": {"a'", "b'"}, "b": {"1"}, "a'": {"1"},
          "b'": {"1"}, "1": {"1"}},
    "a'": {"0": {"a"}, "a": {"b'"}, "b": {"b'"}, "a'": {"1"},
           "b'": {"b'"}, "1": {"1"}},
    "b'": {"0": {"b"}, "a": {"a'"}, "b": {"a'"}, "a'": {"a'"},
           "b'": {"1"}, "1": {"1"}},
    "1": {"0": {"0"}, "a": {"a"}, "b": {"b"}, "a'": {"a'"},
          "b'": {"b'"}, "1": {"1"}},
}


def labels_of(p, mask):
    return {p.labels[i] for i in bits(mask)}


def test_i3_table_cell_for_cell():
    s = gallery.load("fig1a")
    p = s.poset
    t = R.impl_I3(s)
    for rx in p.labels:
        for cy in p.labels:
            got = labels_of(p, t.cell(p.index(rx), p.index(cy)))
            assert got == EXPECTED_I3_FIG1A[rx][cy], (rx, cy, got)


def test_section_validation_rejects_broken_row():
    s = gallery.load("fig1a")
    rows = [list(r) for r in s.sections]
    a = s.poset.index("a")
    rows[a][a] = a  # a^a must be the top of the filter
    with pytest.raises(R.SectionViolation):
        R.validate_sections(s.poset, rows)


def test_elementary_laws_hold():
    for name in ("fig1a", "fig8"):
        rep = R.check_th2(gallery.load(name))
        assert rep.ok, rep.violations


def test_global_characterization():
    assert R.para_via_I3(gallery.load("fig1a")) == (True, True, True)
    direct, law, agree = R.para_via_I3(gallery.load("fig7s"))
    assert (direct, law, agree) == (False, False, True)


def test_relative_paraorthomodularity():
    assert R.is_relatively_paraorthomodular(gallery.load("fig1a"))
    assert R.is_relatively_paraorthomodular(gallery.load("fig8"))
    assert not R.is_relatively_paraorthomodular(gallery.load("fig7s"))
    w = R.relative_paraortho_witness(gallery.load("fig7s"))
    assert w is not None


def test_compatibility_fails_on_examples():
    ok, w = R.check_C(gallery.load("fig1a"))
    assert (ok, w) == (False, (0, 1, 1))
    ok, w = R.check_C(gallery.load("fig8"))
    assert (ok, w) == (False, (0, 4, 4))


def test_compatibility_holds_on_cube():
    s = R.sections_from_involution(figures.boolean_cube())
    ok, _ = R.check_C(s)
    assert ok
    direct, law, agree = R.relpara_via_impl_under_C(s)
    assert agree and direct


def test_join_semilattice_form_on_cube():
    o = figures.boolean_cube()
    s = R.sections_from_involution(o)
    p = o.poset
    t = R.impl_I4(s)
    for x in range(p.n):
        for y in range(p.n):
            j = p.join(x, y)
            assert t.cell(x, y) == 1 << s.sec(y, j)
    assert I.antitone_first_arg(t)


def test_i4_needs_joins():
    with pytest.raises(R.NotJoinSemilattice):
        R.impl_I4(gallery.load("fig1a"))
