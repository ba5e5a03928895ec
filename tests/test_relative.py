import pytest

from paraposet import figures
from paraposet import harness as H
from paraposet import implication as I
from paraposet import relative as R
from paraposet import universe as U
from paraposet.poset import FinitePoset, bits

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


def test_compatibility_fails_where_a_join_is_missing():
    # an n = 10 non-lattice with 2,560 section families; on 256 of them
    # the first chain x <= y <= z that breaks z^y = z^x v y is one where
    # the join z^x v y is missing
    up = (1023, 514, 516, 520, 528, 558, 598, 666, 796, 512)
    p = FinitePoset(["0"] + [f"e{i}" for i in range(1, 9)] + ["1"], up)
    families = list(U.sectioned_structures(p))
    assert len(families) == 2560
    missing = [s for s in families if not R.check_C(s)[0]
               and _first_broken_join(s) is None]
    assert len(missing) == 256
    s = missing[0]
    assert s is families[2304]
    assert R.check_C(s) == (False, (0, 5, 1))
    assert p.joins[s.sections[0][1]][5] is None
    # relpara-under-c reads the failed condition as an unmet hypothesis
    assert H.THEOREMS["relpara-under-c"].applies(s) is False


def _first_broken_join(s):
    """z^x v y on the first chain x <= y <= z where z^y = z^x v y fails."""
    p = s.poset
    for x in range(p.n):
        for y in bits(p.up[x]):
            for z in bits(p.up[y]):
                j = p.joins[s.sections[x][z]][y]
                if j != s.sections[y][z]:
                    return j
    return None


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
