from itertools import combinations

import pytest

from paraposet import figures
from paraposet import harness as H
from paraposet import implication as I
from paraposet import ortho as O
from paraposet import relative as R
from paraposet import universe as U
from paraposet.poset import FinitePoset, PosetError, bits

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
        assert gallery.clean(rep), rep.violations


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
    # the statement checks the condition it needs and reports the chain,
    # and the harness never offers it this family: its row 0 is not
    # orthomodular
    with pytest.raises(R.CompatibilityFailed, match=r"chain \(0, 5, 1\)"):
        R.relpara_via_impl_under_C(s)
    assert H.THEOREMS["relpara-under-c"].applies(s.ortho) is False


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


def test_compatible_families_are_the_induced_families_of_orthomodular_structures():
    # relpara-under-c checks only the induced families: poset by poset and
    # in stream order, they are the section families that satisfy C, and
    # each is valid (sections_from_involution validates it) with C
    counts = []
    for n in range(2, 10):
        count = 0
        for p in U.bounded_posets(n):
            compatible = [s.sections for s in U.sectioned_structures(p) if R.check_C(s)[0]]
            induced = [R.sections_from_involution(o) for o in U.ortho_structures(p)
                       if O.is_orthomodular(o)]
            assert all(R.check_C(s) == (True, None) for s in induced)
            assert compatible == [s.sections for s in induced], p
            count += len(induced)
        counts.append(count)
    assert counts == [1, 0, 1, 0, 3, 0, 16, 0]


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
            assert t.cell(x, y) == 1 << s.sections[y][j]
    assert I.antitone_first_arg(t)


def test_i4_needs_joins():
    with pytest.raises(R.NotJoinSemilattice):
        R.impl_I4(gallery.load("fig1a"))


def test_sectioned_repr_names_the_poset_or_its_size():
    p = FinitePoset.from_covers("0a1", [("0", "a"), ("a", "1")], name="chain3")
    rows = [(2, 1, 0), (-1, 2, 1), (-1, -1, 2)]
    assert repr(R.validate_sections(p, rows)) == "SectionedPoset(chain3)"
    p = FinitePoset.from_covers("0a1", [("0", "a"), ("a", "1")])
    assert repr(R.validate_sections(p, rows)) == "SectionedPoset(3)"


def _validate_sections_pairwise(poset, sections):
    # the definition, read pair by pair: every row is an antitone
    # involution of its filter, the first failing y in index order reported
    rows = []
    for x in range(poset.n):
        row = list(sections[x])
        lx = poset.labels[x]
        if len(row) != poset.n:
            raise R.SectionViolation(lx, "row length mismatch")
        for y in range(poset.n):
            inside = poset.leq(x, y)
            if inside != (row[y] >= 0):
                raise R.SectionViolation(lx, f"domain mismatch at {poset.labels[y]}")
            if inside and not (poset.leq(x, row[y]) and row[row[y]] == y):
                raise R.SectionViolation(
                    lx, f"not an involution of the filter at {poset.labels[y]}")
        for y in range(poset.n):
            for z in range(poset.n):
                if poset.leq(x, y) and poset.leq(y, z) and not poset.leq(row[z], row[y]):
                    raise R.SectionViolation(lx, f"not antitone on ({poset.labels[y]}, "
                                                 f"{poset.labels[z]})")
        rows.append(tuple(row))
    return tuple(rows)


def _sections_from_involution_pairwise(o):
    # the definition: z^y = z' v y, each join read from the join table
    p = o.poset
    rows = []
    for x in range(p.n):
        row = [-1] * p.n
        for y in bits(p.up[x]):
            j = p.join(o.inv[y], x)
            if j is None:
                raise I.JoinMissing(f"join of {p.labels[o.inv[y]]} and {p.labels[x]} missing")
            row[y] = j
        rows.append(row)
    return _validate_sections_pairwise(p, rows)


def _outcome(fn, *args):
    """The section rows ``fn`` returns, or the type and text of its error."""
    try:
        res = fn(*args)
    except PosetError as exc:
        return type(exc), str(exc)
    return res if isinstance(res, tuple) else res.sections


def test_induced_sections_match_the_pairwise_definition():
    structures = gallery.reference_orthos()
    outcomes = [_outcome(R.sections_from_involution, o) for o in structures]
    assert outcomes == [_outcome(_sections_from_involution_pairwise, o) for o in structures]
    # a family, a missing join and an induced map that is no section all
    # occur, so the comparison is not vacuous
    assert {out[0] if isinstance(out[0], type) else "family" for out in outcomes} \
        == {"family", I.JoinMissing, R.SectionViolation}


def _altered_rows(s):
    """Copies of the rows of ``s``: with each entry set in turn to every
    value a row may hold and some it may not, and with each row
    conjugated by each transposition of its filter, an involution of the
    filter that need not be antitone."""
    n = s.poset.n
    for x, row in enumerate(s.sections):
        for y in range(n):
            for value in range(-2, n + 1):
                yield x, row[:y] + (value,) + row[y + 1:]
        for y, z in combinations(bits(s.poset.up[x]), 2):
            swap = list(range(n))
            swap[y], swap[z] = z, y
            yield x, tuple(r if r < 0 else swap[row[swap[w]]] for w, r in enumerate(row))


def test_validate_sections_reports_the_pairwise_first_failure():
    # every section family with n <= 5, and fig7s, altered entry by entry
    # and row by row
    families = [s for n in range(2, 6) for s in gallery.sectioned_posets(n)]
    families.append(gallery.load("fig7s"))
    kinds = set()
    for s in families:
        p = s.poset
        for x, row in _altered_rows(s):
            rows = s.sections[:x] + (row,) + s.sections[x + 1:]
            got = _outcome(R.validate_sections, p, rows)
            assert got == _outcome(_validate_sections_pairwise, p, rows), (s, x, row)
            kinds.add(got[1].split(": ")[1].split(" at ")[0].split(" on ")[0]
                      if got[0] is R.SectionViolation else "valid")
        short = [list(row) for row in s.sections]
        short[-1].pop()
        assert _outcome(R.validate_sections, p, short) == (
            R.SectionViolation, f"bad section at {p.labels[-1]}: row length mismatch")
    assert kinds == {"valid", "domain mismatch", "not an involution of the filter",
                     "not antitone"}
