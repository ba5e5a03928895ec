"""The exact text of one violation line of every registered theorem.

No stored report contains a violation, so each case makes its check fail
on one structure and runs the harness over that structure alone. A case
either stubs the statement the check reads (a table or report kept on the
structure, a table column kept on its poset, or a module function) or
offers a structure outside the theorem's hypothesis where one of its
clauses fails. The hypothesis
filter is switched off, so the check always sees the item.
"""

from dataclasses import replace

import pytest

from paraposet import adjoint as A
from paraposet import harness as H
from paraposet import implication as I
from paraposet import ortho as O
from paraposet import relative as R
from paraposet.implication import SetValuedTable
from paraposet.ortho import validate_involution
from paraposet.poset import FinitePoset

import gallery


def _ortho(labels, covers, inv):
    p = FinitePoset.from_covers(labels, covers)
    return validate_involution(p, [p.index(x) for x in inv])


def b2():
    """The four-element Boolean algebra, a and b complements."""
    return _ortho("0ab1", ["0a", "0b", "a1", "b1"], "1ba0")


def b2_fixed():
    """The four-element Boolean lattice with a and b fixed."""
    return _ortho("0ab1", ["0a", "0b", "a1", "b1"], "1ab0")


def chain3():
    return _ortho("0a1", ["0a", "a1"], "1a0")


def hexagon():
    """The benzene ring: an orthogonal lattice, not paraorthomodular."""
    return _ortho(["0", "x", "y'", "y", "x'", "1"],
                  [("0", "x"), ("x", "y"), ("y", "1"),
                   ("0", "y'"), ("y'", "x'"), ("x'", "1")],
                  ["1", "x'", "y", "y'", "x", "0"])


def m3():
    return _ortho("0abc1", ["0a", "0b", "0c", "a1", "b1", "c1"], "1abc0")


def b2_sections():
    return R.sections_from_involution(b2())


def _altered(build, s, x, y, cell):
    """``build(s)`` with cell (x, y) replaced, kept as the structure's table."""
    t = build(s)
    cells = [list(row) for row in t.cells]
    cells[x][y] = cell
    s._memo[build] = SetValuedTable(t.poset, tuple(map(tuple, cells)))
    return s


def _i3_altered(s, x, y, cell):
    """``s`` on a fresh poset whose I3 column y has ``cell`` at x."""
    cols = [list(col) for col in R.impl_I3(s).cols]
    cols[y][x] = cell
    return gallery.with_i3_columns(s, cols)


def _kept(build, s, value):
    """Keep ``value`` on ``s`` as the result of ``build``."""
    s._memo[build] = value
    return s


def _cached(s, name, value):
    """Give the poset of ``s`` a fixed value for a cached property or method."""
    s.poset.__dict__[name] = value
    return s


def _lines(monkeypatch, tid, item):
    th = H.THEOREMS[tid]
    monkeypatch.setitem(H.THEOREMS, tid, replace(th, applies=None))
    p = item[0] if isinstance(item, tuple) else item.poset
    monkeypatch.setattr(H, "bounded_posets", lambda n: [p])
    monkeypatch.setattr(H, "_items", lambda kind, q, invs: [item])
    [res] = H.run_harness(max_n=2, ids=[tid])
    assert res.instances == 1
    return res.violations


def _omidentity(mp):
    # the reflection fits G alone, so the identities hold without adjointness
    mp.setattr(A, "_omidentity_fits", lambda p: {(3, 2, 1, 0): (True, False)})
    return b2().poset, (3, 2, 1, 0)


def _kleene(mp):
    # a distributive lattice whose involution is not regular
    mp.setattr(O, "is_regular", lambda o: True)
    return b2_fixed()


def _orthomodular(build):
    """A case on ``build()`` with every structure read as orthomodular."""
    def make(mp):
        mp.setattr(H, "is_orthomodular", lambda o: True)
        return build()
    return make


def _benzene(mp):
    mp.setattr(O, "paraortho_witness", lambda o: (0, 3))
    return b2()


B2 = "n=4:fd479797"
HEX = "n=6:65434a60"
CHAIN3 = "n=3:34e8dd63"
M3 = "n=5:58359487"

# theorem id -> (item builder taking monkeypatch, expected lines)
CASES = {
    "th1": (lambda mp: _altered(I.impl_I, b2(), 0, 1, 1 << 1), [
        f"{B2} clause ('iii-le', 0, 1)",
        f"{B2} clause ('iii-compl', 0, 1)",
        f"{B2} clause ('iii-perp', 0, 1)",
        f"{B2} clause ('iv', 0, 1)",
        f"{B2} clause ('v', 0, 1)",
        f"{B2} clause ('ii', 0, 1, 1)",
        f"{B2} clause ('iii-le', 0, 1) (elementwise)",
        f"{B2} clause ('iii-perp', 0, 1) (elementwise)",
        f"{B2} clause ('iv', 0, 1) (elementwise)",
        f"{B2} clause ('v', 0, 1) (elementwise)"]),
    "lemma-sharply": (lambda mp: _altered(I.impl_I, b2(), 2, 1, 1 << 3), [
        f"{B2} clause ('i', 1)",
        f"{B2} clause ('ii', 2, 1)",
        f"{B2} clause ('iii', 2, 1)"]),
    "paraortho-iff-impl": (lambda mp: _altered(I.impl_I, b2(), 1, 2, 1 << 3),
                           [f"{B2} verdicts True vs False"]),
    "i2-antitone": (lambda mp: _altered(I.impl_I2, b2(), 0, 0, 1 << 0),
                    [f"{B2} not antitone"]),
    "i1-matches-i2": (lambda mp: _altered(I.impl_I2, b2(), 0, 0, 1 << 0),
                      [f"{B2} cells differ at (0,0)"]),
    "duality": (lambda mp: _altered(I.sasaki_impl, b2(), 1, 2, 1 << 0),
                [f"{B2} duality broken"]),
    "th2": (lambda mp: _i3_altered(b2_sections(), 0, 1, 1 << 0), [
        f"{B2} clause ('i', 0, 1)",
        f"{B2} clause ('ii', 0, 1)",
        f"{B2} clause ('iii-le', 0, 1)",
        f"{B2} clause ('iii-join', 0, 1)",
        f"{B2} clause ('iv', 0, 1)",
        f"{B2} clause ('iv', 0, 1) (elementwise)"]),
    "para-via-i3": (lambda mp: _i3_altered(b2_sections(), 0, 1, 1 << 1),
                    [f"{B2} verdicts True vs False"]),
    # the check induces the family of b2 again, on the altered poset
    "relpara-under-c": (lambda mp: _i3_altered(b2_sections(), 1, 2, 1 << 3).ortho,
                        [f"{B2} verdicts True vs False"]),
    "i4-antitone": (lambda mp: _altered(R.impl_I4, b2_sections(), 0, 0, 1 << 0),
                    [f"{B2} not antitone"]),
    "lemadj": (lambda mp: _kept(A._sasaki_conditions, b2(),
                                A.AdjointnessReport(holds_A=False)),
               [f"{B2} A/B verdicts split"]),
    "aisb": (lambda mp: _kept(A._sasaki_conditions, b2(),
                              A.AdjointnessReport(holds_B12=False)),
             [f"{B2} A/B verdicts split"]),
    "omidentity": (_omidentity, [f"{B2} inv=(3, 2, 1, 0) verdicts True vs False"]),
    "omui": (lambda mp: _kept(O.orthomodular_verdicts, b2(), (True, False, True)),
             [f"{B2} verdicts True/False/True"]),
    "sasom": (lambda mp: _kept(A._sasaki_conditions, b2(),
                               A.AdjointnessReport(holds_A21=False)),
              [f"{B2} verdicts True vs False"]),
    "th3": (lambda mp: _kept(A._mixed_conditions, hexagon(), A.AdjointnessReport()),
            [f"{HEX} condition holds yet not orthomodular"]),
    "posth3": (lambda mp: _kept(A._mixed_conditions, hexagon(), A.AdjointnessReport()),
               [f"{HEX} condition holds yet not orthomodular"]),
    "adji": (lambda mp: _altered(A.cone_adjoint, b2(), 1, 2, 1 << 3), [
        f"{B2} clause ('i', 1)",
        f"{B2} clause ('iii', 1, 2)",
        f"{B2} clause ('iii-bound', 1, 2)"]),
    "adjibp": (lambda mp: _cached(b2(), "is_lattice", False),
               [f"{B2} Boolean poset not a Boolean algebra"]),
    "adjebp": (lambda mp: _kept(A.cone_adjoint, b2(), None),
               [f"{B2} verdicts False vs True"]),
    "om-implies-paraortho": (_orthomodular(hexagon),
                             [f"{HEX} orthomodular but not paraorthomodular"]),
    "weakly-boolean-ba": (_orthomodular(chain3),
                          [f"{CHAIN3} weakly Boolean orthomodular yet not Boolean"]),
    "kleene-ortho-remark": (_kleene, [
        f"{B2} zero meet without orthogonality at (a, b)",
        f"{B2} zero meet without orthogonality at (b, a)"]),
    "benzene-equiv": (_benzene,
                      [f"{B2} paraorthomodularity witness has fewer than six elements"]),
    "distributive-variants": (lambda mp: _cached(b2(), "is_distributive", False),
                              [f"{B2} predicate false yet every variant holds"]),
    "nary-distributivity": (lambda mp: _cached(m3(), "is_distributive", True),
                            [f"{M3} n-ary identity fails at (0, 1, 2),3"]),
    "completeness-finite": (lambda mp: _cached(b2(), "has_maximality", lambda: False),
                            [f"{B2} finite poset fails a completeness predicate"]),
}


def test_every_theorem_has_a_case():
    assert sorted(CASES) == sorted(H.THEOREMS)


@pytest.mark.parametrize("tid", sorted(CASES))
def test_violation_line(monkeypatch, tid):
    build, expected = CASES[tid]
    assert _lines(monkeypatch, tid, build(monkeypatch)) == expected


def _sweep():
    """``{theorem: (instances, violations)}`` over every structure with n <= 6."""
    return {r.theorem: (r.instances, r.violations) for r in H.run_harness(max_n=6)}


def _only_changed(clean, failing, tid):
    """The violation lines of ``tid``, once every other result equals ``clean``."""
    assert failing.keys() == clean.keys()
    assert failing[tid][0] == clean[tid][0] and clean[tid][1] == []
    assert {k: v for k, v in failing.items() if k != tid} == \
        {k: v for k, v in clean.items() if k != tid}
    return failing[tid][1]


def test_a_failing_min_u_reading_is_reported_by_omui_alone(monkeypatch):
    clean = _sweep()
    monkeypatch.setattr(O, "om_u_identity", lambda o: False)
    lines = _only_changed(clean, _sweep(), "omui")
    # one line per orthomodular structure, where the direct reading holds
    assert len(lines) == 5
    assert all(line.endswith(" verdicts True/False/False") for line in lines)


def test_a_failing_adjoint_consequence_is_reported_by_adji_alone(monkeypatch):
    clean = _sweep()
    consequences = A.adji_consequences

    def failing(o, prod):
        rep = consequences(o, prod)
        rep.violations.append(("injected",))
        return rep

    monkeypatch.setattr(A, "adji_consequences", failing)
    lines = _only_changed(clean, _sweep(), "adji")
    # one line per structure with an adjoint product: the Boolean algebras
    # with 2 and 4 elements
    assert [line.split(" ", 1)[1] for line in lines] == ["clause ('injected',)"] * 2
