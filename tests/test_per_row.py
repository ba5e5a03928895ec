"""The row-at-a-time tables and the per-row section checks against the
cell-by-cell and family-by-family bodies they replace.

The references below are those bodies: each table cell by one call,
each statement read over one whole family. The new paths must equal
them on every ortho structure with n <= 8, every sectioned structure
with n <= 9 and the fixtures. The families of one poset are checked one
after another, as the harness sees them, so an entry kept on the poset
for one family is read back by the next, and a memo keyed too coarsely
hands a family another family's result.
"""

import random
from collections import Counter

import pytest

from paraposet import amalgam as AM
from paraposet import figures
from paraposet import implication as I
from paraposet import poset as P
from paraposet import relative as R
from paraposet.ortho import OrthoPoset, is_orthogonal_poset, paraortho_witness
from paraposet.poset import FinitePoset, PosetError, bits
from paraposet import universe as U

import gallery
from test_relabelling import _relabelled_poset, _relabelled_row, _relabelling


# -- the cell-by-cell and family-by-family references ------------------

def _table(p, cell):
    """The table of ``p`` whose (x, y) cell is ``cell(x, y)``."""
    r = range(p.n)
    return I.SetValuedTable(p, tuple(tuple(cell(x, y) for y in r) for x in r))


def _image(row, mask):
    out = 0
    for b in bits(mask):
        out |= 1 << row[b]
    return out


def _lift(t, a, y):
    out = 0
    for x in bits(a):
        out |= t.cells[x][y]
    return out


def _impl_I(o):
    I._require_orthogonal(o)
    p, inv, maxl = o.poset, o.inv, o.poset.max_lower
    return _table(p, lambda x, y: _image(p.joins[y], maxl[inv[x]][inv[y]]))


def _impl_I2(o):
    p, inv = o.poset, o.inv
    if not p.is_lattice:
        raise I.NotALattice("the (I2) operator needs a lattice")
    return _table(p, lambda x, y: 1 << p.joins[y][p.meets[inv[x]][inv[y]]])


def _sasaki_proj(o):
    I._require_orthogonal(o)
    p, inv, minu = o.poset, o.inv, o.poset.min_upper
    return _table(p, lambda x, y: _image(p.meets[y], minu[x][inv[y]]))


def _sasaki_impl(o):
    I._require_orthogonal(o)
    p, inv, maxl = o.poset, o.inv, o.poset.max_lower
    return _table(p, lambda x, y: _image(p.joins[inv[x]], maxl[x][y]))


def _impl_I3(s):
    p, sec, minu = s.poset, s.sections, s.poset.min_upper
    return _table(p, lambda x, y: _image(sec[y], minu[x][y]))


def _impl_I4(s):
    p, sec = s.poset, s.sections

    def cell(x, y):
        j = p.joins[x][y]
        if j is None:
            raise R.NotJoinSemilattice(f"join of {p.labels[x]} and {p.labels[y]} missing")
        return 1 << sec[y][j]
    return _table(p, cell)


def _le1(t):
    """``le1[y][x]`` by the O(n^3) scan: the z whose cell t(y, z) meets up[x]."""
    return tuple(tuple(sum(1 << z for z, c in enumerate(row) if c & up_x)
                       for up_x in t.poset.up)
                 for row in t.cells)


def _duality_check(o):
    ti, ts = I.cached(o, I.impl_I), I.cached(o, I.sasaki_impl)
    return all(ti.cell(x, y) == ts.cell(o.inv[y], o.inv[x])
               for x in range(o.n) for y in range(o.n))


def _check_lemma_sharply(o):
    t = I.cached(o, I.impl_I)
    p = o.poset
    zero = 1 << p.bottom
    rep = I.TheoremReport("lemma-sharply")
    for b in range(p.n):
        bi = o.inv[b]
        if t.cell(bi, b) != 1 << b:
            rep.violations.append(("i", b))
        for a in range(p.n):
            if p.leq(a, bi) and p.down[b] & p.down[bi] == zero:
                is_b = t.cell(a, b) == 1 << b
                if is_b != (a == bi):
                    rep.violations.append(("ii", a, b))
            if t.cell(a, b) == 1 << p.top and not p.leq(a, b):
                rep.violations.append(("iii", a, b))
    return rep


def _relative_paraortho_witness(s):
    p = s.poset
    for x in range(p.n):
        filt = p.up[x]
        for y in bits(filt):
            yi = s.sections[x][y]
            for z in bits(p.up[y] & ~(1 << y)):
                if p.down[yi] & p.down[z] & filt == 1 << x:
                    return (x, y, z)
    return None


def _check_th2(s):
    t = I.cached(s, R.impl_I3)
    p = s.poset
    rep = I.TheoremReport("th2")
    up, joins, min_upper, sec = p.up, p.joins, p.min_upper, s.sections
    one = 1 << p.top
    for x, row in enumerate(t.cells):
        for y, cell in enumerate(row):
            le = up[x] >> y & 1
            if cell & ~up[y]:
                rep.violations.append(("i", x, y))
            if (cell == one) != le:
                rep.violations.append(("ii", x, y))
            if le and cell != one:
                rep.violations.append(("iii-le", x, y))
            j = joins[x][y]
            if j is not None and cell != 1 << sec[y][j]:
                rep.violations.append(("iii-join", x, y))
            if up[y] >> x & 1 and cell != 1 << sec[y][x]:
                rep.violations.append(("iii-ge", x, y))
            lhs = _lift(t, cell, y)
            rep.identity(p, "iv", lhs, min_upper[x][y], x, y)
            rep.identity(p, "v", _lift(t, lhs, y), cell, x, y)
    return rep


def _para_via_I3(s):
    t = I.cached(s, R.impl_I3)
    p = s.poset
    g = s.sections[p.bottom]
    direct = paraortho_witness(s.ortho) is None
    law = all(x == g[y]
              for x in range(p.n) for y in range(p.n)
              if p.leq(x, g[y]) and t.cell(x, y) == 1 << y)
    return direct, law, direct == law


# -- helpers ------------------------------------------------------------

def _outcome(build, s):
    """``build(s)``, or the type and text of the PosetError it raises."""
    try:
        return build(s)
    except PosetError as exc:
        return type(exc), str(exc)


def _cells(outcome):
    return outcome.cells if isinstance(outcome, I.SetValuedTable) else outcome


def _report(rep):
    return rep.violations, rep.violations_elementwise


def _perturbed(t, rng):
    """``t`` with one cell, drawn by ``rng``, set to another nonempty mask."""
    n = t.poset.n
    x, y = rng.randrange(n), rng.randrange(n)
    cell = t.cells[x][y]
    while cell == t.cells[x][y]:
        cell = rng.randrange(1, 1 << n)
    cells = [list(row) for row in t.cells]
    cells[x][y] = cell
    return I.SetValuedTable(t.poset, tuple(map(tuple, cells)))


_FIXTURE_ORTHO = ("cube", "fig1b", "fig1c", "fig2a", "fig2b", "fig3", "fig4",
                  "fig5", "fig7", "fig8")
_FIXTURE_SECTIONED = ("fig1a", "fig7s", "fig8")

_ORTHO_BUILDS = ((I.impl_I, _impl_I), (I.impl_I2, _impl_I2),
                 (I.sasaki_proj, _sasaki_proj), (I.sasaki_impl, _sasaki_impl))


def _fixture_ortho():
    """The ortho figures and the amalgam carriers of the fixture families."""
    out = [gallery.ortho(name) for name in _FIXTURE_ORTHO]
    out.append(figures.boolean_cube())
    for d in ("chain", "fig5", "pentagon", "square", "triangle"):
        out.append(AM.build_amalgam(gallery.load(f"{d}/family")))
    return out


def _fixture_sectioned():
    out = [gallery.load(name) for name in _FIXTURE_SECTIONED]
    return out + [R.sections_from_involution(figures.boolean_cube())]


# -- ortho tables -------------------------------------------------------

def _lift_reference(col, a):
    """implication._lift, the union extension of column ``col`` over ``a``,
    before poset.union replaced it."""
    if a & (a - 1) == 0:
        return col[a.bit_length() - 1] if a else 0
    out = 0
    for x in bits(a):
        out |= col[x]
    return out


def test_image_and_lift_match_their_loops_on_every_mask():
    # the empty mask maps to the empty set, a singleton to one lookup
    rng = random.Random(8)
    row = tuple(rng.sample(range(8), 8))
    col = tuple(rng.randrange(1 << 8) for _ in range(8))
    for mask in range(1 << 8):
        union = 0
        for x in bits(mask):
            union |= col[x]
        assert I._image(row, mask) == _image(row, mask)
        assert P.union(col, mask) == _lift_reference(col, mask) == union


def _check_ortho_tables(structures):
    built = Counter()
    for o in structures:
        for build, reference in _ORTHO_BUILDS:
            got, want = _outcome(build, o), _outcome(reference, o)
            assert _cells(got) == _cells(want), (o, build.__name__)
            if isinstance(got, I.SetValuedTable):
                assert got.cols == tuple(zip(*want.cells))
                assert got.le1 == _le1(want), (o, build.__name__)
                built[build.__name__] += 1
        if is_orthogonal_poset(o):
            assert I.duality_check(o) == _duality_check(o), o
            assert _report(I.check_lemma_sharply(o)) == _report(_check_lemma_sharply(o)), o
    return built


@pytest.mark.parametrize("n", range(2, 9))
def test_ortho_tables_match_cell_by_cell(n):
    built = _check_ortho_tables(gallery.ortho_posets(n))
    # every builder is compared on some structure of each size from n = 2
    assert set(built) == {"impl_I", "impl_I2", "sasaki_proj", "sasaki_impl"}


def test_ortho_tables_match_cell_by_cell_on_fixtures():
    built = _check_ortho_tables(_fixture_ortho())
    assert set(built) == {"impl_I", "impl_I2", "sasaki_proj", "sasaki_impl"}
    # the comparison covers cells with several elements
    cells = I.impl_I(gallery.ortho("fig2b")).cells
    assert any(c & (c - 1) for row in cells for c in row)


def test_duality_fails_on_one_changed_cell():
    o = gallery.ortho("fig2a")
    t = I.cached(o, I.sasaki_impl)
    o._memo[I.sasaki_impl] = _perturbed(t, random.Random(0))
    assert I.duality_check(o) is _duality_check(o) is False


# -- section tables and checks -------------------------------------------

def _check_sectioned(structures):
    """Compare every section table and check with its reference; the
    th2 clauses and the para-via-i3 verdicts seen."""
    clauses, verdicts = Counter(), Counter()
    for s in structures:
        for build, reference in ((R.impl_I3, _impl_I3), (R.impl_I4, _impl_I4)):
            assert _cells(_outcome(build, s)) == _cells(_outcome(reference, s)), s
        assert R.relative_paraortho_witness(s) == _relative_paraortho_witness(s), s
        got = R.check_th2(s)
        assert _report(got) == _report(_check_th2(s)), s
        clauses.update(v[0] for v in got.violations)
        got = R.para_via_I3(s)
        assert got == _para_via_I3(s), s
        verdicts[got] += 1
    return clauses, verdicts


@pytest.mark.parametrize("n", range(2, 10))
def test_section_checks_match_family_by_family(n):
    clauses, verdicts = _check_sectioned(gallery.sectioned_posets(n))
    # the real tables break no clause of th2
    assert not clauses
    if n >= 6:
        # both direct verdicts occur, so a direct verdict or a law kept
        # for another family shows
        assert {v[0] for v in verdicts} == {True, False}


def test_section_checks_match_family_by_family_on_fixtures():
    _check_sectioned(_fixture_sectioned())


def test_section_checks_read_the_columns_kept_on_the_poset():
    # an I3 column kept on the poset in place of the built one is read as
    # it is by the table and by both checks, which match their references
    # on the table it gives
    rng = random.Random(4)
    clauses, laws = Counter(), Counter()
    for n in range(2, 8):
        for s in gallery.sectioned_posets(n):
            table = I.cached(s, R.impl_I3)
            for _ in range(3):
                t = _perturbed(table, rng)
                planted = gallery.with_i3_columns(s, t.cols)
                assert R.impl_I3(planted).cells == t.cells
                got = R.check_th2(planted)
                assert _report(got) == _report(_check_th2(planted)), s
                clauses.update(v[0] for v in got.violations)
                got = R.para_via_I3(planted)
                assert got == _para_via_I3(planted), s
                laws[got[1]] += 1
    assert set(clauses) >= {"i", "ii", "iii-le", "iii-join", "iii-ge", "iv", "v"}
    assert laws[True] and laws[False]


def test_families_of_one_poset_share_each_row_entry(monkeypatch):
    # the column of filter y is built once per (y, row): the n = 8
    # families read 749 * 8 columns, from far fewer distinct rows
    built = Counter()
    column = R._i3_column

    def counted(p, y, row):
        built[y, row] += 1
        return column(p, y, row)

    monkeypatch.setattr(R, "_i3_column", counted)
    families = 0
    for p in U.bounded_posets(8):
        for s in U.sectioned_structures(p):
            R.impl_I3(s)
            families += 1
        assert all(c == 1 for c in built.values())
        built.clear()
    assert families == 749


# -- structures whose bottom is not index 0 -------------------------------

def test_lemma_sharply_matches_reference_off_index_0():
    # relabelled structures with the bottom off index 0, on perturbed cone
    # tables, so that every clause fires where 0 is not the first index
    clauses = Counter()
    for n in range(2, 8):
        rng = random.Random(n)
        for p in U.bounded_posets(n):
            perm = _relabelling(p, rng)
            q = _relabelled_poset(p, perm)
            for inv in U.antitone_involutions(p):
                o = OrthoPoset(q, _relabelled_row(inv, perm))
                if not is_orthogonal_poset(o):
                    continue
                assert q.bottom != 0
                table = I.cached(o, I.impl_I)
                for t in [table] + [_perturbed(table, rng) for _ in range(6)]:
                    o._memo[I.impl_I] = t
                    got = I.check_lemma_sharply(o)
                    assert _report(got) == _report(_check_lemma_sharply(o)), o
                    clauses.update(v[0] for v in got.violations)
    assert set(clauses) == {"i", "ii", "iii"}


def test_validate_sections_checks_the_swap_of_bottom_and_top():
    # on a poset whose own bottom and top are read, an antitone involution
    # of each filter swaps them, so the check fires only where the poset
    # names another top: here the middle of the chain 0 < a < 1
    p = FinitePoset.from_covers("0a1", [("0", "a"), ("a", "1")])
    rows = [(2, 1, 0), (-1, 2, 1), (-1, -1, 2)]
    assert R.validate_sections(p, rows).sections == tuple(rows)
    p.top = 1
    with pytest.raises(AssertionError, match="swap the bottom and top"):
        R.validate_sections(p, rows)
