import dataclasses
import functools
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest

from paraposet import figures
from paraposet import harness as H
from paraposet import adjoint as A
from paraposet import amalgam as AM
from paraposet import implication as I
from paraposet import ortho as O
from paraposet import poset as P
from paraposet import relative as R
from paraposet import universe as U
from paraposet.poset import FinitePoset, PosetError, bits

import gallery


def test_cube_full_adjoint_pair():
    cube = figures.boolean_cube()
    rep = A.check_conditions(cube, I.sasaki_proj(cube), I.sasaki_impl(cube))
    assert (rep.holds_A, rep.holds_B, rep.holds_A21, rep.holds_B12) == (
        True, True, True, True)


def test_fig2a_sasaki_pair_fails():
    o = gallery.ortho("fig2a")
    rep = A.check_conditions(o, I.sasaki_proj(o), I.sasaki_impl(o))
    assert not rep.holds_A and not rep.holds_B


def test_forward_backward_equivalence():
    for o in (gallery.ortho("fig2a"), gallery.ortho("fig2b"), gallery.ortho("fig3"),
              figures.boolean_cube(), gallery.ortho("fig4")):
        assert A.lemma_AB_equiv(o)


def test_om_identities_match_adjointness():
    f4 = gallery.ortho("fig4")
    assert A.omidentity_equiv(f4.poset, f4.inv) == (False, False, True)
    cube = figures.boolean_cube()
    assert A.omidentity_equiv(cube.poset, cube.inv) == (True, True, True)


def _omidentity_reference(p, inv):
    # both identities over every (x, y) and adjointness over every (x, y, z)
    meets, joins, up, r = p.meets, p.joins, p.up, range(p.n)
    prod = [[meets[y][joins[x][inv[y]]] for y in r] for x in r]
    imp = [[joins[inv[x]][meets[x][y]] for y in r] for x in r]
    oi = all(
        joins[x][meets[joins[x][y]][inv[x]]] == joins[x][y]
        and meets[x][joins[meets[x][y]][inv[x]]] == meets[x][y]
        for x in r for y in r
    )
    adj = all(
        (up[prod[x][y]] >> z & 1) == (up[x] >> imp[y][z] & 1)
        for x in r for y in r for z in r
    )
    return oi, adj, oi == adj


def test_om_identity_masks_match_reference():
    split = Counter()
    for n in range(2, 8):
        invs = list(U.involutions(n))
        for p in U.bounded_posets(n):
            if p.is_lattice:
                for inv in invs:
                    got = A.omidentity_equiv(p, inv)
                    assert got == _omidentity_reference(p, inv), (p.up, inv)
                    split[got] += 1
    # both verdicts occur, so masks that reject or accept everything fail
    assert split == {(True, True, True): 5, (False, False, True): 13587}
    cube = figures.boolean_cube().poset
    cube_split = Counter()
    for inv in U.involutions(cube.n):
        got = A.omidentity_equiv(cube, inv)
        assert got == _omidentity_reference(cube, inv), inv
        cube_split[got] += 1
    assert sum(cube_split.values()) == 764 and cube_split[True, True, True]


@functools.lru_cache(maxsize=None)
def _definition_masks(p):
    """``(G, H)`` of the lattice ``p`` by definition, every row in full."""
    meets, joins, up, r = p.meets, p.joins, p.up, range(p.n)
    g = tuple(sum(1 << a for a in r if all(
        joins[x][meets[joins[x][y]][a]] == joins[x][y]
        and meets[x][joins[meets[x][y]][a]] == meets[x][y] for y in r))
        for x in r)
    h = tuple(sum(1 << b for b in r if all(
        (up[meets[y][joins[x][b]]] >> z & 1) == (up[x] >> joins[b][meets[y][z]] & 1)
        for x in r for z in r))
        for y in r)
    return g, h


def _cube_beside_a_chain():
    """The cube with one more element e, 0 < e < 1, beside the rest."""
    cube = figures.boolean_cube().poset
    covers = [(a, b) for a in range(cube.n) for b in bits(cube.up[a])
              if a != b and cube.up[a] & cube.down[b] == 1 << a | 1 << b]
    labels = list(cube.labels) + ["e"]
    return FinitePoset.from_covers(labels, covers + [("0", "e"), ("e", "1")])


def _mask_lattices():
    # every lattice with n <= 8, the cube, and the cube beside a chain.
    # On a lattice with n <= 8, a row that would be filled if the u
    # clause, the d clause or the unit were dropped comes with another
    # empty row, so the mask stops either way; on the 9-element lattice
    # it does not
    return ([p for n in range(2, 9) for p in U.bounded_posets(n) if p.is_lattice]
            + [figures.boolean_cube().poset, _cube_beside_a_chain()])


def test_om_identity_masks_match_their_definition():
    # the verdicts alone would not see a dropped clause: on every lattice
    # with n <= 8 the two identities fail for the same involutions. A mask
    # is None exactly where its definition has an empty row, and no
    # involution fits such a mask; otherwise it is the definition, row
    # for row
    kept = Counter()
    for p in _mask_lattices():
        got = A._omidentity_masks(p)
        for name, mask, want in zip("GH", got, _definition_masks(p)):
            assert mask == (None if 0 in want else want), (name, p.up)
            kept[name, mask is not None] += 1
    # both masks are kept on some lattices and stopped on others, so a
    # build that always or never stops fails
    assert all(kept[name, stopped] for name in "GH" for stopped in (True, False))


def test_om_identity_rejects_malformed_involutions():
    chain = FinitePoset.from_covers("0ab1", ["0a", "ab", "b1"])
    assert A.omidentity_equiv(chain, (3, 2, 1, 0)) == (False, False, True)
    for inv in [(3, 2, 1, 0, 9, 9), (3, 2, 1), (3, 2, 1, 4), (3, 2, 1, -1),
                (1, 2, 3, 0)]:
        with pytest.raises(AssertionError, match="not an involution"):
            A.omidentity_equiv(chain, inv)


def test_om_identity_fit_sets_match_the_masks():
    # read against the masks by definition, so a stopped mask that
    # reached the backtracker as None, which means every involution,
    # would fail here
    sizes = Counter()
    for p in _mask_lattices():
        invs = list(U.involutions(p.n))

        def fitting(masks):
            return frozenset(inv for inv in invs
                             if all(masks[x] >> a & 1 for x, a in enumerate(inv)))

        fits_g, fits_h = map(fitting, _definition_masks(p))
        fits = A._omidentity_fits(p)
        # keyed by exactly the involutions that fit a mask, each with both verdicts
        assert fits.keys() == fits_g | fits_h, p.up
        assert all(v == (inv in fits_g, inv in fits_h) for inv, v in fits.items()), p.up
        sizes[len(fits_g), len(fits_h)] += 1
    # lattices with no fitting involution, with one, and with several
    assert sizes[0, 0] and sizes[1, 1] and any(a > 1 for a, b in sizes)


def test_om_identity_verdicts_match_the_validating_entry():
    # the harness's per-pair check skips only the validation
    check = H.THEOREMS["omidentity"].check

    def expected(p, inv):
        oi, adj, agree = A.omidentity_equiv(p, inv)
        return [] if agree else [f"inv={inv} verdicts {oi} vs {adj}"]

    pairs = 0
    for n in range(2, 9):
        invs = list(U.involutions(n))
        for p in U.bounded_posets(n):
            if p.is_lattice:
                for inv in invs:
                    assert list(check((p, inv))) == expected(p, inv), (p.up, inv)
                    pairs += 1
    assert pairs == 183200
    cube = figures.boolean_cube().poset
    for inv in U.involutions(cube.n):
        assert list(check((cube, inv))) == expected(cube, inv), inv


def test_harness_validates_each_involution_once_per_size(monkeypatch):
    checked = Counter()
    require = A.require_involution

    def counted(n, inv):
        checked[n, inv] += 1
        return require(n, inv)

    monkeypatch.setattr(A, "require_involution", counted)
    [res] = H.run_harness(6, ["omidentity"])
    assert res.ok
    assert checked == Counter({(n, inv): 1 for n in range(2, 7)
                               for inv in U.involutions(n)})


def test_harness_rejects_a_malformed_involution(monkeypatch):
    monkeypatch.setattr(H, "involutions", lambda n: iter([(0,) * n]))
    with pytest.raises(AssertionError, match=r"not an involution: \(0, 0\)"):
        H.run_harness(2, ["omidentity"])


def test_om_identity_masks_built_once_per_lattice(monkeypatch):
    built = Counter()
    fitted = Counter()
    sizes = Counter()
    build, fit = A._omidentity_masks, A._omidentity_fits
    enumerate_involutions = H.involutions

    def counted_build(p):
        built[p] += 1
        return build(p)

    def counted_fit(p):
        fitted[p] += 1
        return fit(p)

    def counted_involutions(n):
        sizes[n] += 1
        return enumerate_involutions(n)

    monkeypatch.setattr(A, "_omidentity_masks", counted_build)
    monkeypatch.setattr(A, "_omidentity_fits", counted_fit)
    monkeypatch.setattr(H, "involutions", counted_involutions)
    [res] = H.run_harness(6, ["omidentity"])
    lattices = [p for n in range(2, 7) for p in U.bounded_posets(n) if p.is_lattice]
    assert res.ok and res.instances == 1 * 2 + 1 * 4 + 2 * 10 + 5 * 26 + 15 * 76
    assert len(lattices) == 24 and built == fitted == Counter(lattices)
    assert sizes == Counter(range(2, 7))
    # a failed build on a non-lattice is not kept, so it raises again
    fence = FinitePoset.from_covers("0abcd1", ["0a", "0b", "ac", "ad", "bc", "bd",
                                              "c1", "d1"])
    assert not fence.is_lattice
    for _ in range(2):
        with pytest.raises(I.NotALattice):
            A.omidentity_equiv(fence, (5, 2, 1, 4, 3, 0))
    assert fence._memo == {} and built[fence] == fitted[fence] == 2


def test_omidentity_sweep_builds_no_pair_bound_table(monkeypatch):
    # meets and joins are read off principal ideals, so neither the
    # lattice test nor the masks need Max L or Min U
    builds = []
    extremal = FinitePoset._extremal_table

    def counted(p, cones, rows):
        builds.append(p)
        return extremal(p, cones, rows)

    monkeypatch.setattr(FinitePoset, "_extremal_table", counted)
    [res] = H.run_harness(7, ["omidentity"])
    assert res.ok and res.instances == 13592
    assert builds == []
    # the counter sees the builds of a theorem that reads the tables
    [res] = H.run_harness(4, ["completeness-finite"])
    assert res.ok and builds


def test_omidentity_sweep_builds_meet_join_tables_only_where_read(monkeypatch):
    # the lattice test and the complement rows read the order rows, so
    # only a lattice whose every element has a complement builds its meet
    # and join tables: 28 lattices with n <= 7
    builds = []
    principal = P._principal

    def counted(rows):
        builds.append(rows)
        return principal(rows)

    monkeypatch.setattr(P, "_principal", counted)
    [res] = H.run_harness(7, ["omidentity"])
    assert res.ok and res.instances == 13592
    assert len(builds) == 56
    lattices = 0
    for n in range(2, 9):
        for p in U.bounded_posets(n):
            lattices += p.is_lattice
            assert not {"meets", "joins"} & vars(p).keys(), p.up
    assert lattices == 299
    # a stopped complement mask: a has no complement in the chain 0 < a < 1
    chain = FinitePoset.from_covers("0a1", ["0a", "a1"])
    assert A._omidentity_fits(chain) == {}
    assert not {"meets", "joins"} & vars(chain).keys()


def test_lattice_and_fit_entry_counts():
    # the lattices of each size are A006966, and the entries of their fit
    # dicts are the involutions that fit G or H, here all with both
    # verdicts True; at n = 10 CI pins the 5,994 lattices and 108 entries
    lattices, entries = [], []
    for n in range(2, 10):
        fits = [A._omidentity_fits(p) for p in U.bounded_posets(n) if p.is_lattice]
        lattices.append(len(fits))
        entries.append(sum(map(len, fits)))
        assert all(v == (True, True) for f in fits for v in f.values())
    assert lattices == [1, 1, 2, 5, 15, 53, 222, 1078]
    assert entries == [1, 0, 1, 0, 3, 0, 16, 0]


def test_omidentity_check_receives_one_call_per_pair(monkeypatch):
    # the benchmark's traced pass pins the items the check receives at
    # n = 7; this is the same pin, with the items themselves: one
    # (lattice, involution) tuple per call, in poset order and then in
    # involution order
    seen = []
    th = H.THEOREMS["omidentity"]

    def recording(item):
        seen.append(item)
        return th.check(item)

    monkeypatch.setitem(H.THEOREMS, "omidentity", dataclasses.replace(th, check=recording))
    [res] = H.run_harness(7, ["omidentity"])
    assert res.ok and res.instances == len(seen) == 13592
    assert sum(p.n == 7 for p, _ in seen) == 12296
    assert all(type(item) is tuple for item in seen)
    assert seen == [(p, inv) for n in range(2, 8) for p in U.bounded_posets(n)
                    if p.is_lattice for inv in U.involutions(n)]


@pytest.mark.parametrize("mask", ["G", "H"])
@pytest.mark.parametrize("fill", ["zeroed", "all-accepting"])
def test_omidentity_reports_masks_that_reject_or_accept_everything(monkeypatch,
                                                                    mask, fill):
    build = A._omidentity_masks

    def mutant(p):
        g, h = build(p)
        wrong = (0 if fill == "zeroed" else p.full,) * p.n
        return (wrong, h) if mask == "G" else (g, wrong)

    monkeypatch.setattr(A, "_omidentity_masks", mutant)
    [res] = H.run_harness(6, ["omidentity"])
    assert res.instances == 1 * 2 + 1 * 4 + 2 * 10 + 5 * 26 + 15 * 76
    assert res.violations


def test_subscripted_adjointness_is_orthomodularity():
    assert A.sasom_equiv(figures.boolean_cube()) == (True, True, True)
    assert A.sasom_equiv(gallery.ortho("fig2a")) == (False, False, True)


def test_mixed_pair_condition_forces_orthomodularity():
    for o in (gallery.ortho("fig2a"), gallery.ortho("fig3"), figures.boolean_cube()):
        rep = A.th3_check(o)
        assert rep.consistent
    for o in (gallery.ortho("fig2a"), gallery.ortho("fig2b"), figures.boolean_cube()):
        rep = A.posth3_check(o)
        assert rep.consistent


def test_cube_residuation_recovers_meet():
    cube = figures.boolean_cube()
    p = cube.poset
    prod = A.residuate(cube, I.impl_I(cube))
    for x in range(p.n):
        for y in range(p.n):
            assert prod.cell(x, y) == 1 << p.meet(x, y)


def test_adjoint_consequences_on_cube():
    cube = figures.boolean_cube()
    rep = A.adji_consequences(cube, A.residuate(cube, I.impl_I(cube)))
    assert not rep.violations, rep.violations


def test_adjoint_exists_exactly_for_boolean_algebras():
    assert A.adjebp_equiv(figures.boolean_cube()) == (True, True, True)
    for name in ("fig2a", "fig2b", "fig3", "fig4"):
        boolean, adjoint, agree = A.adjebp_equiv(gallery.ortho(name))
        assert agree and not boolean


def test_boolean_poset_bridge():
    verdict = A.adjibp_check(figures.boolean_cube())
    assert verdict in (None, True)
    assert A.adjibp_check(gallery.ortho("fig2a")) in (None, True)


def _run_optimised(code):
    """Run ``code`` in a fresh interpreter under ``python -O``."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = "if __debug__: raise SystemExit('not optimised')\n" + code
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)


def test_involution_check_survives_optimisation():
    # under python -O a bare assert would vanish and the call return verdicts
    res = _run_optimised("from paraposet.adjoint import omidentity_equiv\n"
                         "from paraposet.poset import FinitePoset\n"
                         "p = FinitePoset.from_covers('0ab1', ['0a', '0b', 'a1', 'b1'])\n"
                         "omidentity_equiv(p, (1, 2, 3, 0))\n")
    assert res.returncode == 1
    assert "AssertionError: not an involution" in res.stderr


def test_harness_involution_check_survives_optimisation():
    res = _run_optimised("from paraposet import harness\n"
                         "harness.involutions = lambda n: iter([(0,) * n])\n"
                         "harness.run_harness(3, ['omidentity'])\n")
    assert res.returncode == 1
    assert "AssertionError: not an involution: (0, 0)" in res.stderr


# -- le1/le2 tables against the subset relations -----------------------

def _subset_rel_conditions(o, prod, imp):
    p = o.poset
    rep = A.AdjointnessReport()
    for x in range(p.n):
        for y in range(p.n):
            pc = prod.cell(x, y)
            for z in range(p.n):
                ic = imp.cell(y, z)
                if pc & (pc - 1) == 0 and ic & (ic - 1) == 0:
                    pe = pc.bit_length() - 1
                    ie = ic.bit_length() - 1
                    if p.leq(pe, z) and not p.leq(x, ie):
                        rep.holds_A = False
                    if p.leq(x, ie) and not p.leq(pe, z):
                        rep.holds_B = False
                le2 = gallery.subset_rel(p, pc, 1 << z, gallery.LE2)
                le1 = gallery.subset_rel(p, 1 << x, ic, gallery.LE1)
                if le2 and not le1:
                    rep.holds_A21 = False
                if le1 and not le2:
                    rep.holds_B12 = False
    return rep


def _element(t, x, y):
    """The one element of the singleton cell (x, y) of the table ``t``."""
    c = t.cells[x][y]
    if c == 0 or c & (c - 1):
        raise PosetError("cell is not a singleton")
    return c.bit_length() - 1


def _min_of(p, a):
    # Min A within the induced order
    return sum(1 << x for x in bits(a) if p.down[x] & a == 1 << x)


def _subset_rel_residuate(o, imp):
    """``(product, kind)``: the product adjoint to ``imp`` or None, and
    "adjoint", "no least candidate" or "up-set too big"."""
    p = o.poset
    r = range(p.n)
    le1 = [[[gallery.subset_rel(p, 1 << x, imp.cell(y, z), gallery.LE1) for z in r]
            for y in r] for x in r]
    cells = []
    for x in r:
        row = []
        for y in r:
            least = _min_of(p, sum(1 << z for z in r if le1[x][y][z]))
            if least == 0 or least & (least - 1):
                return None, "no least candidate"
            row.append(least)
        cells.append(tuple(row))
    prod = I.SetValuedTable(p, tuple(cells))
    if all(p.leq(_element(prod, x, y), z) == le1[x][y][z]
           for x in r for y in r for z in r):
        return prod, "adjoint"
    return None, "up-set too big"


def _ortho_structures():
    """Every ortho structure with n <= 7, the figures (fig2b has
    non-singleton cells) and the amalgam carriers of the fixtures."""
    out = [o for n in range(2, 8) for o in gallery.ortho_posets(n)]
    out += [gallery.ortho(name)
            for name in ("fig2a", "fig2b", "fig3", "fig4", "fig5", "fig8")]
    out.append(figures.boolean_cube())
    for d in ("chain", "fig5", "pentagon", "square", "triangle"):
        out.append(AM.build_amalgam(gallery.load(f"{d}/family")))
    return out


def _sectioned_structures():
    """Every sectioned structure with n <= 7 and the sectioned figures."""
    out = [s for n in range(2, 8) for s in gallery.sectioned_posets(n)]
    return out + [gallery.load("fig1a"), gallery.load("fig7s"),
                  gallery.load("fig8"),
                  R.sections_from_involution(figures.boolean_cube())]


def test_conditions_match_subset_relations():
    reports, nonsingleton = [], 0
    for o in _ortho_structures():
        try:
            pairs = [(I.sasaki_proj(o), I.sasaki_impl(o)),
                     (I.sasaki_proj(o), I.impl_I(o))]
        except PosetError:
            continue
        for prod, imp in pairs:
            rep = A.check_conditions(o, prod, imp)
            assert rep == _subset_rel_conditions(o, prod, imp)
            reports.append(rep)
            nonsingleton += any(c & (c - 1) for t in (prod, imp) for row in t.cells
                                for c in row)
        imp = I.impl_I(o)
        assert A.residuate(o, imp) == _subset_rel_residuate(o, imp)[0]
    # the comparison covers non-singleton cells, and each condition
    # fails somewhere and holds somewhere
    assert nonsingleton
    for verdict in ("holds_A", "holds_B", "holds_A21", "holds_B12"):
        assert {getattr(r, verdict) for r in reports} == {True, False}


def test_check_conditions_reads_rows_until_every_condition_has_failed():
    # Real pairs cannot show where the scan may stop: of the 156 reports
    # the sweep up to n = 7 builds, 149 fail all four conditions and 7
    # hold all four. On the cube the Sasaki pair meets all four, so
    # edited product cells can show it. Each edit below fails the
    # conditions listed with it, and only in its row: the subscripted (A)
    # first fails in row x, the subscripted (B) in row y, (A) in row z
    # and (B) only in the last row, 1. A scan that stopped before all
    # four accumulators were nonzero would miss (B).
    cube = figures.boolean_cube()
    p = cube.poset
    x, y, z, top = map(p.labels.index, "xyz1")
    bottom = p.bottom
    # the Sasaki product of (a, 1) is a, and that of (a, 0) is 0
    edits = [((x, top), 1 << x | 1 << y, {"A21"}),     # x as {x, y}
             ((y, bottom), 1 << x | 1 << z, {"B12"}),  # 0 as {x, z}
             ((z, top), 1 << bottom, {"A", "A21"}),    # z as {0}
             ((top, bottom), 1 << top, {"B", "B12"})]  # 0 as {1}
    rows = [row for (row, _), _, _ in edits]
    assert rows == sorted(set(rows)) and rows[-1] == p.n - 1
    clean, imp = I.sasaki_proj(cube), I.sasaki_impl(cube)

    def edited(chosen):
        cells = [list(row) for row in clean.cells]
        for (a, b), cell, _ in chosen:
            cells[a][b] = cell
        return I.SetValuedTable(p, tuple(map(tuple, cells)))

    def failing(rep):
        return {c for c in ("A", "B", "A21", "B12") if not getattr(rep, f"holds_{c}")}

    assert failing(A.check_conditions(cube, clean, imp)) == set()
    for edit in edits:
        assert failing(_subset_rel_conditions(cube, edited([edit]), imp)) == edit[2]
    assert failing(_subset_rel_conditions(cube, edited(edits[:-1]), imp)) == {
        "A", "A21", "B12"}
    prod = edited(edits)
    rep = A.check_conditions(cube, prod, imp)
    assert rep == _subset_rel_conditions(cube, prod, imp)
    assert failing(rep) == {"A", "B", "A21", "B12"}


# -- per-triple references for the bit-parallel theorem kernels --------

def _image_reference(p, op, a, mask):
    row = p.joins[a] if op == "join" else p.meets[a]
    out = 0
    for b in bits(mask):
        if row[b] is None:
            raise I.JoinMissing(f"{op} of {p.labels[a]} and {p.labels[b]} missing")
        out |= 1 << row[b]
    return out


def _lift_reference(t, a, y):
    out = 0
    for x in bits(a):
        out |= t.cell(x, y)
    return out


def _check_th1_reference(o):
    t = I.cached(o, I.impl_I)
    p = o.poset
    rep = I.TheoremReport()
    n = p.n
    for x in range(n):
        xi = o.inv[x]
        for y in range(n):
            yi = o.inv[y]
            cell = t.cell(x, y)
            if cell & ~p.up[y]:
                rep.violations.append(("i", x, y))
            if p.leq(x, y):
                rep.identity(p, "iii-le", cell, _image_reference(p, "join", y, 1 << yi), x, y)
                if O.is_complementation(o) and cell != 1 << p.top:
                    rep.violations.append(("iii-compl", x, y))
            if p.leq(x, yi):
                m = p.meet(xi, yi)
                if m is None:
                    rep.violations.append(("iii-perp", x, y))
                else:
                    rep.identity(p, "iii-perp", cell,
                                 _image_reference(p, "join", y, 1 << m), x, y)
            if p.leq(y, x):
                rep.identity(p, "iii-ge", cell, _image_reference(p, "join", y, 1 << xi), x, y)
            lhs = _lift_reference(t, cell, y)
            try:
                low = _image_reference(p, "meet", yi, p.min_upper[x][y])
            except I.JoinMissing:
                rep.violations.append(("iv", x, y))
            else:
                rep.identity(p, "iv", lhs, _image_reference(p, "join", y, low), x, y)
            high = _image_reference(p, "join", y, p.max_lower[xi][yi])
            try:
                low = _image_reference(p, "meet", yi, high)
            except I.JoinMissing:
                rep.violations.append(("v", x, y))
            else:
                rep.identity(p, "v", _lift_reference(t, lhs, y),
                             _image_reference(p, "join", y, low), x, y)
    for x in range(n):
        for y in bits(p.up[x]):
            for z in range(n):
                if not gallery.subset_rel(p, t.cell(y, z), t.cell(x, z), gallery.LE1):
                    rep.violations.append(("ii", x, y, z))
    return rep


def _check_th2_reference(s):
    t = I.cached(s, R.impl_I3)
    p = s.poset
    rep = I.TheoremReport()
    one = 1 << p.top
    for x in range(p.n):
        for y in range(p.n):
            cell = t.cell(x, y)
            if cell & ~p.up[y]:
                rep.violations.append(("i", x, y))
            if (cell == one) != p.leq(x, y):
                rep.violations.append(("ii", x, y))
            if p.leq(x, y) and cell != one:
                rep.violations.append(("iii-le", x, y))
            j = p.join(x, y)
            if j is not None and cell != 1 << s.sections[y][j]:
                rep.violations.append(("iii-join", x, y))
            if p.leq(y, x) and cell != 1 << s.sections[y][x]:
                rep.violations.append(("iii-ge", x, y))
            lhs = _lift_reference(t, cell, y)
            rep.identity(p, "iv", lhs, p.min_upper[x][y], x, y)
            rep.identity(p, "v", _lift_reference(t, lhs, y), cell, x, y)
    return rep


def _antitone_reference(t):
    p = t.poset
    for x in range(p.n):
        for y in bits(p.up[x]):
            for z in range(p.n):
                if not p.leq(_element(t, y, z), _element(t, x, z)):
                    return False
    return True


def _unit_law_reference(t):
    p = t.poset
    return all(p.leq(x, y) for x in range(p.n) for y in range(p.n)
               if t.cell(x, y) == 1 << p.top)


def _perturbed(t, rng, singleton=False):
    """``t`` with one cell, drawn by ``rng``, set to another nonempty mask,
    or to another singleton."""
    n = t.poset.n
    x, y = rng.randrange(n), rng.randrange(n)
    cell = t.cell(x, y)
    while cell == t.cell(x, y):
        cell = 1 << rng.randrange(n) if singleton else rng.randrange(1, 1 << n)
    cells = [list(row) for row in t.cells]
    cells[x][y] = cell
    return I.SetValuedTable(t.poset, tuple(map(tuple, cells)))


def _orthogonal_structures():
    return [o for o in _ortho_structures() if O.is_orthogonal_poset(o)]


def _cone_kernels(o):
    """Every kernel that reads the cone implication, with its reference."""
    imp = I.cached(o, I.impl_I)
    prod = I.sasaki_proj(o)
    return ((I.check_th1(o), _check_th1_reference(o)),
            (A.check_conditions(o, prod, imp), _subset_rel_conditions(o, prod, imp)),
            (A.residuate(o, imp), _subset_rel_residuate(o, imp)[0]),
            (I.unit_law(imp), _unit_law_reference(imp)))


def test_cone_kernels_match_per_triple_references():
    for o in _orthogonal_structures():
        for got, want in _cone_kernels(o):
            assert got == want, o


def test_cone_kernels_match_per_triple_references_at_n8():
    # with the test above: every orthogonal structure with n <= 8, and
    # the fixture carriers
    structures = [o for o in gallery.ortho_posets(8) if O.is_orthogonal_poset(o)]
    assert len(structures) == 159
    failing, residuations = Counter(), Counter()
    for o in structures:
        kernels = _cone_kernels(o)
        for got, want in kernels:
            assert got == want, o
        conditions = kernels[1][0]
        failing.update(v for v in ("holds_A", "holds_B", "holds_A21", "holds_B12")
                       if not getattr(conditions, v))
        residuations[_subset_rel_residuate(o, I.cached(o, I.impl_I))[1]] += 1
    # each condition fails somewhere, and residuate returns None both
    # where a pair has no least candidate and where its up-set is too big
    assert set(failing) == {"holds_A", "holds_B", "holds_A21", "holds_B12"}
    assert set(residuations) == {"no least candidate", "up-set too big", "adjoint"}


def test_cone_kernels_match_references_on_perturbed_tables():
    # the real tables report no th1 violation, so only a changed cell
    # shows that the violation lists and their order survive
    rng = random.Random(1)
    clauses, reports, laws = Counter(), 0, Counter()
    for o in _orthogonal_structures():
        table = I.cached(o, I.impl_I)
        for _ in range(4):
            o._memo[I.impl_I] = _perturbed(table, rng)
            kernels = _cone_kernels(o)
            for got, want in kernels:
                assert got == want, o
            th1 = kernels[0][0]
            clauses.update({v[0] for v in th1.violations})
            reports += len(th1.violations) > 1 and len(th1.violations_elementwise) > 1
            laws[kernels[3][0]] += 1
        o._memo[I.impl_I] = table
    assert set(clauses) >= {"i", "ii", "iii-le", "iii-compl", "iii-ge", "iv", "v"}
    assert reports > 100 and laws[True] and laws[False]


def test_antitone_matches_reference_on_lattice_tables():
    rng = random.Random(2)
    verdicts = Counter()
    for o in _orthogonal_structures():
        if not o.poset.is_lattice:
            continue
        table = I.cached(o, I.impl_I2)
        for t in [table] + [_perturbed(table, rng, singleton=True) for _ in range(4)]:
            got = I.antitone_first_arg(t)
            assert got == _antitone_reference(t), o
            verdicts[got] += 1
    assert verdicts[True] and verdicts[False]


def _section_kernels(s):
    imp = I.cached(s, R.impl_I3)
    return ((R.check_th2(s), _check_th2_reference(s)),
            (I.unit_law(imp), _unit_law_reference(imp)))


def test_section_kernels_match_per_triple_references():
    rng = random.Random(3)
    clauses, reports, verdicts = Counter(), 0, Counter()
    for s in _sectioned_structures():
        table = I.cached(s, R.impl_I3)
        for t in [table] + [_perturbed(table, rng) for _ in range(4)]:
            # the columns of t, kept on a fresh poset, stand in for the built ones
            planted = gallery.with_i3_columns(s, t.cols)
            assert I.cached(planted, R.impl_I3).cells == t.cells
            kernels = _section_kernels(planted)
            for got, want in kernels:
                assert got == want, s
            th2 = kernels[0][0]
            clauses.update({v[0] for v in th2.violations})
            reports += len(th2.violations) > 1 and len(th2.violations_elementwise) > 1
        try:
            i4 = I.cached(s, R.impl_I4)
        except R.NotJoinSemilattice:
            continue
        for t in [i4] + [_perturbed(i4, rng, singleton=True) for _ in range(4)]:
            got = I.antitone_first_arg(t)
            assert got == _antitone_reference(t), s
            verdicts[got] += 1
    assert set(clauses) >= {"i", "ii", "iii-le", "iii-join", "iii-ge", "iv", "v"}
    assert reports > 100 and verdicts[True] and verdicts[False]


def test_i4_antitone_matches_reference_on_planted_columns():
    # every section family with n <= 7 and the sectioned figures, with its
    # I4 table and four perturbed copies, planted on a fresh poset as the
    # columns the per-row verdicts read
    rng = random.Random(4)
    verdicts, families = Counter(), 0
    for s in _sectioned_structures():
        if not s.poset.is_lattice:
            with pytest.raises(R.NotJoinSemilattice):
                R.i4_antitone(s)
            continue
        families += 1
        table = R.impl_I4(s)
        assert R.i4_antitone(s) == _antitone_reference(table), s
        for t in [table] + [_perturbed(table, rng, singleton=True) for _ in range(4)]:
            got = R.i4_antitone(gallery.with_i4_columns(s, t.cols))
            assert got == _antitone_reference(t), s
            verdicts[got] += 1
        # a cell of two elements raises, whatever the other columns read
        x, y = rng.randrange(s.n), rng.randrange(s.n)
        cols = [list(col) for col in _perturbed(table, rng, singleton=True).cols]
        cols[y][x] |= 1 << next(e for e in range(s.n) if not cols[y][x] >> e & 1)
        with pytest.raises(PosetError, match="cell is not a singleton"):
            R.i4_antitone(gallery.with_i4_columns(s, cols))
    # the 69 lattice families with n <= 7, fig7s, fig8 and the cube
    assert families == 72 and verdicts[True] and verdicts[False]


def test_empty_cell_is_not_a_singleton():
    # a table of empty cells on the cube
    cube = figures.boolean_cube()
    n = cube.n
    t = I.SetValuedTable(cube.poset, ((0,) * n,) * n)
    with pytest.raises(PosetError, match="cell is not a singleton"):
        _element(t, 0, 0)
    with pytest.raises(PosetError, match="cell is not a singleton"):
        I.antitone_first_arg(t)
    # one empty cell among singletons: every cell is checked before any
    # two are compared, so the verdict never hides it
    cells = [list(row) for row in I.impl_I2(cube).cells]
    cells[n - 1][n - 1] = 0
    with pytest.raises(PosetError, match="cell is not a singleton"):
        I.antitone_first_arg(I.SetValuedTable(cube.poset, tuple(map(tuple, cells))))
