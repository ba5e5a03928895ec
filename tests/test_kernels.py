"""Each order kernel against the copies it replaced, and the arguments
that let three predicates read one condition fewer.

``poset.union``, ``poset.intersection``, ``poset.extremal`` and
``poset.LazyDict`` each stand for loops that several modules kept, and
``ortho._antitone_failure`` and ``ortho._para_row`` for the scans of
``validate_involution``, ``validate_sections``, ``paraortho_witness``
and the relative witness. The old bodies are kept below as references:
each mask kernel must equal all of them on every mask below 2^8, and
each scan on every structure the tests enumerate.
"""

import random
from collections import Counter
from itertools import islice, product

import pytest

from paraposet import ortho as O
from paraposet import poset as P
from paraposet import relative as R
from paraposet import universe as U
from paraposet.poset import bits

import gallery
from test_implication import _fixture_structures


# -- the copies the kernels replace -------------------------------------

def _union_reference(rows, ms):
    """adjoint._union."""
    out = 0
    for m in bits(ms):
        out |= rows[m]
    return out


def _span_reference(memo, rows, a):
    """FinitePoset._span, behind _downset and _upset."""
    res = memo.get(a)
    if res is None:
        res = 0
        for i in bits(a):
            res |= rows[i]
        memo[a] = res
    return res


class _ConesReference(dict):
    """poset._Cones, behind _lower and _upper."""

    def __init__(self, rows, full):
        super().__init__()
        self.rows = rows
        self.full = full

    def __missing__(self, a):
        res, rows = self.full, self.rows
        for i in bits(a):
            res &= rows[i]
        self[a] = res
        return res


class _PerRowReference(dict):
    """relative._PerRow, behind relative._per_row."""

    def __init__(self, p, build):
        super().__init__()
        self.p = p
        self.build = build

    def __missing__(self, key):
        res = self[key] = self.build(self.p, *key)
        return res


def _extremal_loop(rows, common):
    """The inner loop of FinitePoset._extremal_table, and of
    FinitePoset._bound_complete with ``common`` named ``c``."""
    ext = 0
    for b in bits(common):
        if rows[b] & common == 1 << b:
            ext |= 1 << b
    return ext


def _validate_involution_reference(poset, inv):
    """ortho.validate_involution with its own antitonicity loop."""
    inv = tuple(inv)
    n = poset.n
    if len(inv) != n or any(not 0 <= i < n for i in inv):
        raise O.InvolutionError("involution must be a total self-map")
    for x in range(n):
        if inv[inv[x]] != x:
            raise O.InvolutionError(f"map is not an involution at {poset.labels[x]}")
    for x in range(n):
        for y in bits(poset.up[x]):
            if not poset.leq(inv[y], inv[x]):
                raise O.InvolutionError(f"map is not antitone at "
                                        f"({poset.labels[x]}, {poset.labels[y]})")
    return O.OrthoPoset(poset, inv)


def _validate_sections_reference(poset, sections):
    """relative.validate_sections with its own antitonicity loop."""
    rows = []
    for x in range(poset.n):
        row = list(sections[x])
        lx = poset.labels[x]
        filt = poset.up[x]
        if len(row) != poset.n:
            raise R.SectionViolation(lx, "row length mismatch")
        for y in range(poset.n):
            inside = bool(filt >> y & 1)
            if inside != (row[y] >= 0):
                raise R.SectionViolation(lx, f"domain mismatch at {poset.labels[y]}")
            if inside and not (poset.leq(x, row[y]) and row[row[y]] == y):
                raise R.SectionViolation(
                    lx, f"not an involution of the filter at {poset.labels[y]}")
        for y in bits(filt):
            for z in bits(poset.up[y]):
                if not poset.leq(row[z], row[y]):
                    raise R.SectionViolation(
                        lx, f"not antitone on ({poset.labels[y]}, {poset.labels[z]})")
        rows.append(tuple(row))
    return R.SectionedPoset(poset, tuple(rows))


def _paraortho_witness_reference(o):
    """ortho.paraortho_witness before it read the relative scan."""
    p = o.poset
    zero = 1 << p.bottom
    for x in range(p.n):
        for y in bits(p.up[x] & ~(1 << x)):
            if p.down[o.inv[x]] & p.down[y] == zero:
                return (x, y)
    return None


def _relpara_row_reference(p, x, row):
    """relative._relpara_row."""
    filt, up, down = p.up[x], p.up, p.down
    bottom = 1 << x
    for y in bits(filt):
        below_yi = down[row[y]] & filt
        for z in bits(up[y] & ~(1 << y)):
            if below_yi & down[z] == bottom:
                return (x, y, z)
    return None


# -- mask kernels ---------------------------------------------------------

def _posets_8():
    """Every 40th bounded poset with 8 elements."""
    out = list(islice(U.bounded_posets(8), 0, None, 40))
    assert len(out) >= 8
    return out


def _row_sets():
    """The order rows of those posets, and four rows of random masks."""
    rng = random.Random(8)
    rows = [tuple(rng.randrange(1 << 8) for _ in range(8)) for _ in range(4)]
    for p in _posets_8():
        rows += [p.up, p.down]
    return rows


def test_union_matches_its_three_copies_on_every_mask():
    for rows in _row_sets():
        memo = {}
        for mask in range(1 << 8):
            want = _union_reference(rows, mask)
            assert P.union(rows, mask) == _span_reference(memo, rows, mask) == want


def test_intersection_matches_the_cone_memo_on_every_mask():
    for rows in _row_sets():
        cones = _ConesReference(rows, 0xFF)
        for mask in range(1 << 8):
            assert P.intersection(rows, 0xFF, mask) == cones[mask]


def test_poset_memos_match_the_old_ones_on_every_mask():
    for p in _posets_8():
        down_memo, up_memo = {}, {}
        lower, upper = _ConesReference(p.down, p.full), _ConesReference(p.up, p.full)
        for mask in range(1 << 8):
            assert p._downset(mask) == _span_reference(down_memo, p.down, mask)
            assert p._upset(mask) == _span_reference(up_memo, p.up, mask)
            assert p._lower(mask) == lower[mask]
            assert p._upper(mask) == upper[mask]


def test_extremal_matches_the_loop_on_every_mask():
    for rows in _row_sets():
        for mask in range(1 << 8):
            assert P.extremal(rows, mask) == _extremal_loop(rows, mask)


def test_lazy_dict_builds_each_key_once_like_the_per_row_memo():
    p = next(U.bounded_posets(4))
    built = Counter()

    def build(q, a, b):
        built[a, b] += 1
        return (q.n, a * b)

    ours, theirs = R._per_row(p, build), _PerRowReference(p, build)
    assert R._per_row(p, build) is ours
    for key in product(range(3), repeat=2):
        for _ in range(2):
            assert ours[key] == theirs[key] == (4, key[0] * key[1])
    assert set(built.values()) == {2}      # once for each memo
    # only a lookup by [] builds: get and in read what is there
    assert ours.get((5, 5)) is None and (5, 5) not in ours
    assert isinstance(ours, P.LazyDict) and dict(ours) == dict(theirs)


# -- scans of one row on one filter --------------------------------------

def _outcome(fn, *args):
    """``fn(*args)``, or the type and text of the PosetError it raises."""
    try:
        return fn(*args)
    except P.PosetError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", range(2, 7))
def test_involution_validation_matches_the_old_loop(n):
    # every involution of every bounded poset of size n: the antitone
    # ones, and the first failing pair named by the others
    texts = Counter()
    for p in U.bounded_posets(n):
        for inv in U.involutions(n):
            got = _outcome(O.validate_involution, p, inv)
            assert got == _outcome(_validate_involution_reference, p, inv), (p, inv)
            texts[type(got) is tuple] += 1
    assert texts[True] and texts[False]


@pytest.mark.parametrize("n", range(2, 7))
def test_section_validation_matches_the_old_loop(n):
    # a valid family with row x replaced by each involution of [x,1]
    failures = Counter()
    for p in U.bounded_posets(n):
        family = next(iter(U.sectioned_structures(p)), None)
        if family is None:
            continue
        base = family.sections
        for x in range(n):
            filt = bits(p.up[x])
            for inv in U.involutions(len(filt)):
                row = [-1] * n
                for i, y in enumerate(filt):
                    row[y] = filt[inv[i]]
                rows = base[:x] + (tuple(row),) + base[x + 1:]
                got = _outcome(R.validate_sections, p, rows)
                want = _outcome(_validate_sections_reference, p, rows)
                assert (got.sections if isinstance(got, R.SectionedPoset) else got) == \
                    (want.sections if isinstance(want, R.SectionedPoset) else want), (p, rows)
                if isinstance(got, tuple):
                    failures[got[1].split(": ")[1].split(" (")[0]] += 1
    assert failures["not antitone on"]


def _ortho_structures():
    return [o for n in range(2, 9) for o in gallery.ortho_posets(n)] + _fixture_structures()


def test_paraortho_witness_matches_the_old_loop():
    witnesses = Counter()
    for o in _ortho_structures():
        got = O.paraortho_witness(o)
        assert got == _paraortho_witness_reference(o), o
        witnesses[got is None] += 1
    assert witnesses[True] and witnesses[False]


@pytest.mark.parametrize("n", range(2, 9))
def test_para_row_matches_the_relative_row_loop_on_every_filter(n):
    seen = Counter()
    for s in gallery.sectioned_posets(n):
        for x, row in enumerate(s.sections):
            got = O._para_row(s.poset, x, row)
            want = _relpara_row_reference(s.poset, x, row)
            assert want == (None if got is None else (x, *got)), (s, x)
            seen[got is None] += 1
    if n >= 6:
        assert seen[True] and seen[False]


# -- one condition fewer -------------------------------------------------

def _complementation_halves(o):
    p = o.poset
    zero, one = 1 << p.bottom, 1 << p.top
    meet = all(p.down[x] & p.down[xi] == zero for x, xi in enumerate(o.inv))
    join = all(p.up[x] & p.up[xi] == one for x, xi in enumerate(o.inv))
    return meet, join


def test_complementation_halves_agree_and_orthomodularity_implies_them():
    complemented, orthomodular = Counter(), 0
    for o in _ortho_structures():
        meet, join = _complementation_halves(o)
        assert meet == join == O.is_complementation(o), o
        complemented[join] += 1
        if O.orthomodular_witness(o) is None:
            assert join, o
            orthomodular += O.is_orthogonal_poset(o)
    assert complemented[True] and complemented[False]
    assert orthomodular


def test_orthomodularity_matches_the_reading_with_complementation():
    for o in _ortho_structures():
        old = (O.is_orthogonal_poset(o) and O.is_complementation(o)
               and O.orthomodular_witness(o) is None)
        assert O.is_orthomodular(o) == old, o
