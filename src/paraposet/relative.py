"""Per-filter involutions, relative paraorthomodularity and the
section-based implications.

A section family assigns every element x an antitone involution of the
principal filter [x,1]. Stored as one row per x with the image of y,
or -1 for y outside the filter.

The statements on a family read it one row at a time:
- relative paraorthomodularity reads row x for filter x alone;
- column y of the section implication I3, the images (Min U(x, y))^y
  over every x, reads row y alone, and so does column y of I4,
  (x v y)^y;
- every ``th2`` clause at (x, y) reads column y of I3 and row y: the
  union extensions in its clauses (iv) and (v) are unions of cells of
  column y;
- the antitonicity of I4 in its first argument reads each column of I4
  on its own, so column y reads row y alone;
- the implication law of ``para-via-i3`` at y reads column y and the
  image g[y] of y under row 0, and its direct verdict is relative
  paraorthomodularity on the filter of 0 alone.

The families of a poset are the product of its filters' rows, so each
row recurs in many families. Each of these results is therefore built
once per poset for each (filter, row) it reads and kept on the poset,
in one ``poset.LazyDict`` per builder (``_per_row``), and a family's
result combines its n entries. The ``th2`` and ``para-via-i3`` entries
read their I3 column from the column entries of the same poset, so no
family assembles an I3 table for them; nor does ``i4-antitone``, whose
verdict is read off the I4 columns, one per (filter, row). The I3 and I4
tables are built from the same columns, for the statements that read
whole tables. The ``th2`` violations of the columns are merged in
(x, y, clause) order, the order of a cell-by-cell scan.

A family that satisfies the compatibility condition C is the family
z^y = z' v y induced by its own row 0 (``sections_from_involution``),
since C at x = 0 reads z^y = z^0 v y. So ``relpara-under-c``, whose
hypothesis is C, is checked on the induced family of each orthomodular
structure, where C is a conclusion; up to n = 10 these are exactly the
families with C, and no family is scanned for C.

The scans of one row on its filter are those of ``ortho``: antitonicity
(``_antitone_failure``) and relative paraorthomodularity
(``_para_row``), which on the filter of 0 is the paraorthomodularity of
the global involution.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Optional, Tuple

from .poset import FinitePoset, LazyDict, PosetError, bits, union
from .implication import (JoinMissing, SetValuedTable, TheoremReport, _image,
                          cached, unit_law)
from .ortho import OrthoPoset, _antitone_failure, _para_row


class SectionViolation(PosetError):
    def __init__(self, x, detail):
        super().__init__(f"bad section at {x}: {detail}")


class NotJoinSemilattice(PosetError):
    pass


class CompatibilityFailed(PosetError):
    pass


@dataclass(frozen=True)
class SectionedPoset:
    """A bounded poset with an antitone involution on every [x,1].

    ``_memo`` holds the tables and reports built from the structure (see
    :func:`paraposet.ortho.cached`); a result that reads one section is
    kept on the poset instead, for every family that has the section.
    """

    poset: FinitePoset
    sections: Tuple[Tuple[int, ...], ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def ortho(self) -> OrthoPoset:
        """The poset with its global involution ^0, the section on [0,1]."""
        return OrthoPoset(self.poset, self.sections[self.poset.bottom])

    def __repr__(self) -> str:
        return f"SectionedPoset({self.poset.name or self.poset.n})"


def validate_sections(poset: FinitePoset, sections) -> SectionedPoset:
    """Check every row is an antitone involution of its filter.

    Row x is read against the mask ``up[x]``: each y in the filter has
    an image in it that maps back to y, each y outside a negative entry.
    """
    n, labels = poset.n, poset.labels
    rows = []
    for x, filt in enumerate(poset.up):
        row = tuple(sections[x])
        if len(row) != n:
            raise SectionViolation(labels[x], "row length mismatch")
        for y, r in enumerate(row):
            if (r >= 0) != (filt >> y & 1):
                raise SectionViolation(labels[x], f"domain mismatch at {labels[y]}")
            if r >= 0 and not (filt >> r & 1 and row[r] == y):
                raise SectionViolation(
                    labels[x], f"not an involution of the filter at {labels[y]}")
        w = _antitone_failure(poset, row, filt)
        if w is not None:
            raise SectionViolation(
                labels[x], f"not antitone on ({labels[w[0]]}, {labels[w[1]]})")
        rows.append(row)
    s = SectionedPoset(poset, tuple(rows))
    # forced for antitone involutions on bounded filters
    if not all(rows[x][x] == poset.top and rows[x][poset.top] == x
               for x in range(n)):
        raise AssertionError("a section must swap the bottom and top of its filter")
    return s


def _build_row(poset_ref, build, key):
    return build(poset_ref(), *key)


def _per_row(p: FinitePoset, build) -> LazyDict:
    """``memo[key]``: ``build(p, *key)``, kept on ``p._memo`` under
    ``build`` for every family of ``p``.

    The memo holds ``p`` by a weak reference, so it makes no reference
    cycle through ``p._memo`` and is freed with the poset, without the
    collector. A hit is a plain dict lookup.
    """
    memo = p._memo.get(build)
    if memo is None:
        memo = p._memo[build] = LazyDict(partial(_build_row, weakref.ref(p), build))
    return memo


def relative_paraortho_witness(s: SectionedPoset) -> Optional[Tuple[int, int, int]]:
    """A triple (x, y, z) with x <= y < z and y^x meet z = x inside [x,1].

    The meet is read on relative cones, so it never requires the meet to
    exist as an element. Each row is scanned once per poset; the witness
    is the first in (x, y, z) order.
    """
    memo = _per_row(s.poset, _para_row)
    for x, row in enumerate(s.sections):
        w = memo[x, row]
        if w is not None:
            return (x, *w)
    return None


def is_relatively_paraorthomodular(s: SectionedPoset) -> bool:
    return relative_paraortho_witness(s) is None


def check_C(s: SectionedPoset) -> Tuple[bool, Optional[Tuple[int, int, int]]]:
    """Whether z^y = z^x v y on every chain x <= y <= z.

    A chain where the join z^x v y is missing fails the condition.
    """
    p, sec = s.poset, s.sections
    for x in range(p.n):
        for y in bits(p.up[x]):
            for z in bits(p.up[y]):
                if p.joins[sec[x][z]][y] != sec[y][z]:
                    return False, (x, y, z)
    return True, None


def _i3_column(p: FinitePoset, y: int, row) -> Tuple[int, ...]:
    """Column y of I3, where ``row`` is the section on [y,1]."""
    return tuple([_image(row, m) for m in p.min_upper[y]])


def impl_I3(s: SectionedPoset) -> SetValuedTable:
    """x -> y as the section images of the minimal upper bounds of (x, y).

    Column y reads row y alone, and is built once per poset and row.
    """
    memo = _per_row(s.poset, _i3_column)
    cols = [memo[y, row] for y, row in enumerate(s.sections)]
    return SetValuedTable(s.poset, tuple(zip(*cols)))


def _i4_column(p: FinitePoset, y: int, row) -> Tuple[int, ...]:
    """Column y of I4, where ``row`` is the section on [y,1]."""
    return tuple([1 << row[j] for j in p.joins[y]])


def _require_joins(p: FinitePoset) -> None:
    """Raise NotJoinSemilattice, naming the first pair without a join; a
    finite bounded poset with every join is a lattice."""
    if p.is_lattice:
        return
    for x, joins_x in enumerate(p.joins):
        if None in joins_x:
            y = joins_x.index(None)
            raise NotJoinSemilattice(f"join of {p.labels[x]} and {p.labels[y]} missing")


def impl_I4(s: SectionedPoset) -> SetValuedTable:
    """x -> y as (x v y)^y on join-semilattices; cells are singletons.

    Column y reads row y alone, and is built once per poset and row.
    """
    p = s.poset
    _require_joins(p)
    memo = _per_row(p, _i4_column)
    cols = [memo[y, row] for y, row in enumerate(s.sections)]
    return SetValuedTable(p, tuple(zip(*cols)))


def _i4_antitone_column(p: FinitePoset, y: int, row) -> bool:
    """Whether column y of I4, where ``row`` is the section on [y,1], is
    antitone: the union of the cells of the w >= x lies below cell x.
    A non-singleton cell raises before any two cells are compared."""
    col = _per_row(p, _i4_column)[y, row]
    if not all(c and c & (c - 1) == 0 for c in col):
        raise PosetError("cell is not a singleton")
    down = p.down
    return all(not union(col, u_x) & ~down[c.bit_length() - 1]
               for u_x, c in zip(p.up, col))


def i4_antitone(s: SectionedPoset) -> bool:
    """Whether I4 is antitone in its first argument, as
    ``implication.antitone_first_arg`` reads its table, from one verdict
    per poset and (filter, row) and with no I4 table."""
    p = s.poset
    _require_joins(p)
    memo = _per_row(p, _i4_antitone_column)
    # a list, not a generator: every column is read, so a non-singleton
    # cell raises even after a column that is not antitone
    return all([memo[y, row] for y, row in enumerate(s.sections)])


def _th2_column(p: FinitePoset, y: int, row) -> Optional[tuple]:
    """The ``th2`` violations of column y of I3, where ``row`` is the
    section on [y,1]: None, or the (clause, x, y) tuples, literal and
    elementwise, in (x, clause) order.

    Clause (iii-ge) follows from (iii-join), since y <= x gives
    x v y = x; it is checked on its own all the same.
    """
    col = _per_row(p, _i3_column)[y, row]
    up, up_y = p.up, p.up[y]
    one, approx2 = 1 << p.top, p._approx2
    literal, elementwise = [], []
    for x, (cell, j, minu) in enumerate(zip(col, p.joins[y], p.min_upper[y])):
        le = up[x] >> y & 1
        if cell & ~up_y:
            literal.append(("i", x, y))
        if (cell == one) != le:
            literal.append(("ii", x, y))
        if le and cell != one:
            literal.append(("iii-le", x, y))
        if j is not None and cell != 1 << row[j]:
            literal.append(("iii-join", x, y))
        if up_y >> x & 1 and cell != 1 << row[x]:
            literal.append(("iii-ge", x, y))
        lhs = (col[cell.bit_length() - 1] if cell and not cell & (cell - 1)
               else union(col, cell))
        if lhs != minu:
            literal.append(("iv", x, y))
            if not approx2(lhs, minu):
                elementwise.append(("iv", x, y))
        lhs = (col[lhs.bit_length() - 1] if lhs and not lhs & (lhs - 1)
               else union(col, lhs))
        if lhs != cell:
            literal.append(("v", x, y))
            if not approx2(lhs, cell):
                elementwise.append(("v", x, y))
    return (literal, elementwise) if literal else None


_BY_CELL = itemgetter(1, 2)


def check_th2(s: SectionedPoset) -> TheoremReport:
    """Elementary properties of the section implication.

    Each column is checked once per poset and row.
    """
    memo = _per_row(s.poset, _th2_column)
    rep = TheoremReport()
    found = [memo[y, row] for y, row in enumerate(s.sections)]
    if any(found):
        rep.violations = sorted(chain.from_iterable(f[0] for f in found if f),
                                key=_BY_CELL)
        rep.violations_elementwise = sorted(chain.from_iterable(f[1] for f in found if f),
                                            key=_BY_CELL)
    return rep


def _law_column(p: FinitePoset, y: int, gy: int, row) -> bool:
    """Whether column y of I3 keeps the law at y, where gy = y^0 and
    ``row`` is the section on [y,1]: no x < y^0 has x -> y = {y}."""
    col, bit = _per_row(p, _i3_column)[y, row], 1 << y
    return all(col[x] != bit for x in bits(p.down[gy] & ~(1 << gy)))


def para_via_I3(s: SectionedPoset) -> Tuple[bool, bool, bool]:
    """Global paraorthomodularity of ^0 against the implication law.

    The law: x <= y^0 and x -> y = {y} together force x = y^0. The
    direct verdict is relative paraorthomodularity on [0,1], read once
    per poset and row 0, and the law at y reads column y and y^0 once
    per poset, row y and y^0.
    """
    p = s.poset
    g = s.sections[p.bottom]
    direct = _per_row(p, _para_row)[p.bottom, g] is None
    laws = _per_row(p, _law_column)
    law = all(laws[y, gy, row] for y, (gy, row) in enumerate(zip(g, s.sections)))
    return direct, law, direct == law


def relpara_via_impl_under_C(s: SectionedPoset) -> Tuple[bool, bool, bool]:
    """Relative paraorthomodularity against 'x -> y = {1} forces x <= y'.

    The equivalence needs the compatibility condition on sections,
    which is checked first: a family where it fails raises
    ``CompatibilityFailed``.
    """
    ok, w = cached(s, check_C)
    if not ok:
        raise CompatibilityFailed(f"compatibility fails on chain {w}")
    law = unit_law(cached(s, impl_I3))
    direct = is_relatively_paraorthomodular(s)
    return direct, law, direct == law


def sections_from_involution(o) -> SectionedPoset:
    """Sections z^y := z' v y induced by a global involution.

    Needs every join z' v y with y <= z to exist; each is the element
    whose up row is ``up[z'] & up[y]``. On an orthomodular structure this
    family satisfies the compatibility condition, and a family that
    satisfies it is the one induced by its own row 0, since C at x = 0
    reads z^y = z^0 v y.
    """
    p, inv = o.poset, o.inv
    up, labels = p.up, p.labels
    join_of = {row: j for j, row in enumerate(up)}.get
    rows = []
    for x, u_x in enumerate(up):
        row = [-1] * p.n
        for y in bits(u_x):
            j = join_of(up[inv[y]] & u_x)
            if j is None:
                raise JoinMissing(f"join of {labels[inv[y]]} and {labels[x]} missing")
            row[y] = j
        rows.append(row)
    return validate_sections(p, rows)
