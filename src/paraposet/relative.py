"""Per-filter involutions, relative paraorthomodularity and the
section-based implications.

A section family assigns every element x an antitone involution of the
principal filter [x,1]. Stored as one row per x with the image of y,
or -1 for y outside the filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .poset import FinitePoset, PosetError, bits, mask_of
from .implication import (JoinMissing, SetValuedTable, TheoremReport, _image, _table,
                          cached, unit_law)
from .ortho import OrthoPoset, paraortho_witness


class SectionViolation(PosetError):
    def __init__(self, x, detail):
        super().__init__(f"bad section at {x}: {detail}")
        self.base = x


class NotJoinSemilattice(PosetError):
    pass


class CompatibilityFailed(PosetError):
    pass


@dataclass(frozen=True)
class SectionedPoset:
    """A bounded poset with an antitone involution on every [x,1].

    ``_memo`` holds the tables and reports built from the structure (see
    :func:`paraposet.ortho.cached`).
    """

    poset: FinitePoset
    sections: Tuple[Tuple[int, ...], ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def sec(self, x: int, y: int) -> int:
        """The image y^x; y must lie in [x,1]."""
        v = self.sections[x][y]
        if v < 0:
            raise SectionViolation(self.poset.labels[x],
                                   f"{self.poset.labels[y]} not in the filter")
        return v

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
    """Check every row is an antitone involution of its filter."""
    rows = []
    for x in range(poset.n):
        row = list(sections[x])
        lx = poset.labels[x]
        filt = poset.up[x]
        if len(row) != poset.n:
            raise SectionViolation(lx, "row length mismatch")
        for y in range(poset.n):
            inside = bool(filt >> y & 1)
            if inside != (row[y] >= 0):
                raise SectionViolation(lx, f"domain mismatch at {poset.labels[y]}")
            if inside and not (poset.leq(x, row[y]) and row[row[y]] == y):
                raise SectionViolation(lx, f"not an involution of the filter at {poset.labels[y]}")
        for y in bits(filt):
            for z in bits(poset.up[y]):
                if not poset.leq(row[z], row[y]):
                    raise SectionViolation(
                        lx, f"not antitone on ({poset.labels[y]}, {poset.labels[z]})")
        rows.append(tuple(row))
    s = SectionedPoset(poset, tuple(rows))
    # forced for antitone involutions on bounded filters
    if not all(rows[x][x] == poset.top and rows[x][poset.top] == x
               for x in range(poset.n)):
        raise AssertionError("a section must swap the bottom and top of its filter")
    return s


def relative_paraortho_witness(s: SectionedPoset) -> Optional[Tuple[int, int, int]]:
    """A triple (x, y, z) with x <= y < z and y^x meet z = x inside [x,1].

    The meet is read on relative cones, so it never requires the meet to
    exist as an element.
    """
    p = s.poset
    for x in range(p.n):
        filt = p.up[x]
        for y in bits(filt):
            yi = s.sections[x][y]
            for z in bits(p.up[y] & ~(1 << y)):
                if p.down[yi] & p.down[z] & filt == 1 << x:
                    return (x, y, z)
    return None


def is_relatively_paraorthomodular(s: SectionedPoset) -> bool:
    return relative_paraortho_witness(s) is None


def check_C(s: SectionedPoset) -> Tuple[bool, Optional[Tuple[int, int, int]]]:
    """Whether z^y = z^x v y on every chain x <= y <= z."""
    p = s.poset
    for x in range(p.n):
        for y in bits(p.up[x]):
            for z in bits(p.up[y]):
                if _image(p, "join", s.sections[x][z], 1 << y) != 1 << s.sections[y][z]:
                    return False, (x, y, z)
    return True, None


def impl_I3(s: SectionedPoset) -> SetValuedTable:
    """x -> y as the section images of the minimal upper bounds of (x, y)."""
    p, sec, minu = s.poset, s.sections, s.poset.min_upper
    return _table(p, lambda x, y: mask_of(sec[y][w] for w in bits(minu[x][y])))


def impl_I4(s: SectionedPoset) -> SetValuedTable:
    """x -> y as (x v y)^y on join-semilattices; cells are singletons."""
    p, sec = s.poset, s.sections
    return _table(p, lambda x, y: mask_of(
        sec[y][j] for j in bits(_image(p, "join", x, 1 << y, NotJoinSemilattice))))


def check_th2(s: SectionedPoset) -> TheoremReport:
    """Elementary properties of the section implication."""
    t = cached(s, impl_I3)
    p = s.poset
    rep = TheoremReport("th2")
    violations, identity, lift = rep.violations, rep.identity, t.lift
    up, joins, min_upper, sec = p.up, p.joins, p.min_upper, s.sections
    one = 1 << p.top
    for x, row in enumerate(t.cells):
        up_x, joins_x = up[x], joins[x]
        for y, cell in enumerate(row):
            le = up_x >> y & 1
            if cell & ~up[y]:
                violations.append(("i", x, y))
            if (cell == one) != le:
                violations.append(("ii", x, y))
            if le and cell != one:
                violations.append(("iii-le", x, y))
            j = joins_x[y]
            if j is not None and cell != 1 << sec[y][j]:
                violations.append(("iii-join", x, y))
            if up[y] >> x & 1 and cell != 1 << sec[y][x]:
                violations.append(("iii-ge", x, y))
            lhs = lift(cell, y)
            identity(p, "iv", lhs, min_upper[x][y], x, y)
            identity(p, "v", lift(lhs, y), cell, x, y)
    return rep


def para_via_I3(s: SectionedPoset) -> Tuple[bool, bool, bool]:
    """Global paraorthomodularity of ^0 against the implication law.

    The law: x <= y^0 and x -> y = {y} together force x = y^0.
    """
    t = cached(s, impl_I3)
    p = s.poset
    g = s.sections[p.bottom]
    direct = paraortho_witness(s.ortho) is None
    law = all(
        x == g[y]
        for x in range(p.n) for y in range(p.n)
        if p.leq(x, g[y]) and t.cell(x, y) == 1 << y
    )
    return direct, law, direct == law


def relpara_via_impl_under_C(s: SectionedPoset) -> Tuple[bool, bool, bool]:
    """Relative paraorthomodularity against 'x -> y = {1} forces x <= y'.

    The equivalence needs the compatibility condition on sections.
    """
    ok, w = cached(s, check_C)
    if not ok:
        raise CompatibilityFailed(f"compatibility fails on chain {w}")
    law = unit_law(cached(s, impl_I3))
    direct = is_relatively_paraorthomodular(s)
    return direct, law, direct == law


def sections_from_involution(o) -> SectionedPoset:
    """Sections z^y := z' v y induced by a global involution.

    Needs every join z' v y with y <= z to exist; on orthomodular
    lattices this family satisfies the compatibility condition.
    """
    p = o.poset
    rows = []
    for x in range(p.n):
        row = [-1] * p.n
        for y in bits(p.up[x]):
            j = p.join(o.inv[y], x)
            if j is None:
                raise JoinMissing(
                    f"join of {p.labels[o.inv[y]]} and {p.labels[x]} missing")
            row[y] = j
        rows.append(tuple(row))
    return validate_sections(p, rows)
