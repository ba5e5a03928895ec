"""Set-valued implication operators and their verified properties.

The operators are materialized as full n x n tables of subset bitmasks;
theorem-check helpers walk the tables and report violating clauses with
witnesses (expected: none, on inputs meeting the hypotheses). The checks
read their tables through :func:`cached`, so each table is built once per
structure however many statements are checked on it; the public
builders themselves always build afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from .poset import FinitePoset, PosetError, bits
from .ortho import (OrthoPoset, cached, is_complementation, is_paraorthomodular,
                    orthogonality_witness)


class NotOrthogonal(PosetError):
    def __init__(self, witness):
        super().__init__(f"poset is not orthogonal (witness pair {witness})")
        self.witness = witness


class JoinMissing(PosetError):
    pass


class NotALattice(PosetError):
    pass


@dataclass(frozen=True)
class SetValuedTable:
    """A total map from element pairs to nonempty subsets."""

    poset: FinitePoset
    cells: Tuple[Tuple[int, ...], ...]

    def cell(self, x: int, y: int) -> int:
        return self.cells[x][y]

    def lift(self, a: int, b: int) -> int:
        """Union extension to subsets: union of cells over a x b."""
        out = 0
        for x in bits(a):
            row = self.cells[x]
            for y in bits(b):
                out |= row[y]
        return out

    def element(self, x: int, y: int) -> int:
        c = self.cells[x][y]
        if c & (c - 1):
            raise PosetError("cell is not a singleton")
        return c.bit_length() - 1


def _require_orthogonal(o: OrthoPoset) -> None:
    w = orthogonality_witness(o)
    if w is not None:
        raise NotOrthogonal(w)


def _join(p: FinitePoset, x: int, y: int) -> int:
    j = p.join(x, y)
    if j is None:
        raise JoinMissing(f"join of {p.labels[x]} and {p.labels[y]} missing")
    return j


def impl_I(o: OrthoPoset) -> SetValuedTable:
    """x -> y as the joins of y with the maximal lower bounds of (x', y')."""
    _require_orthogonal(o)
    p = o.poset
    cells = []
    for x in range(p.n):
        xi = o.inv[x]
        row = []
        for y in range(p.n):
            yi = o.inv[y]
            maxl = p.max_of(p.down[xi] & p.down[yi])
            cell = 0
            for a in bits(maxl):
                # a <= y' makes a orthogonal to y, so the join exists
                cell |= 1 << _join(p, y, a)
            row.append(cell)
        cells.append(tuple(row))
    return SetValuedTable(p, tuple(cells))


def impl_I2(o: OrthoPoset) -> SetValuedTable:
    """Lattice form y v (x' ^ y'); cells are singletons."""
    p = o.poset
    if not p.is_lattice:
        raise NotALattice("the (I2) operator needs a lattice")
    cells = []
    for x in range(p.n):
        xi = o.inv[x]
        row = []
        for y in range(p.n):
            m = p.meet(xi, o.inv[y])
            row.append(1 << p.join(y, m))
        cells.append(tuple(row))
    return SetValuedTable(p, tuple(cells))


def sasaki_proj(o: OrthoPoset) -> SetValuedTable:
    """x (.) y: meets of y with the minimal upper bounds of (x, y')."""
    _require_orthogonal(o)
    p = o.poset
    cells = []
    for x in range(p.n):
        row = []
        for y in range(p.n):
            minu = p.min_of(p.up[x] & p.up[o.inv[y]])
            cell = 0
            for w in bits(minu):
                m = p.meet(y, w)
                if m is None:
                    raise JoinMissing(
                        f"meet of {p.labels[y]} and {p.labels[w]} missing")
                cell |= 1 << m
            row.append(cell)
        cells.append(tuple(row))
    return SetValuedTable(p, tuple(cells))


def sasaki_impl(o: OrthoPoset) -> SetValuedTable:
    """x -> y as joins of x' with the maximal lower bounds of (x, y)."""
    _require_orthogonal(o)
    p = o.poset
    cells = []
    for x in range(p.n):
        xi = o.inv[x]
        row = []
        for y in range(p.n):
            maxl = p.max_of(p.down[x] & p.down[y])
            cell = 0
            for a in bits(maxl):
                cell |= 1 << _join(p, xi, a)
            row.append(cell)
        cells.append(tuple(row))
    return SetValuedTable(p, tuple(cells))


def duality_check(o: OrthoPoset) -> bool:
    """impl_I(x, y) equals sasaki_impl(y', x') cell-for-cell."""
    ti = cached(o, impl_I)
    ts = cached(o, sasaki_impl)
    return all(
        ti.cell(x, y) == ts.cell(o.inv[y], o.inv[x])
        for x in range(o.n) for y in range(o.n)
    )


# -- theorem checks ---------------------------------------------------

@dataclass
class TheoremReport:
    """Violations of a statement's clauses, with witnesses.

    ``violations`` holds (clause, elements...) tuples under literal set
    equality; ``violations_elementwise`` repeats the set-identity
    clauses under the two-sided le2 reading.
    """

    theorem: str
    violations: List[tuple] = field(default_factory=list)
    violations_elementwise: List[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.violations_elementwise

    def identity(self, p: FinitePoset, clause: str, lhs: int, rhs: int, *elems) -> None:
        """Record a set identity lhs = rhs of ``p`` failing literally and under approx2."""
        if lhs != rhs:
            self.violations.append((clause, *elems))
            if not p._approx2(lhs, rhs):
                self.violations_elementwise.append((clause, *elems))


def antitone_first_arg(t: SetValuedTable) -> bool:
    """x <= y forces t(y, z) <= t(x, z); the cells must be singletons."""
    p = t.poset
    for x in range(p.n):
        for y in bits(p.up[x]):
            for z in range(p.n):
                if not p.leq(t.element(y, z), t.element(x, z)):
                    return False
    return True


def unit_law(t: SetValuedTable) -> bool:
    """t(x, y) = {1} forces x <= y."""
    p = t.poset
    one = 1 << p.top
    return all(p.leq(x, y) for x in range(p.n) for y in range(p.n)
               if t.cell(x, y) == one)


def check_th1(o: OrthoPoset) -> TheoremReport:
    """Elementary properties of the (I1) implication on orthogonal posets."""
    t = cached(o, impl_I)
    p = o.poset
    rep = TheoremReport("th1")
    n = p.n
    for x in range(n):
        xi = o.inv[x]
        for y in range(n):
            yi = o.inv[y]
            cell = t.cell(x, y)
            # (i) y below every member
            if cell & ~p.up[y]:
                rep.violations.append(("i", x, y))
            # (iii) case formulas
            if p.leq(x, y):
                rep.identity(p, "iii-le", cell, 1 << _join(p, y, yi), x, y)
                if is_complementation(o) and cell != 1 << p.top:
                    rep.violations.append(("iii-compl", x, y))
            if p.leq(x, yi):
                m = p.meet(xi, yi)
                if m is None:
                    rep.violations.append(("iii-perp", x, y))
                else:
                    rep.identity(p, "iii-perp", cell, 1 << _join(p, y, m), x, y)
            if p.leq(y, x):
                rep.identity(p, "iii-ge", cell, 1 << _join(p, y, xi), x, y)
            # (iv) (x -> y) -> y against y v (y' ^ Min U(x, y))
            lhs = t.lift(cell, 1 << y)
            rhs = 0
            for w in bits(p.min_of(p.up[x] & p.up[y])):
                m = p.meet(yi, w)
                if m is None:
                    rep.violations.append(("iv", x, y))
                    break
                rhs |= 1 << _join(p, y, m)
            else:
                rep.identity(p, "iv", lhs, rhs, x, y)
            # (v) triple implication
            rhs5 = 0
            for a in bits(p.max_of(p.down[xi] & p.down[yi])):
                m = p.meet(yi, _join(p, y, a))
                if m is None:
                    rep.violations.append(("v", x, y))
                    break
                rhs5 |= 1 << _join(p, y, m)
            else:
                rep.identity(p, "v", t.lift(lhs, 1 << y), rhs5, x, y)
    # (ii) antitone in the first argument, up to le1
    for x in range(n):
        for y in bits(p.up[x]):
            for z in range(n):
                if t.cell(y, z) & ~p._downset(t.cell(x, z)):
                    rep.violations.append(("ii", x, y, z))
    return rep


def check_lemma_sharply(o: OrthoPoset) -> TheoremReport:
    """The sharply-paraorthomodular lemma for the (I1) implication."""
    t = cached(o, impl_I)
    p = o.poset
    zero = 1 << p.bottom
    rep = TheoremReport("lemma-sharply")
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


def paraortho_iff_impl(o: OrthoPoset) -> Tuple[bool, bool, bool]:
    """Paraorthomodularity against the 'x -> y = {1} forces x <= y' law."""
    law = unit_law(cached(o, impl_I))
    direct = is_paraorthomodular(o)
    return direct, law, direct == law
