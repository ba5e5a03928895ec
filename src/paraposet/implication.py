"""Set-valued implication operators and their verified properties.

The operators are materialized as full n x n tables of subset bitmasks.
Each builder states only its cell rule, read off the poset's pair-bound
tables (``max_lower``, ``min_upper``) and meet/join tables, and
``_table`` lays the cells out. Theorem-check helpers walk the tables
and report violating clauses with witnesses (expected: none, on inputs
meeting the hypotheses). The checks read their tables through
:func:`cached`, so each table is built once per structure however many
statements are checked on it; the public builders themselves always
build afresh.

The checks test a whole z-range of a relation at once, as one bitmask
per (x, y) pair. A table keeps its le1 rows, built once on first use:
``le1[y][x]`` is the mask of the z with {x} le1 t(y, z), that is the z
whose cell t(y, z) has a member in up[x]. First-argument antitonicity
packs each row into one integer with n bits per z: the row
``R[y] = sum of t(y, z) << z*n`` and its down-set ``D[x]`` packed the
same way. Then t(y, z) le1 t(x, z) holds for every z exactly when
``R[y] & ~D[x] == 0``, and each failing z is one n-bit block of the
difference, read lowest first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, List, Tuple

from .poset import FinitePoset, PosetError, bits
from .ortho import (NotOrthogonal, OrthoPoset, _require_orthogonal, cached,
                    is_complementation, is_paraorthomodular)


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

    def lift(self, a: int, y: int) -> int:
        """Union extension to the pair (A, {y}): union of the cells (x, y), x in A."""
        if a and a & (a - 1) == 0:
            return self.cells[a.bit_length() - 1][y]
        out = 0
        for x in bits(a):
            out |= self.cells[x][y]
        return out

    @cached_property
    def le1(self) -> Tuple[Tuple[int, ...], ...]:
        """``le1[y][x]``: the mask of the z with {x} le1 t(y, z)."""
        out = []
        for row in self.cells:
            cols = []
            for up_x in self.poset.up:
                m = 0
                for z, c in enumerate(row):
                    if c & up_x:
                        m |= 1 << z
                cols.append(m)
            out.append(tuple(cols))
        return tuple(out)


def _image(row, mask: int) -> int:
    """The mask of the ``row[b]`` over the b in ``mask``, every one an element."""
    out = 0
    for b in bits(mask):
        out |= 1 << row[b]
    return out


def _table(p: FinitePoset, cell) -> SetValuedTable:
    """The table of ``p`` whose (x, y) cell is ``cell(x, y)``."""
    r = range(p.n)
    return SetValuedTable(p, tuple(tuple(cell(x, y) for y in r) for x in r))


def impl_I(o: OrthoPoset) -> SetValuedTable:
    """x -> y as the joins of y with the maximal lower bounds of (x', y')."""
    _require_orthogonal(o)
    p, inv, maxl = o.poset, o.inv, o.poset.max_lower
    # a <= y' makes a orthogonal to y, so the joins exist
    return _table(p, lambda x, y: _image(p.joins[y], maxl[inv[x]][inv[y]]))


def impl_I2(o: OrthoPoset) -> SetValuedTable:
    """Lattice form y v (x' ^ y'); cells are singletons."""
    p, inv = o.poset, o.inv
    if not p.is_lattice:
        raise NotALattice("the (I2) operator needs a lattice")
    return _table(p, lambda x, y: 1 << p.joins[y][p.meets[inv[x]][inv[y]]])


def sasaki_proj(o: OrthoPoset) -> SetValuedTable:
    """x (.) y: meets of y with the minimal upper bounds of (x, y')."""
    _require_orthogonal(o)
    p, inv, minu = o.poset, o.inv, o.poset.min_upper
    # b >= y' makes b' orthogonal to y', so the meets y ^ b = (y' v b')' exist
    return _table(p, lambda x, y: _image(p.meets[y], minu[x][inv[y]]))


def sasaki_impl(o: OrthoPoset) -> SetValuedTable:
    """x -> y as joins of x' with the maximal lower bounds of (x, y)."""
    _require_orthogonal(o)
    p, inv, maxl = o.poset, o.inv, o.poset.max_lower
    # a <= x makes a orthogonal to x', so the joins exist
    return _table(p, lambda x, y: _image(p.joins[inv[x]], maxl[x][y]))


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


def _antitone_failures(t: SetValuedTable) -> Iterator[Tuple[int, int, int]]:
    """The (x, y, z) with x <= y and t(y, z) not le1 t(x, z), in (x, y, z) order.

    Reads the packed rows ``R[y]`` and down-sets ``D[x]`` (see the
    module docstring): the failing z of a pair x <= y are the nonzero
    n-bit blocks of ``R[y] & ~D[x]``.
    """
    p = t.poset
    n, down = p.n, p._downset
    rows, downs = [], []
    for cells in t.cells:
        r = d = 0
        for c in reversed(cells):
            r = r << n | c
            d = d << n | down(c)
        rows.append(r)
        downs.append(d)
    for x, dx in enumerate(downs):
        for y in bits(p.up[x]):
            bad = rows[y] & ~dx
            while bad:
                z = ((bad & -bad).bit_length() - 1) // n
                yield x, y, z
                bad &= -1 << (z + 1) * n


def antitone_first_arg(t: SetValuedTable) -> bool:
    """x <= y forces t(y, z) <= t(x, z); the cells must be singletons.

    Every cell is checked to be a singleton, raising PosetError
    otherwise, before any two cells are compared.
    """
    if not all(c and c & (c - 1) == 0 for row in t.cells for c in row):
        raise PosetError("cell is not a singleton")
    return next(_antitone_failures(t), None) is None


def unit_law(t: SetValuedTable) -> bool:
    """t(x, y) = {1} forces x <= y."""
    p = t.poset
    one = 1 << p.top
    for up_x, row in zip(p.up, t.cells):
        ones = 0
        for y, c in enumerate(row):
            if c == one:
                ones |= 1 << y
        if ones & ~up_x:
            return False
    return True


def check_th1(o: OrthoPoset) -> TheoremReport:
    """Elementary properties of the (I1) implication on orthogonal posets.

    Every join and meet the clauses read exists, so each is a plain
    lookup in ``joins``/``meets``. In an orthogonal poset a ^ b exists
    whenever a' <= b, being (a' v b')'. So: y v y' exists, y being
    orthogonal to y'; x <= y' gives x' ^ y' = (x v y)', and y v (x' ^ y')
    exists as y <= x v y; y <= x makes y orthogonal to x'; b >= y gives
    y' ^ b = (b' v y)', and y v (y' ^ b) exists as y <= b' v y; and
    every m <= y' is orthogonal to y, so y v m exists.

    The right-hand sides of clauses (iv) and (v) are y v (y' ^ B), with
    B = Min U(x, y) for (iv) and B = y v Max L(x', y') for (v); every b
    in either lies above y. Each is the image of B under the row
    ``g[y][b] = y v (y' ^ b)``, built once per structure for the b >= y.
    It depends on x only through Min U(x, y) or Max L(x', y'), so it is
    computed at the first x that needs it and kept for the others.
    """
    t = cached(o, impl_I)
    p = o.poset
    n = p.n
    rep = TheoremReport("th1")
    violations, identity, lift = rep.violations, rep.identity, t.lift
    inv, up, meets, joins = o.inv, p.up, p.meets, p.joins
    max_lower, min_upper = p.max_lower, p.min_upper
    one = 1 << p.top
    complemented = is_complementation(o)
    g = []
    for y, join_y in enumerate(joins):
        row, meet_yi = [None] * n, meets[inv[y]]
        for b in bits(up[y]):
            row[b] = join_y[meet_yi[b]]
        g.append(row)

    # per y, the right-hand sides of (iv) by Min U(x, y) and of (v) by
    # Max L(x', y'), each computed at its first x
    rhs_iv = [{} for _ in range(n)]
    rhs_v = [{} for _ in range(n)]
    for x, row in enumerate(t.cells):
        xi, up_x = inv[x], up[x]
        min_upper_x, max_lower_xi, meets_xi = min_upper[x], max_lower[xi], meets[xi]
        for y, cell in enumerate(row):
            yi, up_y, join_y = inv[y], up[y], joins[y]
            # (i) y below every member
            if cell & ~up_y:
                violations.append(("i", x, y))
            # (iii) case formulas
            if up_x >> y & 1:
                identity(p, "iii-le", cell, 1 << join_y[yi], x, y)
                if complemented and cell != one:
                    violations.append(("iii-compl", x, y))
            if up_x >> yi & 1:
                identity(p, "iii-perp", cell, 1 << join_y[meets_xi[yi]], x, y)
            if up_y >> x & 1:
                identity(p, "iii-ge", cell, 1 << join_y[xi], x, y)
            # (iv) (x -> y) -> y against y v (y' ^ Min U(x, y))
            lhs = lift(cell, y)
            b = min_upper_x[y]
            want = rhs_iv[y].get(b)
            if want is None:
                want = rhs_iv[y][b] = _image(g[y], b)
            identity(p, "iv", lhs, want, x, y)
            # (v) triple implication against y v (y' ^ (y v Max L(x', y')))
            b = max_lower_xi[yi]
            want = rhs_v[y].get(b)
            if want is None:
                want = rhs_v[y][b] = _image(g[y], _image(join_y, b))
            identity(p, "v", lift(lhs, y), want, x, y)
    # (ii) antitone in the first argument, up to le1
    violations.extend(("ii", *w) for w in _antitone_failures(t))
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
