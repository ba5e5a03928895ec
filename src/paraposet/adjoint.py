"""Adjointness conditions for product/implication pairs.

The element-level conditions (A)/(B) only make sense where both cells
are singletons; non-singleton cells are counted as not applicable
instead of being coerced. The subscripted variants work on arbitrary
set-valued cells through the le1/le2 relations, read as bit tests from
the unions of the order rows over each cell. The two condition
reports the statements share (the Sasaki pair, and the Sasaki product
with the cone implication) and the residuation of the cone implication
are built once per structure, through :func:`implication.cached`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from .poset import FinitePoset
from .ortho import (OrthoPoset, is_boolean_algebra, is_boolean_poset,
                    is_orthogonal_poset, is_orthomodular, is_weakly_boolean)
from .implication import (NotALattice, SetValuedTable,
                          TheoremReport, cached, impl_I, sasaki_impl, sasaki_proj,
                          _require_orthogonal)


@dataclass
class AdjointnessReport:
    holds_A: bool = True
    holds_B: bool = True
    holds_A21: bool = True
    holds_B12: bool = True
    witness_A: Optional[tuple] = None
    witness_B: Optional[tuple] = None
    witness_A21: Optional[tuple] = None
    witness_B12: Optional[tuple] = None
    not_applicable: int = 0


def _cell_unions(span: Callable[[int], int], t: SetValuedTable) -> list:
    """``out[x][y]``: ``span`` of the cell t(x, y).

    With ``FinitePoset._upset``, z is in ``out[x][y]`` exactly when
    t(x, y) le2 {z}; with ``_downset``, x is in ``out[y][z]`` exactly
    when {x} le1 t(y, z).
    """
    return [[span(c) for c in cells] for cells in t.cells]


def check_conditions(o: OrthoPoset, prod: SetValuedTable,
                     imp: SetValuedTable) -> AdjointnessReport:
    """Evaluate (A), (B) and their subscripted variants over all triples."""
    p = o.poset
    rep = AdjointnessReport()
    up = p.up
    upcov = _cell_unions(p._upset, prod)
    downcov = _cell_unions(p._downset, imp)
    for x in range(p.n):
        for y in range(p.n):
            pc = prod.cells[x][y]
            up_pc = up[pc.bit_length() - 1]
            up_xy, imp_y, downcov_y = upcov[x][y], imp.cells[y], downcov[y]
            for z in range(p.n):
                ic = imp_y[z]
                if pc & (pc - 1) == 0 and ic & (ic - 1) == 0:
                    pe_z = up_pc >> z & 1
                    x_ie = up[x] >> (ic.bit_length() - 1) & 1
                    if pe_z and not x_ie and rep.holds_A:
                        rep.holds_A = False
                        rep.witness_A = (x, y, z)
                    if x_ie and not pe_z and rep.holds_B:
                        rep.holds_B = False
                        rep.witness_B = (x, y, z)
                else:
                    rep.not_applicable += 1
                le2 = up_xy >> z & 1
                le1 = downcov_y[z] >> x & 1
                if le2 and not le1 and rep.holds_A21:
                    rep.holds_A21 = False
                    rep.witness_A21 = (x, y, z)
                if le1 and not le2 and rep.holds_B12:
                    rep.holds_B12 = False
                    rep.witness_B12 = (x, y, z)
    return rep


def _sasaki_conditions(o: OrthoPoset) -> AdjointnessReport:
    """The conditions for the Sasaki product and Sasaki implication."""
    return check_conditions(o, cached(o, sasaki_proj), cached(o, sasaki_impl))


def _mixed_conditions(o: OrthoPoset) -> AdjointnessReport:
    """The conditions for the Sasaki product and the cone implication."""
    return check_conditions(o, cached(o, sasaki_proj), cached(o, impl_I))


def lemma_AB_equiv(o: OrthoPoset) -> bool:
    """(A) matches (B) and the subscripted pair matches, for the Sasaki pair."""
    rep = cached(o, _sasaki_conditions)
    return rep.holds_A == rep.holds_B and rep.holds_A21 == rep.holds_B12


# -- lattice-side results (plain involutions allowed) -----------------

def _sasaki_lattice(p: FinitePoset, inv: Sequence[int]):
    """Direct lattice formulas for the Sasaki product and implication."""
    if not p.is_lattice:
        raise NotALattice("Sasaki lattice operators need a lattice")
    meets, joins, r = p.meets, p.joins, range(p.n)
    prod = [[meets[y][joins[x][inv[y]]] for y in r] for x in r]
    imp = [[joins[inv[x]][meets[x][y]] for y in r] for x in r]
    return prod, imp


def omidentity_equiv(p: FinitePoset, inv: Sequence[int]) -> Tuple[bool, bool, bool]:
    """Both orthomodular identities against two-sided Sasaki adjointness.

    Stated for lattices with an arbitrary involution; ``inv`` only needs
    to satisfy inv[inv[x]] == x.
    """
    inv = tuple(inv)
    if not all(inv[inv[x]] == x for x in range(p.n)):
        raise AssertionError(f"not an involution: {inv}")
    prod, imp = _sasaki_lattice(p, inv)
    meets, joins, up, r = p.meets, p.joins, p.up, range(p.n)
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


def sasom_equiv(o: OrthoPoset) -> Tuple[bool, bool, bool]:
    """Orthomodularity against the le2/le1 Sasaki adjointness on posets."""
    _require_orthogonal(o)
    rep = cached(o, _sasaki_conditions)
    adj21 = rep.holds_A21 and rep.holds_B12
    om = is_orthomodular(o)
    return om, adj21, om == adj21


@dataclass
class ConditionReport:
    """Outcome of a 'condition forces orthomodularity' statement."""

    condition_holds: bool
    orthomodular: bool

    @property
    def consistent(self) -> bool:
        return not self.condition_holds or self.orthomodular


def th3_check(o: OrthoPoset) -> ConditionReport:
    """(A) for the Sasaki product with the cone implication, on lattices;
    the le2/le1 variant on non-lattice orthogonal posets. Either one
    holding forces orthomodularity."""
    rep = cached(o, _mixed_conditions)
    cond = rep.holds_A if o.poset.is_lattice else rep.holds_A21
    return ConditionReport(cond, is_orthomodular(o))


def posth3_check(o: OrthoPoset) -> ConditionReport:
    """The le2/le1 condition variant on any orthogonal poset."""
    rep = cached(o, _mixed_conditions)
    return ConditionReport(rep.holds_A21, is_orthomodular(o))


# -- residuation ------------------------------------------------------

@dataclass
class ResiduationResult:
    product: Optional[SetValuedTable]
    failure: Optional[Tuple[int, int]] = None
    adjoint: bool = False


def residuate(o: OrthoPoset, imp: SetValuedTable) -> ResiduationResult:
    """Try to build the product adjoint to ``imp``.

    For each (x, y) the candidate set is every z with x le1 imp(y, z);
    the product cell is its least element, and a pair without one is
    reported as the ``failure``.
    """
    p = o.poset
    downcov = _cell_unions(p._downset, imp)
    cells = []
    for x in range(p.n):
        row = []
        for y in range(p.n):
            cand = 0
            for z in range(p.n):
                if downcov[y][z] >> x & 1:
                    cand |= 1 << z
            least = p.min_of(cand)
            if least == 0 or least & (least - 1):
                return ResiduationResult(None, failure=(x, y))
            row.append(least)
        cells.append(tuple(row))
    prod = SetValuedTable(p, tuple(cells))
    adjoint = all(
        p.leq(prod.element(x, y), z) == bool(downcov[y][z] >> x & 1)
        for x in range(p.n) for y in range(p.n) for z in range(p.n)
    )
    return ResiduationResult(prod, adjoint=adjoint)


def cone_adjoint(o: OrthoPoset) -> Optional[SetValuedTable]:
    """The product adjoint to the cone implication, or None if there is none."""
    res = residuate(o, cached(o, impl_I))
    return res.product if res.adjoint else None


def adji_consequences(o: OrthoPoset, prod: SetValuedTable) -> TheoremReport:
    """Consequences of having a product adjoint to the cone implication."""
    p = o.poset
    rep = TheoremReport("adji")
    zero = 1 << p.bottom
    for x in range(p.n):
        if prod.cell(x, o.inv[x]) != zero:
            rep.violations.append(("i", x))
    if not is_orthomodular(o):
        rep.violations.append(("ii",))
    for x in range(p.n):
        for y in range(p.n):
            pc = prod.cell(x, y)
            maxl = p.max_of(p.down[x] & p.down[y])
            if pc & ~p._downset(maxl):
                rep.violations.append(("iii", x, y))
            if pc & ~(p.down[x] & p.down[y]):
                rep.violations.append(("iii-bound", x, y))
    if not is_weakly_boolean(o):
        rep.violations.append(("iv",))
    return rep


def adjibp_check(o: OrthoPoset) -> Optional[bool]:
    """Orthogonal Boolean posets with maximality must be Boolean algebras.

    Returns None when the hypotheses fail, else the conclusion verdict.
    """
    if not (is_orthogonal_poset(o) and is_boolean_poset(o)
            and o.poset.has_maximality()):
        return None
    return is_boolean_algebra(o)


def adjebp_equiv(o: OrthoPoset) -> Tuple[bool, bool, bool]:
    """Adjoint-to-cone-implication existence against Booleanness."""
    prod = cached(o, cone_adjoint)
    exists = prod is not None
    if exists:
        rep = adji_consequences(o, prod)
        if not rep.ok:
            raise AssertionError(
                f"adjoint product consequences fail: {rep.violations}")
    is_ba = is_boolean_algebra(o)
    if is_boolean_poset(o) and adjibp_check(o) not in (None, True):
        raise AssertionError("orthogonal Boolean poset with maximality "
                             "is not a Boolean algebra")
    return exists, is_ba, exists == is_ba
