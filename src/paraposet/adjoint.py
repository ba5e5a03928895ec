"""Adjointness conditions for product/implication pairs.

The element-level conditions (A)/(B) only make sense where both cells
are singletons; non-singleton cells are counted as not applicable
instead of being coerced. The subscripted variants work on arbitrary
set-valued cells through the le1/le2 relations. Each (x, y) pair reads
all z at once, as masks: le2 is the up-set of the product cell (x, y),
the z with prod(x, y) le2 {z}; le1 is the implication table's le1 row
``imp.le1[y][x]``, the z with {x} le1 imp(y, z); and ``single[y]`` is
the z whose implication cell imp(y, z) is a singleton. A condition
fails at (x, y) when its mask, such as ``le2 & ~le1`` for the
subscripted (A), is nonzero, and its witness is the lowest such z, the
first failing triple in (x, y, z) order. Residuation reads the same
le1 row as the candidate set of (x, y), and the product is adjoint
exactly when the up-set of each least candidate equals its candidate
set. The two condition reports the statements share (the Sasaki pair,
and the Sasaki product with the cone implication) and the residuation
of the cone implication are built once per structure, through
:func:`implication.cached`; the cone implication's le1 rows are built
once per table and serve both.

The lattice-side statement, ``omidentity_equiv``, takes any involution
of a lattice and reads each of its entries on its own. The orthomodular
identities at x, x v ((x v y) ^ x') = x v y and x ^ ((x ^ y) v x') =
x ^ y, read only inv[x]. The Sasaki product y ^ (x v y') and the Sasaki
implication y' v (y ^ z) read only inv[y], and so does their
adjointness at y over every (x, z). So two masks per element, built
once per lattice, hold the admissible values: ``G[x]`` those a for
which both identities hold at x when inv[x] = a, and ``H[y]`` those b
for which adjointness holds at y when inv[y] = b. Both are read from
two preimage tables, built in O(n^2): ``jpre[x][u]``, the m with
x v m = u, and ``mpre[x][d]``, the m with x ^ m = d. The first
identity holds at x for a when x v (u ^ a) = u for every u >= x, that
is when u ^ a lies in jpre[x][u], so G[x] is the intersection over
u >= x of the union of mpre[u][m] over m in jpre[x][u]; the second
identity is its dual over the d <= x. With b fixed, f(x) = y ^ (x v b)
and g(z) = b v (y ^ z) are monotone, so f is left adjoint to g exactly
when the unit x <= g(f(x)) holds for every x and the counit
f(g(z)) <= z for every z. The unit reads x only through v = x v b, so
it holds when each class jpre[b][v] lies below b v (y ^ v); the
counit reads z only through w = y ^ z, so it holds when each class
mpre[y][w] lies above y ^ (b v w). Each b costs one subset test per
v >= b and per w <= y, with early exit.

From the masks, one backtracker (``universe.involutions`` with the
masks as allowed partners) lists the involutions that fit G and those
that fit H, once per lattice, into one dict from each of them to its
two verdicts (``_omidentity_fits``). An involution the dict lacks fits
neither mask, so the identities fail and the Sasaki pair is not
adjoint. ``omidentity_equiv`` checks that ``inv`` is an involution
(``require_involution``) and reads its entry. The harness checks each
involution once per size instead and reads the lattice's dict itself,
so a lattice/involution pair costs one lookup there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .poset import FinitePoset, bits
from .ortho import (OrthoPoset, _require_orthogonal, is_boolean_algebra,
                    is_boolean_poset, is_orthogonal_poset, is_orthomodular,
                    is_weakly_boolean)
from .implication import (NotALattice, SetValuedTable,
                          TheoremReport, cached, impl_I, sasaki_impl, sasaki_proj)
from .universe import involutions


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


def _low(mask: int) -> int:
    """The index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def check_conditions(o: OrthoPoset, prod: SetValuedTable,
                     imp: SetValuedTable) -> AdjointnessReport:
    """Evaluate (A), (B) and their subscripted variants over all triples."""
    p = o.poset
    n = p.n
    up, upset, le1_rows = p.up, p._upset, imp.le1
    single = [0] * n
    for y, cells in enumerate(imp.cells):
        for z, c in enumerate(cells):
            if c and c & (c - 1) == 0:
                single[y] |= 1 << z
    # the z whose implication cell is not a singleton, per y
    skipped = [n - bin(m).count("1") for m in single]
    w_a = w_b = w_a21 = w_b12 = None
    not_applicable = 0
    for x, cells in enumerate(prod.cells):
        for y, pc in enumerate(cells):
            le1 = le1_rows[y][x]
            if pc and pc & (pc - 1) == 0:
                le2 = up[pc.bit_length() - 1]
                not_applicable += skipped[y]
                if w_a is None and (a := le2 & ~le1 & single[y]):
                    w_a = (x, y, _low(a))
                if w_b is None and (b := le1 & ~le2 & single[y]):
                    w_b = (x, y, _low(b))
            else:
                le2 = upset(pc)
                not_applicable += n
            if w_a21 is None and (a := le2 & ~le1):
                w_a21 = (x, y, _low(a))
            if w_b12 is None and (b := le1 & ~le2):
                w_b12 = (x, y, _low(b))
    return AdjointnessReport(w_a is None, w_b is None, w_a21 is None, w_b12 is None,
                             w_a, w_b, w_a21, w_b12, not_applicable)


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

def _union(rows: Sequence[int], ms: int) -> int:
    """The union of ``rows[m]`` over the m in the mask ``ms``."""
    out = 0
    for m in bits(ms):
        out |= rows[m]
    return out


def _omidentity_masks(p: FinitePoset) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``(G, H)`` of a lattice: per element, the mask of its admissible involutes.

    G[x] keeps a when x v (u ^ a) = u for every u >= x and
    x ^ (d v a) = d for every d <= x. H[y] keeps b when the unit
    x <= b v (y ^ (x v b)) holds for every x and the counit
    y ^ (b v (y ^ z)) <= z for every z. Both read the preimage tables
    ``jpre`` and ``mpre`` (see the module docstring).
    """
    if not p.is_lattice:
        raise NotALattice("Sasaki lattice operators need a lattice")
    n, meets, joins, up, down = p.n, p.meets, p.joins, p.up, p.down
    r = range(n)
    jpre = [[0] * n for _ in r]
    mpre = [[0] * n for _ in r]
    for x in r:
        jx, mx, jp, mp = joins[x], meets[x], jpre[x], mpre[x]
        for m in r:
            jp[jx[m]] |= 1 << m
            mp[mx[m]] |= 1 << m
    g = []
    for x in r:
        gx = (1 << n) - 1
        for u in bits(up[x]):
            gx &= _union(mpre[u], jpre[x][u])
        for d in bits(down[x]):
            gx &= _union(jpre[d], mpre[x][d])
        g.append(gx)
    h = []
    for y, my in enumerate(meets):
        mpy, hy = mpre[y], 0
        for b, jb in enumerate(joins):
            jpb = jpre[b]
            for v in bits(up[b]):
                if jpb[v] & ~down[jb[my[v]]]:
                    break
            else:
                for w in bits(down[y]):
                    if mpy[w] & ~up[my[jb[w]]]:
                        break
                else:
                    hy |= 1 << b
        h.append(hy)
    return tuple(g), tuple(h)


def _omidentity_fits(p: FinitePoset) -> Dict[Tuple[int, ...], Tuple[bool, bool]]:
    """``{inv: (fits G, fits H)}`` over the involutions that fit G or H."""
    g, h = cached(p, _omidentity_masks)
    fits = dict.fromkeys(involutions(p.n, g), (True, False))
    for inv in involutions(p.n, h):
        fits[inv] = (inv in fits, True)
    return fits


def require_involution(n: int, inv: Tuple[int, ...]) -> None:
    """Raise AssertionError unless ``inv`` is a self-inverse permutation of 0..n-1."""
    ids = list(range(n))
    if sorted(inv) != ids or [inv[a] for a in inv] != ids:
        raise AssertionError(f"not an involution: {inv}")


def omidentity_equiv(p: FinitePoset, inv: Sequence[int]) -> Tuple[bool, bool, bool]:
    """Both orthomodular identities against two-sided Sasaki adjointness.

    Stated for lattices with an arbitrary involution; ``inv`` only needs
    to be a self-map of the n elements with inv[inv[x]] == x.
    """
    inv = tuple(inv)
    require_involution(p.n, inv)
    oi, adj = cached(p, _omidentity_fits).get(inv, (False, False))
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

    For each (x, y) the candidate set is every z with x le1 imp(y, z),
    the le1 row ``imp.le1[y][x]``; the product cell is its least
    element, the e in it with ``cand & ~up[e] == 0``, and a pair without
    one is reported as the ``failure``. In a finite poset an element is
    least exactly when it is the only minimal one, so these are the
    pairs whose candidate set has no minimal element or several. The
    product is adjoint when every cell's up-set is its candidate set.
    """
    p = o.poset
    up, le1 = p.up, imp.le1
    adjoint = True
    cells = []
    for x in range(p.n):
        row = []
        for y, le1_y in enumerate(le1):
            cand = le1_y[x]
            for e in bits(cand):
                if not cand & ~up[e]:
                    break
            else:
                return ResiduationResult(None, failure=(x, y))
            adjoint = adjoint and up[e] == cand
            row.append(1 << e)
        cells.append(tuple(row))
    return ResiduationResult(SetValuedTable(p, tuple(cells)), adjoint=adjoint)


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
            if pc & ~p._downset(p.max_lower[x][y]):
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
    """Adjoint-to-cone-implication existence against Booleanness.

    Only the equivalence is read here. The consequences of an adjoint
    product are the ``adji`` theorem, which checks the same structures,
    the orthogonal ones with an adjoint, and the Boolean-poset statement
    is the ``adjibp`` theorem, which checks every ortho structure; so a
    failure of either is reported as a violation of its own theorem.
    """
    exists = cached(o, cone_adjoint) is not None
    is_ba = is_boolean_algebra(o)
    return exists, is_ba, exists == is_ba
