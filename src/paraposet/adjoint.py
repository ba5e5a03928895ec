"""Adjointness conditions for product/implication pairs.

The element-level conditions (A)/(B) only make sense where both cells
are singletons, so they read only those triples. The subscripted
variants work on arbitrary set-valued cells through the le1/le2
relations. Each (x, y) pair reads all z at once, as masks: le2 is the
up-set of the product cell (x, y), the z with prod(x, y) le2 {z}; le1
is the implication table's le1 row ``imp.le1[y][x]``, the z with
{x} le1 imp(y, z); and ``single[y]`` is the z whose implication cell
imp(y, z) is a singleton. The z at which a condition fails at (x, y)
form one mask, such as ``le2 & ~le1`` for the subscripted (A); each
condition ORs these masks over every pair into one accumulator, and
holds when it ends at zero. The scan stops after the first row of x
that leaves all four accumulators nonzero, since no later row can
clear a bit. Residuation reads the same le1 row as the candidate set
of (x, y). A product is adjoint exactly when each candidate set is a
principal filter, the up-set of the one element of its cell (Blyth &
Janowitz, *Residuation Theory*); the up rows are distinct, so a dict
from each row to its element finds that element with one lookup, and
a pair whose candidate set is no up row has no adjoint product. The two condition reports the statements share (the
Sasaki pair, and the Sasaki product with the cone implication) and the
residuation of the cone implication are built once per structure,
through :func:`implication.cached`; the cone implication's le1 rows are
built once per table and serve both.

The lattice-side statement, ``omidentity_equiv``, takes any involution
of a lattice and reads each of its entries on its own. The orthomodular
identities at x, x v ((x v y) ^ x') = x v y and x ^ ((x ^ y) v x') =
x ^ y, read only inv[x]. The Sasaki product y ^ (x v y') and the Sasaki
implication y' v (y ^ z) read only inv[y], and so does their
adjointness at y over every (x, z). So two masks per element, built
once per lattice, hold the admissible values: ``G[x]`` those a for
which both identities hold at x when inv[x] = a, and ``H[y]`` those b
for which adjointness holds at y when inv[y] = b. Each row is read
straight off ``meets`` and ``joins``. With u = x v y and d = x ^ y,
G[x] keeps a when x v (u ^ a) = u for every u >= x and x ^ (d v a) = d
for every d <= x. With b fixed, f(x) = y ^ (x v b) and
g(z) = b v (y ^ z) are monotone, so f is left adjoint to g exactly
when the unit x <= g(f(x)) holds for every x and the counit
f(g(z)) <= z for every z (Blyth & Janowitz again); H[y] keeps b when
both hold. Each candidate is rejected at its first failing u, d, x or
z. At u = 1 and d = 0 the identities read x v a = 1 and x ^ a = 0, and
at x = 1 and z = 0 the unit and counit read y v b = 1 and y ^ b = 0,
so both rows keep only complements: the complement rows are read
first, and only their elements are tested. An involution fits a mask
when inv[x] lies in row x for every x, so no involution fits a mask
with an empty row. Each mask, the complements' too, therefore stops at
its first empty row and is None. Almost every lattice stops after a
row or two: 49 of the 77 lattices with n <= 7 have an element with no
complement, and 1,368 of the 1,377 with n <= 9 have an empty row in
both G and H.

From the masks, one backtracker (``universe.involutions`` with the
masks as allowed partners) lists the involutions that fit G and those
that fit H, once per lattice, into one dict from each of them to its
two verdicts (``_omidentity_fits``). A stopped mask runs no
backtracker: ``involutions`` reads a missing mask as every involution.
An involution the dict lacks fits neither mask, so the identities fail
and the Sasaki pair is not adjoint. ``omidentity_equiv`` checks that
``inv`` is an involution (``require_involution``) and reads its entry.
The harness checks each involution once per size instead and reads the
lattice's dict itself, so a lattice/involution pair costs at most one
lookup there, and none on a lattice whose dict is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
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


def check_conditions(o: OrthoPoset, prod: SetValuedTable,
                     imp: SetValuedTable) -> AdjointnessReport:
    """Evaluate (A), (B) and their subscripted variants over all triples."""
    p = o.poset
    up, upset, le1_rows = p.up, p._upset, imp.le1
    single = [0] * p.n
    for y, cells in enumerate(imp.cells):
        for z, c in enumerate(cells):
            if c and c & (c - 1) == 0:
                single[y] |= 1 << z
    # the z at which each condition fails, over every (x, y)
    f_a = f_b = f_a21 = f_b12 = 0
    for x, cells in enumerate(prod.cells):
        for y, pc in enumerate(cells):
            le1 = le1_rows[y][x]
            if pc and pc & (pc - 1) == 0:
                le2 = up[pc.bit_length() - 1]
                f_a |= le2 & ~le1 & single[y]
                f_b |= le1 & ~le2 & single[y]
            else:
                le2 = upset(pc)
            f_a21 |= le2 & ~le1
            f_b12 |= le1 & ~le2
        if f_a and f_b and f_a21 and f_b12:
            break
    return AdjointnessReport(not f_a, not f_b, not f_a21, not f_b12)


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

def _fit_mask(rows, n: int) -> Optional[Tuple[int, ...]]:
    """The ``n`` rows of a mask, or None once one of them is empty."""
    kept = tuple(takewhile(bool, rows))
    return kept if len(kept) == n else None


def _omidentity_masks(p: FinitePoset) -> Tuple[Optional[Tuple[int, ...]],
                                               Optional[Tuple[int, ...]]]:
    """``(G, H)`` of a lattice: per element, the mask of its admissible involutes.

    G[x] keeps a when x v (u ^ a) = u for every u >= x and
    x ^ (d v a) = d for every d <= x. H[y] keeps b when the unit
    x <= b v (y ^ (x v b)) holds for every x and the counit
    y ^ (b v (y ^ z)) <= z for every z. Both keep only complements, and
    a mask is None from its first empty row on (see the module
    docstring).
    """
    if not p.is_lattice:
        raise NotALattice("Sasaki lattice operators need a lattice")
    n, meets, joins, up, down = p.n, p.meets, p.joins, p.up, p.down
    top, bottom, r = p.top, p.bottom, range(n)

    def complements(x):
        jx, mx = joins[x], meets[x]
        return sum(1 << a for a in r if jx[a] == top and mx[a] == bottom)

    comp = _fit_mask(map(complements, r), n)
    if comp is None:
        return None, None

    def g_row(x):
        jx, mx, row = joins[x], meets[x], 0
        ups = [(u, meets[u]) for u in bits(up[x])]
        downs = [(d, joins[d]) for d in bits(down[x])]
        for a in bits(comp[x]):
            if (all(jx[mu[a]] == u for u, mu in ups)
                    and all(mx[jd[a]] == d for d, jd in downs)):
                row |= 1 << a
        return row

    def h_row(y):
        my, row = meets[y], 0
        for b in bits(comp[y]):
            jb = joins[b]
            if (all(ux >> jb[my[v]] & 1 for ux, v in zip(up, jb))
                    and all(dz >> my[jb[w]] & 1 for dz, w in zip(down, my))):
                row |= 1 << b
        return row

    return _fit_mask(map(g_row, r), n), _fit_mask(map(h_row, r), n)


def _omidentity_fits(p: FinitePoset) -> Dict[Tuple[int, ...], Tuple[bool, bool]]:
    """``{inv: (fits G, fits H)}`` over the involutions that fit G or H."""
    g, h = _omidentity_masks(p)
    # involutions(n, None) lists every involution, so a stopped mask,
    # which none fits, must not reach it
    fits = {} if g is None else dict.fromkeys(involutions(p.n, g), (True, False))
    if h is not None:
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

def residuate(o: OrthoPoset, imp: SetValuedTable) -> Optional[SetValuedTable]:
    """The product adjoint to ``imp``, or None if there is none.

    The candidate set of (x, y) is every z with x le1 imp(y, z), the le1
    row ``imp.le1[y][x]``. The adjoint product's cell (x, y) is {e}
    exactly when that row is ``up[e]``, the principal filter of e: e is
    then the least candidate, and its up-set is the candidate set.
    """
    p = o.poset
    element = {row: e for e, row in enumerate(p.up)}.get
    cells = []
    for x in range(p.n):
        row = [element(le1_y[x]) for le1_y in imp.le1]
        if None in row:
            return None
        cells.append(tuple([1 << e for e in row]))
    return SetValuedTable(p, tuple(cells))


def cone_adjoint(o: OrthoPoset) -> Optional[SetValuedTable]:
    """The product adjoint to the cone implication, or None if there is none."""
    return residuate(o, cached(o, impl_I))


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
