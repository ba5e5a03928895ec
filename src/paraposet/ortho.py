"""Antitone involutions and structural predicates on involutive posets.

Predicates that can fail in interesting ways have a ``*_witness``
variant returning a concrete counterexample (or None); the boolean
forms are thin wrappers. Witnesses are element indices.

Two scans of an involution read one row on one principal filter, and
``relative`` reads them on every filter of a section family: the first
pair where the row is not antitone (``_antitone_failure``), and the
first pair that breaks paraorthomodularity relative to the filter
(``_para_row``). On the whole poset, the filter of the bottom, they are
the antitonicity of an involution and its paraorthomodularity.

Orthogonality, regularity and the orthomodular law read meets and
joins off the order rows, with no meet or join table: x ^ y is the
element whose down row is ``down[x] & down[y]``, if any, and x v y
dually on the up rows, so x v y = z exactly when
``up[x] & up[y] == up[z]``. For an antitone involution x <= y' exactly
when y <= x' (apply the involution to either side), so the y orthogonal
to x are the bits of ``down[x']``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Tuple

from .poset import FinitePoset, PosetError, bits


class InvolutionError(PosetError):
    pass


class UndefinedTerm(PosetError):
    """A meet or join needed by a predicate does not exist."""

    def __init__(self, x, y):
        super().__init__(f"required meet/join absent for ({x}, {y})")


@dataclass(frozen=True)
class OrthoPoset:
    """A bounded poset together with an antitone involution.

    Use :func:`validate_involution` to construct; the raw constructor
    does not re-validate. ``_memo`` holds the tables and reports built
    from the structure (see :func:`cached`).
    """

    poset: FinitePoset
    inv: Tuple[int, ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.poset.n

    def __repr__(self) -> str:
        return f"OrthoPoset({self.poset.name or self.poset.n})"


def cached(s, build: Callable):
    """``build(s)``, built at most once per structure ``s``.

    The result is kept on ``s._memo`` under ``build``; a build that
    raises is not kept, so the next call builds, and raises, again. A
    structure that has the result answers with one dict lookup.
    """
    try:
        return s._memo[build]
    except KeyError:
        pass
    res = s._memo[build] = build(s)
    return res


def _antitone_failure(p: FinitePoset, row: Sequence[int],
                      filt: int) -> Optional[Tuple[int, int]]:
    """The first (y, z) in (y, z) order with y in the mask ``filt``,
    y <= z and row[z] not below row[y], or None."""
    up = p.up
    for y in bits(filt):
        for z in bits(up[y]):
            if not up[row[z]] >> row[y] & 1:
                return y, z
    return None


def validate_involution(poset: FinitePoset, inv: Sequence[int]) -> OrthoPoset:
    """Wrap ``poset`` with the map ``inv``, checking both involution laws."""
    inv = tuple(inv)
    n = poset.n
    if len(inv) != n or any(not 0 <= i < n for i in inv):
        raise InvolutionError("involution must be a total self-map")
    for x in range(n):
        if inv[inv[x]] != x:
            raise InvolutionError(f"map is not an involution at {poset.labels[x]}")
    w = _antitone_failure(poset, inv, poset.full)
    if w is not None:
        raise InvolutionError(f"map is not antitone at "
                              f"({poset.labels[w[0]]}, {poset.labels[w[1]]})")
    o = OrthoPoset(poset, inv)
    # forced for any antitone involution on a bounded poset
    if inv[poset.bottom] != poset.top:
        raise AssertionError("antitone involution must swap bottom and top")
    return o


# -- orthogonality ----------------------------------------------------

def orthogonality_witness(o: OrthoPoset) -> Optional[Tuple[int, int]]:
    """An orthogonal pair without a join, if any: the first (x, y), x <= y
    as indices, with x <= y' and no x v y. The partners y of x are read
    off ``down[x']`` (see the module docstring); a comparable pair has a
    join, so only the incomparable ones are tested."""
    p = o.poset
    up, down = p.up, p.down
    rows = set(up)
    for x, (u_x, d_x, xi) in enumerate(zip(up, down, o.inv)):
        # the y >= x, as indices, below x' and incomparable with x
        for y in bits(down[xi] & ~(u_x | d_x) >> x << x):
            if u_x & up[y] not in rows:
                return (x, y)
    return None


def is_orthogonal_poset(o: OrthoPoset) -> bool:
    return cached(o, orthogonality_witness) is None


class NotOrthogonal(PosetError):
    def __init__(self, witness):
        super().__init__(f"poset is not orthogonal (witness pair {witness})")


def _require_orthogonal(o: OrthoPoset) -> None:
    w = cached(o, orthogonality_witness)
    if w is not None:
        raise NotOrthogonal(w)


# -- paraorthomodularity ----------------------------------------------

def _para_row(p: FinitePoset, x: int, row: Sequence[int]) -> Optional[Tuple[int, int]]:
    """The first (y, z) in (y, z) order with x <= y < z and y^x meet z = x
    inside [x,1], where ``row`` maps each y in [x,1] to y^x; or None.

    The meet is read on the cone L{y^x, z} cut to the filter, so it never
    requires the meet to exist as an element.
    """
    filt, up, down = p.up[x], p.up, p.down
    bottom = 1 << x
    for y in bits(filt):
        below_yi = down[row[y]] & filt
        for z in bits(up[y] & ~(1 << y)):
            if below_yi & down[z] == bottom:
                return y, z
    return None


def paraortho_witness(o: OrthoPoset) -> Optional[Tuple[int, int]]:
    """A pair x < y with L(x', y) = {0}, violating paraorthomodularity:
    the relative witness on the filter of the bottom, the whole poset."""
    return _para_row(o.poset, o.poset.bottom, o.inv)


def is_paraorthomodular(o: OrthoPoset) -> bool:
    return paraortho_witness(o) is None


def is_sharply_paraorthomodular(o: OrthoPoset) -> bool:
    return is_orthogonal_poset(o) and is_paraorthomodular(o)


def find_benzene(o: OrthoPoset) -> Optional[Tuple[int, int]]:
    """A pair spanning a strong subposet orthoisomorphic to the benzene ring.

    Returns (x, y) with x < y, x' meet y = 0, such that
    {0, x, y, x', y', 1} induces the hexagon; present exactly when
    paraorthomodularity fails.
    """
    w = paraortho_witness(o)
    if w is None:
        return None
    x, y = w
    p = o.poset
    xi, yi = o.inv[x], o.inv[y]
    six = {p.bottom, x, y, xi, yi, p.top}
    if len(six) != 6:
        raise AssertionError("paraorthomodularity witness has fewer than six elements")
    # the only comparabilities among the four middles are x<y and y'<x'
    middles = (x, y, xi, yi)
    expected = {(x, y), (yi, xi)}
    got = {(a, b) for a in middles for b in middles if a != b and p.leq(a, b)}
    if got != expected:
        raise AssertionError("paraorthomodularity witness does not span a hexagon")
    return w


# -- complementation, regularity, orthomodularity ---------------------

def is_complementation(o: OrthoPoset) -> bool:
    """Every x joins its involute in {1} and meets it in {0} (cone-wise).

    Only U(x, x') = {1} is tested: the antitone involution maps L(x, x')
    onto U(x', x) and 0 to 1, so L(x, x') = {0} exactly when
    U(x, x') = {1}.
    """
    up, one = o.poset.up, 1 << o.poset.top
    return all(up[x] & up[xi] == one for x, xi in enumerate(o.inv))


def is_regular(o: OrthoPoset) -> bool:
    """x meet x' lies below y join y' for all pairs.

    x ^ x' and x v x' are read off the order rows. On orthogonal posets
    both terms always exist; elsewhere a missing term raises
    UndefinedTerm.
    """
    p = o.poset
    up, down = p.up, p.down
    meet_of = {row: m for m, row in enumerate(down)}.get
    join_of = {row: j for j, row in enumerate(up)}.get
    meets = joins = 0
    for x, xi in enumerate(o.inv):
        m, j = meet_of(down[x] & down[xi]), join_of(up[x] & up[xi])
        if m is None or j is None:
            raise UndefinedTerm(p.labels[x], p.labels[xi])
        meets |= 1 << m
        joins |= 1 << j
    # each distinct meet lies below every join
    return all(joins & ~up[m] == 0 for m in bits(meets))


def orthomodular_witness(o: OrthoPoset) -> Optional[tuple]:
    """First failure of the orthomodular law x <= y => x v (y ^ x') = y.

    A missing meet y ^ x' counts as a failure at that pair. Both terms
    are read off the order rows: y ^ x' is the element whose down row is
    ``down[y] & down[x']``, and x v m = y exactly when
    ``up[x] & up[m] == up[y]``. No meet or join table is built.
    """
    p = o.poset
    up, down = p.up, p.down
    meet_of = {row: m for m, row in enumerate(down)}.get
    for x, (u_x, xi) in enumerate(zip(up, o.inv)):
        d_xi = down[xi]
        for y in bits(u_x):
            m = meet_of(down[y] & d_xi)
            if m is None or u_x & up[m] != up[y]:
                return (x, y)
    return None


def om_u_identity(o: OrthoPoset) -> bool:
    """The Min-U form of the orthomodular identity over all pairs, on an
    orthogonal poset.

    The identity reads x v (x' ^ w) for each w in Min U(x, y) and asks
    for the set of these terms to equal Min U(x, y). Read elementwise,
    as the two-sided le2 relation, it says the same: each term t lies
    between x and its w, so an element of Min U(x, y) below t lies below
    w, and Min U(x, y) is an antichain, so that element is w and t = w.
    Orthogonality makes every term exist, so each is a plain lookup in
    ``meets``/``joins``: w >= x makes x orthogonal to w', so
    x' ^ w = (x v w')' exists; and m = x' ^ w lies below x', so x is
    orthogonal to m and x v m exists. On a poset that is not orthogonal
    this raises ``NotOrthogonal``.
    """
    _require_orthogonal(o)
    p, inv = o.poset, o.inv
    meets, joins = p.meets, p.joins
    for x, minu_x in enumerate(p.min_upper):
        meet_xi, join_x = meets[inv[x]], joins[x]
        for minu in minu_x:
            lhs = 0
            for w in bits(minu):
                lhs |= 1 << join_x[meet_xi[w]]
            if lhs != minu:
                return False
    return True


def is_orthomodular(o: OrthoPoset) -> bool:
    """Orthogonal and satisfying the orthomodular law.

    The law at y = 1 reads x v x' = 1, so an orthomodular structure is
    complemented (see :func:`is_complementation`). This is the direct
    reading only. The Min-U reading of :func:`om_u_identity` is compared
    with it by the ``omui`` theorem, through
    :func:`orthomodular_verdicts`, and nowhere else, so a disagreement
    is reported as a violation of that theorem.
    """
    return is_orthogonal_poset(o) and cached(o, orthomodular_witness) is None


def orthomodular_verdicts(o: OrthoPoset) -> tuple:
    """(direct, via OM_U, via OM_UE) orthomodularity verdicts.

    The literal and elementwise Min-U readings are one verdict (see
    :func:`om_u_identity`), given twice.
    """
    u = om_u_identity(o)
    return is_orthomodular(o), u, u


# -- Boolean-flavoured predicates -------------------------------------

def is_weakly_boolean(o: OrthoPoset) -> bool:
    """a ^ b = 0 and a ^ b' = 0 (cone-wise) force a = 0."""
    p = o.poset
    zero = 1 << p.bottom
    for a in range(p.n):
        if a == p.bottom:
            continue
        for b in range(p.n):
            if (p.down[a] & p.down[b] == zero
                    and p.down[a] & p.down[o.inv[b]] == zero):
                return False
    return True


def is_boolean_poset(o: OrthoPoset) -> bool:
    return o.poset.is_distributive and is_complementation(o)


def is_boolean_algebra(o: OrthoPoset) -> bool:
    return is_boolean_poset(o) and o.poset.is_lattice


def is_kleene_lattice(o: OrthoPoset) -> bool:
    """Distributive, regular, paraorthomodular lattice.

    Paraorthomodularity is not tested: a distributive lattice is
    paraorthomodular under every antitone involution. Take x <= y with
    x' ^ y = 0. Then x v y' = (x' ^ y)' = 1, and y' <= x' gives
    y ^ y' <= x' ^ y = 0, so by distributivity
    y = y ^ (x v y') = (y ^ x) v (y ^ y') = x.
    """
    return o.poset.is_lattice and o.poset.is_distributive and is_regular(o)


def nonorthogonal_zero_meets(o: OrthoPoset) -> Iterator[Tuple[int, int]]:
    """Pairs (x, y) with x ^ y = 0 yet x not below y'; a Kleene lattice has none."""
    p = o.poset
    for x in range(p.n):
        for y in range(p.n):
            if p.meet(x, y) == p.bottom and not p.leq(x, o.inv[y]):
                yield x, y


PREDICATES = {
    "lattice": lambda o: o.poset.is_lattice,
    "distributive": lambda o: o.poset.is_distributive,
    "orthogonal": is_orthogonal_poset,
    "paraorthomodular": is_paraorthomodular,
    "sharply-paraorthomodular": is_sharply_paraorthomodular,
    "regular": is_regular,
    "complemented": is_complementation,
    "orthomodular": is_orthomodular,
    "weakly-boolean": is_weakly_boolean,
    "boolean-poset": is_boolean_poset,
    "boolean-algebra": is_boolean_algebra,
    "kleene-lattice": is_kleene_lattice,
}
