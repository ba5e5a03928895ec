"""Antitone involutions and structural predicates on involutive posets.

Predicates that can fail in interesting ways have a ``*_witness``
variant returning a concrete counterexample (or None); the boolean
forms are thin wrappers. Witnesses are element indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Tuple

from .poset import FinitePoset, PosetError, bits


class InvolutionError(PosetError):
    pass


class AntitoneViolation(InvolutionError):
    def __init__(self, x, y):
        super().__init__(f"map is not antitone at ({x}, {y})")
        self.pair = (x, y)


class InvolutionViolation(InvolutionError):
    def __init__(self, x):
        super().__init__(f"map is not an involution at {x}")
        self.element = x


class UndefinedTerm(PosetError):
    """A meet or join needed by a predicate does not exist."""

    def __init__(self, x, y):
        super().__init__(f"required meet/join absent for ({x}, {y})")
        self.pair = (x, y)


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
    raises is not kept, so the next call builds, and raises, again.
    """
    memo = s._memo
    if build not in memo:
        memo[build] = build(s)
    return memo[build]


def validate_involution(poset: FinitePoset, inv: Sequence[int]) -> OrthoPoset:
    """Wrap ``poset`` with the map ``inv``, checking both involution laws."""
    inv = tuple(inv)
    n = poset.n
    if len(inv) != n or any(not 0 <= i < n for i in inv):
        raise InvolutionError("involution must be a total self-map")
    for x in range(n):
        if inv[inv[x]] != x:
            raise InvolutionViolation(poset.labels[x])
    for x in range(n):
        for y in bits(poset.up[x]):
            if not poset.leq(inv[y], inv[x]):
                raise AntitoneViolation(poset.labels[x], poset.labels[y])
    o = OrthoPoset(poset, inv)
    # forced for any antitone involution on a bounded poset
    if inv[poset.bottom] != poset.top:
        raise AssertionError("antitone involution must swap bottom and top")
    return o


# -- orthogonality ----------------------------------------------------

def orthogonality_witness(o: OrthoPoset) -> Optional[Tuple[int, int]]:
    """An orthogonal pair without a join, if any."""
    p = o.poset
    for x in range(p.n):
        for y in range(x, p.n):
            if p.leq(x, o.inv[y]) and p.join(x, y) is None:
                return (x, y)
    return None


def is_orthogonal_poset(o: OrthoPoset) -> bool:
    return cached(o, orthogonality_witness) is None


# -- paraorthomodularity ----------------------------------------------

def paraortho_witness(o: OrthoPoset) -> Optional[Tuple[int, int]]:
    """A pair x < y with L(x', y) = {0}, violating paraorthomodularity.

    The meet condition is read on cones, so the witness never depends on
    the meet existing as an element.
    """
    p = o.poset
    zero = 1 << p.bottom
    for x in range(p.n):
        for y in bits(p.up[x] & ~(1 << x)):
            if p.down[o.inv[x]] & p.down[y] == zero:
                return (x, y)
    return None


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
    """Every x meets its involute in {0} and joins it in {1} (cone-wise)."""
    p = o.poset
    zero, one = 1 << p.bottom, 1 << p.top
    for x in range(p.n):
        xi = o.inv[x]
        if p.down[x] & p.down[xi] != zero or p.up[x] & p.up[xi] != one:
            return False
    return True


def is_regular(o: OrthoPoset) -> bool:
    """x meet x' lies below y join y' for all pairs.

    On orthogonal posets both terms always exist; elsewhere a missing
    term raises UndefinedTerm.
    """
    p = o.poset
    meets = joins = 0
    for x in range(p.n):
        m = p.meet(x, o.inv[x])
        j = p.join(x, o.inv[x])
        if m is None or j is None:
            raise UndefinedTerm(p.labels[x], p.labels[o.inv[x]])
        meets |= 1 << m
        joins |= 1 << j
    # each distinct meet lies below every join
    return all(joins & ~p.up[m] == 0 for m in bits(meets))


def orthomodular_witness(o: OrthoPoset) -> Optional[tuple]:
    """First failure of the orthomodular law x <= y => x v (y ^ x') = y.

    A missing meet y ^ x' counts as a failure at that pair.
    """
    p = o.poset
    for x in range(p.n):
        for y in bits(p.up[x]):
            if not om_law_holds(o, x, y):
                return (x, y)
    return None


def om_law_holds(o: OrthoPoset, x: int, y: int) -> bool:
    """Whether x v (y ^ x') = y for a specific pair with x <= y."""
    p = o.poset
    m = p.meet(y, o.inv[x])
    if m is None:
        return False
    return p.join(x, m) == y


def om_u_identity(o: OrthoPoset) -> Tuple[bool, bool]:
    """The Min-U form of the orthomodular identity over all pairs, read
    literally and elementwise.

    The literal reading is set equality, the elementwise one the
    two-sided le2 relation. A missing meet or join fails both.
    """
    p, inv = o.poset, o.inv
    meets, joins, minus = p.meets, p.joins, p.min_upper
    literal = True
    for x in range(p.n):
        meet_xi, join_x = meets[inv[x]], joins[x]
        for y in range(p.n):
            minu = minus[x][y]
            lhs = 0
            for w in bits(minu):
                m = meet_xi[w]
                j = None if m is None else join_x[m]
                if j is None:
                    return False, False
                lhs |= 1 << j
            if lhs != minu:
                if not p._approx2(lhs, minu):
                    return False, False
                literal = False
    return literal, True


def orthomodular_verdicts(o: OrthoPoset) -> tuple:
    """(direct, via OM_U, via OM_UE) orthomodularity verdicts."""
    direct = (
        is_orthogonal_poset(o)
        and is_complementation(o)
        and orthomodular_witness(o) is None
    )
    return (direct, *om_u_identity(o))


def is_orthomodular(o: OrthoPoset) -> bool:
    """Orthogonal, complemented, and satisfying the orthomodular law.

    On orthogonal inputs the Min-U reformulations are evaluated as well
    and all three verdicts must agree.
    """
    direct, via_u, via_ue = cached(o, orthomodular_verdicts)
    if is_orthogonal_poset(o) and not direct == via_u == via_ue:
        raise AssertionError("orthomodularity verdicts disagree")
    return direct


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
    """Distributive, regular, paraorthomodular lattice."""
    if not (o.poset.is_lattice and o.poset.is_distributive):
        return False
    return is_regular(o) and is_paraorthomodular(o)


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
