"""Finite bounded posets with bitmask-based order computations.

Elements are integers ``0..n-1``; subsets of a poset are plain int
bitmasks. The order relation is stored as one bitmask row per element
(``up[i]`` = everything above ``i``, ``down[i]`` = everything below),
built from cover pairs by transitive closure. The meet and join tables
(``meets``, ``joins``) are read off principal ideals: m is the meet
x ^ y exactly when ``down[m] == down[x] & down[y]``, that is when the
common lower cone L{x,y} is the principal ideal of m (m lies in it and
everything in it lies below m). The down rows are distinct, so a dict
from each row to its element makes every meet one lookup, and a pair
whose cone is no principal ideal reads None; joins are the dual on the
up rows. The pair bounds ``max_lower[x][y]`` = Max L{x,y} and
``min_upper[x][y]`` = Min U{x,y} are two n x n tables of masks, built
from the cones on first use and only where the set-valued operators and
``has_maximality`` read them. A build scans each distinct common cone
once: comparable pairs share one (x <= y gives L{x,y} = down[x]), so the
extremal set of each cone is memoised by its mask for the length of the
build. At the sizes this library targets (a few hundred elements at
most) the O(n^3) closure and the all-pairs scans below are cheap.

Every loop over the elements of a mask goes through ``bits``, which
returns the ascending index tuple from a process-wide memo of 2^16
masks. That holds every subset of a poset of up to 16 elements, which
covers the exhaustive sweeps; the 22-element amalgam carriers have
2^22 subsets, and the bound caps the memo at about 20 MB.

The LU-distributivity identities read two more n x n tables, the pair
cones ``lu[x][y] = L(U{x,y})`` and ``ul[x][y] = U(L{x,y})``, built once
per poset on first use. Cones turn unions into intersections,
L(A u B) = L(A) n L(B) and U(A u B) = U(A) n U(B), so the first binary
identity L(U{x,y} u {z}) = L(U(L{x,z} u L{y,z})) at (x, y, z) reads

    lu[x][y] & down[z] == L(ul[x][z] & ul[y][z])

and the other three, and the n-ary pair, are its order duals and
mirror images. All four binary identities are symmetric in x and y, so
a failure at (x, y, z) is one at (y, x, z) too: the first failing
triple in (x, y, z) order has x <= y as indices, and the scan reads
only those. Nor can a comparable pair fail: with x <= y in the order,
L{x,z} lies in L{y,z} and U{y,z} in U{x,z}, so each identity reduces
to a cone being closed, such as L(U(L{y,z})) = L{y,z}. The scan skips
those pairs too. The n-ary pair reads L(U(xs)) and U(L(xs)) once per
xs for every z. The one cone left per triple, of an arbitrary mask, is
memoised per poset, so a repeated cone is one dict lookup (``_Cones``).

Bound completeness (``is_mub_complete``, ``is_mlb_complete``) is a
statement about the cones of the subsets of up to ``SMALL_SUBSET``
elements, and distinct subsets often share a cone, so each distinct
cone is tested once, as one mask: every element of U(A) lies above a
minimal element of U(A) exactly when U(A) lies in the up-set of its
minimal elements, and dually for L(A) and the down-set of its maximal
elements. ``_memo`` holds what other modules build from the order
alone, through ``ortho.cached``.

The order is immutable after construction and every operation is pure;
the tables and the cone memo are filled on demand with values that
depend on the order alone, so instances can be shared freely across
threads.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Optional, Sequence


class PosetError(ValueError):
    """Structural problem with an order relation."""


class NotAntisymmetric(PosetError):
    pass


class NotBounded(PosetError):
    pass


class BadIndex(PosetError):
    pass


@lru_cache(maxsize=1 << 16)
def bits(mask: int) -> tuple[int, ...]:
    """The indices set in a bitmask, ascending, as a tuple.

    Results are memoised process-wide, least recently used out first.
    The bound, 2^16 masks, holds every subset of a 16-element poset, so
    the exhaustive sweeps (n <= 10) never recompute a mask. The amalgam
    carriers reach 22 elements, whose 2^22 subsets would not fit; the
    bound caps the memo at about 20 MB (65,536 tuples of 11 indices on
    average), while the few hundred masks one command reads stay cached.
    Callers only iterate the result; it is a tuple, so it can be shared.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


# largest subsets checked by the bound-completeness predicates
SMALL_SUBSET = 3


def _principal(rows: Sequence[int]) -> tuple:
    """``table[x][y]``: the m with ``rows[m] == rows[x] & rows[y]``, or None.

    On ``down`` rows these are the meets, on ``up`` rows the joins (see
    the module docstring). Antisymmetry makes the rows distinct.
    """
    element = {row: m for m, row in enumerate(rows)}.get
    return tuple(tuple([element(r_x & r_y) for r_y in rows]) for r_x in rows)


class _Cones(dict):
    """``cones[a]``: the intersection of ``rows`` over the bits of mask
    ``a`` (``full`` for the empty mask), computed on first lookup and
    kept, so a repeated cone costs one dict lookup."""

    __slots__ = ("rows", "full")

    def __init__(self, rows: Sequence[int], full: int):
        super().__init__()
        self.rows = rows
        self.full = full

    def __missing__(self, a: int) -> int:
        res, rows = self.full, self.rows
        for i in bits(a):
            res &= rows[i]
        self[a] = res
        return res


class FinitePoset:
    """A bounded partial order on indexed elements.

    Construction validates reflexivity, antisymmetry, transitivity and
    the existence of a unique bottom and top.
    """

    def __init__(self, labels: Sequence[str], up: Sequence[int], name: str = ""):
        n = len(labels)
        if n == 0:
            raise PosetError("poset needs at least one element")
        if len(set(labels)) != n:
            raise PosetError("element labels must be unique")
        self.n = n
        self.name = name
        self.labels = tuple(str(x) for x in labels)
        self.full = (1 << n) - 1
        up = tuple(up)
        if len(up) != n or any(row & ~self.full for row in up):
            raise BadIndex("order rows do not match the element count")
        down = [0] * n
        for i in range(n):
            if not up[i] >> i & 1:
                raise PosetError("order must be reflexive")
            for j in bits(up[i]):
                down[j] |= 1 << i
        for i in range(n):
            if up[i] & down[i] != 1 << i:
                raise NotAntisymmetric(f"cycle through element {self.labels[i]}")
            for j in bits(up[i]):
                if up[j] & ~up[i]:
                    raise PosetError("order must be transitive")
        self.up = up
        self.down = tuple(down)
        bottoms = [i for i in range(n) if up[i] == self.full]
        tops = [i for i in range(n) if down[i] == self.full]
        if not bottoms or not tops:
            raise NotBounded("poset has no bottom or no top element")
        self.bottom = bottoms[0]
        self.top = tops[0]
        self._index = {lbl: i for i, lbl in enumerate(self.labels)}
        # L(a) and U(a) of a mask known to lie in the poset (no
        # validation), each a lookup in a per-poset cone memo
        self._lower = _Cones(self.down, self.full).__getitem__
        self._upper = _Cones(up, self.full).__getitem__
        self._downset_memo: dict = {}
        self._upset_memo: dict = {}
        self._memo: dict = {}

    @classmethod
    def from_covers(cls, labels: Sequence[str], covers: Iterable[tuple], name: str = "") -> "FinitePoset":
        """Build from cover pairs (lower, upper), given as labels or indices."""
        labels = [str(x) for x in labels]
        index = {lbl: i for i, lbl in enumerate(labels)}
        n = len(labels)
        up = [1 << i for i in range(n)]
        for lo, hi in covers:
            i = lo if isinstance(lo, int) else index.get(str(lo))
            j = hi if isinstance(hi, int) else index.get(str(hi))
            if i is None or j is None or not (0 <= i < n and 0 <= j < n):
                raise BadIndex(f"unknown element in cover pair ({lo}, {hi})")
            up[i] |= 1 << j
        for k in range(n):
            kbit = 1 << k
            for i in range(n):
                if up[i] & kbit:
                    up[i] |= up[k]
        return cls(labels, up, name=name)

    # -- basic access -------------------------------------------------

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def lt(self, i: int, j: int) -> bool:
        return i != j and self.leq(i, j)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise BadIndex(f"no element labelled {label!r}") from None

    def _check_subset(self, a: int) -> None:
        if a & ~self.full:
            raise BadIndex("subset indexes elements outside the poset")

    # -- cones and spans ----------------------------------------------

    def lower_cone(self, a: int) -> int:
        """L(A): common lower bounds of A; L(empty) is the whole poset."""
        self._check_subset(a)
        return self._lower(a)

    def upper_cone(self, a: int) -> int:
        """U(A): common upper bounds of A; U(empty) is the whole poset."""
        self._check_subset(a)
        return self._upper(a)

    def _span(self, memo: dict, rows: Sequence[int], a: int) -> int:
        """Union of ``rows`` over the bits of ``a``, memoised in ``memo``."""
        res = memo.get(a)
        if res is None:
            res = 0
            for i in bits(a):
                res |= rows[i]
            memo[a] = res
        return res

    def _downset(self, a: int) -> int:
        """Everything below some element of a: A le1 B iff A lies in _downset(B)."""
        return self._span(self._downset_memo, self.down, a)

    def _upset(self, a: int) -> int:
        """Everything above some element of a: A le2 B iff B lies in _upset(A)."""
        return self._span(self._upset_memo, self.up, a)

    def _approx2(self, a: int, b: int) -> bool:
        """A approx2 B: le2 in both directions."""
        return b & ~self._upset(a) == 0 and a & ~self._upset(b) == 0

    # -- pair bounds, meets and joins ---------------------------------

    def _extremal_table(self, cones: Sequence[int], rows: Sequence[int]) -> tuple:
        """``table[x][y]``: the b in cones[x] & cones[y] whose ``rows`` entry
        meets that set in b alone (on ``down`` cones and ``up`` rows the
        maximal lower bounds, on ``up`` cones and ``down`` rows the minimal
        upper bounds)."""
        n = self.n
        table = [[0] * n for _ in range(n)]
        # pairs often share their common cone (x <= y gives cones[x]),
        # so each distinct one is scanned once
        ext_of: dict = {}
        for x in range(n):
            cone_x = cones[x]
            for y in range(x, n):
                common = cone_x & cones[y]
                ext = ext_of.get(common)
                if ext is None:
                    ext = 0
                    for b in bits(common):
                        if rows[b] & common == 1 << b:
                            ext |= 1 << b
                    ext_of[common] = ext
                table[x][y] = table[y][x] = ext
        return tuple(map(tuple, table))

    @cached_property
    def max_lower(self) -> tuple:
        """``max_lower[x][y]``: Max L{x,y}, the maximal common lower bounds, as a mask."""
        return self._extremal_table(self.down, self.up)

    @cached_property
    def min_upper(self) -> tuple:
        """``min_upper[x][y]``: Min U{x,y}, the minimal common upper bounds, as a mask."""
        return self._extremal_table(self.up, self.down)

    @cached_property
    def meets(self) -> tuple:
        """``meets[x][y]``: infimum of x and y, or None when none exists."""
        return _principal(self.down)

    @cached_property
    def joins(self) -> tuple:
        """``joins[x][y]``: supremum of x and y, or None when none exists."""
        return _principal(self.up)

    def meet(self, x: int, y: int) -> Optional[int]:
        """Infimum of x and y, or None when no greatest lower bound exists."""
        return self.meets[x][y]

    def join(self, x: int, y: int) -> Optional[int]:
        return self.joins[x][y]

    @cached_property
    def is_lattice(self) -> bool:
        return all(None not in row for table in (self.meets, self.joins)
                   for row in table)

    # -- structural predicates ----------------------------------------

    @cached_property
    def pair_cones(self) -> tuple:
        """``(lu, ul)`` with ``lu[x][y] = L(U{x,y})`` and ``ul[x][y] = U(L{x,y})``."""
        n, up, down = self.n, self.up, self.down
        lu = [[0] * n for _ in range(n)]
        ul = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(x, n):
                lu[x][y] = lu[y][x] = self._lower(up[x] & up[y])
                ul[x][y] = ul[y][x] = self._upper(down[x] & down[y])
        return tuple(map(tuple, lu)), tuple(map(tuple, ul))

    @cached_property
    def distributive_variant_failure(self) -> Optional[tuple]:
        """First (x, y, z) where one of the four binary LU-identities fails, or None.

        The identities, with both sides read from the pair cones, are
        L(U{x,y} u {z}) = L(U(L{x,z} u L{y,z})), its order dual, and the
        mirror images of the two. Each is symmetric in x and y and holds
        on comparable pairs, so only the incomparable pairs with x < y are
        scanned (see the module docstring).
        """
        lu, ul = self.pair_cones
        L, U, n = self._lower, self._upper, self.n
        cols = tuple(zip(range(n), self.down, self.up))
        for x in range(n):
            lu_x, ul_x, comparable = lu[x], ul[x], self.up[x] | self.down[x]
            for y in range(x + 1, n):
                if comparable >> y & 1:
                    continue
                lu_xy, ul_xy, lu_y, ul_y = lu_x[y], ul_x[y], lu[y], ul[y]
                for z, d_z, u_z in cols:
                    # L(U{x,y} u {z}), U(L{x,z} u L{y,z}) and their duals
                    lu_xy_z = lu_xy & d_z
                    ul_xz_yz = ul_x[z] & ul_y[z]
                    ul_xy_z = ul_xy & u_z
                    lu_xz_yz = lu_x[z] & lu_y[z]
                    if (lu_xy_z != L(ul_xz_yz) or ul_xz_yz != U(lu_xy_z)
                            or ul_xy_z != U(lu_xz_yz) or lu_xz_yz != L(ul_xy_z)):
                        return (x, y, z)
        return None

    @cached_property
    def nary_distributive_failure(self) -> Optional[tuple]:
        """First (xs, z), xs a 3-subset in ``combinations`` order, where the
        n-ary LU-identity L(U(xs) u {z}) = L(U(the union of the L{x,z},
        x in xs)) or its order dual fails, or None."""
        lu, ul = self.pair_cones
        L, U, down, up, n = self._lower, self._upper, self.down, self.up, self.n
        for xs in combinations(range(n), 3):
            a, b, c = xs
            lu_a, lu_b, lu_c, ul_a, ul_b, ul_c = lu[a], lu[b], lu[c], ul[a], ul[b], ul[c]
            xmask = 1 << a | 1 << b | 1 << c
            lu_xs, ul_xs = L(U(xmask)), U(L(xmask))
            for z in range(n):
                if (lu_xs & down[z] != L(ul_a[z] & ul_b[z] & ul_c[z])
                        or ul_xs & up[z] != U(lu_a[z] & lu_b[z] & lu_c[z])):
                    return xs, z
        return None

    @cached_property
    def is_distributive(self) -> bool:
        """First binary LU-identity, checked over all triples."""
        lu, ul = self.pair_cones
        L, down, n = self._lower, self.down, self.n
        # both sides are symmetric in x and y
        for x in range(n):
            lu_x, ul_x = lu[x], ul[x]
            for y in range(x, n):
                lu_xy = lu_x[y]
                for d_z, ul_xz, ul_yz in zip(down, ul_x, ul[y]):
                    if lu_xy & d_z != L(ul_xz & ul_yz):
                        return False
        return True

    def _bound_complete(self, cone, reach, rows) -> bool:
        """Every element of the ``cone`` of each small subset lies in the
        ``reach`` of the ``rows``-extremal elements of that cone.

        ``rows`` picks the extremal elements: an element b of a cone c is
        extremal when ``rows[b] & c`` is b alone (``down`` rows give the
        minimal elements, ``up`` rows the maximal ones). Finiteness makes
        the unrestricted condition automatic; the check runs over the
        subsets of up to ``SMALL_SUBSET`` elements, and each distinct
        cone among theirs is tested once, as one mask.
        """
        singles = [1 << i for i in range(self.n)]
        cones = {cone(sum(m)) for size in range(1, SMALL_SUBSET + 1)
                 for m in combinations(singles, size)}
        for c in cones:
            ext = 0
            for b in bits(c):
                if rows[b] & c == 1 << b:
                    ext |= 1 << b
            if c & ~reach(ext):
                return False
        return True

    @cached_property
    def is_mub_complete(self) -> bool:
        """Below every upper bound of a small subset sits a minimal upper bound."""
        return self._bound_complete(self._upper, self._upset, self.down)

    @cached_property
    def is_mlb_complete(self) -> bool:
        """Above every lower bound of a small subset sits a maximal lower bound."""
        return self._bound_complete(self._lower, self._downset, self.up)

    def has_maximality(self) -> bool:
        """Every two-element lower cone has a maximal element."""
        return all(0 not in row for row in self.max_lower)

    def covers(self) -> list:
        """All pairs (x, y) with x strictly below y and nothing in between."""
        out = []
        for x in range(self.n):
            for y in bits(self.up[x] & ~(1 << x)):
                if self.up[x] & self.down[y] == 1 << x | 1 << y:
                    out.append((x, y))
        return out

    def covers_pair(self, x: int, y: int) -> bool:
        return self.lt(x, y) and self.up[x] & self.down[y] == 1 << x | 1 << y

    # -- misc ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinitePoset)
            and self.labels == other.labels
            and self.up == other.up
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.up))

    def __repr__(self) -> str:
        tag = self.name or f"{self.n} elements"
        return f"FinitePoset({tag})"
