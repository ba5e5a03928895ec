"""Exhaustive generation of small bounded posets and their involutions.

A bounded poset on n elements is a poset on its n-2 middle elements
with a bottom and a top added, so the middles are generated once per
isomorphism class, level by level: each poset on k points gets one new
maximal point above each of its down-sets, and a child is kept when its
canonical key is new. Every poset on k+1 points arises from one on k
points this way, by deleting a maximal point (McKay, "Isomorph-free
exhaustive generation", 1998; Brinkmann & McKay, "Posets on up to 16
points", 2002). Each level is memoised and extends the one below it,
so a process builds every level once, however many sizes it
enumerates. The key minimises the relation matrix over the
degree-preserving relabellings: points are blocked by (up-degree,
down-degree) and only permuted within their block. The keys are
yielded in sorted order, so identical specs always produce identical
streams.

The least matrix is found by a search over positions, not by trying
every relabelling. Every point above a point lies in an earlier block,
so a position's relabelled row is known once the position is filled,
and three arguments prune the search without changing the key (McKay
& Piperno, "Practical graph isomorphism, II", 2014). A branch whose
prefix already exceeds the best key's, or a sibling's, cannot win.
Twins, points with equal strict up and down rows, can be swapped by an
automorphism, so the search places them in index order; with an
involution that swap need not preserve it, so there it does not. And a
down-set that takes a twin without that twin's predecessor gives a
child isomorphic to one the generator keeps, so it is skipped.

Each bounded poset expands into its ortho structures (one per antitone
involution) and its sectioned structures (one per section family);
``ortho_structures`` and ``sectioned_structures`` do this for one poset,
so a caller walking ``bounded_posets`` once can feed every stream. One
search, ``_pairings``, lists every involution: it pairs the first
unpaired point with each allowed partner in turn, and each pair narrows
the partner masks of the points still unpaired (forward checking:
Haralick & Elliott, "Increasing tree search efficiency for constraint
satisfaction problems", 1980). ``filter_involutions`` runs it on the
points of a principal filter [x,1], with x paired with 1 and masks of
the points whose degrees mirror; an antitone involution of the poset is
one of its bottom filter [0,1], and a section family takes one of each
filter. The rows of [0,1] are kept on the poset, so the ortho and the
sectioned expansion build them once between them. The other filters'
rows are built in index order, and the first filter with none ends the
sectioned expansion of its poset, since no family can then take a row
of it. ``involutions`` runs it on bare points, an antichain, optionally
within a mask of allowed partners per point. The same canonical form,
applied to the strict-up rows of the whole poset with the involution
relabelled alongside, keys ortho structures, and two of them are
orthoisomorphic exactly when their keys are equal.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator, List, Optional, Sequence, Tuple

from .poset import FinitePoset, bits
from .ortho import OrthoPoset, cached
from .relative import SectionedPoset


@lru_cache(maxsize=None)
def _middle_posets(m: int) -> Tuple[Tuple[int, ...], ...]:
    """Strict partial orders on m points, one canonical key per class, sorted.

    A key is a tuple of strict-up masks. Level m extends every key of
    the memoised level m-1 by a maximal point above each down-set: the
    masks that no point outside them lies below. A down-set that takes
    a twin without that twin's predecessor is skipped: swapping twins
    is an automorphism, so its child is isomorphic to the one on the
    down-set that takes the predecessor instead, which is kept.
    """
    if m == 0:
        return ((),)
    k = m - 1
    children = set()
    for up in _middle_posets(k):
        down = _down_rows(up)
        twins = [(i, j) for i, j in enumerate(_twin_predecessors(up, down)) if j >= 0]
        # a key lists every point after the points above it, so a point
        # joins a down-set once every later point below it is in
        masks = [0]
        for i in reversed(range(k)):
            masks += [mask | 1 << i for mask in masks if down[i] & ~mask == 0]
        for mask in masks:
            if all(mask >> j & 1 for i, j in twins if mask >> i & 1):
                child = tuple(row | (mask >> i & 1) << k for i, row in enumerate(up))
                children.add(_canon_middle(child + (0,)))
    return tuple(sorted(children))


def _down_rows(up: Sequence[int]) -> List[int]:
    """The strict-down masks of a strict order given by its strict-up masks."""
    down = [0] * len(up)
    for i, row in enumerate(up):
        for j in bits(row):
            down[j] |= 1 << i
    return down


def _twin_predecessors(up: Sequence[int], down: Sequence[int]) -> List[int]:
    """For each point, the last earlier point with its up and down rows, or -1.

    Points with equal strict up and down rows are twins, and swapping
    two twins is an automorphism of the order.
    """
    last = {}
    pred = []
    for i, rows in enumerate(zip(up, down)):
        pred.append(last.get(rows, -1))
        last[rows] = i
    return pred


def _canon_middle(up: Tuple[int, ...],
                  inv: Optional[Sequence[int]] = None) -> Tuple[int, ...]:
    """Least relabelled matrix over the relabellings that keep degree order.

    Points are put in blocks by (up-degree, down-degree); block k takes
    the k-th run of new labels, and only orders within a block are
    allowed. Isomorphic orders reach the same set of matrices, so the
    minimum is a canonical form. With ``inv`` the relabelled involution
    follows the rows in the key, so the key is canonical for the pair.

    The minimum is found by a depth-first search that fills the new
    labels in order. Every point above a point has a smaller up-degree,
    so it lies in an earlier block, and a position's relabelled row is
    known as soon as the position is filled. So at each position only
    the points with the least row are tried, since any other continues
    to a larger matrix, and a branch whose prefix already exceeds the
    best key's is dropped. Without ``inv``, twins (equal strict up and
    down rows) are placed only in index order: swapping two of them is
    an automorphism and leaves the matrix as it is. The third argument,
    that a down-set taking a twin without its predecessor adds nothing,
    prunes ``_middle_posets`` before it calls this function.
    """
    m = len(up)
    down = _down_rows(up)
    degree = [row.bit_count() << 16 | col.bit_count() for row, col in zip(up, down)]
    blocks = {}
    for i, d in enumerate(degree):
        blocks[d] = blocks.get(d, 0) | 1 << i
    # the points that may take each position: those of its block
    slots = [blocks[d] for d in sorted(degree)]
    pred = [-1] * m if inv is not None else _twin_predecessors(up, down)
    best = []
    ctx = (m, slots, [bits(row) for row in up], pred, [0] * m, [0] * m, [0] * m,
           best, inv)
    _canon_search(0, 0, False, ctx)
    return tuple(best)


def _canon_search(k: int, used: int, tight: bool, ctx) -> bool:
    """Fill positions k.. of ``_canon_middle``'s search; True if the best key moved.

    ``used`` holds the points placed at positions 0..k-1, and ``tight``
    says their rows equal the best key's. ``ctx`` holds the inputs and
    the search state: the new label of each placed point as a one-bit
    mask, the point at each position, the rows so far and the best key,
    which is replaced in place. A position with one least row is filled
    in the loop; the search branches only where several points tie.
    """
    m, slots, ups, pred, label, old, rows, best, inv = ctx
    while k < m:
        least = None
        for i in bits(slots[k] & ~used):
            j = pred[i]
            if j >= 0 and not used >> j & 1:
                continue
            row = 0
            for j in ups[i]:
                row |= label[j]
            if least is None or row < least:
                least, ties = row, [i]
            elif row == least:
                ties.append(i)
        if tight:
            if least > best[k]:
                return False
            tight = least == best[k]
        rows[k] = least
        if len(ties) > 1:
            break
        i = ties[0]
        label[i] = 1 << k
        old[k] = i
        used |= 1 << i
        k += 1
    else:
        if inv is None:
            if tight:
                return False
            best[:] = rows
            return True
        tail = [label[inv[i]].bit_length() - 1 for i in old]
        if tight:
            if tail >= best[m:]:
                return False
            best[m:] = tail
        else:
            best[:] = rows + tail
        return True
    moved = False
    for i in ties:
        label[i] = 1 << k
        old[k] = i
        if _canon_search(k + 1, used | 1 << i, tight, ctx):
            moved = tight = True
    return moved


def bounded_posets(n: int) -> Iterator[FinitePoset]:
    """One bounded poset on n elements per isomorphism class (0 first, 1 last)."""
    if n < 1:
        return
    if n == 1:
        yield FinitePoset(["0"], [1])
        return
    m = n - 2
    labels = ["0"] + [f"e{i + 1}" for i in range(m)] + ["1"]
    for mid in _middle_posets(m):
        up = [0] * n
        up[0] = (1 << n) - 1
        up[n - 1] = 1 << (n - 1)
        for i in range(m):
            up[i + 1] = 1 << (i + 1) | 1 << (n - 1) | mid[i] << 1
        yield FinitePoset(labels, up, name=f"P{n}")


def _pairings(k: int, free: int, order: Sequence[int], allowed: Sequence[int],
              inv: List[int], up: Sequence[int], down: Sequence[int],
              out: List[Tuple[int, ...]]) -> None:
    """Append to ``out`` every pairing of the points in ``free``, as rows of ``inv``.

    The first point a of ``order[k:]`` still in ``free`` is paired with
    each b in ``allowed[a] & free`` whose own mask admits a, in
    ascending order of b (b == a makes a fixed point). Pairing a with b
    narrows the masks of the unpaired points above a, in a copy per
    branch: each may then take only a partner below b. ``up`` and
    ``down`` are the reflexive up and down masks. On an antichain no
    point lies above another, so nothing is narrowed and no mask list
    is copied.

    Say that a pair (a, b) fits a point c when c ≥ a ⇔ c′ ≤ b and
    c ≤ a ⇔ c′ ≥ b; an involution is antitone when every pair fits
    every point. The narrowing is the whole test when ``order`` lists
    the points by down-degree, every allowed pair mirrors degrees inside
    the set the finished rows pair, |↑a| = |↓b| and |↓a| = |↑b|, and the
    pairs already in ``inv`` fit every point, as in
    ``filter_involutions``. Take the pairs in the order they are made,
    and assume that every earlier pair fits every point. (a, b) fits c
    exactly when (c, c′) fits a, so (a, b) fits the points of the
    earlier pairs, and c ↦ c′ maps the paired points above a onto those
    below b. The equal counts then leave as many unpaired points above
    a as below b. The narrowing maps the former into the latter, so
    onto them, and c ≥ a ⇔ c′ ≤ b for every c. No unpaired point lies
    below a, since its down-degree would be smaller, so by the same
    count none lies above b, and c ≤ a ⇔ c′ ≥ b holds too. So (a, b)
    fits every point. Read at c′, the two conditions are the ones the
    pair puts on b, so no mask is narrowed for b, nor for a point
    comparable with neither a nor b.
    """
    if not free:
        out.append(tuple(inv))
        return
    while not free >> order[k] & 1:
        k += 1
    a = order[k]
    for b in bits(allowed[a] & free):
        if not allowed[b] >> a & 1:
            continue
        inv[a], inv[b] = b, a
        rest = free & ~(1 << a | 1 << b)
        above = up[a] & rest
        narrowed = allowed
        if above:
            narrowed = list(allowed)
            for c in bits(above):
                narrowed[c] &= down[b]
        _pairings(k + 1, rest, order, narrowed, inv, up, down, out)


def involutions(n: int,
                allowed: Optional[Sequence[int]] = None) -> Iterator[Tuple[int, ...]]:
    """Self-inverse permutations of 0..n-1, in lexicographic order.

    With ``allowed``, only those with inv[x] in the mask ``allowed[x]``
    for every x. They are the pairings of the antichain on n points,
    which ``_pairings`` lists with the least unpaired x first.
    """
    full = (1 << n) - 1
    if allowed is None:
        allowed = [full] * n
    points = [1 << i for i in range(n)]
    rows = []
    _pairings(0, full, range(n), allowed, [-1] * n, points, points, rows)
    yield from rows


def filter_involutions(p: FinitePoset, x: int) -> List[Tuple[int, ...]]:
    """Antitone involutions of [x,1], as rows over the whole poset.

    x is paired with 1, and ``_pairings`` pairs the other points of the
    filter in order of their down-degree inside it, then of index;
    points outside it map to -1. A point may take a partner only when
    their (down-degree inside the filter, up-degree) profiles mirror
    each other, one mask per profile.
    """
    n, up, down, filt = p.n, p.up, p.down, p.up[x]
    inv = [-1] * n
    inv[x], inv[p.top] = p.top, x
    free = filt & ~(1 << x | 1 << p.top)
    down_sizes = [(row & filt).bit_count() for row in down]
    by_profile = {}
    for i in bits(free):
        key = down_sizes[i], up[i].bit_count()
        by_profile[key] = by_profile.get(key, 0) | 1 << i
    allowed = [by_profile.get((up[i].bit_count(), down_sizes[i]), 0) for i in range(n)]
    rows = []
    _pairings(0, free, sorted(bits(free), key=down_sizes.__getitem__), allowed, inv,
              up, down, rows)
    return rows


def _bottom_rows(p: FinitePoset) -> Tuple[Tuple[int, ...], ...]:
    """The rows of [0,1], kept on the poset through ``cached``."""
    return tuple(filter_involutions(p, p.bottom))


def antitone_involutions(p: FinitePoset) -> List[Tuple[int, ...]]:
    """All antitone involutions of a bounded poset: those of [0,1].

    The rows are built once per poset and shared with
    ``sectioned_structures``.
    """
    return list(cached(p, _bottom_rows))


def ortho_structures(p: FinitePoset) -> Iterator[OrthoPoset]:
    """The poset ``p`` with each of its antitone involutions."""
    for inv in antitone_involutions(p):
        yield OrthoPoset(p, inv)


def sectioned_structures(p: FinitePoset):
    """The poset ``p`` with each of its valid section families.

    The filters' rows are built in index order, the bottom's from the
    rows ``antitone_involutions`` keeps, and a filter with none ends the
    poset: it has no section family.
    """
    per_elem = []
    for x in range(p.n):
        rows = cached(p, _bottom_rows) if x == p.bottom else filter_involutions(p, x)
        if not rows:
            return
        per_elem.append(rows)
    for rows in product(*per_elem):
        yield SectionedPoset(p, rows)


def _ortho_key(o: OrthoPoset) -> Tuple[int, ...]:
    """The canonical key of the strict-up rows with the involution."""
    strict = tuple(row & ~(1 << i) for i, row in enumerate(o.poset.up))
    return _canon_middle(strict, o.inv)


def _degree_signature(o: OrthoPoset) -> List[Tuple[int, int, int]]:
    """Sorted (up-degree, down-degree, up-degree of the involute) per point."""
    p = o.poset
    ups = [bin(row).count("1") for row in p.up]
    return sorted((ups[x], bin(p.down[x]).count("1"), ups[o.inv[x]])
                  for x in range(p.n))


def is_orthoisomorphic(a: OrthoPoset, b: OrthoPoset) -> bool:
    """Order- and involution-preserving bijection test, by canonical keys.

    An orthoisomorphism keeps every point's degrees and those of its
    involute, so unequal degree signatures settle the test before any
    key is computed. Each key is built once per structure.
    """
    return (a.n == b.n and _degree_signature(a) == _degree_signature(b)
            and cached(a, _ortho_key) == cached(b, _ortho_key))
