"""Gluing families of Kleene lattices into atomic amalgams.

Blocks are glued along {0,1} or along 4-element atomic subalgebras
{0, a, a', 1}, with a an atom of both blocks. Validation enforces the
pasting rules off the order rows and checks each distinct block once,
however many copies the family pastes; the builder re-checks the order
and involution axioms on the glued carrier instead of trusting them,
and returns the carrier.
``build_amalgam`` is the one place that checks that a carrier is
paraorthomodular: it raises otherwise, so no consumer re-checks it.

A family numbers its identification classes once, by first occurrence
over (block, element), and every consumer reads that numbering. The
union of two blocks that the two-block lattice lemma speaks about is
the family restricted to those blocks: their class rows renumbered the
same way, with no second validation. Its links, the block pairs that
share a 4-set with the atom of each, are read off once per family, and
the loop search reads nothing else of the pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

from .poset import BadIndex, FinitePoset, PosetError, bits
from .ortho import (OrthoPoset, is_kleene_lattice, is_paraorthomodular,
                    is_sharply_paraorthomodular, validate_involution, InvolutionError)


class FamilyError(PosetError):
    pass


class NotKleene(FamilyError):
    pass


class PastingViolation(AssertionError):
    """A carrier of Kleene blocks that is not paraorthomodular.

    The pasting theorem rules this out, so it is a failed check, not a
    malformed family.
    """


@dataclass(frozen=True)
class PastedFamily:
    """Validated Kleene blocks plus the identification classes."""

    blocks: Tuple[OrthoPoset, ...]
    names: Tuple[str, ...]
    # class id for every (block, element), and the members of each class
    class_of: Tuple[Tuple[int, ...], ...]
    members: Tuple[Tuple[Tuple[int, int], ...], ...]

    @property
    def zero(self) -> int:
        """The class of the block bottoms."""
        return self.class_of[0][self.blocks[0].poset.bottom]

    @property
    def one(self) -> int:
        """The class of the block tops."""
        return self.class_of[0][self.blocks[0].poset.top]

    def shared(self, i: int, j: int) -> FrozenSet[int]:
        """Class ids present in both block i and block j."""
        return frozenset(self.class_of[i]).intersection(self.class_of[j])

    @cached_property
    def links(self) -> Dict[Tuple[int, int], int]:
        """``{(i, j): a}`` over the ordered pairs of blocks sharing {0, a, a', 1}.

        ``a`` is the class of the atom; the pasting rules make it an atom
        of both blocks. Pairs sharing only {0, 1} are absent.
        """
        links = {}
        for i, j in combinations(range(len(self.blocks)), 2):
            p = self.blocks[i].poset
            for c in self.shared(i, j) - {self.zero, self.one}:
                if _atom_or_coatom(p, self.class_of[i].index(c)) == "atom":
                    links[i, j] = links[j, i] = c
        return links


def _paste(blocks: Sequence[OrthoPoset], names: Sequence[str],
           rows: Sequence[Sequence[Hashable]]) -> PastedFamily:
    """The family whose classes are the equal keys of ``rows``.

    ``rows[i][e]`` keys the class of element e of block i; classes are
    numbered by first occurrence over (block, element).
    """
    ids: Dict[Hashable, int] = {}
    class_of = []
    members: List[List[Tuple[int, int]]] = []
    for i, row in enumerate(rows):
        for e, key in enumerate(row):
            if key not in ids:
                ids[key] = len(members)
                members.append([])
            members[ids[key]].append((i, e))
        class_of.append(tuple(ids[key] for key in row))
    return PastedFamily(tuple(blocks), tuple(names),
                        tuple(class_of), tuple(map(tuple, members)))


def _atom_or_coatom(p: FinitePoset, e: int) -> Optional[str]:
    """'atom', 'coatom' or None for an element e other than the bottom and
    the top: an atom when ``down[e]`` is {0, e}, a coatom when ``up[e]`` is
    {e, 1}; no element of a Kleene block (n >= 6) is both."""
    if p.down[e] == 1 << p.bottom | 1 << e:
        return "atom"
    return "coatom" if p.up[e] == 1 << e | 1 << p.top else None


def _shared_order(blk: OrthoPoset, row: Sequence[int], elems: Sequence[int]) -> dict:
    """``{c: mask}``: for each element of ``elems``, of class c under
    ``row``, the mask of the classes of ``elems`` above it."""
    up = blk.poset.up
    within = sum(1 << e for e in elems)
    return {row[e]: sum(1 << row[f] for f in bits(up[e] & within)) for e in elems}


def validate_family(blocks: Sequence[OrthoPoset], glue,
                    names: Optional[Sequence[str]] = None) -> PastedFamily:
    """Check the pasting rules and resolve the identification classes.

    ``glue`` is an iterable of groups; each group is a list of
    (block index, element index or label) identified with each other.
    Block bottoms and block tops are identified automatically. An index
    out of range raises BadIndex: the union-find key block * stride + e
    would name another block's element.

    The Kleene check reads only order rows and involution, so it runs
    once per distinct ``(poset.up, inv)``, at its first block. That zero
    meets are orthogonal in a Kleene lattice is the
    ``kleene-ortho-remark`` theorem of the harness, not checked here.

    A shared 4-set s needs no sublattice check. The involutions map s
    onto itself and swap its middle classes: a fixed one, being its own
    involute, would be both an atom and a coatom, which no distributive
    lattice with n >= 6 has (the one element incomparable with it would
    be its unique complement). So s = {0, a, a', 1} with a an atom,
    a ^ a' in {0, a} and a v a' in {a', 1}.
    """
    blocks = tuple(blocks)
    names = tuple(names) if names else tuple(f"K{i+1}" for i in range(len(blocks)))
    checked = set()
    for i, blk in enumerate(blocks):
        if blk.n < 6:
            raise FamilyError(f"block {names[i]} has {blk.n} elements")
        if (blk.poset.up, blk.inv) in checked:
            continue
        checked.add((blk.poset.up, blk.inv))
        if not is_kleene_lattice(blk):
            raise NotKleene(f"block {names[i]} is not a Kleene lattice")

    # union-find over (block, element)
    stride = max(b.n for b in blocks)
    parent = list(range(len(blocks) * stride))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    def key(i, e):
        return i * stride + e

    for i in range(1, len(blocks)):
        union(key(0, blocks[0].poset.bottom), key(i, blocks[i].poset.bottom))
        union(key(0, blocks[0].poset.top), key(i, blocks[i].poset.top))
    for group in glue:
        resolved = []
        for i, e in group:
            if not 0 <= i < len(blocks):
                raise BadIndex(f"no block with index {i} in the family")
            p = blocks[i].poset
            if not isinstance(e, int):
                try:
                    e = p.labels.index(str(e))
                except ValueError:
                    raise BadIndex(f"no element labelled {str(e)!r}") from None
            elif not 0 <= e < p.n:
                raise BadIndex(f"no element with index {e} in block {names[i]}")
            resolved.append((i, e))
        seen = {}
        for i, e in resolved:
            if i in seen:
                raise FamilyError(f"bad intersection of blocks {names[i]} and "
                                  f"{names[i]}: two elements of one block identified")
            seen[i] = e
        for i, e in resolved[1:]:
            union(key(resolved[0][0], resolved[0][1]), key(i, e))

    # the union-find roots key the classes; one block may not meet a class twice
    roots = [[find(key(i, e)) for e in range(blk.n)] for i, blk in enumerate(blocks)]
    for i, row in enumerate(roots):
        if len(set(row)) != len(row):
            raise FamilyError(f"bad intersection of blocks {names[i]} and "
                              f"{names[i]}: two elements of one block identified")
    fam = _paste(blocks, names, roots)

    zero, one = fam.zero, fam.one
    for i, j in combinations(range(len(blocks)), 2):
        s = fam.shared(i, j)
        if s == {zero, one}:
            continue
        bad = f"bad intersection of blocks {names[i]} and {names[j]}"
        if len(s) == 3:
            raise FamilyError(f"blocks {names[i]} and {names[j]} "
                              "share a 3-element subalgebra")
        if len(s) != 4:
            raise FamilyError(f"{bad}: shared set of size {len(s)}")
        mid = sorted(s - {zero, one})
        ei = {c: fam.class_of[i].index(c) for c in s}
        ej = {c: fam.class_of[j].index(c) for c in s}
        bi, bj = blocks[i], blocks[j]
        for c in mid:
            kinds = []
            for k, blk, e in ((i, bi, ei[c]), (j, bj, ej[c])):
                kinds.append(_atom_or_coatom(blk.poset, e))
                if kinds[-1] is None:
                    raise FamilyError(f"shared element {blk.poset.labels[e]} is "
                                      f"neither atom nor coatom in block {names[k]}")
            # only atoms are pasted onto atoms (and so coatoms onto coatoms)
            if kinds[0] != kinds[1]:
                raise FamilyError(
                    f"{bad}: {bi.poset.labels[ei[c]]} ({kinds[0]} of {names[i]}) "
                    f"is glued to {bj.poset.labels[ej[c]]} ({kinds[1]} of {names[j]})")
        for c in s:
            ci = fam.class_of[i][bi.inv[ei[c]]]
            cj = fam.class_of[j][bj.inv[ej[c]]]
            if ci != cj or ci not in s:
                raise FamilyError(f"{bad}: not closed under the involutions")
        if (_shared_order(bi, fam.class_of[i], tuple(ei.values()))
                != _shared_order(bj, fam.class_of[j], tuple(ej.values()))):
            raise FamilyError(f"{bad}: orders disagree on the shared set")
    return fam


def build_amalgam(fam: PastedFamily) -> OrthoPoset:
    """The carrier: union order, blockwise involution, re-validated.

    Raises PastingViolation if the carrier is not paraorthomodular,
    which the pasting theorem rules out for Kleene blocks.
    """
    nc = len(fam.members)
    labels = []
    used = {}
    for c in range(nc):
        i, e = fam.members[c][0]
        lbl = fam.blocks[i].poset.labels[e]
        if lbl in used:
            lbl = f"{fam.names[i]}.{lbl}"
        used[lbl] = c
        labels.append(lbl)

    up = [1 << c for c in range(nc)]
    for i, blk in enumerate(fam.blocks):
        p = blk.poset
        for x in range(p.n):
            cx = fam.class_of[i][x]
            for y in bits(p.up[x]):
                up[cx] |= 1 << fam.class_of[i][y]
    try:
        poset = FinitePoset(labels, up)
    except PosetError as exc:
        raise FamilyError(f"glued relation is not a bounded order: {exc}") from exc

    inv = [-1] * nc
    for i, blk in enumerate(fam.blocks):
        for e in range(blk.n):
            c = fam.class_of[i][e]
            ci = fam.class_of[i][blk.inv[e]]
            if inv[c] not in (-1, ci):
                raise FamilyError(f"blocks disagree on the involute of {labels[c]}")
            inv[c] = ci
    try:
        carrier = validate_involution(poset, inv)
    except InvolutionError as exc:
        raise FamilyError(str(exc)) from exc

    # every amalgam of Kleene blocks is paraorthomodular
    if not is_paraorthomodular(carrier):
        raise PastingViolation("amalgam of Kleene blocks is not paraorthomodular")
    return carrier


@dataclass(frozen=True)
class AtomicLoop:
    blocks: Tuple[int, ...]
    atoms: Tuple[int, ...]


def find_loops(fam: PastedFamily, order: int) -> List[AtomicLoop]:
    """Cyclic block sequences whose consecutive blocks are linked.

    Read from ``fam.links``. A set of ``order`` blocks qualifies when
    exactly ``order`` of its pairs are linked. A sequence of it is a loop
    when each consecutive pair is linked, so no two non-consecutive
    blocks are, and each linking atom lies in exactly two loop blocks.

    Then every three loop blocks meet in {0, 1}: blocks that share a
    class c other than 0 and 1 share {0, c, c', 1}, so a c in three loop
    blocks links each two of them. With order > 3 one of those pairs is
    not consecutive; with order 3 the atom of that 4-set lies in all
    three blocks. The linking atoms are distinct for the same reason: an
    atom linking two pairs lies in at least three loop blocks.

    Loops are listed once up to rotation and reflection, in the order of
    the block combinations and their permutations.
    """
    if order < 3:
        raise ValueError("loops start at order 3")
    links = fam.links
    loops = []
    for combo in combinations(range(len(fam.blocks)), order):
        if sum(pair in links for pair in combinations(combo, 2)) != order:
            continue
        base = combo[0]
        for rest in permutations(combo[1:]):
            if rest[0] > rest[-1]:
                continue  # reflection representative
            seq = (base,) + rest
            atoms = tuple(links.get((a, b)) for a, b in zip(seq, seq[1:] + seq[:1]))
            if None not in atoms and all(
                    sum(a in fam.class_of[b] for b in seq) == 2 for a in atoms):
                loops.append(AtomicLoop(seq, atoms))
    return loops


@dataclass
class ClassificationReport:
    """Loop predictions next to direct checks of the carrier.

    The carrier is paraorthomodular: ``build_amalgam`` raises otherwise.
    """

    loops3: List[AtomicLoop]
    loops4: List[AtomicLoop]
    predicted_sharply: bool
    predicted_lattice: bool
    direct_sharply: bool
    direct_lattice: bool
    two_block_lattices: bool
    join_witness: Optional[Tuple[int, int]] = None

    @property
    def agree(self) -> bool:
        return (self.predicted_sharply == self.direct_sharply
                and self.predicted_lattice == self.direct_lattice)


def classify_amalgam(fam: PastedFamily,
                     carrier: Optional[OrthoPoset] = None) -> ClassificationReport:
    """Loop-based prediction against direct carrier checks."""
    if carrier is None:
        carrier = build_amalgam(fam)
    loops3 = find_loops(fam, 3)
    loops4 = find_loops(fam, 4)
    p = carrier.poset
    rep = ClassificationReport(
        loops3=loops3,
        loops4=loops4,
        predicted_sharply=not loops3,
        predicted_lattice=not loops3 and not loops4,
        direct_sharply=is_sharply_paraorthomodular(carrier),
        direct_lattice=p.is_lattice,
        # a list, not a generator: every union is built, so every one is checked
        two_block_lattices=all([two_block_union(fam, i, j).poset.is_lattice
                                for i, j in combinations(range(len(fam.blocks)), 2)]),
    )
    if loops3:
        a1, a3 = loops3[0].atoms[0], loops3[0].atoms[2]
        if p.leq(a1, carrier.inv[a3]) and p.join(a1, a3) is None:
            rep.join_witness = (a1, a3)
    return rep


def two_block_union(fam: PastedFamily, i: int, j: int) -> OrthoPoset:
    """The amalgam of just blocks i and j along their shared classes.

    This is the structure the two-block lattice lemma speaks about; the
    order comes from the two blocks alone, without comparabilities that
    other blocks contribute in the full carrier. The pair is the family
    restricted to blocks i and j, so the pasting rules already hold.
    """
    sub = _paste((fam.blocks[i], fam.blocks[j]), (fam.names[i], fam.names[j]),
                 (fam.class_of[i], fam.class_of[j]))
    return build_amalgam(sub)


@dataclass
class CoverReport:
    """Cover-relation transfer between blocks and the glued poset.

    ``exceptions`` lists (x, y, block, interlopers) for involutive pairs
    y = x' where the block cover is destroyed in the amalgam;
    ``violations`` should stay empty.
    """

    violations: List[tuple] = field(default_factory=list)
    exceptions: List[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def cover_transfer(fam: PastedFamily, carrier: OrthoPoset) -> CoverReport:
    rep = CoverReport()
    p = carrier.poset
    for i, blk in enumerate(fam.blocks):
        bp = blk.poset
        for x in range(bp.n):
            cx = fam.class_of[i][x]
            for y in bits(bp.up[x] & ~(1 << x)):
                cy = fam.class_of[i][y]
                block_cover = bp.covers_pair(x, y)
                amal_cover = p.covers_pair(cx, cy)
                if amal_cover and not block_cover:
                    rep.violations.append(("i", cx, cy, i))
                if cy != carrier.inv[cx]:
                    if block_cover != amal_cover:
                        rep.violations.append(("ii", cx, cy, i))
                elif block_cover and not amal_cover:
                    between = p.up[cx] & p.down[cy] & ~(1 << cx | 1 << cy)
                    rep.exceptions.append((cx, cy, i, between))
    return rep
