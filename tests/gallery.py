"""The paper's fixed structures, read from the files under fixtures/, and
the small structures tests build around them.

Tests load the figures through :func:`paraposet.fileformat.load`, the
parser the command line runs, so the files are the one definition of
each figure. ``subset_rel`` keeps the four powerset relations in their
literal form, as the reference the row-union kernels are tested against.
"""

import pathlib
from itertools import chain

from paraposet import fileformat, relative, universe
from paraposet.ortho import validate_involution
from paraposet.poset import FinitePoset, bits
from paraposet.relative import SectionedPoset

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load(name: str):
    """A fresh structure from fixtures/NAME.poset (NAME may name a subdirectory)."""
    return fileformat.load(str(FIXTURES / f"{name}.poset"))


def ortho(name: str):
    """fixtures/NAME.poset as an ortho structure.

    A section file gives its global involution, the section on [0,1].
    """
    obj = load(name)
    return obj.ortho if isinstance(obj, SectionedPoset) else obj


def with_i3_columns(s, cols):
    """``s`` on a fresh copy of its poset whose I3 column y, for the row y
    of ``s``, is ``cols[y]``.

    The columns are planted in the per-row entries of the copy, which
    the I3 table and every section statement read, so they stand in for
    the built ones on every family of the copy and on no other poset.
    """
    p = s.poset
    q = FinitePoset(p.labels, p.up, p.name)
    memo = relative._per_row(q, relative._i3_column)
    for y, (row, col) in enumerate(zip(s.sections, cols)):
        memo[y, row] = tuple(col)
    return SectionedPoset(q, s.sections)


def ortho_posets(n: int):
    """Every ortho structure of size n, in the order the harness sees them."""
    return chain.from_iterable(map(universe.ortho_structures, universe.bounded_posets(n)))


def sectioned_posets(n: int):
    """Every sectioned structure of size n, in the order the harness sees them."""
    return chain.from_iterable(map(universe.sectioned_structures,
                                   universe.bounded_posets(n)))


def kleene_k3b2(atom: str, side: str, name: str = ""):
    """The 6-element product of the 3-element Kleene chain with B2.

    ``atom`` names the fixed-point pair (atom and its involute form a
    4-chain through the structure); ``side`` names the complemented pair.
    """
    labels = ["0", atom, side, side + "'", atom + "'", "1"]
    covers = [("0", atom), ("0", side + "'"),
              (atom, side), (atom, atom + "'"),
              (side + "'", atom + "'"), (side, "1"), (atom + "'", "1")]
    p = FinitePoset.from_covers(labels, covers, name=name or "k3b2")
    # each label is paired with its mirror in ``labels``
    return validate_involution(p, range(p.n)[::-1])


# subset-relation kinds, matching the four relations on the powerset
LE = "le"          # every element of A below every element of B
LE1 = "le1"        # every element of A below some element of B
LE2 = "le2"        # every element of B above some element of A
EQ2 = "approx2"    # le2 in both directions


def subset_rel(p: FinitePoset, a: int, b: int, kind: str) -> bool:
    """One of the four powerset relations of ``p`` on the masks a and b."""
    p._check_subset(a)
    p._check_subset(b)
    if kind == LE:
        return a & ~p.lower_cone(b) == 0
    if kind == LE1:
        cover = 0
        for y in bits(b):
            cover |= p.down[y]
        return a & ~cover == 0
    if kind == LE2:
        cover = 0
        for x in bits(a):
            cover |= p.up[x]
        return b & ~cover == 0
    if kind == EQ2:
        return subset_rel(p, a, b, LE2) and subset_rel(p, b, a, LE2)
    raise ValueError(f"unknown subset relation {kind!r}")


def clean(rep) -> bool:
    """Whether a ``TheoremReport`` has no violation under either reading."""
    return not rep.violations and not rep.violations_elementwise
