"""The paper's fixed structures, read from the files under fixtures/, and
the small structures tests build around them.

Tests load the figures through :func:`paraposet.fileformat.load`, the
parser the command line runs, so the files are the one definition of
each figure.
"""

import pathlib
from itertools import chain

from paraposet import fileformat, universe
from paraposet.ortho import validate_involution
from paraposet.poset import FinitePoset
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
