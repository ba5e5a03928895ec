"""The paper's fixed structures, read from the files under fixtures/.

Tests load them through :func:`paraposet.fileformat.load`, the parser the
command line runs, so the files are the one definition of each figure.
"""

import pathlib

from paraposet import fileformat
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
