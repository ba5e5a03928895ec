"""Parametric structures: Boolean cubes, Kleene blocks and Greechie cycles.

Each builder returns a freshly validated structure. The paper's fixed
figures are the files under fixtures/, read with
:func:`paraposet.fileformat.load`.
"""

from __future__ import annotations

from typing import Sequence

from .poset import FinitePoset
from .ortho import OrthoPoset, validate_involution
from .amalgam import PastedFamily, validate_family


def _ortho(name, labels, covers, pairs) -> OrthoPoset:
    p = FinitePoset.from_covers(labels, covers, name=name)
    inv = list(range(p.n))
    for a, b in pairs:
        ia, ib = p.index(a), p.index(b)
        inv[ia], inv[ib] = ib, ia
    return validate_involution(p, inv)


def _std_pairs(labels):
    """Pair every label l with l' (and 0 with 1)."""
    out = [("0", "1")]
    for l in labels:
        if l not in ("0", "1") and not l.endswith("'"):
            out.append((l, l + "'"))
    return out


# -- building blocks for amalgams -------------------------------------

def boolean_cube(atoms: Sequence[str] = ("x", "y", "z"), name: str = "") -> OrthoPoset:
    """The 8-element Boolean algebra on three named atoms."""
    a1, a2, a3 = atoms
    labels = ["0", a1, a2, a3, a1 + "'", a2 + "'", a3 + "'", "1"]
    covers = [("0", a) for a in atoms]
    covers += [(a, b + "'") for a in atoms for b in atoms if a != b]
    covers += [(a + "'", "1") for a in atoms]
    return _ortho(name or "cube", labels, covers, _std_pairs(labels))


def kleene_k3b2(atom: str, side: str, name: str = "") -> OrthoPoset:
    """The 6-element product of the 3-element Kleene chain with B2.

    ``atom`` names the fixed-point pair (atom and its involute form a
    4-chain through the structure); ``side`` names the complemented pair.
    """
    labels = ["0", atom, side, side + "'", atom + "'", "1"]
    covers = [("0", atom), ("0", side + "'"),
              (atom, side), (atom, atom + "'"),
              (side + "'", atom + "'"), (side, "1"), (atom + "'", "1")]
    return _ortho(name or "k3b2", labels, covers, _std_pairs(labels))


def greechie_cycle(n: int) -> PastedFamily:
    """n Boolean cubes pasted in a cycle along n distinct atoms."""
    blocks = []
    for i in range(n):
        blocks.append(boolean_cube(
            (f"a{i + 1}", f"b{i + 1}", f"a{(i + 1) % n + 1}"), name=f"K{i + 1}"))
    glue = []
    for j in range(n):
        prev = (j - 1) % n
        for suffix in ("", "'"):
            glue.append([(prev, f"a{j + 1}{suffix}"), (j, f"a{j + 1}{suffix}")])
    return validate_family(blocks, glue, names=[f"K{i + 1}" for i in range(n)])
