"""Small named structures used throughout the tests and fixtures.

Each builder returns a freshly validated structure. The fig* names
match the fixture files under fixtures/.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .poset import FinitePoset, bits
from .ortho import OrthoPoset, validate_involution
from .relative import SectionedPoset, validate_sections
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


def fig1a() -> OrthoPoset:
    labels = ["0", "a", "b", "a'", "b'", "1"]
    covers = [("0", "a"), ("0", "b"),
              ("a", "a'"), ("a", "b'"), ("b", "a'"), ("b", "b'"),
              ("a'", "1"), ("b'", "1")]
    return _ortho("fig1a", labels, covers, _std_pairs(labels))


def fig1b() -> OrthoPoset:
    labels = ["0", "a", "b", "c", "d", "d'", "c'", "b'", "a'", "1"]
    covers = [("0", x) for x in "abcd"]
    covers += [("a", "d'"), ("a", "c'"), ("a", "b'"),
               ("b", "d'"), ("b", "a'"),
               ("c", "d'"), ("c", "a'"),
               ("d", "c'"), ("d", "b'"), ("d", "a'")]
    covers += [(x + "'", "1") for x in "abcd"]
    return _ortho("fig1b", labels, covers, _std_pairs(labels))


def fig1c() -> OrthoPoset:
    labels = ["0", "a", "b", "c", "a'", "b'", "c'", "1"]
    covers = [("0", x) for x in "abc"]
    covers += [(x, y + "'") for x in "abc" for y in "abc"]
    covers += [(x + "'", "1") for x in "abc"]
    return _ortho("fig1c", labels, covers, _std_pairs(labels))


def fig2a() -> OrthoPoset:
    labels = ["0", "a", "b", "a'", "b'", "1"]
    covers = [("0", "a"), ("a", "a'"), ("a'", "1"),
              ("0", "b"), ("b", "b'"), ("b'", "1")]
    return _ortho("fig2a", labels, covers, _std_pairs(labels))


def fig2b() -> OrthoPoset:
    labels = ["0", "a", "b", "c", "d", "d'", "c'", "b'", "a'", "1"]
    covers = [("0", x) for x in "abcd"]
    covers += [("a", "c'"), ("a", "b'"),
               ("b", "d'"), ("b", "b'"), ("b", "a'"),
               ("c", "d'"), ("c", "c'"), ("c", "a'"),
               ("d", "c'"), ("d", "b'")]
    covers += [(x + "'", "1") for x in "abcd"]
    return _ortho("fig2b", labels, covers, _std_pairs(labels))


def fig3() -> OrthoPoset:
    labels = ["0", "x", "x'", "1"]
    covers = [("0", "x"), ("x", "x'"), ("x'", "1")]
    return _ortho("fig3", labels, covers, _std_pairs(labels))


def fig4() -> OrthoPoset:
    """The benzene ring: two 4-chains crossed by the involution."""
    labels = ["0", "x", "y'", "y", "x'", "1"]
    covers = [("0", "x"), ("x", "y"), ("y", "1"),
              ("0", "y'"), ("y'", "x'"), ("x'", "1")]
    return _ortho("fig4", labels, covers, _std_pairs(labels))


def fig5() -> OrthoPoset:
    labels = ["0", "a", "b", "c", "c'", "b'", "a'", "1"]
    covers = [("0", "a"), ("0", "b'"),
              ("a", "b"), ("a", "c"), ("a", "c'"),
              ("c", "a'"), ("c'", "a'"), ("b'", "a'"),
              ("b", "1"), ("a'", "1")]
    return _ortho("fig5", labels, covers, _std_pairs(labels))


def fig7() -> OrthoPoset:
    labels = ["0", "a", "b", "b'", "a'", "1"]
    covers = [("0", "a"), ("a", "b'"), ("b'", "1"),
              ("0", "b"), ("b", "a'"), ("a'", "1")]
    return _ortho("fig7", labels, covers, _std_pairs(labels))


def fig8() -> OrthoPoset:
    labels = ["0", "a", "b", "c", "d", "d'", "c'", "b'", "a'", "1"]
    covers = [("0", x) for x in "abcd"]
    covers += [("a", "d'"), ("b", "d'"), ("c", "d'"),
               ("d", "d'"), ("d", "c'"), ("d", "b'"), ("d", "a'")]
    covers += [(x + "'", "1") for x in "abcd"]
    return _ortho("fig8", labels, covers, _std_pairs(labels))


# -- section families --------------------------------------------------

def chain_sections(p: FinitePoset,
                   explicit: Optional[Dict[str, Dict[str, str]]] = None) -> SectionedPoset:
    """Sections from explicit rows, chains reversed automatically.

    ``explicit`` maps a base label to its row (label -> image label);
    every filter without an explicit row must be a chain, where the
    antitone involution is the unique order reversal.
    """
    explicit = explicit or {}
    rows = []
    for x in range(p.n):
        row = [-1] * p.n
        if p.labels[x] in explicit:
            for y, z in explicit[p.labels[x]].items():
                row[p.index(y)] = p.index(z)
        else:
            filt = sorted(bits(p.up[x]), key=lambda e: bin(p.down[e]).count("1"))
            for k in range(len(filt) - 1):
                if not p.leq(filt[k], filt[k + 1]):
                    raise ValueError(f"filter of {p.labels[x]} is not a chain")
            for k, e in enumerate(filt):
                row[e] = filt[len(filt) - 1 - k]
        rows.append(tuple(row))
    return validate_sections(p, rows)


def fig1a_sections() -> SectionedPoset:
    o = fig1a()
    explicit = {
        "0": {"0": "1", "a": "a'", "b": "b'", "a'": "a", "b'": "b", "1": "0"},
        "a": {"a": "1", "a'": "b'", "b'": "a'", "1": "a"},
        "b": {"b": "1", "a'": "b'", "b'": "a'", "1": "b"},
    }
    return chain_sections(o.poset, explicit)


def fig7_sections() -> SectionedPoset:
    """Sections on the hexagon lattice with the drawn global involution."""
    o = fig7()
    explicit = {
        "0": {"0": "1", "a": "a'", "b": "b'", "a'": "a", "b'": "b", "1": "0"},
    }
    return chain_sections(o.poset, explicit)


def fig8_sections() -> SectionedPoset:
    o = fig8()
    explicit = {
        "0": {"0": "1", "a": "a'", "b": "b'", "c": "c'", "d": "d'",
              "a'": "a", "b'": "b", "c'": "c", "d'": "d", "1": "0"},
        "d": {"d": "1", "a'": "d'", "b'": "c'", "c'": "b'", "d'": "a'", "1": "d"},
    }
    return chain_sections(o.poset, explicit)


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


def fig5_family() -> PastedFamily:
    """The two-block family whose amalgam is the drawn 8-element poset."""
    k1 = _ortho("K1", ["0", "a", "c", "c'", "a'", "1"],
                [("0", "a"), ("a", "c"), ("a", "c'"),
                 ("c", "a'"), ("c'", "a'"), ("a'", "1")],
                [("0", "1"), ("a", "a'"), ("c", "c'")])
    k2 = kleene_k3b2("a", "b", name="K2")
    glue = [[(0, "a"), (1, "a")], [(0, "a'"), (1, "a'")]]
    return validate_family([k1, k2], glue, names=("K1", "K2"))


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


def greechie_chain() -> PastedFamily:
    """Two Boolean cubes sharing a single atom; loop-free."""
    k1 = boolean_cube(("p", "b1", "c1"), name="K1")
    k2 = boolean_cube(("p", "b2", "c2"), name="K2")
    glue = [[(0, "p"), (1, "p")], [(0, "p'"), (1, "p'")]]
    return validate_family([k1, k2], glue, names=("K1", "K2"))

