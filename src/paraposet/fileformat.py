"""Line-oriented structure files.

Poset files:

    name fig2a
    elements 0 a b a' b' 1
    cover 0 a
    inv a a'
    section a a' b'      # image of a' under the involution of [a,1]

Family files list blocks by file, each a poset file with inv lines and
no section lines, and the element identifications:

    name triangle
    family
    block K1 k1.poset
    identify K1:a2 K2:a2

A file names itself at most once, and a line that its kind never reads
(a block or identify line in a poset file, an elements, cover, inv or
section line in a family file) fails to parse, naming the line.

Comments start with '#'. Each line is split into words once. A poset
file is built through one index from label to element: the cover and
inv lines are resolved through it before the order is built, which
reads index pairs, and the section lines after. The inv lines pair the
bottom with the top only when neither has an inv line of its own.

Emission is canonical: the element line keeps declaration order,
cover/inv/section lines are regenerated from the built structure and
sorted, so emit is idempotent and fixtures round-trip byte for byte.
A family emitted from its parsed file keeps the file's name line (or
its absence) and block paths, and regenerates the identify lines; a
family built in code is named by its joined block names and lists block
NAME as NAME.poset.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from .poset import BadIndex, FinitePoset, PosetError, bits
from .ortho import OrthoPoset, validate_involution
from .relative import SectionedPoset, validate_sections
from .amalgam import PastedFamily, validate_family


class ParseError(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class StructureFile:
    name: str = ""
    elements: List[str] = field(default_factory=list)
    covers: List[Tuple[str, str]] = field(default_factory=list)
    inv_pairs: List[Tuple[str, str]] = field(default_factory=list)
    sections: List[Tuple[str, str, str]] = field(default_factory=list)
    is_family: bool = False
    blocks: List[Tuple[str, str]] = field(default_factory=list)
    identify: List[List[Tuple[str, str]]] = field(default_factory=list)


# the keywords that only a poset file, or only a family file, reads
_POSET_KEYWORDS = ("elements", "cover", "inv", "section")
_FAMILY_KEYWORDS = ("block", "identify")


def parse(text: str) -> StructureFile:
    """Read a poset or family file; a line the file's kind would not read is an error."""
    sf = StructureFile()
    # each line split once: its words before any '#'
    lines = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
    for no, parts in enumerate(lines, start=1):
        if not parts:
            continue
        kw = parts[0]
        if kw == "cover":
            if len(parts) != 3:
                raise ParseError(no, "cover takes two elements")
            sf.covers.append((parts[1], parts[2]))
        elif kw == "section":
            if len(parts) != 4:
                raise ParseError(no, "section takes base, element, image")
            sf.sections.append((parts[1], parts[2], parts[3]))
        elif kw == "inv":
            if len(parts) != 3:
                raise ParseError(no, "inv takes two elements")
            sf.inv_pairs.append((parts[1], parts[2]))
        elif kw == "name":
            if sf.name:
                raise ParseError(no, "duplicate name line")
            if len(parts) != 2:
                raise ParseError(no, "name takes one word")
            sf.name = parts[1]
        elif kw == "elements":
            if sf.elements:
                raise ParseError(no, "duplicate elements line")
            sf.elements = parts[1:]
            if len(set(sf.elements)) != len(sf.elements) or not sf.elements:
                raise ParseError(no, "elements must be nonempty and unique")
        elif kw == "family":
            if len(parts) != 1:
                raise ParseError(no, "family takes no arguments")
            sf.is_family = True
        elif kw == "block":
            if len(parts) != 3:
                raise ParseError(no, "block takes a name and a file")
            sf.blocks.append((parts[1], parts[2]))
        elif kw == "identify":
            group = []
            for a in parts[1:]:
                if ":" not in a:
                    raise ParseError(no, f"expected BLOCK:ELEMENT, got {a!r}")
                group.append(tuple(a.split(":", 1)))
            if len(group) < 2:
                raise ParseError(no, "identify needs at least two entries")
            sf.identify.append(group)
        else:
            raise ParseError(no, f"unknown keyword {kw!r}")
    # a poset file with no block or identify entry has no stray line
    if sf.is_family or sf.blocks or sf.identify:
        unread = _POSET_KEYWORDS if sf.is_family else _FAMILY_KEYWORDS
        stray = next(((no, parts[0]) for no, parts in enumerate(lines, start=1)
                      if parts and parts[0] in unread), None)
        if stray:
            kind = "family" if sf.is_family else "poset"
            raise ParseError(stray[0], f"{stray[1]} line in a {kind} file")
    if sf.is_family:
        if not sf.blocks:
            raise ParseError(0, "family file lists no blocks")
        names = [b for b, _ in sf.blocks]
        if len(set(names)) != len(names):
            raise ParseError(0, "duplicate block names")
    elif not sf.elements:
        raise ParseError(0, "file declares no elements")
    return sf


Structure = Union[FinitePoset, OrthoPoset, SectionedPoset, PastedFamily]


def build(sf: StructureFile, basedir: str = ".") -> Structure:
    """Turn a parsed file into the richest structure it describes."""
    if sf.is_family:
        blocks = []
        for bname, path in sf.blocks:
            path = os.path.join(basedir, path)
            bsf = _read(path)
            # only a plain poset file with inv lines builds to an OrthoPoset;
            # checked before building, so a family block never recurses
            if bsf.is_family or bsf.sections or not bsf.inv_pairs:
                raise PosetError(f"block {bname} must carry a global involution")
            blocks.append(build(bsf, os.path.dirname(path) or "."))
        names = [bname for bname, _ in sf.blocks]
        by_name = {bname: i for i, bname in enumerate(names)}
        try:
            glue = [[(by_name[bname], elem) for bname, elem in group] for group in sf.identify]
        except KeyError as exc:
            raise PosetError(f"unknown block {exc.args[0]!r} in identify") from None
        return validate_family(blocks, glue, names=names)

    index = {lbl: i for i, lbl in enumerate(sf.elements)}
    try:
        covers = [(index[a], index[b]) for a, b in sf.covers]
        inv_pairs = [(index[a], index[b]) for a, b in sf.inv_pairs]
    except KeyError as exc:
        raise PosetError(f"unknown element {exc.args[0]!r}") from None
    p = FinitePoset.from_covers(sf.elements, covers, name=sf.name)
    if not inv_pairs and not sf.sections:
        return p
    if sf.sections:
        rows = [[-1] * p.n for _ in range(p.n)]
        for x, y, z in sf.sections:
            try:
                row, iy, iz = rows[index[x]], index[y], index[z]
            except KeyError as exc:
                raise BadIndex(f"no element labelled {exc.args[0]!r}") from None
            if row[iy] not in (-1, iz):
                raise PosetError(f"conflicting section image for {y} in [{x},1]")
            row[iy] = iz
        # fill forced images
        for x in range(p.n):
            if rows[x][x] < 0:
                rows[x][x] = p.top
            if rows[x][p.top] < 0:
                rows[x][p.top] = x
        if inv_pairs:
            # the inv lines give the bottom row, and must agree with its section lines
            inv, row = _inv_map(p, inv_pairs), rows[p.bottom]
            for y in range(p.n):
                if row[y] < 0:
                    row[y] = inv[y]
                elif row[y] != inv[y]:
                    raise PosetError(f"conflicting involute for {p.labels[y]}")
        return validate_sections(p, rows)
    return validate_involution(p, _inv_map(p, inv_pairs))


def _inv_map(p: FinitePoset, pairs) -> list:
    """The map the ``inv`` index pairs declare; bottom and top are paired
    only when neither is in a pair."""
    inv = [-1] * p.n
    for a, b in pairs:
        for i, j in ((a, b), (b, a)):
            if inv[i] not in (-1, j):
                raise PosetError(f"conflicting involute for {p.labels[i]}")
            inv[i] = j
    if inv[p.bottom] < 0 and inv[p.top] < 0:
        inv[p.bottom], inv[p.top] = p.top, p.bottom
    missing = [p.labels[i] for i in range(p.n) if inv[i] < 0]
    if missing:
        raise PosetError(f"no involute declared for {', '.join(missing)}")
    return inv


def emit(obj: Union[Structure, StructureFile], basedir: str = ".") -> str:
    """Canonical text for a structure; idempotent with parse."""
    sf = None
    if isinstance(obj, StructureFile):
        sf, obj = obj, build(obj, basedir)
    lines = []
    if isinstance(obj, PastedFamily):
        name = sf.name if sf else "-".join(obj.names)
        paths = dict(sf.blocks) if sf else {n: f"{n}.poset" for n in obj.names}
        if name:
            lines.append(f"name {name}")
        lines.append("family")
        lines.extend(f"block {n} {paths[n]}" for n in obj.names)
        groups = []
        for cls, members in enumerate(obj.members):
            if cls in (obj.zero, obj.one) or len(members) < 2:
                continue
            groups.append(" ".join(
                f"{obj.names[i]}:{obj.blocks[i].poset.labels[e]}" for i, e in members))
        lines.extend(f"identify {g}" for g in sorted(groups))
        return "\n".join(lines) + "\n"

    sect: Optional[SectionedPoset] = obj if isinstance(obj, SectionedPoset) else None
    orth: Optional[OrthoPoset] = obj if isinstance(obj, OrthoPoset) else None
    p = obj if isinstance(obj, FinitePoset) else obj.poset
    if p.name:
        lines.append(f"name {p.name}")
    lines.append("elements " + " ".join(p.labels))
    for x, y in sorted(p.covers()):
        lines.append(f"cover {p.labels[x]} {p.labels[y]}")
    if orth is not None:
        for x in range(p.n):
            if x <= orth.inv[x]:
                lines.append(f"inv {p.labels[x]} {p.labels[orth.inv[x]]}")
    if sect is not None:
        for x in range(p.n):
            for y in bits(p.up[x]):
                lines.append(
                    f"section {p.labels[x]} {p.labels[y]} {p.labels[sect.sections[x][y]]}")
    return "\n".join(lines) + "\n"


def _read(path: str) -> StructureFile:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line_no, f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse(text)


def load(path: str) -> Structure:
    return build(_read(path), basedir=os.path.dirname(path) or ".")
