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

Comments start with '#'. Emission is canonical: the element line keeps
declaration order, cover/inv/section lines are regenerated from the
built structure and sorted, so emit is idempotent and fixtures
round-trip byte for byte. A family emitted from its parsed file keeps
the file's name line (or its absence) and block paths, and regenerates
the identify lines; a family built in code is named by its joined block
names and lists block NAME as NAME.poset.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from .poset import FinitePoset, PosetError, bits
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


def parse(text: str) -> StructureFile:
    sf = StructureFile()
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw, args = parts[0], parts[1:]
        if kw == "name":
            if len(args) != 1:
                raise ParseError(no, "name takes one word")
            sf.name = args[0]
        elif kw == "elements":
            if sf.elements:
                raise ParseError(no, "duplicate elements line")
            if len(set(args)) != len(args) or not args:
                raise ParseError(no, "elements must be nonempty and unique")
            sf.elements = args
        elif kw == "cover":
            if len(args) != 2:
                raise ParseError(no, "cover takes two elements")
            sf.covers.append((args[0], args[1]))
        elif kw == "inv":
            if len(args) != 2:
                raise ParseError(no, "inv takes two elements")
            sf.inv_pairs.append((args[0], args[1]))
        elif kw == "section":
            if len(args) != 3:
                raise ParseError(no, "section takes base, element, image")
            sf.sections.append((args[0], args[1], args[2]))
        elif kw == "family":
            if args:
                raise ParseError(no, "family takes no arguments")
            sf.is_family = True
        elif kw == "block":
            if len(args) != 2:
                raise ParseError(no, "block takes a name and a file")
            sf.blocks.append((args[0], args[1]))
        elif kw == "identify":
            group = []
            for a in args:
                if ":" not in a:
                    raise ParseError(no, f"expected BLOCK:ELEMENT, got {a!r}")
                b, e = a.split(":", 1)
                group.append((b, e))
            if len(group) < 2:
                raise ParseError(no, "identify needs at least two entries")
            sf.identify.append(group)
        else:
            raise ParseError(no, f"unknown keyword {kw!r}")
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
        names = []
        by_name = {}
        for bname, path in sf.blocks:
            path = os.path.join(basedir, path)
            bsf = _read(path)
            # only a plain poset file with inv lines builds to an OrthoPoset;
            # checked before building, so a family block never recurses
            if bsf.is_family or bsf.sections or not bsf.inv_pairs:
                raise PosetError(f"block {bname} must carry a global involution")
            names.append(bname)
            by_name[bname] = len(blocks)
            blocks.append(build(bsf, os.path.dirname(path) or "."))
        glue = []
        for group in sf.identify:
            resolved = []
            for bname, elem in group:
                if bname not in by_name:
                    raise PosetError(f"unknown block {bname!r} in identify")
                resolved.append((by_name[bname], elem))
            glue.append(resolved)
        return validate_family(blocks, glue, names=names)

    known = set(sf.elements)
    for pair in sf.covers + sf.inv_pairs:
        for e in pair:
            if e not in known:
                raise PosetError(f"unknown element {e!r}")
    p = FinitePoset.from_covers(sf.elements, sf.covers, name=sf.name)
    if not sf.inv_pairs and not sf.sections:
        return p
    if sf.sections:
        rows = [[-1] * p.n for _ in range(p.n)]
        for x, y, z in sf.sections:
            row, iy, iz = rows[p.index(x)], p.index(y), p.index(z)
            if row[iy] not in (-1, iz):
                raise PosetError(f"conflicting section image for {y} in [{x},1]")
            row[iy] = iz
        # fill forced images
        for x in range(p.n):
            if rows[x][x] < 0:
                rows[x][x] = p.top
            if rows[x][p.top] < 0:
                rows[x][p.top] = x
        if sf.inv_pairs:
            # the inv lines give the bottom row, and must agree with its section lines
            inv, row = _inv_map(p, sf.inv_pairs), rows[p.bottom]
            for y in range(p.n):
                if row[y] < 0:
                    row[y] = inv[y]
                elif row[y] != inv[y]:
                    raise PosetError(f"conflicting involute for {p.labels[y]}")
        return validate_sections(p, rows)
    return validate_involution(p, _inv_map(p, sf.inv_pairs))


def _inv_map(p: FinitePoset, pairs) -> list:
    inv = [-1] * p.n
    for a, b in pairs:
        ia, ib = p.index(a), p.index(b)
        for i, j in ((ia, ib), (ib, ia)):
            if inv[i] not in (-1, j):
                raise PosetError(f"conflicting involute for {p.labels[i]}")
            inv[i] = j
    if inv[p.bottom] < 0:
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
