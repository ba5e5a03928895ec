"""Text renderings: DOT diagrams and implication tables."""

from __future__ import annotations

from .poset import FinitePoset, bits
from .ortho import OrthoPoset
from .relative import SectionedPoset
from .implication import SetValuedTable


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def export_dot(structure) -> str:
    """Cover diagram, bottom row at the bottom, one line per edge.

    The involute of each node, when a global involution is present,
    is recorded as a node attribute so the diagram stays a plain graph.
    """
    if isinstance(structure, SectionedPoset):
        structure = structure.ortho
    inv = None
    if isinstance(structure, OrthoPoset):
        inv = structure.inv
        p = structure.poset
    else:
        p = structure
    lines = ["digraph {", "  rankdir=BT;"]
    for x in range(p.n):
        attrs = [f"label={_quote(p.labels[x])}"]
        if inv is not None:
            attrs.append(f"inv={_quote(p.labels[inv[x]])}")
        lines.append(f"  n{x} [{', '.join(attrs)}];")
    for x, y in sorted(p.covers()):
        lines.append(f"  n{x} -> n{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_cell(p: FinitePoset, mask: int) -> str:
    elems = [p.labels[i] for i in bits(mask)]
    if len(elems) == 1:
        return elems[0]
    return "{" + ", ".join(elems) + "}"


def render_table(table: SetValuedTable) -> str:
    """Grid of cells in element order; each distinct cell mask is formatted once."""
    p = table.poset
    text = {m: format_cell(p, m) for m in set().union(*table.cells)}
    cells = [[text[m] for m in row] for row in table.cells]
    widths = [max(map(len, (p.labels[y],) + col)) for y, col in enumerate(zip(*cells))]
    head = max(len(l) for l in p.labels)
    out = [" " * head + " | " + "  ".join(
        p.labels[y].ljust(widths[y]) for y in range(p.n)).rstrip()]
    out.append("-" * head + "-+-" + "-" * (sum(widths) + 2 * (p.n - 1)))
    for x in range(p.n):
        out.append(p.labels[x].ljust(head) + " | " + "  ".join(
            cells[x][y].ljust(widths[y]) for y in range(p.n)).rstrip())
    return "\n".join(out) + "\n"
