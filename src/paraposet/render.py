"""Text renderings: DOT diagrams and implication tables.

A DOT label is quoted with each backslash escaped, then each double
quote, so no label ends its string early. A table is rendered in one
pass over its rows: each distinct cell mask is formatted once, and a
column is as wide as its label or its widest distinct cell.
"""

from __future__ import annotations

from .poset import FinitePoset, bits
from .ortho import OrthoPoset
from .relative import SectionedPoset
from .implication import SetValuedTable


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


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
    """Grid of cells in element order, made in one pass over the rows."""
    p = table.poset
    labels, cells = p.labels, table.cells
    cell = {m: format_cell(p, m) for m in set().union(*cells)}.__getitem__
    widths = [max(len(lbl), *map(len, map(cell, set(col))))
              for lbl, col in zip(labels, zip(*cells))]
    head = max(map(len, labels))
    out = [" " * head + " | " + "  ".join(map(str.ljust, labels, widths)).rstrip(),
           "-" * head + "-+-" + "-" * (sum(widths) + 2 * (p.n - 1))]
    for lbl, row in zip(labels, cells):
        out.append(lbl.ljust(head) + " | "
                   + "  ".join(map(str.ljust, map(cell, row), widths)).rstrip())
    return "\n".join(out) + "\n"
