"""Finite quantum-logic order structures and their theorem checks."""

from .poset import FinitePoset, PosetError, bits
from .ortho import OrthoPoset, validate_involution, PREDICATES
from .implication import SetValuedTable, impl_I, impl_I2, sasaki_impl, sasaki_proj
from .relative import SectionedPoset, validate_sections, impl_I3, impl_I4
from .amalgam import (PastedFamily, validate_family, build_amalgam,
                      classify_amalgam, cover_transfer, find_loops)
from .fileformat import StructureFile, ParseError, parse, emit, build, load
from .render import export_dot, render_table
from .harness import THEOREMS, run_harness, find_counterexample
