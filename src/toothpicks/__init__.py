"""Toothpick and cell-growth automata with cross-verified enumeration.

Engines (geometric simulation), block recurrences, binary-weight closed
forms and infinite-product generating functions for one family of
growth sequences, plus a harness that holds every route against the
others and against bundled b-file fixtures.
"""

from .sequences import IntSequence
from .engine import Segment, corner_boundary_snapshot, grow, new_structure
from .gridca import (
    CellGrid,
    MALTESE,
    MOORE8,
    MOORE8_CORNER1,
    MOORE8_CORNER2,
    RULE942,
    TOOTHPICK_DIGRAPH,
    RuleId,
    activation_map,
    build_maltese_by_construction,
    run,
    uw_von_neumann,
)
from .verify import SequenceBinding, bindings, crosscheck, fetch_bfile, parse_bfile

__all__ = [
    "IntSequence",
    "Segment",
    "corner_boundary_snapshot",
    "grow",
    "new_structure",
    "CellGrid",
    "MALTESE",
    "MOORE8",
    "MOORE8_CORNER1",
    "MOORE8_CORNER2",
    "RULE942",
    "TOOTHPICK_DIGRAPH",
    "RuleId",
    "activation_map",
    "build_maltese_by_construction",
    "run",
    "uw_von_neumann",
    "SequenceBinding",
    "bindings",
    "crosscheck",
    "fetch_bfile",
    "parse_bfile",
]

__version__ = "0.1.0"
