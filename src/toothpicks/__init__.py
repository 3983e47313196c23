"""Toothpick and cell-growth automata with cross-verified enumeration.

Engines (geometric simulation), block recurrences, binary-weight closed
forms and infinite-product generating functions for one family of
growth sequences, plus a harness that holds every route against the
others and against bundled b-file fixtures.  Import the submodules
(`toothpicks.engine`, `toothpicks.verify`, ...); the package root
imports nothing, so a formula module loads without numpy.
"""

__version__ = "0.1.0"
