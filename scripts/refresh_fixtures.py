#!/usr/bin/env python3
"""Regenerate the bundled fixture files under src/toothpicks/fixtures/.

Three provenance classes, each labeled in its file header:
  * published initial-term tables, embedded below verbatim;
  * prefixes pinned from a closed-form generator (formula-backed but not
    an independent download);
  * engine snapshots (regression pins only: the Y-toothpick counts and
    the term-count sequence).

With --online, sequences that have an OEIS id are fetched instead and
the downloaded prefix replaces the local generator output.
"""

import argparse
import os
import sys
from itertools import accumulate

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from toothpicks import closedform as cf
from toothpicks import engine
from toothpicks.verify import fetch_bfile, format_bfile
from toothpicks.sequences import IntSequence

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "src", "toothpicks", "fixtures")

# Published initial terms (offset 0 throughout).
TABLES = {
    "A139251": (
        "toothpick additions per stage t(n)",
        [0, 1, 2, 4, 4, 4, 8, 12, 8, 4, 8, 12, 12, 16, 28, 32, 16, 4, 8, 12,
         12, 16, 28, 32, 20, 16, 28, 36, 40, 60, 88, 80, 32, 4, 8, 12, 12, 16,
         28, 32, 20, 16, 28, 36, 40, 60, 88, 80, 36, 16],
    ),
    "A139250": (
        "toothpick totals T(n)",
        [0, 1, 3, 7, 11, 15, 23, 35, 43, 47, 55, 67, 79, 95, 123, 155, 171,
         175, 183, 195, 207, 223, 251, 283, 303, 319, 347, 383, 423, 483, 571,
         651, 683, 687, 695, 707, 719, 735, 763, 795, 815, 831, 859, 895, 935,
         995, 1083, 1163, 1199, 1215],
    ),
    "A152980": (
        "corner-structure additions per stage c(n)",
        [0, 1, 2, 3, 3, 4, 7, 8, 5, 4, 7, 9, 10, 15, 22, 20, 9, 4, 7, 9, 10,
         15, 22, 21, 14, 15, 23, 28, 35, 52, 64, 48, 17, 4, 7, 9, 10, 15, 22, 21],
    ),
    "A153006": (
        "corner-structure totals C(n)",
        [0, 1, 3, 6, 9, 13, 20, 28, 33, 37, 44, 53, 63, 78, 100, 120, 129,
         133, 140, 149, 159, 174, 196, 217, 231, 246, 269, 297, 332, 384, 448,
         496, 513, 517, 524, 533, 543, 558, 580, 601],
    ),
    "A168131": (
        "rectangles added to the corner structure rho(n)",
        [0, 0, 1, 2, 1, 1, 5, 7, 3, 1, 4, 5, 3, 7, 18, 19],
    ),
    "A160125": (
        "rectangles added to the toothpick structure r(n)",
        [0, 0, 0, 2, 2, 0, 4, 10, 6, 0, 4, 8, 4, 4, 20, 30],
    ),
    "A160124": (
        "total rectangles in the toothpick structure R(n)",
        [0, 0, 0, 2, 4, 4, 8, 18, 24, 24, 28, 36, 40, 44, 64, 94],
    ),
    "A147582": (
        "one-of-four-neighbors automaton additions u(n)",
        [0, 1, 4, 4, 12, 4, 12, 12, 36, 4, 12, 12, 36, 12, 36, 36, 108, 4, 12,
         12, 36, 12, 36, 36, 108, 12, 36, 36, 108, 36, 108, 108, 324, 4, 12,
         12, 36, 12, 36, 36, 108, 12, 36, 36, 108, 36, 108, 108, 324, 12],
    ),
    "A147562": (
        "one-of-four-neighbors automaton totals U(n)",
        [0, 1, 5, 9, 21, 25, 37, 49, 85, 89, 101, 113, 149, 161, 197, 233,
         341, 345, 357, 369, 405, 417, 453, 489, 597, 609, 645, 681, 789, 825,
         933, 1041, 1365, 1369, 1381, 1393, 1429, 1441, 1477, 1513, 1621,
         1633, 1669, 1705, 1813, 1849, 1957, 2065, 2389, 2401],
    ),
    "A151565": (
        "leftist toothpick additions l(n)",
        [0, 1, 1, 2, 2, 2, 2, 4, 4, 2, 2, 4, 4, 4, 4, 8],
    ),
    "A151566": (
        "leftist toothpick totals L(n)",
        [0, 1, 2, 4, 6, 8, 10, 14, 18, 20, 22, 26, 30, 34, 38, 46],
    ),
    "A151726": (
        "eight-neighbor automaton additions v(n)",
        [0, 1, 8, 4, 20, 4, 20, 20, 44, 4, 20, 20, 44, 28, 60, 76, 92, 4, 20,
         20, 44, 28, 60, 76, 92, 28, 60, 84, 116, 116],
    ),
    "A151725": (
        "eight-neighbor automaton totals V(n)",
        [0, 1, 9, 13, 33, 37, 57, 77, 121, 125, 145, 165, 209, 237, 297, 373,
         465, 469, 489, 509, 553, 581, 641, 717, 809, 837, 897, 981, 1097, 1213],
    ),
    "A151747": (
        "eight-neighbor first corner sequence v1(n)",
        [0, 1, 3, 5, 8, 9, 11, 17, 21, 15, 11, 18, 25, 29, 39, 54, 53, 27, 11,
         18, 25, 29, 39, 55, 57, 41, 40, 61, 79, 97],
    ),
    "A151728": (
        "eight-neighbor second corner sequence v2(n)",
        [0, 1, 5, 5, 11, 7, 15, 19, 23, 7, 15, 21, 29, 29, 49, 59, 47, 7, 15,
         21, 29, 29, 49, 61, 53, 29, 51, 71, 87, 107],
    ),
    "table7_w": (
        "one-or-four-neighbors automaton additions w(n)",
        [0, 1, 4, 4, 12, 8, 12, 12, 36, 28, 12, 12, 36, 28, 36, 36],
    ),
    "table7_delta": (
        "quarter excess delta(n) = (w(4n+1) - u(4n+1))/4",
        [0, 1, 6, 4, 24, 4, 20, 12, 84, 4, 20, 12, 76, 12, 60, 36],
    ),
    "A151550": (
        "coefficients of the gamma=1, delta=2 infinite product (factors k >= 1)",
        [1, 1, 2, 1, 3, 4, 4, 1, 3, 4, 5],
    ),
    "A160573": (
        "coefficients of the gamma=1, delta=1 infinite product (factors k >= 0)",
        [2, 3, 3, 3, 5, 6, 4, 3, 5, 6, 6],
    ),
    "A147646": (
        "limit sequence F(n) of the shifted toothpick triangle rows",
        [4, 8, 12, 12, 16, 28, 32, 20, 16, 28, 36],
    ),
}

# Published list of ratio-profile minima; offset 1.
A170927 = [1, 2, 5, 12, 21, 44, 89, 180, 362, 728, 1459, 2921]

PIN_N = 1000

HEAD_TABLE = "# {name}: {desc}.\n# Published initial terms, bundled for offline verification.\n"
HEAD_FORMULA = (
    "# {name}: {desc}.\n"
    "# Pinned from the closed-form generator (formula-backed, not an\n"
    "# independent download). Refresh online when possible:\n"
    "#   python scripts/refresh_fixtures.py --online\n"
)
HEAD_SNAPSHOT = (
    "# {name}: {desc}.\n"
    "# Pinned snapshot of this package's own generator: a regression pin,\n"
    "# not an independent oracle.\n"
)


def write(name: str, header: str, seq: IntSequence) -> None:
    path = os.path.join(FIXDIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(header)
        fh.write(format_bfile(seq))
    print(f"wrote {path} ({len(seq.terms)} terms)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--online", action="store_true", help="fetch b-files instead of regenerating")
    args = ap.parse_args()
    os.makedirs(FIXDIR, exist_ok=True)

    for name, (desc, terms) in TABLES.items():
        if args.online and name.startswith("A"):
            seq = fetch_bfile(name, online=True).truncated(PIN_N)
            header = f"# {name}: {desc}.\n# Downloaded b-file prefix.\n"
        else:
            seq = IntSequence(0, tuple(terms))
            header = HEAD_TABLE.format(name=name, desc=desc)
        write(name, header, seq)

    pin = (0, PIN_N + 1)  # the index range [0, PIN_N]
    formula_pins = {
        "A160173": ("T-toothpick additions per stage tau(n)", cf.ttp_tau_range(*pin)),
        "A151906": ("Maltese-cross cells labeled n", cf.maltese_m_range(*pin)),
        "A048883": ("3**wt(n)", cf.a048883_range(*pin)),
        "A130665": ("partial sums of 3**wt(n)", accumulate(cf.a048883_range(*pin))),
        "A001316": ("Gould's sequence 2**wt(n)", cf.gould_range(*pin)),
        "A100661": (
            "contributing terms in the product-coefficient sum", cf.hve_nonzero_terms_range(*pin)
        ),
    }
    for name, (desc, terms) in formula_pins.items():
        if args.online:
            seq = fetch_bfile(name, online=True).truncated(PIN_N)
            header = f"# {name}: {desc}.\n# Downloaded b-file prefix.\n"
        else:
            seq = IntSequence(0, tuple(terms))
            header = HEAD_FORMULA.format(name=name, desc=desc)
        write(name, header, seq)

    if args.online:
        seq = fetch_bfile("A170927", online=True).truncated(PIN_N)
        header = "# A170927: ratio-profile minima locations.\n# Downloaded b-file prefix.\n"
    else:
        seq = IntSequence(1, tuple(A170927))
        header = HEAD_TABLE.format(name="A170927", desc="ratio-profile minima locations")
    write("A170927", header, seq)

    y = engine.grow("y", 128).added_per_stage()
    write(
        "y_toothpick_added",
        HEAD_SNAPSHOT.format(
            name="y_toothpick_added", desc="Y-toothpick additions per stage"
        ),
        y,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
