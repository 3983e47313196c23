"""Command-line front end: simulate | sequence | verify | render | analyze.

Output is plain line-oriented text with no timestamps; exit codes are
0 on success, 1 when a must-agree binding diverges, 2 on usage errors
and bad input (including a sequence route that cannot reach the terms
asked for, and an output path that cannot be written).
"""

import argparse
import sys

from . import analysis, engine, gridca, render, verify

GRID_VARIANTS = {
    "uw": gridca.uw_von_neumann(2),
    "uw1": gridca.uw_von_neumann(1),
    "uw3": gridca.uw_von_neumann(3),
    "uw4": gridca.uw_von_neumann(4),
    "moore8": gridca.MOORE8,
    "moore8_corner1": gridca.MOORE8_CORNER1,
    "moore8_corner2": gridca.MOORE8_CORNER2,
    "rule942": gridca.RULE942,
    "toothpick_digraph": gridca.TOOTHPICK_DIGRAPH,
    "maltese": gridca.MALTESE,
}

# render_grid draws two-dimensional grids only.
PLANE_GRIDS = tuple(name for name, rule in GRID_VARIANTS.items() if rule.dimension == 2)

# The variant each structure check reads when --variant is not given,
# and the variants it can read; the other checks read none.
CHECK_VARIANTS = {
    "tree": ("uw", analysis.TREE_VARIANTS + tuple(GRID_VARIANTS)),
    "rectangles": ("toothpick", analysis.FACE_VARIANTS),
}

METHOD_ORDER = ("closedform", "recurrence", "genfunc", "simulate")
METHOD_ALIASES = {"formula": "closedform"}


def _at_least(lo: int):
    """argparse type: an int >= lo, rejected with exit 2 otherwise."""

    def integer(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="toothpicks", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="grow a structure or grid and print counts")
    sim.add_argument("--variant", required=True,
                     choices=sorted(set(engine.VARIANTS) | set(GRID_VARIANTS)))
    sim.add_argument("--stages", type=_at_least(0), required=True)
    sim.add_argument("--dump", metavar="PATH", help="write the sorted dump file")

    seq = sub.add_parser("sequence", help="print terms of a bound sequence")
    seq.add_argument("--name", required=True)
    seq.add_argument("--method", choices=("simulate", "recurrence", "formula", "genfunc", "closedform", "fixture"))
    seq.add_argument("--terms", type=_at_least(0), required=True)
    seq.add_argument("--format", default="plain", choices=("plain", "bfile", "csv"))

    ver = sub.add_parser("verify", help="cross-check generators against each other")
    ver.add_argument("--binding", help="verify one binding instead of all")
    ver.add_argument("--nmax", type=_at_least(0), default=256)
    ver.add_argument("--json", action="store_true", help="emit a JSON report")

    ren = sub.add_parser("render", help="render a structure or grid as SVG")
    ren.add_argument("--variant", required=True,
                     choices=sorted(set(engine.VARIANTS) | set(PLANE_GRIDS)))
    ren.add_argument("--stages", type=_at_least(0), required=True)
    ren.add_argument("--out", required=True, metavar="FILE.svg")
    ren.add_argument("--color-mode", default="by-stage", choices=("by-stage", "monochrome"))
    ren.add_argument("--scale", type=_at_least(1), default=16)
    ren.add_argument("--show-exposed", action="store_true")

    ana = sub.add_parser("analyze", help="run one of the structure analyses")
    ana.add_argument("--check", required=True,
                     choices=("ratio-bound", "local-minima", "limit-sample", "rectangles", "tree"))
    ana.add_argument("--nmax", type=_at_least(1), default=256)
    ana.add_argument("--k", type=_at_least(1), default=14, help="sample exponent for limit-sample")
    ana.add_argument("--variant",
                     choices=sorted(set(analysis.TREE_VARIANTS) | set(GRID_VARIANTS)),
                     help="structure or grid for the tree check (default uw) or the "
                          "rectangles check (default toothpick)")
    ana.add_argument("--csv", action="store_true", help="CSV output for limit-sample")
    return ap


def _grow(variant: str, stages: int):
    """The cell grid or segment structure a variant names, grown by `stages`."""
    if variant in GRID_VARIANTS:
        return gridca.CellGrid(GRID_VARIANTS[variant]).grow(stages)
    return engine.grow(variant, stages)


def _cmd_simulate(args) -> int:
    grown = _grow(args.variant, args.stages)
    if args.dump:  # first, so that a dump that cannot be written prints no counts
        with open(args.dump, "w") as fh:
            fh.write(grown.dump())
    print(" ".join(map(str, grown.counts)))
    return 0


def _cmd_sequence(args) -> int:
    bindings = verify.bindings()
    if args.name not in bindings:
        print(f"unknown sequence binding: {args.name!r}", file=sys.stderr)
        print("known: " + " ".join(sorted(bindings)), file=sys.stderr)
        return 2
    binding = bindings[args.name]
    method = METHOD_ALIASES.get(args.method, args.method)
    if method is None:
        tags = [g.tag for g in binding.generators]
        method = next((m for m in METHOD_ORDER if m in tags), tags[0])
    gen = next((g for g in binding.generators if g.tag == method), None)
    if gen is None:
        print(f"binding {args.name!r} has no {method!r} generator", file=sys.stderr)
        return 2
    if args.terms == 0:
        return 0
    # Evaluate only up to the last index asked, and refuse (printing
    # nothing) rather than print a short prefix.
    want_hi = gen.offset + args.terms - 1
    if want_hi > gen.bound:
        print(f"{args.name} {method} route reaches index {gen.bound}; "
              f"index {want_hi} asked", file=sys.stderr)
        return 2
    seq = gen.make(want_hi).truncated(want_hi)
    if seq.last_index < want_hi:
        print(f"{args.name} {method} route ends at index {seq.last_index}; "
              f"index {want_hi} asked", file=sys.stderr)
        return 2
    if args.format == "plain":
        print(" ".join(str(v) for v in seq.terms))
    elif args.format == "bfile":
        sys.stdout.write(verify.format_bfile(seq))
    else:
        for i, v in enumerate(seq.terms):
            print(f"{seq.offset + i},{v}")
    return 0


def _cmd_verify(args) -> int:
    bindings = verify.bindings()
    if args.binding:
        if args.binding not in bindings:
            print(f"unknown binding: {args.binding!r}", file=sys.stderr)
            return 2
        selected = [bindings[args.binding]]
    else:
        selected = list(bindings.values())
    failed = False
    reports = []
    for binding in selected:
        rep = verify.crosscheck(binding, n_max=args.nmax)
        reports.append(rep)
        if not rep.agreed and binding.must_agree:
            failed = True
    if args.json:
        import json

        print(json.dumps([r.to_json() for r in reports], indent=1))
    else:
        for rep in reports:
            flag = "" if rep.must_agree else " [informational]"
            for line in rep.lines():
                print(line + flag)
    return 1 if failed else 0


def _cmd_render(args) -> int:
    if args.show_exposed and args.variant in GRID_VARIANTS:
        print(f"render: the grid {args.variant} does not read --show-exposed", file=sys.stderr)
        return 2
    cfg = render.RenderConfig(
        scale=args.scale, color_mode=args.color_mode, show_exposed=args.show_exposed
    )
    draw = render.render_grid if args.variant in GRID_VARIANTS else render.render_structure
    svg = draw(_grow(args.variant, args.stages), cfg)
    with open(args.out, "w") as fh:
        fh.write(svg)
    return 0


def _cmd_analyze(args) -> int:
    default, readable = CHECK_VARIANTS.get(args.check, (None, ()))
    if args.variant is not None and args.variant not in readable:
        print(f"analyze: --check {args.check} does not read --variant {args.variant}",
              file=sys.stderr)
        return 2
    if args.csv and args.check != "limit-sample":
        print(f"analyze: --check {args.check} does not read --csv", file=sys.stderr)
        return 2
    variant = args.variant or default
    if args.check == "ratio-bound":
        rep = analysis.ratio_bound_check(args.nmax)
        print(f"ratio bound holds for 1 <= n <= {rep.n_max}")
        print("equality exactly at: " + " ".join(map(str, rep.equality_indices)))
        return 0
    if args.check == "local-minima":
        print(" ".join(map(str, analysis.local_minima(args.nmax))))
        return 0
    if args.check == "limit-sample":
        ls = analysis.sample_limit_function(args.k)
        if args.csv:
            for s in ls.samples:
                print(f"{s.x.numerator}/{s.x.denominator},{s.value.numerator}/{s.value.denominator}")
        print(f"k={ls.k} samples={len(ls.samples)}")
        print(f"min at x={ls.min_x} = {float(ls.min_x):.6f}, value={float(ls.min_value):.7f}")
        print(f"endpoints: f(0)={float(ls.left_value):.6f} f(1)={float(ls.right_value):.6f}")
        return 0
    if args.check == "rectangles":
        rep = analysis.detect_rectangles(_grow(variant, args.nmax))
        print(f"bounded faces after {args.nmax} stages: {rep.count}, all rectangles")
        return 0
    if args.check == "tree":
        ok = analysis.tree_check(_grow(variant, args.nmax))
        print(f"{variant} at n={args.nmax}: {'tree' if ok else 'NOT a tree'}")
        return 0
    raise AssertionError(args.check)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "simulate": _cmd_simulate,
        "sequence": _cmd_sequence,
        "verify": _cmd_verify,
        "render": _cmd_render,
        "analyze": _cmd_analyze,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:  # bad input, e.g. a grid past its box budget or a bad path
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
