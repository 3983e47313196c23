"""Command-line front end: simulate | sequence | verify | render | analyze.

Output is plain line-oriented text with no timestamps; exit codes are
0 on success, 1 when a must-agree binding diverges, 2 on usage errors
and bad input. A handler refuses bad input by raising ValueError before
it grows, prints or writes anything; `main` reports that, and an output
path that cannot be written, as `<command>: <reason>` on stderr.
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

# The options each analyze check reads, with its defaults; a variant
# entry lists the variants the check reads, its default first. A given
# option that the check does not read is refused.
CHECK_OPTIONS = {
    "ratio-bound": {"nmax": 256},
    "local-minima": {"nmax": 256},
    "limit-sample": {"k": 14, "csv": False},
    "rectangles": {"nmax": 256, "variant": analysis.FACE_VARIANTS},
    "tree": {"nmax": 256, "variant": ("uw", *analysis.TREE_VARIANTS, *GRID_VARIANTS)},
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
    ana.add_argument("--check", required=True, choices=tuple(CHECK_OPTIONS))
    ana.add_argument("--nmax", type=_at_least(1))
    ana.add_argument("--k", type=_at_least(1), help="sample exponent for limit-sample")
    ana.add_argument("--variant",
                     choices=sorted(set(analysis.TREE_VARIANTS) | set(GRID_VARIANTS)),
                     help="structure or grid for the tree check (default uw) or the "
                          "rectangles check (default toothpick)")
    ana.add_argument("--csv", action="store_true", default=None,
                     help="CSV rows for limit-sample, its summary on stderr")
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


def _binding(name: str):
    """The registered binding `name`; a ValueError names the known ones."""
    bindings = verify.bindings()
    if name not in bindings:
        known = " ".join(sorted(bindings))
        raise ValueError(f"unknown sequence binding: {name!r}; known: {known}")
    return bindings[name]


def _cmd_sequence(args) -> int:
    binding = _binding(args.name)
    method = METHOD_ALIASES.get(args.method, args.method)
    if method is None:
        tags = [g.tag for g in binding.generators]
        method = next((m for m in METHOD_ORDER if m in tags), tags[0])
    gen = next((g for g in binding.generators if g.tag == method), None)
    if gen is None:
        raise ValueError(f"binding {args.name!r} has no {method!r} generator")
    if args.terms == 0:
        return 0
    # Evaluate only up to the last index asked, and refuse (printing
    # nothing) rather than print a short prefix.
    want_hi = gen.offset + args.terms - 1
    if want_hi > gen.bound:
        raise ValueError(f"{args.name} {method} route reaches index {gen.bound}; "
                         f"index {want_hi} asked")
    seq = gen.make(want_hi).truncated(want_hi)
    if seq.last_index < want_hi:
        raise ValueError(f"{args.name} {method} route ends at index {seq.last_index}; "
                         f"index {want_hi} asked")
    if args.format == "plain":
        print(" ".join(str(v) for v in seq.terms))
    elif args.format == "bfile":
        sys.stdout.write(verify.format_bfile(seq))
    else:
        for i, v in enumerate(seq.terms):
            print(f"{seq.offset + i},{v}")
    return 0


def _cmd_verify(args) -> int:
    selected = [_binding(args.binding)] if args.binding is not None else verify.bindings().values()
    reports = [verify.crosscheck(binding, n_max=args.nmax) for binding in selected]
    if args.json:
        import json

        print(json.dumps([r.to_json() for r in reports], indent=1))
    else:
        for rep in reports:
            flag = "" if rep.must_agree else " [informational]"
            for line in rep.lines():
                print(line + flag)
    return 1 if any(rep.must_agree and not rep.agreed for rep in reports) else 0


def _cmd_render(args) -> int:
    if args.show_exposed and args.variant in GRID_VARIANTS:
        raise ValueError(f"the grid {args.variant} does not read --show-exposed")
    cfg = render.RenderConfig(
        scale=args.scale, color_mode=args.color_mode, show_exposed=args.show_exposed
    )
    draw = render.render_grid if args.variant in GRID_VARIANTS else render.render_structure
    svg = draw(_grow(args.variant, args.stages), cfg)
    with open(args.out, "w") as fh:
        fh.write(svg)
    return 0


def _check_options(args) -> dict:
    """The options `args.check` reads, given or defaulted; a ValueError
    names every given option that the check does not read."""
    reads = CHECK_OPTIONS[args.check]
    given = {o: v for o in ("variant", "nmax", "k", "csv") if (v := getattr(args, o)) is not None}
    unread = [f"does not read --{o}" + ("" if v is True else f" {v}") for o, v in given.items()
              if o not in reads or isinstance(reads[o], tuple) and v not in reads[o]]
    if unread:
        raise ValueError(f"--check {args.check} " + "; ".join(unread))
    return {o: given.get(o, d[0] if isinstance(d, tuple) else d) for o, d in reads.items()}


def _cmd_analyze(args) -> int:
    opt = _check_options(args)
    if args.check == "ratio-bound":
        rep = analysis.ratio_bound_check(opt["nmax"])
        print(f"ratio bound holds for 1 <= n <= {rep.n_max}")
        print("equality exactly at: " + " ".join(map(str, rep.equality_indices)))
        return 0
    if args.check == "local-minima":
        print(" ".join(map(str, analysis.local_minima(opt["nmax"]))))
        return 0
    if args.check == "limit-sample":
        ls = analysis.sample_limit_function(opt["k"])
        # With --csv, stdout holds only the x,value rows.
        summary = sys.stderr if opt["csv"] else sys.stdout
        if opt["csv"]:
            for s in ls.samples:
                print(f"{s.x.numerator}/{s.x.denominator},{s.value.numerator}/{s.value.denominator}")
        print(f"k={ls.k} samples={len(ls.samples)}",
              f"min at x={ls.min_x} = {float(ls.min_x):.6f}, value={float(ls.min_value):.7f}",
              f"endpoints: f(0)={float(ls.left_value):.6f} f(1)={float(ls.right_value):.6f}",
              sep="\n", file=summary)
        return 0
    grown = _grow(opt["variant"], opt["nmax"])
    if args.check == "rectangles":
        rep = analysis.detect_rectangles(grown)
        print(f"bounded faces after {opt['nmax']} stages: {rep.count}, all rectangles")
        return 0
    ok = analysis.tree_check(grown)
    print(f"{opt['variant']} at n={opt['nmax']}: {'tree' if ok else 'NOT a tree'}")
    return 0


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
    except (ValueError, OSError) as exc:  # a handler's refusal, a layer's, or a bad path
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
