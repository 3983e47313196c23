"""The three workloads: what one pass runs and how its outputs are checked.

A pass is run in a fresh interpreter (see worker.py).  Every pass of a
workload runs the same operations: sweep and structure take no input
from the seed, and a lookup round is drawn from the seed once, so two
passes of one run are the same round.  Each pass returns a PassResult;
`check` is called after the pass, outside the timed region.
"""

import contextlib
import dataclasses
import io
import math
import random
from time import perf_counter

import checks

# -- sweep -------------------------------------------------------------------

# Each generator runs to a quarter of its own bound, but never below
# min(bound, 64), so the Maltese CA still reaches its divergence at 18.
# The full-bound sweep takes about 88 s on a 2-core machine, more than a
# benchmark run may take.
SWEEP_DIVISOR = 4
SWEEP_FLOOR = 64
MALTESE_DIVERGENCE = 18


def sweep_bound(bound: int) -> int:
    return max(bound // SWEEP_DIVISOR, min(bound, SWEEP_FLOOR))


@dataclasses.dataclass
class PassResult:
    op_seconds: list[float]  # one entry per operation, in order
    op_failed: list[bool]
    outputs: object  # whatever `check` needs


class Sweep:
    """verify.crosscheck of every binding in verify.bindings()."""

    def __init__(self, tp, seed: int, tracer=None):
        self.tp = tp

    def run(self) -> PassResult:
        verify = self.tp.verify
        seconds, outputs = [], []
        for binding in verify.bindings().values():
            scaled = dataclasses.replace(
                binding,
                generators=tuple(
                    dataclasses.replace(g, bound=sweep_bound(g.bound)) for g in binding.generators
                ),
            )
            t0 = perf_counter()
            report = verify.crosscheck(scaled)
            seconds.append(perf_counter() - t0)
            outputs.append((scaled, report))
        return PassResult(seconds, [False] * len(seconds), outputs)

    def check(self, result: PassResult) -> list[str]:
        errors = []
        fixture_last = {
            name: max(terms)
            for name, terms in checks.read_bfiles(self.tp.fixture_dir, published_only=False).items()
        }
        for binding, report in result.outputs:
            gens = binding.generators
            if len(report.pairs) != len(gens) * (len(gens) - 1) // 2:
                errors.append(f"{binding.name}: {len(report.pairs)} pairs compared")
                continue
            his = [_expected_hi(binding, g, fixture_last) for g in gens]
            k = 0
            for i in range(len(gens)):
                for j in range(i + 1, len(gens)):
                    pair = report.pairs[k]
                    k += 1
                    if pair.checked is None or pair.checked[1] != min(his[i], his[j]):
                        errors.append(
                            f"{binding.name}: {pair.tag_a} vs {pair.tag_b} checked "
                            f"{pair.checked}, expected up to {min(his[i], his[j])}"
                        )
            if binding.name == "maltese_ca":
                firsts = [p.divergence[0] for p in report.pairs if p.divergence]
                if firsts != [MALTESE_DIVERGENCE]:
                    errors.append(f"maltese_ca: first divergences {firsts}, expected [18]")
            elif binding.must_agree and not report.agreed:
                errors.extend(line for line in report.lines() if "DIVERGENCE" in line)
        return errors


def _expected_hi(binding, gen, fixture_last) -> int:
    if gen.tag == "fixture":
        # The fixture generator of a binding reads the b-file named after
        # its OEIS id, or the local table its closure names.
        name = next(n for n in _fixture_names(binding) if n in fixture_last)
        return min(gen.bound, fixture_last[name])
    if binding.name == "local_minima":
        return min(gen.bound, 12)  # A170927 has twelve terms below 4096
    return gen.bound


def _fixture_names(binding):
    local = {"rule942_w": "table7_w", "rule942_delta": "table7_delta",
             "y_toothpick": "y_toothpick_added"}
    return [local.get(binding.name), binding.oeis_id]


# -- lookup ------------------------------------------------------------------

MAX_TERMS = 4096  # term counts are log-uniform on [1, MAX_TERMS]
# Explicitly named routes, asked once per round besides each binding's
# default route.  The simulate routes here take well under a second.
NAMED_ROUTES = (
    ("toothpick_t", "recurrence"), ("toothpick_t", "genfunc"), ("toothpick_t", "simulate"),
    ("toothpick_T", "simulate"), ("corner_c", "genfunc"), ("leftist_l", "simulate"),
    ("leftist_L", "simulate"), ("uw_u", "recurrence"), ("uw_u", "genfunc"),
    ("uw_u_d1", "simulate"), ("uw_u_d4", "simulate"), ("maltese_m", "simulate"),
    ("f_sequence", "recurrence"), ("f_sequence", "genfunc"), ("a048883", "genfunc"),
    ("a130665", "genfunc"), ("gould", "formula"), ("gould", "genfunc"),
)
# Asked every round with the same arguments: each wants more terms than
# its route's bound.  Passing means all the terms, or exit 2 and none.
PAST_BOUND = (
    ("toothpick_t", "recurrence", 70000),
    ("gould", "genfunc", 9000),
)
# Bindings whose only second route is a simulation: queries stay within
# what that simulation reaches cheaply.
SIM_REACH = {
    "rect_rho": 128, "eight_v": 128, "eight_V": 128, "eight_v1": 64,
    "eight_v2": 64, "rule942_w": 128, "rule942_delta": 32,
}
ROUTE_TAGS = {"formula": "closedform"}
METHOD_ORDER = ("closedform", "recurrence", "genfunc", "simulate")


@dataclasses.dataclass(frozen=True)
class Query:
    name: str
    method: str | None  # None: the CLI picks its default route
    terms: int
    past_bound: bool = False

    def argv(self) -> list[str]:
        out = ["sequence", "--name", self.name, "--terms", str(self.terms)]
        return out + (["--method", self.method] if self.method else [])


def lookup_round(registry: dict, seed: int) -> list[Query]:
    """One round: every binding's default route, the named routes and the
    past-bound queries, with seeded term counts, in seeded order."""
    rng = random.Random(seed)
    queries = []
    for name, method in [(n, None) for n in registry] + list(NAMED_ROUTES):
        gen = _route(registry[name], method)
        offset = 1 if name == "local_minima" else 0
        reach = min(gen.bound, SIM_REACH.get(name, gen.bound)) - offset + 1
        terms = int(math.exp(rng.uniform(0.0, math.log(MAX_TERMS + 1))))
        queries.append(Query(name, method, max(1, min(terms, reach))))
    queries += [Query(n, m, t, past_bound=True) for n, m, t in PAST_BOUND]
    rng.shuffle(queries)
    return queries


def _route(binding, method):
    tags = [g.tag for g in binding.generators]
    tag = ROUTE_TAGS.get(method, method) or next(
        (m for m in METHOD_ORDER if m in tags), tags[0]
    )
    return next(g for g in binding.generators if g.tag == tag)


class Lookup:
    """A closed loop of `toothpicks sequence` queries through cli.main."""

    def __init__(self, tp, seed: int, tracer=None):
        self.tp = tp
        self.tracer = tracer
        self.queries = lookup_round(tp.verify.bindings(), seed)

    def run(self) -> PassResult:
        main = self.tp.cli.main
        seconds, answers = [], []
        for q in self.queries:
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(q.argv())
            seconds.append(perf_counter() - t0)
            answers.append((code, out.getvalue()))
        if self.tracer is not None:
            self.tracer.add_printed_terms(sum(len(text.split()) for _, text in answers))
        return PassResult(seconds, [False] * len(seconds), answers)

    def check(self, result: PassResult) -> list[str]:
        refs = _References(self.tp)
        errors = []
        for i, (q, (code, text)) in enumerate(zip(self.queries, result.outputs)):
            offset = 1 if q.name == "local_minima" else 0
            tag = _route(refs.registry[q.name], q.method).tag
            want = refs.values(q.name, tag, offset + q.terms - 1)[offset:]
            verdict = checks.judge_terms(code, text, want, may_refuse=q.past_bound)
            if verdict == checks.FAILED:
                result.op_failed[i] = True
            elif verdict == checks.WRONG:
                errors.append(f"{' '.join(q.argv())}: exit {code}, wrong terms")
        return errors


class _References:
    """Expected terms per binding from a route other than the one queried,
    or from a formula or published b-file held here."""

    def __init__(self, tp):
        self.tp = tp
        self.registry = tp.verify.bindings()
        self.published = checks.read_bfiles(tp.fixture_dir)

    def route(self, name: str, tag: str, hi: int) -> list[int]:
        gen = next(g for g in self.registry[name].generators if g.tag == tag)
        seq = gen.make(hi)
        return [0] * seq.offset + list(seq.terms[: hi + 1 - seq.offset])

    def values(self, name: str, query_tag: str, hi: int) -> list[int]:
        n = range(hi + 1)
        own = {
            "leftist_l": lambda: [checks.leftist_l(i) for i in n],
            "leftist_L": lambda: checks.partial_sums(checks.leftist_l(i) for i in n),
            "uw_U": lambda: checks.partial_sums(checks.uw_d(2, i) for i in n),
            "uw_u_d1": lambda: [checks.uw_d(1, i) for i in n],
            "uw_u_d3": lambda: [checks.uw_d(3, i) for i in n],
            "uw_u_d4": lambda: [checks.uw_d(4, i) for i in n],
            "t_toothpick_tau": lambda: [checks.ttp_tau(i) for i in n],
            "maltese_m": lambda: [checks.maltese_m(i) for i in n],
            "maltese_ca": lambda: [checks.maltese_m(i) for i in n],
            "y_toothpick": lambda: checks.y_toothpick_counts(hi),
            "a048883": lambda: [3 ** checks.wt(i) for i in n],
            "a130665": lambda: checks.partial_sums(3 ** checks.wt(i) for i in n),
            "gould": lambda: [1 << checks.wt(i) for i in n],
            "hve_terms": lambda: [checks.hve_nonzero_terms(i) for i in n],
            "local_minima": lambda: [0] + [self.published["A170927"][i] for i in range(1, hi + 1)],
            "corner_C": lambda: checks.partial_sums(self.route("corner_c", "genfunc", hi)),
            "rect_r": lambda: _differences(self.route("rect_R", "recurrence", hi)),
            "rect_R": lambda: checks.partial_sums(self.route("rect_r", "recurrence", hi)),
            "rule942_delta": lambda: [
                (w - checks.uw_d(2, 4 * i + 1)) // 4
                for i, w in enumerate(self.route("rule942_w", "simulate", 4 * hi + 1)[1::4])
            ][: hi + 1],
        }
        if name in own:
            return own[name]()
        tags = [g.tag for g in self.registry[name].generators]
        for tag in ("recurrence", "genfunc", "closedform", "simulate"):
            if tag != query_tag and tag in tags:
                return self.route(name, tag, hi)
        raise KeyError(f"no second route for {name}")


def _differences(values):
    return [b - a for a, b in zip([0] + values, values)]


# -- structure ---------------------------------------------------------------

FACE_STAGES = 48  # bounded faces are walked after every stage up to here
EULER_STAGES = 512
LIMIT_K = 14
LIMIT_MIN = 0.4513058
RENDER_STAGES = 64
TREE_STAGES = 128
SVG_STRUCTURES = ("toothpick", "corner", "t", "y")


class Structure:
    """Growth of every segment variant, face and Euler counts, the limit
    sample, tree checks on cell grids and SVG renders."""

    def __init__(self, tp, seed: int, tracer=None):
        self.tp = tp

    def run(self) -> PassResult:
        engine, gridca, analysis, render = (
            self.tp.engine, self.tp.gridca, self.tp.analysis, self.tp.render
        )
        out = {}
        seconds = []

        def op(name, fn):
            t0 = perf_counter()
            out[name] = fn()
            seconds.append(perf_counter() - t0)

        op("plain", lambda: engine.grow("toothpick", 4096).counts)
        op("corner", lambda: engine.grow("corner", 512, fast=False).counts)
        op("leftist", lambda: engine.grow("leftist", 512, fast=False).counts)
        op("t", lambda: engine.grow("t", 512).counts)
        op("y", lambda: engine.grow("y", 128).counts)

        def faces():
            s = engine.new_structure("toothpick", fast=False)
            counts = [analysis.detect_rectangles(s).count]
            for _ in range(FACE_STAGES):
                s.grow(1)
                counts.append(analysis.detect_rectangles(s).count)
            return counts, s

        op("faces", faces)
        op("euler", lambda: analysis.rectangle_counts_by_stage(engine.grow("toothpick", EULER_STAGES)))
        op("limit", lambda: float(analysis.sample_limit_function(LIMIT_K).min_value))

        for label, rule in (("uw", gridca.uw_von_neumann(2)), ("digraph", gridca.TOOTHPICK_DIGRAPH)):
            op(f"grid_{label}", lambda r=rule: gridca.CellGrid(r).grow(TREE_STAGES))
            op(f"tree_{label}", lambda g=out[f"grid_{label}"]: analysis.tree_check(g))

        # Each render is an operation of its own, and each input is
        # rendered twice so that the two outputs can be compared.
        inputs = {}

        def grow_render_inputs():
            for variant in SVG_STRUCTURES:
                inputs[variant] = engine.grow(variant, RENDER_STAGES)
            for label, rule in (("uw", gridca.uw_von_neumann(2)), ("maltese", gridca.MALTESE),
                                ("moore8_corner1", gridca.MOORE8_CORNER1)):
                inputs[label] = gridca.CellGrid(rule).grow(RENDER_STAGES)
            return inputs

        op("render_inputs", grow_render_inputs)
        for label, obj in inputs.items():
            draw = render.render_structure if label in SVG_STRUCTURES else render.render_grid
            for k in (1, 2):
                op(f"svg_{label}_{k}", lambda d=draw, o=obj: d(o))
        return PassResult(seconds, [False] * len(seconds), out)

    def check(self, result: PassResult) -> list[str]:
        out = result.outputs
        pub = checks.read_bfiles(self.tp.fixture_dir)
        cmp = checks.compare
        errors = []

        def published(label, counts, oeis, totals=False):
            ref = pub[oeis]
            got = checks.partial_sums(counts) if totals else counts
            hi = min(len(got), max(ref) + 1)
            errors.extend(cmp(f"{label} vs {oeis}", got[:hi], [ref[i] for i in range(hi)]))

        plain = out["plain"]
        published("plain t", plain, "A139251")
        totals = checks.partial_sums(plain)
        errors.extend(cmp("plain T(2^k)", [totals[1 << k] for k in range(13)],
                          [checks.toothpick_total_at_power_of_two(k) for k in range(13)]))
        published("corner c", out["corner"], "A152980")
        published("corner C", out["corner"], "A153006", totals=True)
        errors.extend(cmp("leftist l", out["leftist"], [checks.leftist_l(i) for i in range(513)]))
        errors.extend(cmp("T-toothpick tau", out["t"], [checks.ttp_tau(i) for i in range(513)]))
        errors.extend(cmp("Y-toothpick", out["y"], checks.y_toothpick_counts(128)))

        faces, grown = out["faces"]
        segs = [[(g.orient, g.x, g.y) for g in grown.stage_segments(n)] for n in range(FACE_STAGES + 1)]
        errors.extend(checks.check_face_counts(faces, checks.euler_face_counts(segs)))
        euler = out["euler"]
        published("Euler R", euler, "A160124")
        errors.extend(cmp("Euler R vs faces walked", euler[: FACE_STAGES + 1], faces))

        if abs(out["limit"] - LIMIT_MIN) > 1e-3:
            errors.append(f"limit-sample minimum {out['limit']:.7f}, expected {LIMIT_MIN}")

        grid = out["grid_uw"]
        if not out["tree_uw"] or not checks.is_tree_4(grid.on_cells()):
            errors.append(f"one-of-four grid at {TREE_STAGES} is not a tree")
        errors.extend(cmp("one-of-four u", grid.counts, [checks.uw_d(2, i) for i in range(TREE_STAGES + 1)]))
        if not out["tree_digraph"]:
            errors.append(f"toothpick digraph at {TREE_STAGES} is not an activation tree")
        errors.extend(cmp("digraph vs plain t", out["grid_digraph"].counts, plain[: TREE_STAGES + 1]))

        inputs = out["render_inputs"]
        errors.extend(cmp("rendered toothpick segments", [inputs["toothpick"].total()],
                          [checks.toothpick_total_at_power_of_two(6)]))
        for label, obj in inputs.items():
            first, second = out[f"svg_{label}_1"], out[f"svg_{label}_2"]
            if label in SVG_STRUCTURES:
                # One line per segment; a T and a Y are three segments each,
                # and the corner structure also draws its seed half.
                per = 3 if label in ("t", "y") else 1
                expected = {"line": per * obj.total() + (label == "corner")}
            else:
                expected = {"rect": len(obj.on_cells()), "path": len(obj.dead_cells())}
            for tag, n in expected.items():
                errors.extend(f"svg {label}: {e}" for e in checks.check_svg(first, second, tag, n))
        return errors


WORKLOADS = {"sweep": Sweep, "lookup": Lookup, "structure": Structure}
