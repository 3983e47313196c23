"""Per-layer spans and work counts, recorded from outside the program.

Traced runs only.  `Tracer.install` replaces every public function and
public method of the nine layer modules with a wrapper that keeps a
span stack; untraced runs never call it, so they run the program exactly
as shipped.

A layer's self time is the time inside its spans minus the time inside
their child spans.  A call from a layer into its own public functions
opens no span of its own (the caller's span covers it) and adds no work,
so work is not counted twice; it still counts as a call.  Generator functions are left
unwrapped: their bodies run while the caller iterates, and that time
stays with the caller.
"""

import dataclasses
import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "toothpicks"
LAYERS = (
    "engine", "gridca", "recurrences", "closedform", "series",
    "analysis", "render", "verify", "cli",
)
# Layer -> work counter it feeds.
WORK = {
    "engine": "engine.segments",
    "gridca": "gridca.cells",
    "recurrences": "recurrences.terms",
    "closedform": "closedform.terms",
    "series": "series.coeffs",
    "analysis": "analysis.faces",
    "render": "render.bytes",
    "verify": "verify.terms_compared",
    "cli": "cli.terms_printed",
}
SIM_LAYERS = ("engine", "gridca")
FORMULA_LAYER = "closedform"
# Entry points that run a simulation, besides the `.grow` methods.
SIM_FUNCTIONS = {
    "grow", "simulate_t_toothpick", "simulate_y_toothpick", "run",
    "run_toothpick_digraph", "run_maltese", "build_maltese_by_construction",
}


def _ratio(num: int, den: int) -> float:
    # With nothing attempted nothing was wasted.
    return num / den if den else 1.0


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # [layer, start, child_seconds]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.work: dict[str, int] = {}
        self._formula_active = [False]
        self.reset()

    def reset(self) -> None:
        # In place: the installed wrappers hold these dicts.
        self.self_s.update(dict.fromkeys(LAYERS, 0.0))
        self.calls.update(dict.fromkeys(LAYERS, 0))
        self.work.update(dict.fromkeys(WORK.values(), 0))
        self.sims: list[str] = []
        self.formula_route_terms = 0  # terms returned by closed-form routes
        self.cli_route_terms = 0  # terms returned by any route under cli.main

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        replaced: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(layer, name, obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        # Rebind every module-level reference, including names imported
        # into other modules (`from .recurrences import toothpick_T_prefix`).
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr in dir(cls):
            if attr.startswith("_"):
                continue
            raw = inspect.getattr_static(cls, attr)
            if inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                setattr(cls, attr, self._wrap(layer, f"{cls.__name__}.{attr}", raw))

    def _wrap(self, layer: str, qualname: str, fn):
        if layer == FORMULA_LAYER:
            return self._wrap_formula(fn)
        stack, calls, self_s, work = self._stack, self.calls, self.self_s, self.work
        is_grow_method = qualname.endswith(".grow")
        is_face_walk = qualname == "extract_faces"
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            calls[layer] += 1
            if stack and stack[-1][0] == layer:
                # Called from its own layer: the caller's span covers it.
                result = fn(*args, **kwargs)
                if is_face_walk:
                    work["analysis.faces"] += len(result[0])
                return result
            before = args[0].stage if is_grow_method else None
            frame = [layer, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[1]
                stack.pop()
                self_s[layer] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            self._count(layer, qualname, signature, args, kwargs, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_formula(self, fn):
        """A leaner span for the closed forms, which run millions of times
        per pass and call no other layer: no stack frame of their own."""
        stack, calls, self_s, work = self._stack, self.calls, self.self_s, self.work
        inside = self._formula_active

        def traced(*args, **kwargs):
            calls[FORMULA_LAYER] += 1
            if inside[0]:
                return fn(*args, **kwargs)
            inside[0] = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                inside[0] = False
            self_s[FORMULA_LAYER] += dur
            if stack:
                stack[-1][2] += dur
            work["closedform.terms"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- work counts -------------------------------------------------------

    def _count(self, layer, qualname, signature, args, kwargs, result, before) -> None:
        """Add the work of one call into a layer from outside it."""
        work = self.work
        if layer in SIM_LAYERS:
            if before is not None:  # structure.grow / CellGrid.grow
                obj = args[0]
                produced = sum(obj.counts[before + 1:])
                key = (qualname, getattr(obj, "rule", None) or obj.variant, before, args[1:])
            elif qualname in SIM_FUNCTIONS:
                produced = sum(result.terms if hasattr(result, "terms") else result.counts)
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                key = (qualname, call.args)
            else:
                return
            work[WORK[layer]] += produced
            self.sims.append(repr(key))
        elif layer == "recurrences":
            work["recurrences.terms"] += len(result) if isinstance(result, (list, tuple)) else 1
        elif layer == "series":
            work["series.coeffs"] += len(getattr(result, "coeffs", ()))
        elif layer == "analysis" and qualname == "extract_faces":
            work["analysis.faces"] += len(result[0])
        elif layer == "render" and isinstance(result, str):
            work["render.bytes"] += len(result.encode())
        elif layer == "verify":
            if qualname == "crosscheck":
                work["verify.terms_compared"] += sum(
                    p.checked[1] - p.checked[0] + 1 for p in result.pairs if p.checked
                )
            elif qualname == "bindings":
                self._instrument_routes(result)

    def _instrument_routes(self, registry: dict) -> None:
        """Count the terms the routes of a fresh registry return."""
        for name, binding in registry.items():
            gens = tuple(
                dataclasses.replace(g, make=self._route_counter(g.tag, g.make))
                for g in binding.generators
            )
            registry[name] = dataclasses.replace(binding, generators=gens)

    def _route_counter(self, tag: str, make):
        def counted(n):
            seq = make(n)
            if tag == "closedform":
                self.formula_route_terms += len(seq.terms)
            if any(frame[0] == "cli" for frame in self._stack):
                self.cli_route_terms += len(seq.terms)
            return seq

        return counted

    def add_printed_terms(self, n: int) -> None:
        self.work["cli.terms_printed"] += n

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        out.update(self.work)
        out["verify.sims"] = len(self.sims)
        out["verify.distinct_sim_ratio"] = _ratio(len(set(self.sims)), len(self.sims))
        out["closedform.useful_ratio"] = _ratio(
            self.formula_route_terms, self.work["closedform.terms"]
        )
        out["cli.terms_computed"] = self.cli_route_terms
        out["cli.useful_ratio"] = _ratio(self.work["cli.terms_printed"], self.cli_route_terms)
        return out
