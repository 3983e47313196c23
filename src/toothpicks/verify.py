"""Cross-oracle harness: every sequence is bound to all of its
generators (simulation, recurrence, closed form, generating function,
bundled fixture) and any two generators must agree on their overlap.

Divergence is data, not an exception: a report lists the first
disagreeing index per generator pair, and the caller decides whether
the binding was required to agree (`must_agree`).  The one binding
expected to diverge is the Maltese CA rule, whose reconstruction drifts
from the construction oracle at stage 18.
"""

import functools
import json
import os
from dataclasses import dataclass
from importlib import resources
from typing import Callable

from . import closedform as cf
from . import engine
from . import gridca
from . import recurrences as rec
from . import series
from .sequences import IntSequence, first_divergence, overlap_range

CACHE_ENV = "TOOTHPICKS_CACHE"
OEIS_URL = "https://oeis.org/{id}/b{num}.txt"


# -- b-file format -----------------------------------------------------------


def parse_bfile(text: str, label: str = "") -> IntSequence:
    """Parse OEIS b-file text: `index value` lines, '#' comments allowed.

    Indices must be consecutive from the first line's offset.
    """
    offset = None
    expected = None
    terms = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected `index value`, got {raw!r}")
        try:
            idx, val = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer field in {raw!r}") from exc
        if offset is None:
            offset = expected = idx
        if idx != expected:
            raise ValueError(f"line {lineno}: index gap (expected {expected}, got {idx})")
        terms.append(val)
        expected += 1
    if offset is None:
        raise ValueError("empty b-file")
    return IntSequence(offset, tuple(terms), label, "fixture")


def format_bfile(seq: IntSequence) -> str:
    return "".join(f"{seq.offset + i} {v}\n" for i, v in enumerate(seq.terms))


@functools.lru_cache(maxsize=None)
def load_fixture(name: str) -> IntSequence:
    """Bundled fixture by name (an OEIS id or a local table name)."""
    path = resources.files("toothpicks.fixtures").joinpath(f"{name}.txt")
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise KeyError(f"no bundled fixture named {name!r}") from None
    return parse_bfile(text, label=name)


def fetch_bfile(oeis_id: str, online: bool = False, cache_dir: str | None = None) -> IntSequence:
    """A sequence's b-file: bundled fixture offline, network + cache online.

    The cache is content-addressed (blobs by sha256, an index file maps
    id -> hash); offline mode never opens a socket.
    """
    if not online:
        return load_fixture(oeis_id)
    cache_dir = cache_dir or os.environ.get(CACHE_ENV) or os.path.expanduser(
        "~/.cache/toothpicks"
    )
    os.makedirs(cache_dir, exist_ok=True)
    index_path = os.path.join(cache_dir, "index.json")
    index = {}
    if os.path.exists(index_path):
        with open(index_path) as fh:
            index = json.load(fh)
    if oeis_id in index:
        blob = os.path.join(cache_dir, index[oeis_id])
        if os.path.exists(blob):
            with open(blob) as fh:
                return parse_bfile(fh.read(), label=oeis_id)
    import hashlib
    import urllib.request

    url = OEIS_URL.format(id=oeis_id, num=oeis_id[1:])
    with urllib.request.urlopen(url, timeout=30) as resp:
        text = resp.read().decode()
    digest = hashlib.sha256(text.encode()).hexdigest()
    blob_name = f"sha256-{digest}.txt"
    with open(os.path.join(cache_dir, blob_name), "w") as fh:
        fh.write(text)
    index[oeis_id] = blob_name
    with open(index_path, "w") as fh:
        json.dump(index, fh, indent=0, sort_keys=True)
    return parse_bfile(text, label=oeis_id)


# -- bindings ----------------------------------------------------------------


@dataclass(frozen=True)
class Generator:
    tag: str  # simulate | recurrence | closedform | genfunc | fixture
    make: Callable[[int], IntSequence]
    bound: int  # largest index this generator is asked for, and can reach
    offset: int = 0  # first index of the sequence it makes


@dataclass(frozen=True)
class SequenceBinding:
    name: str
    oeis_id: str | None
    generators: tuple[Generator, ...]
    must_agree: bool = True
    note: str = ""

    def __post_init__(self):
        if not self.generators:
            raise ValueError(f"binding {self.name!r} has no generators")


@dataclass(frozen=True)
class PairResult:
    tag_a: str
    tag_b: str
    checked: tuple[int, int] | None
    divergence: tuple[int, int, int] | None  # (index, value_a, value_b)


@dataclass(frozen=True)
class VerifyReport:
    name: str
    must_agree: bool
    pairs: tuple[PairResult, ...]

    @property
    def agreed(self) -> bool:
        return all(p.divergence is None for p in self.pairs)

    def lines(self) -> list[str]:
        out = []
        for p in self.pairs:
            rng = f"[{p.checked[0]}..{p.checked[1]}]" if p.checked else "(no overlap)"
            if p.divergence is None:
                out.append(f"{self.name}: {p.tag_a} vs {p.tag_b} {rng} agree")
            else:
                n, va, vb = p.divergence
                out.append(
                    f"{self.name}: {p.tag_a} vs {p.tag_b} {rng} "
                    f"FIRST DIVERGENCE at n={n}: {va} != {vb}"
                )
        return out

    def to_json(self) -> list[dict]:
        return [
            {
                "name": self.name,
                "pair": [p.tag_a, p.tag_b],
                "first_divergence": p.divergence,
                "checked_range": p.checked,
            }
            for p in self.pairs
        ]


def crosscheck(binding: SequenceBinding, n_max: int | None = None) -> VerifyReport:
    """Evaluate all generators (each to its own bound) and compare pairwise."""
    seqs = []
    for gen in binding.generators:
        hi = gen.bound if n_max is None else min(gen.bound, n_max)
        seqs.append((gen.tag, gen.make(hi).truncated(hi)))
    pairs = []
    for i in range(len(seqs)):
        for j in range(i + 1, len(seqs)):
            ta, sa = seqs[i]
            tb, sb = seqs[j]
            pairs.append(
                PairResult(ta, tb, overlap_range(sa, sb), first_divergence(sa, sb))
            )
    return VerifyReport(binding.name, binding.must_agree, tuple(pairs))


# -- generator adapters ------------------------------------------------------


def _from_prefix(fn, label):
    return lambda n: IntSequence(0, tuple(fn(n)), label, "recurrence")


def _from_scalar(fn, label):
    return lambda n: IntSequence(0, tuple(fn(i) for i in range(n + 1)), label, "closedform")


def _from_series(fn, label):
    return lambda n: IntSequence(0, tuple(fn(n + 1).coeffs), label, "genfunc")


def _from_sim(fn, label):
    def make(n):
        seq = fn(n)
        return IntSequence(seq.offset, seq.terms, label, "simulate")

    return make


def _fixture_gen(name, offset=0):
    seq = load_fixture(name)
    return Generator("fixture", seq.truncated, seq.last_index, offset)


@functools.lru_cache(maxsize=64)
def _sim_counts(variant, n) -> IntSequence:
    """Per-stage counts of one pure simulation, run once per (variant, n).

    A str names a segment variant for `engine.grow`; anything else is a
    cell rule for `gridca.run`.  Only the immutable counts are kept,
    never the structure or grid, so a cache hit costs no memory.
    """
    if isinstance(variant, str):
        return engine.grow(variant, n).added_per_stage()
    return gridca.run(variant, n)


def _counts(variant):
    return lambda n: _sim_counts(variant, n)


def _sums(seq_fn):
    return lambda n: seq_fn(n).partial_sums()


def _rect_geometric(n):
    from .analysis import rectangle_counts_by_stage

    s = engine.grow("toothpick", n)
    return IntSequence(0, tuple(rectangle_counts_by_stage(s)), "rect_R", "simulate")


def _local_minima_seq(n):
    from .analysis import local_minima

    mins = local_minima(4096)[:n]
    return IntSequence(1, tuple(mins), "A170927", "recurrence")


def _rho_geometric(n):
    from .analysis import rectangle_counts_by_stage

    s = engine.grow("corner", n)
    totals = rectangle_counts_by_stage(s)
    diffs = [totals[0]] + [totals[i] - totals[i - 1] for i in range(1, len(totals))]
    return IntSequence(0, tuple(diffs), "rect_rho", "simulate")


SIM = 512  # default simulation bound (acceptance scale)
REC = 1 << 16
GF = 8192


def bindings() -> dict[str, SequenceBinding]:
    """The full registry, keyed by binding name."""
    b: list[SequenceBinding] = []

    def add(name, oeis_id, gens, must_agree=True, note=""):
        b.append(SequenceBinding(name, oeis_id, tuple(gens), must_agree, note))

    add(
        "toothpick_t",
        "A139251",
        [
            Generator("simulate", _from_sim(_counts("toothpick"), "t"), SIM),
            Generator("simulate", _from_sim(_counts(gridca.TOOTHPICK_DIGRAPH), "t/digraph"), SIM),
            Generator("recurrence", _from_prefix(rec.toothpick_t_prefix, "t"), REC),
            Generator("closedform", _from_scalar(cf.t_explicit, "t"), REC),
            Generator("genfunc", _from_series(series.toothpick_gf, "t"), GF),
            _fixture_gen("A139251"),
        ],
    )
    add(
        "toothpick_T",
        "A139250",
        [
            Generator("simulate", _from_sim(_sums(_counts("toothpick")), "T"), SIM),
            Generator("recurrence", _from_prefix(rec.toothpick_T_prefix, "T"), REC),
            Generator("genfunc", _from_series(series.toothpick_total_gf, "T"), GF),
            _fixture_gen("A139250"),
        ],
    )
    add(
        "corner_c",
        "A152980",
        [
            Generator("simulate", _from_sim(_counts("corner"), "c"), SIM),
            Generator("recurrence", _from_prefix(rec.corner_c_prefix, "c"), REC),
            Generator(
                "recurrence",
                _from_prefix(
                    lambda n: rec.generic_theorem4_prefix(rec.RecurrenceSpec(1, 1, 1, 2), n),
                    "c/theorem4",
                ),
                REC,
            ),
            Generator("genfunc", _from_series(series.corner_gf, "c"), GF),
            _fixture_gen("A152980"),
        ],
    )
    add(
        "corner_C",
        "A153006",
        [
            Generator("simulate", _from_sim(_sums(_counts("corner")), "C"), SIM),
            Generator("recurrence", _from_prefix(rec.corner_C_prefix, "C"), REC),
            _fixture_gen("A153006"),
        ],
    )
    add(
        "leftist_l",
        "A151565",
        [
            Generator("simulate", _from_sim(_counts("leftist"), "l"), SIM),
            Generator("closedform", _from_scalar(cf.leftist_l, "l"), REC),
            _fixture_gen("A151565"),
        ],
    )
    add(
        "leftist_L",
        "A151566",
        [
            Generator("simulate", _from_sim(_sums(_counts("leftist")), "L"), SIM),
            Generator("closedform", _sums(_from_scalar(cf.leftist_l, "L")), 4096),
            _fixture_gen("A151566"),
        ],
    )
    add(
        "uw_u",
        "A147582",
        [
            Generator("simulate", _from_sim(_counts(gridca.uw_von_neumann(2)), "u"), SIM),
            Generator("recurrence", _from_prefix(rec.uw_u_prefix, "u"), 1 << 20),
            Generator("closedform", _from_scalar(cf.uw_u, "u"), 1 << 20),
            Generator("genfunc", _from_series(series.uw_gf, "u"), GF),
            _fixture_gen("A147582"),
        ],
    )
    add(
        "uw_U",
        "A147562",
        [
            Generator("simulate", _from_sim(_sums(_counts(gridca.uw_von_neumann(2))), "U"), SIM),
            Generator("recurrence", _from_prefix(rec.uw_U_prefix, "U"), REC),
            _fixture_gen("A147562"),
        ],
    )
    add(
        "uw_u_d1",
        None,
        [
            Generator("simulate", _from_sim(_counts(gridca.uw_von_neumann(1)), "u1"), SIM),
            Generator("closedform", _from_scalar(lambda n: cf.uw_d(1, n), "u1"), REC),
        ],
    )
    add(
        "uw_u_d3",
        None,
        [
            Generator("simulate", _from_sim(_counts(gridca.uw_von_neumann(3)), "u3"), SIM),
            Generator("closedform", _from_scalar(lambda n: cf.uw_d(3, n), "u3"), REC),
        ],
    )
    add(
        "uw_u_d4",
        None,
        [
            Generator("simulate", _from_sim(_counts(gridca.uw_von_neumann(4)), "u4"), 64),
            Generator("closedform", _from_scalar(lambda n: cf.uw_d(4, n), "u4"), REC),
        ],
    )
    add(
        "rect_rho",
        "A168131",
        [
            Generator("simulate", _rho_geometric, 256),
            Generator("recurrence", _from_prefix(rec.rect_rho_prefix, "rho"), REC),
            _fixture_gen("A168131"),
        ],
    )
    add(
        "rect_r",
        "A160125",
        [
            Generator("recurrence", _from_prefix(rec.rect_r_prefix, "r"), REC),
            _fixture_gen("A160125"),
        ],
    )
    add(
        "rect_R",
        "A160124",
        [
            Generator("simulate", _rect_geometric, SIM),
            Generator("recurrence", _from_prefix(rec.rect_R_prefix, "R"), REC),
            _fixture_gen("A160124"),
        ],
    )
    add(
        "eight_v",
        "A151726",
        [
            Generator("simulate", _from_sim(_counts(gridca.MOORE8), "v"), SIM),
            Generator("recurrence", _from_prefix(rec.eight_v_prefix, "v"), REC),
            _fixture_gen("A151726"),
        ],
    )
    add(
        "eight_V",
        "A151725",
        [
            Generator("simulate", _from_sim(_sums(_counts(gridca.MOORE8)), "V"), SIM),
            Generator("recurrence", _from_prefix(rec.eight_V_prefix, "V"), REC),
            _fixture_gen("A151725"),
        ],
    )
    add(
        "eight_v1",
        "A151747",
        [
            Generator("simulate", _from_sim(_counts(gridca.MOORE8_CORNER1), "v1"), SIM),
            Generator("recurrence", _from_prefix(rec.eight_v1_prefix, "v1"), REC),
            _fixture_gen("A151747"),
        ],
    )
    add(
        "eight_v2",
        "A151728",
        [
            Generator("simulate", _from_sim(_counts(gridca.MOORE8_CORNER2), "v2"), SIM),
            Generator("recurrence", _from_prefix(rec.eight_v2_prefix, "v2"), REC),
            _fixture_gen("A151728"),
        ],
    )
    add(
        "rule942_w",
        None,
        [
            Generator("simulate", _from_sim(_counts(gridca.RULE942), "w"), SIM),
            Generator("closedform", _from_scalar(cf.r942_w, "w"), REC),
            _fixture_gen("table7_w"),
        ],
    )
    add(
        "rule942_delta",
        None,
        [
            Generator("closedform", _from_scalar(cf.r942_delta, "delta"), REC),
            _fixture_gen("table7_delta"),
        ],
    )
    add(
        "t_toothpick_tau",
        "A160173",
        [
            Generator("simulate", _from_sim(engine.simulate_t_toothpick, "tau"), SIM),
            Generator("closedform", _from_scalar(cf.ttp_tau, "tau"), REC),
            _fixture_gen("A160173"),
        ],
    )
    add(
        "maltese_m",
        "A151906",
        [
            Generator("simulate", _from_sim(gridca.build_maltese_by_construction, "m"), 300),
            Generator("closedform", _from_scalar(cf.maltese_m, "m"), REC),
            _fixture_gen("A151906"),
        ],
    )
    add(
        "maltese_ca",
        "A151906",
        [
            Generator("simulate", _from_sim(gridca.run_maltese, "m/ca"), 64),
            Generator("closedform", _from_scalar(cf.maltese_m, "m"), REC),
        ],
        must_agree=False,
        note=(
            "the reconstructed three-state rules track the construction "
            "oracle through stage 17 and first diverge at stage 18"
        ),
    )
    add(
        "y_toothpick",
        "A160120",
        [
            Generator("simulate", _from_sim(engine.simulate_y_toothpick, "y"), 128),
            _fixture_gen("y_toothpick_added"),
        ],
        must_agree=False,
        note=(
            "no formula oracle exists; the fixture is a pinned engine "
            "snapshot, so this binding is a regression pin, not a proof"
        ),
    )
    add(
        "f_sequence",
        "A147646",
        [
            Generator("recurrence", _from_prefix(rec.f_sequence_prefix, "F"), REC),
            Generator("closedform", _from_scalar(cf.f_explicit, "F"), REC),
            Generator("genfunc", _from_series(series.f_gf, "F"), GF),
            _fixture_gen("A147646"),
        ],
    )
    add(
        "a151550",
        "A151550",
        [
            Generator("genfunc", _from_series(series.a151550_gf, "A151550"), GF),
            Generator(
                "recurrence",
                _from_prefix(
                    lambda n: rec.generic_theorem4_prefix(rec.RecurrenceSpec(1, 0, 1, 2), n + 1)[1:],
                    "A151550",
                ),
                REC,
            ),
            _fixture_gen("A151550"),
        ],
    )
    add(
        "a160573",
        "A160573",
        [
            Generator("genfunc", _from_series(series.a160573_gf, "A160573"), GF),
            Generator("closedform", _from_scalar(lambda n: cf.hve_a(1, 1, n), "A160573"), REC),
            _fixture_gen("A160573"),
        ],
    )
    add(
        "a048883",
        "A048883",
        [
            Generator("closedform", _from_scalar(cf.a048883, "A048883"), REC),
            Generator(
                "genfunc",
                _from_series(lambda o: series.geometric_weight_product(3, o), "A048883"),
                GF,
            ),
            _fixture_gen("A048883"),
        ],
    )
    add(
        "a130665",
        "A130665",
        [
            Generator("closedform", _sums(_from_scalar(cf.a048883, "A130665")), 4096),
            Generator(
                "genfunc",
                _from_series(
                    lambda o: series.geometric_weight_product(3, o).divide_one_minus_x(),
                    "A130665",
                ),
                GF,
            ),
            _fixture_gen("A130665"),
        ],
    )
    add(
        "gould",
        "A001316",
        [
            Generator("closedform", _from_scalar(cf.gould, "A001316"), REC),
            Generator(
                "genfunc",
                _from_series(lambda o: series.geometric_weight_product(2, o), "A001316"),
                GF,
            ),
            _fixture_gen("A001316"),
        ],
    )
    add(
        "hve_terms",
        "A100661",
        [
            Generator("closedform", _from_scalar(cf.hve_nonzero_terms, "A100661"), REC),
            _fixture_gen("A100661"),
        ],
        note="fixture is a pinned snapshot of the counting generator",
    )
    add(
        "local_minima",
        "A170927",
        [
            Generator("recurrence", _local_minima_seq, 12, offset=1),
            _fixture_gen("A170927", offset=1),
        ],
    )
    return {x.name: x for x in b}
