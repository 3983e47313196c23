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


def parse_bfile(text: str) -> IntSequence:
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
    return IntSequence(offset, tuple(terms))


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
    return parse_bfile(text)


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
                return parse_bfile(fh.read())
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
    return parse_bfile(text)


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
    if n_max is not None and n_max < 0:
        raise ValueError("n must be >= 0")
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


# -- the registry ------------------------------------------------------------


def _prefix(fn, offset=0):
    """The maker of a route whose `fn(n)` lists a(offset..n)."""
    return lambda n: IntSequence(offset, tuple(fn(n)))


def _gf(fn):
    """The maker of a route whose `fn(order)` is a series product."""
    return lambda n: IntSequence(0, tuple(fn(n + 1).coeffs))


def _sums(make):
    return lambda n: make(n).partial_sums()


def _bind(name, oeis_id, gens, must_agree=True, note="", fixture=""):
    """One registry row: its generators as listed, then the fixture route,
    from the bundled b-file of the OEIS id unless `fixture` names another
    file, or is None for no fixture route."""
    fixture = oeis_id if fixture == "" else fixture
    if fixture:
        seq = load_fixture(fixture)
        gens += (Generator("fixture", seq.truncated, seq.last_index, seq.offset),)
    return SequenceBinding(name, oeis_id, gens, must_agree, note)


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


def _rule(name):
    return _prefix(functools.partial(rec.prefix, name))


def _formula(terms, *params):
    """The prefix a(0..n) of a closed form, as one range [0, n + 1)."""
    return _prefix(lambda n: terms(*params, 0, n + 1))


def _local_minima(n):
    from .analysis import local_minima

    # One minimum per dyadic block: the first n lie below 2**n.
    return local_minima(1 << min(n, 12))[:n]


def _faces_added(variant):
    """Bounded faces added per stage, by Euler's formula on the grown structure."""

    def make(n):
        from .analysis import rectangle_counts_by_stage

        totals = [0] + rectangle_counts_by_stage(engine.grow(variant, n))
        added = (b - a for a, b in zip(totals, totals[1:]))
        return IntSequence(0, tuple(added))

    return make


SIM = 512  # default simulation bound (acceptance scale)
REC = 1 << 16
GF = 8192


def bindings() -> dict[str, SequenceBinding]:
    """The full registry, keyed by binding name; a fresh dict on every call.

    A row is name, OEIS id, its `Generator`s, must_agree and note; the
    fixture route follows from the OEIS id (see `_bind`).  The table is
    built on every call, so each route takes the layer functions as the
    modules bind them at that time.
    """
    rows = (
        _bind("toothpick_t", "A139251", (
            Generator("simulate", _counts("toothpick"), SIM),
            Generator("simulate", _counts(gridca.TOOTHPICK_DIGRAPH), SIM),
            Generator("recurrence", _rule("t"), REC),
            Generator("closedform", _formula(cf.t_explicit_range), REC),
            Generator("genfunc", _gf(series.toothpick_gf), GF),
        )),
        _bind("toothpick_T", "A139250", (
            Generator("simulate", _sums(_counts("toothpick")), SIM),
            Generator("recurrence", _rule("T"), REC),
            Generator("genfunc", _gf(series.toothpick_total_gf), GF),
        )),
        # Two recurrence routes: the named row and the Theorem-4 instance
        # hold the rule table against the generic family.
        _bind("corner_c", "A152980", (
            Generator("simulate", _counts("corner"), SIM),
            Generator("recurrence", _rule("c"), REC),
            Generator("recurrence", _prefix(rec.RecurrenceSpec(1, 1, 1, 2).prefix), REC),
            Generator("genfunc", _gf(series.corner_gf), GF),
        )),
        _bind("corner_C", "A153006", (
            Generator("simulate", _sums(_counts("corner")), SIM),
            Generator("recurrence", _sums(_rule("c")), REC),
        )),
        _bind("leftist_l", "A151565", (
            Generator("simulate", _counts("leftist"), SIM),
            Generator("closedform", _formula(cf.leftist_l_range), REC),
        )),
        _bind("leftist_L", "A151566", (
            Generator("simulate", _sums(_counts("leftist")), SIM),
            Generator("closedform", _sums(_formula(cf.leftist_l_range)), 4096),
        )),
        _bind("uw_u", "A147582", (
            Generator("simulate", _counts(gridca.uw_von_neumann(2)), SIM),
            Generator("recurrence", _rule("u"), 1 << 20),
            Generator("closedform", _formula(cf.uw_u_range), 1 << 20),
            Generator("genfunc", _gf(series.uw_gf), GF),
        )),
        _bind("uw_U", "A147562", (
            Generator("simulate", _sums(_counts(gridca.uw_von_neumann(2))), SIM),
            Generator("recurrence", _sums(_rule("u")), REC),
        )),
        _bind("uw_u_d1", None, (
            Generator("simulate", _counts(gridca.uw_von_neumann(1)), SIM),
            Generator("closedform", _formula(cf.uw_d_range, 1), REC),
        )),
        _bind("uw_u_d3", None, (
            Generator("simulate", _counts(gridca.uw_von_neumann(3)), SIM),
            Generator("closedform", _formula(cf.uw_d_range, 3), REC),
        )),
        _bind("uw_u_d4", None, (
            Generator("simulate", _counts(gridca.uw_von_neumann(4)), 64),
            Generator("closedform", _formula(cf.uw_d_range, 4), REC),
        )),
        _bind("rect_rho", "A168131", (
            Generator("simulate", _faces_added("corner"), 256),
            Generator("recurrence", _rule("rho"), REC),
        )),
        _bind("rect_r", "A160125", (
            Generator("recurrence", _rule("r"), REC),
        )),
        _bind("rect_R", "A160124", (
            Generator("simulate", _sums(_faces_added("toothpick")), SIM),
            Generator("recurrence", _sums(_rule("r")), REC),
        )),
        _bind("eight_v", "A151726", (
            Generator("simulate", _counts(gridca.MOORE8), SIM),
            Generator("recurrence", _rule("v"), REC),
        )),
        _bind("eight_V", "A151725", (
            Generator("simulate", _sums(_counts(gridca.MOORE8)), SIM),
            Generator("recurrence", _sums(_rule("v")), REC),
        )),
        _bind("eight_v1", "A151747", (
            Generator("simulate", _counts(gridca.MOORE8_CORNER1), SIM),
            Generator("recurrence", _rule("v1"), REC),
        )),
        _bind("eight_v2", "A151728", (
            Generator("simulate", _counts(gridca.MOORE8_CORNER2), SIM),
            Generator("recurrence", _rule("v2"), REC),
        )),
        _bind("rule942_w", None, (
            Generator("simulate", _counts(gridca.RULE942), SIM),
            Generator("closedform", _formula(cf.r942_w_range), REC),
        ), fixture="table7_w"),
        _bind("rule942_delta", None, (
            Generator("closedform", _formula(cf.r942_delta_range), REC),
        ), fixture="table7_delta"),
        _bind("t_toothpick_tau", "A160173", (
            Generator("simulate", _counts("t"), SIM),
            Generator("closedform", _formula(cf.ttp_tau_range), REC),
        )),
        _bind("maltese_m", "A151906", (
            Generator("simulate", gridca.build_maltese_by_construction, 300),
            Generator("closedform", _formula(cf.maltese_m_range), REC),
        )),
        _bind("maltese_ca", "A151906", (
            Generator("simulate", _counts(gridca.MALTESE), 64),
            Generator("closedform", _formula(cf.maltese_m_range), REC),
        ), must_agree=False, fixture=None, note=(
            "the reconstructed three-state rules track the construction "
            "oracle through stage 17 and first diverge at stage 18"
        )),
        _bind("y_toothpick", "A160120", (
            Generator("simulate", _counts("y"), 128),
        ), must_agree=False, fixture="y_toothpick_added", note=(
            "no formula oracle exists; the fixture is a pinned engine "
            "snapshot, so this binding is a regression pin, not a proof"
        )),
        _bind("f_sequence", "A147646", (
            Generator("recurrence", _rule("F"), REC),
            Generator("closedform", _formula(cf.f_explicit_range), REC),
            Generator("genfunc", _gf(series.f_gf), GF),
        )),
        _bind("a151550", "A151550", (
            Generator("genfunc", _gf(series.a151550_gf), GF),
            Generator("recurrence", _prefix(lambda n: rec.RecurrenceSpec(1, 0, 1, 2).prefix(n + 1)[1:]), REC),
        )),
        _bind("a160573", "A160573", (
            Generator("genfunc", _gf(series.a160573_gf), GF),
            Generator("closedform", _formula(cf.hve_a_range, 1, 1), REC),
        )),
        _bind("a048883", "A048883", (
            Generator("closedform", _formula(cf.a048883_range), REC),
            Generator("genfunc", _gf(lambda o: series.geometric_weight_product(3, o)), GF),
        )),
        _bind("a130665", "A130665", (
            Generator("closedform", _sums(_formula(cf.a048883_range)), 4096),
            Generator("genfunc", _gf(lambda o: series.geometric_weight_product(3, o).divide_one_minus_x()), GF),
        )),
        _bind("gould", "A001316", (
            Generator("closedform", _formula(cf.gould_range), REC),
            Generator("genfunc", _gf(lambda o: series.geometric_weight_product(2, o)), GF),
        )),
        _bind("hve_terms", "A100661", (
            Generator("closedform", _formula(cf.hve_nonzero_terms_range), REC),
        ), note="fixture is a pinned snapshot of the counting generator"),
        _bind("local_minima", "A170927", (
            Generator("recurrence", _prefix(_local_minima, 1), 12, 1),
        )),
    )
    return {b.name: b for b in rows}
