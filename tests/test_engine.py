import hashlib
from fractions import Fraction

import numpy as np
import pytest

from toothpicks import closedform as cf
from toothpicks import engine, intutil
from toothpicks.engine import (
    Y_ARMS,
    bounding_box,
    corner_boundary_snapshot,
    grow,
    new_structure,
)
from toothpicks.verify import load_fixture


def brute_exposed(structure):
    """Exposed points recomputed from scratch from the drawn segments: ends
    of exactly one segment that are no segment's midpoint or Y center."""
    ends, mids = {}, set()
    for _, o, x, y in structure.segments():
        if o == "s":
            tips = ((x, y), (x + 1, y))
        elif o == "v":
            tips = ((x, y - 1), (x, y + 1))
        elif o == "h":
            tips = ((x - 1, y), (x + 1, y))
        else:
            ax, ay = Y_ARMS[int(o[1])]
            tips = ((x + ax, y + ay),)
        if o != "s":
            mids.add((x, y))
        for p in tips:
            ends[p] = ends.get(p, 0) + 1
    return {p for p, k in ends.items() if k == 1 and p not in mids}


# SHA-256 of grow(variant, 128).dump(), made with the per-variant engines
# that this stepper replaced.
DUMP_128_SHA256 = {
    "toothpick": "588e727f59b01c973a3cbfff4e5f0b141fbf017021ce380055a23e239d34ba64",
    "corner": "c00dd38003661ae6ef770a08b42b2ffa5e62f974bf7ec0e980c179986d63e5ed",
    "leftist": "af6ee98f5f007233e3046c42e311ae02aefbbc0ead1c07d967f877ab576bb48a",
    "t": "2386a083a1e3c0386fcf1a3a662d46681f32ed321c9c387bd721a96bf7fab944",
    "y": "41194c3f21534cb427db5d3884d2ff20bf36735fb9757a4d26dc6bac46674ceb",
}


# SHA-256 of the int64 arrays stage, x, y, d of grow(variant, 128).placements(),
# made while x and y were still kept as int32.
PLACEMENTS_128_SHA256 = {
    "toothpick": "db5ac7f74c569206ed616dc986073613455061a0062e0974fdde3e980ed5dba9",
    "corner": "e770773b4c115f39f9ede3f4de0cb9ee472683d91caf9867ab58dc27241a0e7e",
    "leftist": "a326af101eace56c8c06b801fdbe3f2b375e1e0713b544b50711174fe17a8f77",
    "t": "50dd2196c83850b6b9984e7b7c730058038fecdfa7ae963e31c3c0da7842da1a",
    "y": "2fe4ef9432924fb6e807af37219fb47cd63546b7aeffd5be21e7239d6664eaad",
}


@pytest.mark.parametrize("variant", engine.VARIANTS)
def test_placements_are_kept_in_five_bytes(variant):
    s = grow(variant, 64)
    assert len(s._placed) == 65
    for x, y, d in s._placed:
        assert (x.dtype, y.dtype, d.dtype) == (np.int16, np.int16, np.int8)
    s.grow(64)
    placed = s.placements()
    assert all(a.dtype == np.int64 for a in placed)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in placed)).hexdigest()
    assert digest == PLACEMENTS_128_SHA256[variant]


def test_a_reach_past_int16_is_refused_before_allocating(monkeypatch):
    s = new_structure("toothpick")
    half = s.half
    # Under the budget, the reach is refused as a box too large.
    with pytest.raises(ValueError, match="GiB budget"):
        s._fit(1 << 15)
    # With no budget, the int16 bound still stops it before np.zeros.
    monkeypatch.setattr(intutil, "BOX_BUDGET", 1 << 62)
    monkeypatch.setattr(engine.np, "zeros", lambda *a, **k: pytest.fail("allocated"))
    with pytest.raises(AssertionError, match="int16"):
        s._fit(1 << 15)
    assert s.half == half


def test_counts_match_published_terms():
    assert grow("toothpick", 49).counts == list(load_fixture("A139251").terms)
    assert grow("corner", 39).counts == list(load_fixture("A152980").terms)
    assert grow("leftist", 15).counts == list(load_fixture("A151565").terms)


def test_totals_spot_values():
    assert grow("toothpick", 10).total() == 55
    assert grow("toothpick", 53).total() == 1379
    assert grow("toothpick", 0).total() == 0
    assert grow("corner", 7).total() == 28


def test_added_per_stage_views():
    s = grow("corner", 14)
    assert s.added_per_stage().value(14) == 22
    sl = grow("leftist", 15)
    assert sl.added_per_stage().value(15) == 8
    assert sl.total() == 46


@pytest.mark.parametrize("variant", sorted(DUMP_128_SHA256))
def test_dump_matches_old_engine_hash(variant):
    dump = grow(variant, 128).dump()
    assert hashlib.sha256(dump.encode()).hexdigest() == DUMP_128_SHA256[variant]


@pytest.mark.parametrize("variant", engine.VARIANTS)
def test_resumed_growth_matches_one_call(variant):
    s = new_structure(variant)
    for stages in (0, 3, 1, 36):
        s.grow(stages)
    whole = grow(variant, 40)
    assert s.stage == 40 and s.counts == whole.counts
    assert s.dump() == whole.dump()


@pytest.mark.parametrize("variant", engine.VARIANTS)
def test_no_unit_segment_drawn_twice(variant):
    drawn = [(o, x, y) for _, o, x, y in grow(variant, 128).segments()]
    assert len(set(drawn)) == len(drawn)


@pytest.mark.parametrize("variant", ["toothpick", "corner", "leftist"])
def test_exposure_matches_brute_force(variant):
    s = new_structure(variant)
    for _ in range(64):
        s.grow(1)
    assert s.exposed_points() == brute_exposed(s)


def test_exposure_brute_force_t_and_y():
    for variant in ("t", "y"):
        s = new_structure(variant)
        for _ in range(32):
            s.grow(1)
            assert s.exposed_points() == brute_exposed(s), (variant, s.stage)


def test_orientation_parity():
    for variant, odd in (("toothpick", "v"), ("corner", "v"), ("leftist", "h")):
        s = grow(variant, 33)
        for stage, orient, x, y in s.segments():
            if orient == "s":
                continue
            want = odd if stage % 2 == 1 else ("h" if odd == "v" else "v")
            assert orient == want, (variant, stage, x, y)


def test_post_power_of_two_shape():
    # after 2**k stages: bounding box of doubled radius 2**(k-1), the four
    # protruding corner tips exposed, nothing else
    for k in range(2, 9):
        s = grow("toothpick", 1 << k)
        half = 1 << (k - 1)
        assert bounding_box(s) == (-half, -half, half, half)
        assert s.exposed_points() == {
            (sx * half, sy * half) for sx in (-1, 1) for sy in (-1, 1)
        }


def test_corner_boundary_snapshots():
    for k in range(2, 9):
        s = grow("corner", (1 << k) - 1)
        rep = corner_boundary_snapshot(s)
        assert rep.k == k
        assert rep.height == Fraction(1 << (k - 1)) - Fraction(1, 2)
        assert rep.width == (1 << (k - 1)) - 1
        assert rep.top_exposed_ends == 1 << (k - 1)
        assert rep.has_protruding_half
        assert rep.interior_exposed_ends == 0


def test_corner_snapshot_rejects_other_stages():
    with pytest.raises(ValueError):
        corner_boundary_snapshot(grow("corner", 6))
    with pytest.raises(ValueError):
        corner_boundary_snapshot(grow("toothpick", 7))


def test_t_toothpick_counts():
    seq = grow("t", 3).added_per_stage()
    assert seq.value(0) == 0
    assert seq.value(1) == 1
    assert seq.value(2) == 3
    assert seq.value(3) == 5
    long = grow("t", 512).added_per_stage()
    assert list(long.terms) == [cf.ttp_tau(n) for n in range(513)]


def test_y_toothpick_counts():
    seq = grow("y", 8).added_per_stage()
    assert seq.value(0) == 0
    assert seq.value(1) == 1
    assert list(seq.terms) == list(load_fixture("y_toothpick_added").terms)[:9]


def test_y_arms_never_reverse():
    # the same-orientation rule is overlap-free because no arm direction
    # is the negation of another
    negs = {(-a, -b) for a, b in Y_ARMS}
    assert negs.isdisjoint(set(Y_ARMS))


def test_quadrant_relation_geometric():
    # T(n) = 4 * Q(n) + 3 for n >= 3, with Q counted inside one quadrant
    s = new_structure("toothpick")
    s.grow(256)
    total_all = 0
    total_q = 0
    for n in range(s.stage + 1):
        total_all += s.counts[n]
        total_q += sum(1 for g in s.stage_segments(n) if g.x > 0 and g.y > 0)
        if n >= 3:
            assert total_all == 4 * total_q + 3, n


def test_stage_segments_orientation():
    # plain, corner and leftist alternate orientation by stage parity
    assert {g.orient for g in grow("corner", 4).stage_segments(3)} == {"v"}
    assert {g.orient for g in grow("leftist", 4).stage_segments(3)} == {"h"}
    segs = grow("leftist", 4).stage_segments(4)
    assert {g.orient for g in segs} == {"v"} and len(segs) == 2
    for variant in ("t", "y"):  # three segments per element
        s = grow(variant, 3)
        assert len(s.stage_segments(3)) == 3 * s.counts[3]


def test_stage_segments_outside_the_grown_stages_is_an_error():
    s = grow("toothpick", 3)
    assert [len(s.stage_segments(n)) for n in range(4)] == s.counts == [0, 1, 2, 4]
    for n in (-1, -4, 4):
        with pytest.raises(ValueError, match="outside 0..3"):
            s.stage_segments(n)


def test_dump_round_trip_fields():
    s = grow("corner", 5)
    lines = s.dump().splitlines()
    assert lines == sorted(lines, key=lambda ln: (int(ln.split()[0]), ln.split()[1],
                                                  int(ln.split()[2]), int(ln.split()[3])))
    assert sum(1 for ln in lines if ln.split()[1] == "s") == 1
    assert len(lines) == 1 + s.total()


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        new_structure("hexagon")
    # `fast` is accepted for old callers and ignored
    assert new_structure("corner", fast=True).grow(7).counts == grow("corner", 7).counts
