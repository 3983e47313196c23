import hashlib
from itertools import accumulate

import pytest

from toothpicks import recurrences as rec
from toothpicks.verify import bindings, load_fixture


def fix(name):
    return list(load_fixture(name).terms)


def totals(name, n):
    return list(accumulate(rec.prefix(name, n)))


def test_toothpick_t_against_published_terms():
    assert rec.prefix("t", 49) == fix("A139251")
    t = rec.prefix("t", 16)
    assert t[14] == 28
    assert t[16] == 16
    assert t[11] == 2 * t[3] + t[4] == 12


def test_toothpick_T_against_published_terms():
    assert rec.prefix("T", 49) == fix("A139250")
    T = rec.prefix("T", 64)
    assert T[8] == 43
    assert T[32] == 683
    assert rec.prefix("T", 0) == [0]
    assert T[53] == 1379
    assert T[64] == 2731


def test_corner_against_published_terms():
    assert rec.prefix("c", 39) == fix("A152980")
    assert totals("c", 39) == fix("A153006")
    c = rec.prefix("c", 14)
    assert c[14] == 22
    assert c[8] == 5
    assert rec.prefix("c", 0) == [0]


def test_rectangle_recurrences():
    assert rec.prefix("rho", 15) == fix("A168131")
    assert rec.prefix("r", 15) == fix("A160125")
    assert totals("r", 15) == fix("A160124")
    rho, r = rec.prefix("rho", 15), rec.prefix("r", 15)
    assert rho[14] == 18
    assert r[15] == 4 * rho[7] + 2 == 30
    assert totals("r", 15)[15] == 94


def test_eight_neighbor_recurrences():
    assert rec.prefix("v1", 29) == fix("A151747")
    assert rec.prefix("v2", 29) == fix("A151728")
    assert rec.prefix("v", 29) == fix("A151726")
    assert totals("v", 29) == fix("A151725")
    assert rec.prefix("v1", 16)[16] == 53
    assert rec.prefix("v2", 9)[9] == 7
    assert rec.prefix("v", 8)[8] == 44


def test_f_sequence():
    assert rec.prefix("F", 10) == fix("A147646")
    F = rec.prefix("F", 7)
    assert F[7] == 20
    assert F[4] == 16
    # rows of the shifted triangle converge to F: t(2**k + i + 1) = F(i)
    assert rec.prefix("t", 14)[14] == F[5] == 28


def test_uw_recurrence():
    assert rec.prefix("u", 49) == fix("A147582")
    assert totals("u", 49) == fix("A147562")
    u = rec.prefix("u", 16)
    assert u[16] == 108
    assert u[2] == 4
    assert u[9] == 4


def test_generic_theorem4():
    spec = rec.RecurrenceSpec(1, 1, 1, 2)
    assert spec.prefix(14)[14] == 22  # the corner parameters
    assert spec.prefix(39) == fix("A152980")
    assert rec.RecurrenceSpec(1, 1, 0, 0).prefix(2)[2] == 1
    assert rec.RecurrenceSpec(5, 2, -1, 3).prefix(1)[1] == 5
    with pytest.raises(ValueError):
        rec.RecurrenceSpec(1, 1, 1, 2, start_k=2)


def _route(name, index=0):
    """The index-th recurrence route of a binding, as a list-valued function."""
    gen = [g for g in bindings()[name].generators if g.tag == "recurrence"][index]
    return lambda n: list(gen.make(n).terms)


# SHA-256 of the space-separated decimal prefix a(0..2**16), computed with
# the hand-written block loops this table of rules replaced.
OLD_LOOP_SHA256 = {
    "t": "ad8d0544750bb2247836b3e35aacb0e4f12b647267bceb067d22ae953db67b93",
    "T": "57882f040d0ed7fe60d443423083acc21b226016e6bb0cbf28cd63ec31e6cf29",
    "c": "65ef74bbcf1c53192d0248eb208c83dccf30aae35e796b057b6e50ad41fabf99",
    "C": "077f3f7a187881bbb8ba409991b817c01678ddfd41c3db732e8d754ec15d8182",
    "rho": "65a4ef3d6130daee1cceabff75338f23d15d6432ff65f9e9011b731ae0ffbdfd",
    "r": "b7407c7e2a371d299007527abfad0d632148484ad4b602f322b080ae4ca6bbdf",
    "R": "c179be4b92b3e40b550b82852437d0bf8c54a16675a8b03d9fc7c947fec6ac8e",
    "v1": "62a72f30ce16e5ad67a074ac07bbabf8df1cd5bfb36a3f80311200e3c68d5b41",
    "v2": "e6d36da73a5fe73fb6ce8b4acf050e10f2c8c59bfef0e107142e516dc87bfc5a",
    "v": "cb3f8c95d19e7ca282710960ed3a123065e75995875ba9927bbea2ab3f13be10",
    "V": "4f0ed47bbe7a912287f8b9751d884584b060bd1d2c8e6ce80f9763cd002a87b2",
    "F": "f143c1a08ecd170a3877c0b10c9272da8a6d8c77ca3896353780df4d486719eb",
    "u": "c5cf316b32ad7e10a61fd9cfe2033822f09476f5a398be662fb4269f5e8c972a",
    "U": "57c9f8a55f92efdedd0dff6f99a0b61f949950b739038d8215d0d52f72789385",
    "c/theorem4": "65ef74bbcf1c53192d0248eb208c83dccf30aae35e796b057b6e50ad41fabf99",
    "a151550/theorem4": "5b540b8c8924f297fa1c0fae46df1efc6720a57e4e5b3f3c44761e04ae5d0a60",
}
# The totals and the two Theorem-4 instances are taken from the registry's
# recurrence routes, as `sequence` and `verify` serve them.
ROUTES = {
    "C": lambda: _route("corner_C"),
    "R": lambda: _route("rect_R"),
    "V": lambda: _route("eight_V"),
    "U": lambda: _route("uw_U"),
    "c/theorem4": lambda: _route("corner_c", 1),
    "a151550/theorem4": lambda: _route("a151550"),
}


@pytest.mark.parametrize("name", list(OLD_LOOP_SHA256))
def test_prefix_is_bit_identical_to_the_old_loops(name):
    make = ROUTES[name]() if name in ROUTES else (lambda n: rec.prefix(name, n))
    full = make(1 << 16)
    assert hashlib.sha256(" ".join(map(str, full)).encode()).hexdigest() == OLD_LOOP_SHA256[name]
    # prefixes that end partway through a block
    for n in (0, 1, 2, 3, 5, 7, 100):
        assert make(n) == full[: n + 1], n


def test_bootstrap_rows_share_prefixes():
    # t(2**k + i) = t(2**(k+1) + i) for 1 <= i <= 2**k - 1, k <= 14
    t = rec.prefix("t", 1 << 15)
    for k in range(1, 14):
        base, nxt = 1 << k, 1 << (k + 1)
        assert t[base + 1 : base + base] == t[nxt + 1 : nxt + base]


def test_block_sums():
    # sum of t over [2**k, 2**(k+1)) is 2**k * (2**(k+1) - 1)
    t = rec.prefix("t", 1 << 15)
    for k in range(0, 14):
        base = 1 << k
        assert sum(t[base : 2 * base]) == base * (2 * base - 1)


def test_interleaving_identities():
    n_max = 1 << 16
    t = rec.prefix("t", n_max + 1)
    c = rec.prefix("c", n_max)
    T = rec.prefix("T", n_max + 1)
    C = totals("c", n_max)
    Q = [0, 0, 0] + [(T[n] - 3) // 4 for n in range(3, n_max + 2)]
    for n in range(3, n_max + 2):
        assert (T[n] - 3) % 4 == 0
    for n in range(1, n_max + 1):
        assert 4 * c[n] == 2 * t[n] + t[n + 1]  # c = t/2 + t'/4
    for n in range(2, n_max):
        assert C[n] == 2 * Q[n] + Q[n + 1] + 2
    for n in range(3, n_max + 1):
        assert t[n] % 4 == 0
        assert Q[n] - Q[n - 1] == t[n] // 4  # q = t/4
