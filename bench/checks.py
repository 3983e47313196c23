"""Output checks, reference values and order statistics.

Nothing here imports the program: the reference values are either
formulas computed here, b-files whose header says "Published" (read by
this module's own parser), or values the caller obtained from a second,
independent route of the program.
"""

import math
import xml.etree.ElementTree as ET
from pathlib import Path

OK, FAILED, WRONG = "ok", "failed", "wrong"
MIN_BEYOND = 10  # samples a tail percentile must leave above it


# -- order statistics --------------------------------------------------------


def class_sample(pooled, per_pass: int, j: int):
    """Middle sample of the j-th of `per_pass` classes (1-based, by latency).

    Every pass runs the same operations, so k passes pool into per_pass
    classes of k samples each.  Read at a class's middle, an order
    statistic cannot jump between two operations as k changes.
    """
    s = sorted(pooled)
    k = len(s) // per_pass
    if len(s) % per_pass or not 1 <= j <= per_pass:
        raise ValueError(f"class {j} of {per_pass} in {len(s)} samples")
    return s[math.ceil(k * (j - 0.5)) - 1]


def tail_class(per_pass: int, min_passes: int) -> int:
    """Highest class whose middle sample has at least ten samples beyond it
    in a run of min_passes passes (and so in every longer run)."""
    n = per_pass * min_passes
    for j in range(per_pass, 0, -1):
        if n - math.ceil(min_passes * (j - 0.5)) >= MIN_BEYOND:
            return j
    raise ValueError(f"{n} samples leave no class with {MIN_BEYOND} beyond it")


def op_statistics(pooled, per_pass: int, min_passes: int) -> dict:
    """Median and tail latency of pooled operation latencies.

    The median is the middle class's middle sample (the mean of the two
    middle classes' when per_pass is even); the tail is the middle sample
    of `tail_class`, which is the 100 (j - 1/2) / per_pass percentile.
    """
    if len(pooled) < per_pass * min_passes:
        raise ValueError(f"{len(pooled)} samples, fewer than {min_passes} passes")
    half = per_pass // 2
    if per_pass % 2:
        p50 = class_sample(pooled, per_pass, half + 1)
    else:
        p50 = (class_sample(pooled, per_pass, half) + class_sample(pooled, per_pass, half + 1)) / 2
    j = tail_class(per_pass, min_passes)
    return {"p50": p50, "tail": class_sample(pooled, per_pass, j),
            "tail_percentile": 100 * (j - 0.5) / per_pass}


# -- reference values --------------------------------------------------------


def wt(n: int) -> int:
    return bin(n).count("1")


def toothpick_total_at_power_of_two(k: int) -> int:
    """T(2**k) = (2**(2k+1) + 1) / 3."""
    return ((1 << (2 * k + 1)) + 1) // 3


def leftist_l(n: int) -> int:
    """l(2m-1) = l(2m) = 2**wt(m-1)."""
    return 0 if n == 0 else 1 << wt((n + 1) // 2 - 1)


def uw_d(d: int, n: int) -> int:
    """One-of-2d-neighbours additions: 2d (2d-1)**(wt(n-1) - 1) for n >= 2."""
    return n if n <= 1 else 2 * d * (2 * d - 1) ** (wt(n - 1) - 1)


def ttp_tau(n: int) -> int:
    """T-toothpicks: tau(n) = (2/3)(3**wt(n-1) + 3**wt(n-2)) + 1 for n >= 3."""
    return (0, 1, 3)[n] if n <= 2 else 2 * (3 ** wt(n - 1) + 3 ** wt(n - 2)) // 3 + 1


def maltese_m(n: int) -> int:
    """m(3t) = m(3t+1) = 4*3**(wt(t)-1), m(3t+2) = 4*3**wt(t), t >= 1."""
    if n <= 2:
        return (0, 1, 4)[n]
    t, r = divmod(n, 3)
    return 4 * 3 ** (wt(t) if r == 2 else wt(t) - 1)


def hve_nonzero_terms(n: int) -> int:
    """How many m >= 0 have C(wt(n+m), m) != 0, i.e. m <= wt(n+m).

    m runs well past wt's largest possible value for n + m, so the
    count does not rest on where the sum may be cut off."""
    return sum(1 for m in range(n.bit_length() + 16) if m <= wt(n + m))


def partial_sums(values):
    out, acc = [], 0
    for v in values:
        acc += v
        out.append(acc)
    return out


Y_ARMS = ((1, 0), (-1, 1), (0, -1))


def y_toothpick_counts(n: int) -> list[int]:
    """Y-toothpicks added per stage, grown here from the placement rule.

    A tip is exposed when exactly one arm ends there and no Y is centred
    there; each stage centres a Y (same orientation) on every tip that
    the previous stage created and that is still exposed.
    """
    counts = [0] * (n + 1)
    if n < 1:
        return counts
    centres = {(0, 0)}
    ends: dict = {}
    fresh = [(0, 0)]
    counts[1] = 1
    for stage in range(2, n + 1):
        tips = []
        for cx, cy in fresh:
            for ax, ay in Y_ARMS:
                tip = (cx + ax, cy + ay)
                ends[tip] = ends.get(tip, 0) + 1
                tips.append(tip)
        fresh = [t for t in tips if ends[t] == 1 and t not in centres]
        centres.update(fresh)
        counts[stage] = len(fresh)
    return counts


def euler_face_counts(stage_segments) -> list[int]:
    """Bounded faces E - V + C after each stage, from (orient, x, y) midpoints.

    `stage_segments[n]` lists the unit toothpicks of stage n in doubled
    coordinates; each splits into two unit edges of the doubled lattice.
    """
    parent: dict = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    v = e = c = 0
    out = []
    for segs in stage_segments:
        for orient, x, y in segs:
            dx, dy = (0, 1) if orient == "v" else (1, 0)
            pts = ((x - dx, y - dy), (x, y), (x + dx, y + dy))
            for p in pts:
                if p not in parent:
                    parent[p] = p
                    v += 1
                    c += 1
            for a, b in zip(pts, pts[1:]):
                e += 1
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
                    c -= 1
        out.append(e - v + c)
    return out


def is_tree_4(cells) -> bool:
    """The 4-neighbour graph induced on the cells is connected and acyclic."""
    cells = set(cells)
    if not cells:
        return True
    edges = sum((x + 1, y) in cells for x, y in cells) + sum((x, y + 1) in cells for x, y in cells)
    start = next(iter(cells))
    seen, todo = {start}, [start]
    while todo:
        x, y = todo.pop()
        for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if q in cells and q not in seen:
                seen.add(q)
                todo.append(q)
    return len(seen) == len(cells) and edges == len(cells) - 1


def read_bfiles(fixture_dir: Path, published_only: bool = True) -> dict[str, dict[int, int]]:
    """Bundled b-files parsed here, by default only those whose header says
    they are published terms (not pinned from one of the program's routes)."""
    out = {}
    for path in sorted(fixture_dir.glob("*.txt")):
        lines = path.read_text().splitlines()
        if published_only and not any(ln.startswith("#") and "Published" in ln for ln in lines):
            continue
        out[path.stem] = {
            int(i): int(v) for i, v in (ln.split() for ln in lines if ln.strip() and not ln.startswith("#"))
        }
    return out


# -- output checks -----------------------------------------------------------


def judge_terms(exit_code: int, text: str, expected: list[int], may_refuse: bool) -> str:
    """Classify one `sequence` answer against the expected terms.

    OK: exit 0 with every expected term, or (when the route may refuse)
    exit 2 with nothing printed.  FAILED: exit 0 with a correct but
    short prefix, or a refusal the query did not allow.  WRONG: any
    wrong, extra or unparsable term, or any other exit code.
    """
    try:
        got = [int(tok) for tok in text.split()]
    except ValueError:
        return WRONG
    if got != expected[: len(got)] or len(got) > len(expected):
        return WRONG
    if exit_code == 0:
        return OK if len(got) == len(expected) else FAILED
    if exit_code == 2 and not got:
        return OK if may_refuse else FAILED
    return WRONG


def check_face_counts(face_counts: list[int], euler_counts: list[int]) -> list[str]:
    """Face walk and Euler count must agree at every stage."""
    if len(face_counts) != len(euler_counts):
        return [f"{len(face_counts)} face counts for {len(euler_counts)} stages"]
    return [
        f"stage {n}: {f} faces walked, Euler count {e}"
        for n, (f, e) in enumerate(zip(face_counts, euler_counts))
        if f != e
    ]


def check_svg(first: str, second: str, tag: str, expected: int) -> list[str]:
    """The SVG parses, has `expected` `tag` elements and renders identically twice."""
    errors = []
    if first != second:
        errors.append("two renders of the same input differ")
    try:
        root = ET.fromstring(first.encode())
    except ET.ParseError as exc:
        return errors + [f"SVG does not parse: {exc}"]
    found = sum(1 for el in root.iter() if el.tag.rsplit("}", 1)[-1] == tag)
    if found != expected:
        errors.append(f"{found} <{tag}> elements, expected {expected}")
    return errors


def compare(label: str, got, want) -> list[str]:
    """First mismatch between two term lists, as an error message."""
    got, want = list(got), list(want)
    if len(got) != len(want):
        return [f"{label}: {len(got)} terms, expected {len(want)}"]
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return [f"{label}: term {i} is {a}, expected {b}"]
    return []
