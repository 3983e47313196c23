"""Block recurrences of the form a(2**k + i) = f(a(i), a(i+1)).

Every evaluator computes a full prefix a(0..n) in one pass over the
blocks [2**k, 2**(k+1)).  Each term needs two earlier terms, so a flat
list is both the fastest and the most inspectable representation (the
triangular "bootstrap" layout of the sequence is just this list sliced
at powers of two).
"""

from dataclasses import dataclass

from .intutil import UINT128_MAX, exact_div


def _check_prefix(values: list[int], label: str) -> list[int]:
    top = max(values, default=0)
    low = min(values, default=0)
    if top > UINT128_MAX or low < 0:
        raise OverflowError(f"{label} prefix leaves the u128 range")
    return values


def toothpick_t_prefix(n_max: int) -> list[int]:
    """t(0..n_max): toothpicks added per stage (A139251)."""
    t = [0] * (n_max + 1)
    if n_max >= 1:
        t[1] = 1
    k = 1
    while (1 << k) <= n_max:
        base = 1 << k
        t[base] = base
        for i in range(1, min(base, n_max - base + 1)):
            t[base + i] = 2 * t[i] + t[i + 1]
        k += 1
    return _check_prefix(t, "t")


def toothpick_t(n: int) -> int:
    return toothpick_t_prefix(n)[n]


def toothpick_T_prefix(n_max: int) -> list[int]:
    """T(0..n_max): total toothpicks after n stages (A139250)."""
    T = [0] * (n_max + 1)
    k = 0
    while (1 << k) <= n_max:
        base = 1 << k
        T[base] = exact_div((1 << (2 * k + 1)) + 1, 3)
        for i in range(1, min(base, n_max - base + 1)):
            T[base + i] = T[base] + 2 * T[i] + T[i + 1] - 1
        k += 1
    return _check_prefix(T, "T")


def toothpick_T(n: int) -> int:
    return toothpick_T_prefix(n)[n]


def corner_c_prefix(n_max: int) -> list[int]:
    """c(0..n_max): corner-structure additions per stage (A152980)."""
    c = [0] * (n_max + 1)
    for n, v in ((1, 1), (2, 2), (3, 3)):
        if n <= n_max:
            c[n] = v
    k = 2
    while (1 << k) <= n_max:
        base = 1 << k
        c[base] = (1 << (k - 1)) + 1
        for i in range(1, min(base, n_max - base + 1)):
            v = 2 * c[i] + c[i + 1]
            if i == base - 1:
                v -= 1
            c[base + i] = v
        k += 1
    return _check_prefix(c, "c")


def corner_c(n: int) -> int:
    return corner_c_prefix(n)[n]


def corner_C_prefix(n_max: int) -> list[int]:
    """C(0..n_max): running totals of the corner sequence (A153006)."""
    acc, out = 0, []
    for v in corner_c_prefix(n_max):
        acc += v
        out.append(acc)
    return out


def rect_rho_prefix(n_max: int) -> list[int]:
    """rho(0..n_max): rectangles added to the corner structure (A168131)."""
    rho = [0] * (n_max + 1)
    for n, v in ((2, 1), (3, 2)):
        if n <= n_max:
            rho[n] = v
    k = 2
    while (1 << k) <= n_max:
        base = 1 << k
        rho[base] = (1 << (k - 1)) - 1
        for i in range(1, min(base, n_max - base + 1)):
            v = 2 * rho[i] + rho[i + 1]
            if i == base - 2:
                v += 1
            elif i == base - 1:
                v += 2
            rho[base + i] = v
        k += 1
    return _check_prefix(rho, "rho")


def rect_rho(n: int) -> int:
    return rect_rho_prefix(n)[n]


def rect_r_prefix(n_max: int) -> list[int]:
    """r(0..n_max): rectangles added to the toothpick structure (A160125)."""
    rho = rect_rho_prefix(n_max)
    r = [0] * (n_max + 1)
    if n_max >= 3:
        r[3] = 2
    k = 2
    while (1 << k) <= n_max:
        base = 1 << k
        r[base] = (1 << k) - 2
        for i in range(1, min(base, n_max - base + 1)):
            r[base + i] = 4 * rho[i] + (2 if i == base - 1 else 0)
        k += 1
    return _check_prefix(r, "r")


def rect_r(n: int) -> int:
    return rect_r_prefix(n)[n]


def rect_R_prefix(n_max: int) -> list[int]:
    """R(0..n_max): total rectangles in the toothpick structure (A160124)."""
    acc, out = 0, []
    for v in rect_r_prefix(n_max):
        acc += v
        out.append(acc)
    return out


def rect_R(n: int) -> int:
    return rect_R_prefix(n)[n]


def eight_v1_prefix(n_max: int) -> list[int]:
    """v1(0..n_max): first corner sequence of the 8-neighbor automaton (A151747)."""
    v1 = [0] * (n_max + 1)
    for n, v in ((1, 1), (2, 3), (3, 5)):
        if n <= n_max:
            v1[n] = v
    k = 2
    while (1 << k) <= n_max:
        base = 1 << k
        v1[base] = (3 * k + 1) * (1 << (k - 2)) + 1
        if base + 1 <= n_max:
            v1[base + 1] = 3 * (1 << (k - 1)) + 3
        for i in range(2, min(base, n_max - base + 1)):
            v = 2 * v1[i] + v1[i + 1]
            if i == base - 1:
                v -= 1
            v1[base + i] = v
        k += 1
    return _check_prefix(v1, "v1")


def eight_v1(n: int) -> int:
    return eight_v1_prefix(n)[n]


def eight_v2_prefix(n_max: int) -> list[int]:
    """v2(0..n_max): second corner sequence of the 8-neighbor automaton (A151728)."""
    v1 = eight_v1_prefix(n_max + 1)
    v2 = [0] * (n_max + 1)
    if n_max >= 1:
        v2[1] = 1
    k = 1
    while (1 << k) <= n_max:
        base = 1 << k
        v2[base] = 3 * (1 << k) - 1
        for i in range(1, min(base, n_max - base + 1)):
            v = v2[i] + 2 * v1[i + 1]
            if i == base - 1:
                v -= 2
            v2[base + i] = v
        k += 1
    return _check_prefix(v2, "v2")


def eight_v2(n: int) -> int:
    return eight_v2_prefix(n)[n]


def eight_v_prefix(n_max: int) -> list[int]:
    """v(0..n_max): cells turned on per stage, 8-neighbor automaton (A151726)."""
    v2 = eight_v2_prefix(n_max)
    v = [0] * (n_max + 1)
    if n_max >= 1:
        v[1] = 1
    k = 1
    while (1 << k) <= n_max:
        base = 1 << k
        v[base] = 6 * (1 << k) - 4
        for i in range(1, min(base, n_max - base + 1)):
            v[base + i] = 4 * v2[i]
        k += 1
    return _check_prefix(v, "v")


def eight_v(n: int) -> int:
    return eight_v_prefix(n)[n]


def eight_V_prefix(n_max: int) -> list[int]:
    """V(0..n_max): total on cells, 8-neighbor automaton (A151725)."""
    acc, out = 0, []
    for v in eight_v_prefix(n_max):
        acc += v
        out.append(acc)
    return out


def f_sequence_prefix(n_max: int) -> list[int]:
    """F(0..n_max): the row-limit sequence of the shifted toothpick triangle (A147646)."""
    F = [0] * (n_max + 1)
    for n, v in ((0, 4), (1, 8), (2, 12), (3, 12)):
        if n <= n_max:
            F[n] = v
    k = 2
    while (1 << k) <= n_max:
        base = 1 << k
        for i in range(0, min(base, n_max - base + 1)):
            if i == base - 1:
                F[base + i] = (1 << (k + 2)) + 4
            elif i == base - 2:
                F[base + i] = 2 * F[i] + F[i + 1] - 4
            else:
                F[base + i] = 2 * F[i] + F[i + 1]
        k += 1
    return _check_prefix(F, "F")


def f_sequence(n: int) -> int:
    return f_sequence_prefix(n)[n]


def uw_u_prefix(n_max: int) -> list[int]:
    """u(0..n_max) for the one-of-four-neighbors automaton, by recurrence (A147582).

    Block form: u(2**k + 1) = 4 and u(2**k + 1 + i) = 3*u(i + 1) for
    1 <= i <= 2**k - 1.  (The shift inside the recursive term is forced
    by the published initial values; see tests.)
    """
    u = [0] * (n_max + 1)
    if n_max >= 1:
        u[1] = 1
    k = 0
    while (1 << k) + 1 <= n_max:
        base = (1 << k) + 1
        u[base] = 4
        for i in range(1, min(1 << k, n_max - base + 1)):
            u[base + i] = 3 * u[i + 1]
        k += 1
    return _check_prefix(u, "u")


def uw_u_recurrence(n: int) -> int:
    return uw_u_prefix(n)[n]


def uw_U_prefix(n_max: int) -> list[int]:
    """U(0..n_max): total on cells of the one-of-four automaton (A147562)."""
    acc, out = 0, []
    for v in uw_u_prefix(n_max):
        acc += v
        out.append(acc)
    return out


@dataclass(frozen=True)
class RecurrenceSpec:
    """Parameters of the generic product recurrence.

    The series x*(alpha + beta*x) * prod_{k >= start_k}
    (1 + gamma*x**(2**k - 1) + delta*x**(2**k)) has coefficients
    a(0) = 0, a(1) = alpha and, for n = 2**k + i >= 2,

        a(n) = alpha*gamma + beta*delta**(k-1)        if i == 0
             = delta*a(i) + gamma*a(i+1)              if 1 <= i <= 2**k - 2
             = delta*a(i) + gamma*a(i+1) - alpha*gamma**2   if i == 2**k - 1.

    start_k = 0 multiplies one extra factor (1 + gamma) + delta*x into
    the start_k = 1 series.
    """

    alpha: int
    beta: int
    gamma: int
    delta: int
    start_k: int = 1

    def __post_init__(self):
        if self.start_k not in (0, 1):
            raise ValueError("start_k must be 0 or 1")


def generic_theorem4_prefix(spec: RecurrenceSpec, n_max: int) -> list[int]:
    """a(0..n_max) for a RecurrenceSpec; intermediate values may be negative."""
    a = [0] * (n_max + 1)
    if n_max >= 1:
        a[1] = spec.alpha
    k = 1
    while (1 << k) <= n_max:
        base = 1 << k
        a[base] = spec.alpha * spec.gamma + spec.beta * spec.delta ** (k - 1)
        for i in range(1, min(base, n_max - base + 1)):
            v = spec.delta * a[i] + spec.gamma * a[i + 1]
            if i == base - 1:
                v -= spec.alpha * spec.gamma**2
            a[base + i] = v
        k += 1
    if spec.start_k == 0:
        g, d = spec.gamma, spec.delta
        a = [(1 + g) * a[n] + (d * a[n - 1] if n else 0) for n in range(n_max + 1)]
    if any(abs(v) > UINT128_MAX for v in a):
        raise OverflowError("theorem-4 prefix leaves the u128 range")
    return a


def generic_theorem4(spec: RecurrenceSpec, n: int) -> int:
    return generic_theorem4_prefix(spec, n)[n]
