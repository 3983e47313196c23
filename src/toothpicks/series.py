"""Truncated formal power series over exact integers.

A series holds coefficients for exponents 0..order-1; every operation
truncates at the order.  The infinite products expanded here have
three-term factors, so a dense accumulator multiplied by one sparse
factor at a time is the right tool: O(order * log order) for a whole
product.
"""

from .intutil import exact_div


class PowerSeries:
    """Dense coefficient vector with a fixed truncation order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)
        if not self.coeffs:
            raise ValueError("order must be >= 1")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        s = cls([0] * order)
        s.coeffs[0] = 1
        return s

    def __getitem__(self, n: int) -> int:
        if not 0 <= n < self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __repr__(self) -> str:
        head = ", ".join(map(str, self.coeffs[:8]))
        return f"PowerSeries([{head}{', ...' if self.order > 8 else ''}], order={self.order})"

    def add(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries([self.coeffs[i] + other.coeffs[i] for i in range(n)])

    def sub(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries([self.coeffs[i] - other.coeffs[i] for i in range(n)])

    def scale(self, c: int) -> "PowerSeries":
        return PowerSeries([c * a for a in self.coeffs])

    def shift(self, k: int) -> "PowerSeries":
        """Multiply by x**k (coefficients shifted up, order preserved)."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        return PowerSeries(([0] * k + self.coeffs)[: self.order])

    def divide_one_minus_x(self) -> "PowerSeries":
        """Divide by (1 - x): running sums."""
        out, acc = [], 0
        for a in self.coeffs:
            acc += a
            out.append(acc)
        return PowerSeries(out)

    def divide_linear(self, c: int) -> "PowerSeries":
        """Divide by the unit (1 + c*x) via b(n) = a(n) - c*b(n-1)."""
        out = []
        prev = 0
        for a in self.coeffs:
            prev = a - c * prev
            out.append(prev)
        return PowerSeries(out)

    def exact_div_scalar(self, d: int) -> "PowerSeries":
        """Divide every coefficient by d, requiring exactness."""
        return PowerSeries([exact_div(a, d) for a in self.coeffs])

    def mul_sparse(self, terms: dict[int, int]) -> "PowerSeries":
        """Multiply in place-ish by a sparse polynomial {exponent: coefficient}."""
        out = [0] * self.order
        for e, c in terms.items():
            if c == 0:
                continue
            for j in range(e, self.order):
                out[j] += c * self.coeffs[j - e]
        return PowerSeries(out)


def product_expand(gamma: int, delta: int, start_k: int, order: int) -> PowerSeries:
    """Expand prod_{k >= start_k} (1 + gamma*x**(2**k - 1) + delta*x**(2**k)).

    Only factors with 2**k - 1 < order can contribute and are multiplied in.
    Each factor updates the coefficients from their old values, so the
    k = 0 factor, (1 + gamma) + delta*x, needs no case of its own.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if start_k < 0:
        raise ValueError("start_k must be >= 0")
    c = [1] + [0] * (order - 1)
    for k in range(start_k, order.bit_length()):  # 2**k - 1 < order
        e = (1 << k) - 1
        c[e:] = [a + gamma * b + delta * d for a, b, d in zip(c[e:], c, [0] + c)]
    return PowerSeries(c)


def geometric_weight_product(delta: int, order: int) -> PowerSeries:
    """Expand prod_{k >= 0} (1 + delta*x**(2**k)); coefficient n is delta**wt(n)."""
    return product_expand(0, delta, 0, order)


def theorem4_series(
    alpha: int, beta: int, gamma: int, delta: int, start_k: int, order: int
) -> PowerSeries:
    """x*(alpha + beta*x) * prod_{k >= start_k} (1 + gamma*x**(2**k-1) + delta*x**(2**k))."""
    p = product_expand(gamma, delta, start_k, order)
    return p.mul_sparse({1: alpha, 2: beta})


def corner_gf(order: int) -> PowerSeries:
    """Series whose coefficients are the corner counts c(n) (A152980)."""
    return theorem4_series(1, 1, 1, 2, 1, order)


def f_gf(order: int) -> PowerSeries:
    """Series for F(n) (A147646): 2 * prod_{k >= 0} (1 + x**(2**k-1) + 2x**(2**k))."""
    return product_expand(1, 2, 0, order).scale(2)


def toothpick_gf(order: int) -> PowerSeries:
    """Series for t(n) (A139251): x/(1+2x) * (1 + 2x * prod_{k>=0}(...))."""
    inner = PowerSeries.one(order).add(product_expand(1, 2, 0, order).shift(1).scale(2))
    return inner.divide_linear(2).shift(1)


def toothpick_total_gf(order: int) -> PowerSeries:
    """Series for T(n) (A139250): the t(n) series divided by (1 - x)."""
    return toothpick_gf(order).divide_one_minus_x()


def uw_gf(order: int) -> PowerSeries:
    """Series for u(n) (A147582): x * (4 * prod_{k>=0}(1 + 3x**(2**k)) - 1) / 3.

    The rational constants are cleared by an exact coefficient-wise
    division by 3; a remainder would mean the expansion is wrong.
    """
    p = geometric_weight_product(3, order)
    numer = p.scale(4).sub(PowerSeries.one(order))
    return numer.exact_div_scalar(3).shift(1)


def a151550_gf(order: int) -> PowerSeries:
    """Series for A151550: prod_{k >= 1} (1 + x**(2**k-1) + 2x**(2**k))."""
    return product_expand(1, 2, 1, order)


def a160573_gf(order: int) -> PowerSeries:
    """Series for A160573: prod_{k >= 0} (1 + x**(2**k-1) + x**(2**k))."""
    return product_expand(1, 1, 0, order)
