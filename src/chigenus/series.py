"""Truncated formal power series in one variable x over Q[y]: a reference route.

A series of order N stores the coefficients of x^0 .. x^(N-1) as
:class:`~chigenus.ypoly.YPolynomial` values and silently discards anything
of higher order. The genus table takes log Q in closed form (see
:mod:`chigenus.engine`), and no command loads this module: it is the
reference route that the tests check that closed form against, kept
because the benchmark's tracer (``perfbench/tracing.py``) names
``TruncatedSeries.log`` and ``engine.normalized_series``. The logarithm's
derivative recurrence only divides by integers, so coefficients stay in Q[y].
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .ypoly import YPolynomial, slots_equal

Coefficient = Union[YPolynomial, int, Fraction]


class TruncatedSeries:
    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence[Coefficient], order: int | None = None) -> None:
        polys = [c if isinstance(c, YPolynomial) else YPolynomial.constant(c) for c in coeffs]
        if order is None:
            order = len(polys)
        if order < 1:
            raise ValueError("series order must be at least 1")
        if len(polys) > order:
            polys = polys[:order]
        polys.extend(YPolynomial.zero() for _ in range(order - len(polys)))
        self.order = order
        self.coeffs = polys

    def coefficient(self, k: int) -> YPolynomial:
        if not 0 <= k < self.order:
            raise IndexError(f"coefficient x^{k} outside truncation order {self.order}")
        return self.coeffs[k]

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} != {other.order}")

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product, truncated at the common order."""
        self._check_order(other)
        out = [YPolynomial.zero() for _ in range(self.order)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(self.order - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(out, self.order)

    def log(self) -> "TruncatedSeries":
        """Formal logarithm; requires constant coefficient exactly 1.

        From b' * a = a' one gets b_m = a_m - (1/m) * sum_{j<m} j b_j a_{m-j}.
        """
        if self.coeffs[0] != YPolynomial.one():
            raise ValueError("log requires constant coefficient 1")
        a = self.coeffs
        b = [YPolynomial.zero() for _ in range(self.order)]
        for m in range(1, self.order):
            acc = a[m]
            for j in range(1, m):
                acc = acc - b[j] * a[m - j] * Fraction(j, m)
            b[m] = acc
        return TruncatedSeries(b, self.order)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires constant coefficient exactly 1."""
        if self.coeffs[0] != YPolynomial.one():
            raise ValueError("inverse requires constant coefficient 1")
        a = self.coeffs
        b = [YPolynomial.zero() for _ in range(self.order)]
        b[0] = YPolynomial.one()
        for m in range(1, self.order):
            acc = YPolynomial.zero()
            for k in range(1, m + 1):
                if not a[k].is_zero():
                    acc = acc + a[k] * b[m - k]
            b[m] = -acc
        return TruncatedSeries(b, self.order)

    __eq__ = slots_equal

