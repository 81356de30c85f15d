"""Graded polynomials in the Chern classes c_1, c_2, ...

A monomial c_{l_1} * ... * c_{l_k} is indexed by the partition
(l_1 >= ... >= l_k); a :class:`ChernPolynomial` is a homogeneous linear
combination of such monomials with coefficients in Q[y], held in the one
y-polynomial form of :mod:`chigenus.ypoly`: one integer row per partition,
in ``YPolynomial.row``'s convention, over one shared denominator D, put in
canonical form by :func:`chigenus.ypoly.reduce_rows`. Evaluation on Chern
numbers sums those rows, degree by degree, weighted by the values as
:func:`chigenus.ypoly.clear` puts them over one denominator, or as a
manifold record already holds them; the exponential's rows are multiplied
and summed by ``ypoly`` too.

The module also provides the power sums of the Chern roots in this basis
(Newton's identities) and the truncated exponential of an inhomogeneous
combination, both computed on integer coefficients. The exponential takes
its exponent factored, one piece l_k(y) p_k(c) per weight k with l_k a
:class:`~chigenus.ypoly.YPolynomial` and p_k an integer Chern polynomial,
reads each l_k's integer row over its denominator and holds each weight of
the result as a :class:`ChernPolynomial`, whose rows the next weights read.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import zip_longest
from math import lcm
from operator import mul
from typing import Mapping, Sequence, Union

from .partitions import Partition, merge
from .ypoly import YPolynomial, add_into, clear, convolve, reduce_rows, require_exact, slots_equal

Scalar = Union[int, Fraction, YPolynomial]

# One weight-k piece l(y) * p(c) of the input of graded_exponential: l as a
# y-polynomial, p as integer coefficients on partitions of weight k.
Piece = tuple[YPolynomial, Mapping[Partition, int]]


class ChernPolynomial:
    """Homogeneous combination of Chern monomials of a fixed total grade.

    The polynomial is held in one cleared integer form: ``denominator`` D,
    the lcm of the reduced denominators of its coefficients (1 for the zero
    polynomial); ``partitions``, those with a nonzero coefficient, in
    reverse-lexicographic order; and ``rows``, one tuple of ints per
    partition, with ``rows[i][d]`` equal to D times the y^d coefficient of
    ``partitions[i]``. No row ends in 0, as no ``YPolynomial.row`` does, and
    ``ypoly.reduce_rows`` leaves D and the rows coprime, so equal
    polynomials have equal forms.
    """

    __slots__ = ("grade", "denominator", "partitions", "rows")

    def __init__(self, grade: int, terms: Mapping[Partition, Scalar] | None = None) -> None:
        if grade < 0:
            raise ValueError("grade must be non-negative")
        polys: dict[Partition, YPolynomial] = {}
        for part, coeff in (terms or {}).items():
            part = tuple(part)
            if sum(part) != grade:
                raise ValueError(f"partition {part} does not have weight {grade}")
            if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
                raise ValueError(f"partition {part} is not sorted non-increasingly")
            polys[part] = coeff if isinstance(coeff, YPolynomial) else YPolynomial.constant(coeff)
        d = lcm(*[poly.denominator for poly in polys.values()])
        rows = {part: [c * (d // poly.denominator) for c in poly.row] for part, poly in polys.items()}
        self._store(grade, d, rows)

    @classmethod
    def _from_rows(cls, grade: int, scale: int, rows: Mapping[Partition, list[int]]) -> "ChernPolynomial":
        """The polynomial sum_p (sum_d rows[p][d] y^d) / scale, for partitions of weight grade.

        ``scale`` may be any common multiple of the denominators, and a row may
        be all zeros or end in zeros: ``ypoly.reduce_rows`` trims the rows and
        divides ``scale`` and every entry by their common divisor, which leaves
        the lcm of the reduced denominators.
        """
        poly = cls.__new__(cls)
        poly._store(grade, scale, rows)
        return poly

    def _store(self, grade: int, scale: int, rows: Mapping[Partition, list[int]]) -> None:
        parts = sorted([part for part, row in rows.items() if any(row)], reverse=True)
        self.grade, self.partitions = grade, tuple(parts)
        self.denominator, self.rows = reduce_rows(scale, [rows[part] for part in parts])

    def items(self) -> list[tuple[Partition, YPolynomial]]:
        """Terms in canonical (reverse-lexicographic) partition order, each row read as a ``YPolynomial``."""
        d = self.denominator
        return [(part, YPolynomial.from_row(d, row)) for part, row in zip(self.partitions, self.rows)]

    def __len__(self) -> int:
        return len(self.partitions)

    def evaluate(self, values: Mapping[Partition, Fraction | int]) -> YPolynomial:
        """Substitute numbers for the monomials: sum of coeff(y) * values[p].

        The sum runs on Python ints over the cleared form. With the values
        read as ``ypoly.clear`` gives them, ints v_i over one E, the y^d
        coefficient is sum_i rows[i][d] * v_i / (D * E), a row past its end
        counting as 0, so the result is one integer row over D * E. The
        values must be ``int`` or ``Fraction``.
        """
        try:
            picked = [values[part] for part in self.partitions]
        except KeyError as exc:
            raise ValueError(f"missing Chern number for partition {list(exc.args[0])}") from None
        require_exact("Chern numbers", picked)
        return self.evaluate_cleared(*clear(picked))

    def evaluate_cleared(self, scale: int, values: Sequence[int]) -> YPolynomial:
        """:meth:`evaluate` on values given cleared: ``values[i] / scale`` for ``partitions[i]``."""
        totals = [sum(map(mul, column, values)) for column in zip_longest(*self.rows, fillvalue=0)]
        return YPolynomial.from_row(self.denominator * scale, totals)

    __eq__ = slots_equal

    def __repr__(self) -> str:
        if not self.partitions:
            return "0"
        chunks = []
        for part, coeff in self.items():
            mono = "".join(f"c{i}" for i in part) or "1"
            chunks.append(f"({coeff})*{mono}")
        return " + ".join(chunks)


def integer_power_sums(up_to: int, n: int) -> list[dict[Partition, int]]:
    """p_0..p_up_to of the Chern roots, each a map partition -> integer coefficient.

    Newton's identities p_m = (-1)^(m-1) m c_m + sum_{i<m} (-1)^(i-1) c_i p_{m-i}
    over the elementary symmetric basis, with c_j = 0 for j > n (so up_to may
    exceed n). One pass builds every p_m; p_0 is left empty.
    """
    sums: list[dict[Partition, int]] = [{}]
    for m in range(1, up_to + 1):
        acc: dict[Partition, int] = {}
        if m <= n:
            acc[(m,)] = m if m % 2 else -m
        for i in range(1, min(m, n + 1)):
            sign = 1 if i % 2 else -1
            for part, coeff in sums[m - i].items():
                key = merge((i,), part)
                acc[key] = acc.get(key, 0) + sign * coeff
        sums.append({p: c for p, c in acc.items() if c})
    return sums


def power_sum_in_chern(k: int, n: int) -> ChernPolynomial:
    """The k-th power sum of the Chern roots as a degree-k Chern polynomial.

    Newton's identities over the elementary symmetric basis, with c_j = 0
    for j > n (so k may exceed n).
    """
    if k < 1:
        raise ValueError("power sum index must be positive")
    if n < 0:
        raise ValueError("number of classes must be non-negative")
    return ChernPolynomial(k, integer_power_sums(k, n)[k])


def graded_exponential(pieces: Mapping[int, Piece], cap: int) -> ChernPolynomial:
    """The weight-cap part of exp(sum_k l_k(y) p_k(c)), with pieces[k] = l_k p_k of weight k.

    Uses the grading derivative: if E = exp(A) then m*E_m is the weight-m
    part of (sum_k k*A_k) * E. The recurrence runs on dense lists of Python
    ints, indexed by y-degree. Each weight m is held as a grade-m
    :class:`ChernPolynomial`, integer rows R_m over its denominator s_m,
    E_m = R_m / s_m, with s_0 = 1 and R_0 = 1. With l_k = row_k / d_k (its
    ``row`` over its ``denominator``) and L = m * lcm_k(d_k * s_{m-k}),

        L E_m = sum_k k * L / (m d_k s_{m-k}) * row_k * p_k * R_{m-k}

    has integer terms only. A piece is factored, so row_k is convolved with
    each row of R_{m-k} once and the result is added into every partition of
    p_k times its coefficient and that factor. The rows over L become the
    weight-m polynomial, whose cleared form divides them and L by their
    greatest common divisor, so s_m is the true denominator of its weight.
    Weights add, so a product never exceeds the cap and none is tested
    against it. The weight-cap polynomial is the result.
    """
    if 0 in pieces:
        raise ValueError("exponential requires vanishing constant term")
    weights = [ChernPolynomial._from_rows(0, 1, {(): [1]})]
    for m in range(1, cap + 1):
        used = [(k, ell.denominator, ell.row, c) for k, (ell, c) in pieces.items() if k <= m]
        scale = m * lcm(*[den * weights[m - k].denominator for k, den, _, _ in used])
        acc: dict[Partition, list[int]] = defaultdict(list)
        for k, den, row, chern in used:
            lower = weights[m - k]
            factor = k * scale // (m * den * lower.denominator)
            for pb, cb in zip(lower.partitions, lower.rows):
                conv = convolve(row, cb)
                for pa, c in chern.items():
                    add_into(acc[merge(pa, pb)], conv, factor * c)
        weights.append(ChernPolynomial._from_rows(m, scale, acc))
    return weights[cap]
