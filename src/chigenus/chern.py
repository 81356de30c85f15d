"""Graded polynomials in the Chern classes c_1, c_2, ...

A monomial c_{l_1} * ... * c_{l_k} is indexed by the partition
(l_1 >= ... >= l_k); a :class:`ChernPolynomial` is a homogeneous linear
combination of such monomials with coefficients in Q[y], held in one
cleared integer form: a denominator D, the lcm of the reduced coefficient
denominators, over one column of ints per y-degree. Evaluation on Chern
numbers is then a dot product of those columns with the cleared numerators
of the values.

The module also provides the power sums of the Chern roots in this basis
(Newton's identities) and the truncated exponential of an inhomogeneous
combination, both computed on integer coefficients. Denominators are
cleared in one place (:func:`_clear`), for the constructor and for the
exponential's input alike, and the exponential hands its integer result to
the cleared form without making a ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul
from typing import Mapping, Union

from .partitions import Partition, merge, weight
from .ypoly import YPolynomial

Scalar = Union[int, Fraction, YPolynomial]

# Inhomogeneous linear combinations: the input of graded_exponential.
GradedTerms = dict[Partition, YPolynomial]


def _clear(polys: Mapping[Partition, YPolynomial]) -> tuple[int, dict[Partition, list[int]]]:
    """D, the lcm of every coefficient denominator, and each polynomial as the dense row D * coeff."""
    d = lcm(*[value.denominator for poly in polys.values() for _, value in poly.items()])
    rows = {}
    for part, poly in polys.items():
        row = [0] * (poly.degree + 1)
        for degree, value in poly.items():
            row[degree] = value.numerator * (d // value.denominator)
        rows[part] = row
    return d, rows


class ChernPolynomial:
    """Homogeneous combination of Chern monomials of a fixed total grade.

    The polynomial is held in one cleared integer form: ``denominator`` D,
    the lcm of the reduced denominators of its coefficients (1 for the zero
    polynomial); ``partitions``, those with a nonzero coefficient, in
    reverse-lexicographic order; and ``columns``, one tuple of ints per
    y-degree, with ``columns[d][i]`` equal to D times the y^d coefficient of
    ``partitions[i]``. Trailing all-zero degrees are dropped, so equal
    polynomials have equal forms.
    """

    __slots__ = ("grade", "denominator", "partitions", "columns")

    def __init__(self, grade: int, terms: Mapping[Partition, Scalar] | None = None) -> None:
        if grade < 0:
            raise ValueError("grade must be non-negative")
        polys: dict[Partition, YPolynomial] = {}
        if terms:
            for part, coeff in terms.items():
                part = tuple(part)
                if weight(part) != grade:
                    raise ValueError(f"partition {part} does not have weight {grade}")
                if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
                    raise ValueError(f"partition {part} is not sorted non-increasingly")
                polys[part] = coeff if isinstance(coeff, YPolynomial) else YPolynomial.constant(coeff)
        self._store(grade, *_clear(polys))

    @classmethod
    def _from_rows(cls, grade: int, scale: int, rows: Mapping[Partition, list[int]]) -> "ChernPolynomial":
        """The polynomial sum_p (sum_d rows[p][d] y^d) / scale, for partitions of weight grade.

        ``scale`` may be any common multiple of the denominators: the form is
        divided by the gcd of ``scale`` and every entry, which leaves the lcm
        of the reduced denominators.
        """
        poly = cls.__new__(cls)
        poly._store(grade, scale, rows)
        return poly

    def _store(self, grade: int, scale: int, rows: Mapping[Partition, list[int]]) -> None:
        parts = sorted([part for part, row in rows.items() if any(row)], reverse=True)
        width = max([len(rows[part]) for part in parts], default=0)
        columns = [[rows[p][d] if d < len(rows[p]) else 0 for p in parts] for d in range(width)]
        while columns and not any(columns[-1]):
            columns.pop()
        g = gcd(scale, *[x for column in columns for x in column])
        self.grade = grade
        self.denominator = scale // g
        self.partitions = tuple(parts)
        self.columns = tuple(tuple([x // g for x in column]) for column in columns)

    @classmethod
    def monomial(cls, partition: Partition, coeff: Scalar = 1) -> "ChernPolynomial":
        return cls(weight(partition), {tuple(partition): coeff})

    def items(self) -> list[tuple[Partition, YPolynomial]]:
        """Terms in canonical (reverse-lexicographic) partition order, read off the columns."""
        d = self.denominator
        return [
            (part, YPolynomial({k: Fraction(c[i], d) for k, c in enumerate(self.columns) if c[i]}))
            for i, part in enumerate(self.partitions)
        ]

    def __len__(self) -> int:
        return len(self.partitions)

    def evaluate(self, values: Mapping[Partition, Fraction | int]) -> YPolynomial:
        """Substitute numbers for the monomials: sum of coeff(y) * values[p].

        The sum runs on Python ints over the cleared form. With E the lcm of
        the denominators of the values read, the y^d coefficient is
        sum_i columns[d][i] * (E * values[partitions[i]]) / (D * E), made as
        one ``Fraction``.
        """
        try:
            picked = [values[part] for part in self.partitions]
        except KeyError as exc:
            raise ValueError(f"missing Chern number for partition {list(exc.args[0])}") from None
        # a list, not a generator: CPython sizes the argument tuple of f(*generator) by
        # resizing, and each such tuple ends in the interpreter's free list for its length
        e = lcm(*[v.denominator for v in picked])
        scaled = [v.numerator * (e // v.denominator) for v in picked]
        de = self.denominator * e
        totals = [sum(map(mul, column, scaled)) for column in self.columns]
        return YPolynomial({degree: Fraction(t, de) for degree, t in enumerate(totals) if t})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChernPolynomial):
            return NotImplemented
        return (
            self.grade == other.grade
            and self.denominator == other.denominator
            and self.partitions == other.partitions
            and self.columns == other.columns
        )

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


def graded_exponential(a: GradedTerms, cap: int) -> ChernPolynomial:
    """The weight-cap part of exp of a combination with no weight-0 part.

    Uses the grading derivative: if E = exp(A) then m*E_m is the weight-m
    part of (sum_k k*A_k) * E. The recurrence runs on dense lists of Python
    ints, indexed by y-degree. With D the lcm of every denominator in A, the
    weight-k part is held as D*A_k and the weight-m bucket as S_m*E_m, where
    S_m = m! * D^m; then

        S_m E_m = sum_k k * D^(k-1) * (m-1)!/(m-k)! * (D A_k) * (S_{m-k} E_{m-k})

    has integer terms only. Weights add, so a product never exceeds the cap
    and none is tested against it. The weight-cap bucket becomes the cleared
    form over S_cap directly; no lower weight is ever made a ``Fraction``.
    """
    if () in a:
        raise ValueError("exponential requires vanishing constant term")
    d, rows = _clear(a)
    scaled: list[list[tuple[Partition, list[int]]]] = [[] for _ in range(cap + 1)]
    for part, row in rows.items():
        w = weight(part)
        if w <= cap and row:
            scaled[w].append((part, row))
    exp_scaled: list[dict[Partition, list[int]]] = [{(): [1]}]
    for m in range(1, cap + 1):
        acc: dict[Partition, list[int]] = {}
        for k in range(1, m + 1):
            if not scaled[k]:
                continue
            factor = k * d ** (k - 1) * (factorial(m - 1) // factorial(m - k))
            for pa, ca in scaled[k]:
                fa = [factor * x for x in ca]
                for pb, cb in exp_scaled[m - k].items():
                    key = merge(pa, pb)
                    size = len(fa) + len(cb) - 1
                    out = acc.setdefault(key, [])
                    if len(out) < size:
                        out.extend([0] * (size - len(out)))
                    for i, x in enumerate(fa):
                        if x:
                            for j, v in enumerate(cb):
                                out[i + j] += x * v
        for coeffs in acc.values():
            while coeffs and not coeffs[-1]:
                coeffs.pop()
        exp_scaled.append({p: c for p, c in acc.items() if c})
    return ChernPolynomial._from_rows(cap, factorial(cap) * d**cap, exp_scaled[cap])
