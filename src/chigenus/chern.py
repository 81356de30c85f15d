"""Graded polynomials in the Chern classes c_1, c_2, ...

A monomial c_{l_1} * ... * c_{l_k} is indexed by the partition
(l_1 >= ... >= l_k); a :class:`ChernPolynomial` is a homogeneous linear
combination of such monomials with coefficients in Q[y]. The module also
provides the power sums of the Chern roots in this basis (Newton's
identities) and truncated product/exponential helpers for inhomogeneous
intermediate values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .partitions import Partition, merge, weight
from .ypoly import YPolynomial

Scalar = Union[int, Fraction, YPolynomial]

# Inhomogeneous linear combinations, used for intermediates only.
GradedTerms = dict[Partition, YPolynomial]


class ChernPolynomial:
    """Homogeneous combination of Chern monomials of a fixed total grade."""

    __slots__ = ("grade", "_terms")

    def __init__(self, grade: int, terms: Mapping[Partition, Scalar] | None = None) -> None:
        if grade < 0:
            raise ValueError("grade must be non-negative")
        clean: GradedTerms = {}
        if terms:
            for part, coeff in terms.items():
                part = tuple(part)
                if weight(part) != grade:
                    raise ValueError(f"partition {part} does not have weight {grade}")
                if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
                    raise ValueError(f"partition {part} is not sorted non-increasingly")
                poly = coeff if isinstance(coeff, YPolynomial) else YPolynomial.constant(coeff)
                if not poly.is_zero():
                    clean[part] = poly
        self.grade = grade
        self._terms = clean

    @classmethod
    def zero(cls, grade: int) -> "ChernPolynomial":
        return cls(grade)

    @classmethod
    def monomial(cls, partition: Partition, coeff: Scalar = 1) -> "ChernPolynomial":
        return cls(weight(partition), {tuple(partition): coeff})

    def items(self) -> list[tuple[Partition, YPolynomial]]:
        """Terms in canonical (reverse-lexicographic) partition order."""
        return sorted(self._terms.items(), key=lambda kv: kv[0], reverse=True)

    def coefficient(self, partition: Partition) -> YPolynomial:
        return self._terms.get(tuple(partition), YPolynomial.zero())

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "ChernPolynomial") -> "ChernPolynomial":
        if self.grade != other.grade:
            raise ValueError(f"grade mismatch: {self.grade} != {other.grade}")
        merged = dict(self._terms)
        for part, poly in other._terms.items():
            merged[part] = merged.get(part, YPolynomial.zero()) + poly
        return ChernPolynomial(self.grade, merged)

    def __sub__(self, other: "ChernPolynomial") -> "ChernPolynomial":
        return self + (-other)

    def __neg__(self) -> "ChernPolynomial":
        return ChernPolynomial(self.grade, {p: -c for p, c in self._terms.items()})

    def scale(self, factor: Scalar) -> "ChernPolynomial":
        f = factor if isinstance(factor, YPolynomial) else YPolynomial.constant(factor)
        return ChernPolynomial(self.grade, {p: c * f for p, c in self._terms.items()})

    def __mul__(self, other: "ChernPolynomial") -> "ChernPolynomial":
        out: GradedTerms = {}
        for pa, ca in self._terms.items():
            for pb, cb in other._terms.items():
                key = merge(pa, pb)
                prod = ca * cb
                out[key] = out.get(key, YPolynomial.zero()) + prod
        return ChernPolynomial(self.grade + other.grade, out)

    def evaluate(self, values: Mapping[Partition, Fraction]) -> YPolynomial:
        """Substitute numbers for the monomials: sum of coeff(y) * values[p]."""
        total = YPolynomial.zero()
        for part, coeff in self._terms.items():
            try:
                v = values[part]
            except KeyError:
                raise ValueError(f"missing Chern number for partition {list(part)}") from None
            total = total + coeff * v
        return total

    def constant_coefficients(self) -> dict[Partition, Fraction]:
        """Coefficient map if every coefficient is a constant polynomial."""
        out = {}
        for part, coeff in self._terms.items():
            out[part] = coeff.constant_value()
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChernPolynomial):
            return NotImplemented
        return self.grade == other.grade and self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for part, coeff in self.items():
            mono = "".join(f"c{i}" for i in part) or "1"
            chunks.append(f"({coeff})*{mono}")
        return " + ".join(chunks)


def power_sum_in_chern(k: int, n: int) -> ChernPolynomial:
    """The k-th power sum of the Chern roots as a degree-k Chern polynomial.

    Newton's identities over the elementary symmetric basis, with c_j = 0
    for j > n (so k may exceed n).
    """
    if k < 1:
        raise ValueError("power sum index must be positive")
    if n < 0:
        raise ValueError("number of classes must be non-negative")

    def elem(i: int) -> ChernPolynomial:
        if i <= n:
            return ChernPolynomial.monomial((i,))
        return ChernPolynomial.zero(i)

    sums: list[ChernPolynomial] = [ChernPolynomial.zero(0)]  # placeholder for p_0
    for m in range(1, k + 1):
        sign = 1 if (m - 1) % 2 == 0 else -1
        acc = elem(m).scale(sign * m)
        for i in range(1, m):
            term = elem(i) * sums[m - i]
            acc = acc + term.scale(1 if (i - 1) % 2 == 0 else -1)
        sums.append(acc)
    return sums[k]


def graded_product(a: GradedTerms, b: GradedTerms, cap: int) -> GradedTerms:
    """Product of two inhomogeneous combinations, discarding weight > cap."""
    out: GradedTerms = {}
    for pa, ca in a.items():
        wa = weight(pa)
        for pb, cb in b.items():
            if wa + weight(pb) > cap:
                continue
            key = merge(pa, pb)
            out[key] = out.get(key, YPolynomial.zero()) + ca * cb
    return {p: c for p, c in out.items() if not c.is_zero()}


def graded_exponential(a: GradedTerms, cap: int) -> GradedTerms:
    """exp of a combination with no weight-0 part, truncated at weight cap.

    Uses the grading derivative: if E = exp(A) then m*E_m is the weight-m
    part of (sum_k k*A_k) * E, giving a recurrence over weight buckets that
    divides by integers only.
    """
    if () in a:
        raise ValueError("exponential requires vanishing constant term")
    buckets: list[GradedTerms] = [dict() for _ in range(cap + 1)]
    for part, coeff in a.items():
        w = weight(part)
        if w <= cap:
            buckets[w][part] = coeff
    exp_buckets: list[GradedTerms] = [dict() for _ in range(cap + 1)]
    exp_buckets[0] = {(): YPolynomial.one()}
    for m in range(1, cap + 1):
        acc: GradedTerms = {}
        for k in range(1, m + 1):
            if not buckets[k]:
                continue
            piece = graded_product(buckets[k], exp_buckets[m - k], cap)
            ratio = Fraction(k, m)
            for part, coeff in piece.items():
                acc[part] = acc.get(part, YPolynomial.zero()) + coeff * ratio
        exp_buckets[m] = {p: c for p, c in acc.items() if not c.is_zero()}
    combined: GradedTerms = {}
    for bucket in exp_buckets:
        combined.update(bucket)
    return combined


def graded_part(a: GradedTerms, grade: int) -> ChernPolynomial:
    """Extract the homogeneous piece of the given weight."""
    return ChernPolynomial(grade, {p: c for p, c in a.items() if weight(p) == grade})
