"""Graded polynomials in the Chern classes c_1, c_2, ...

A monomial c_{l_1} * ... * c_{l_k} is indexed by the partition
(l_1 >= ... >= l_k); a :class:`ChernPolynomial` is a homogeneous linear
combination of such monomials with coefficients in Q[y]. Evaluation on
Chern numbers runs on integers: on its first evaluation a polynomial keeps
a cleared form, one lcm denominator D of all its coefficients and the
integers D * coefficient in one dense column per y-degree, and every
evaluation is a dot product of those columns with the cleared numerators
of the values.

The module also provides the power sums of the Chern roots in this basis
(Newton's identities) and the truncated exponential of inhomogeneous
intermediate values, both computed on integer coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import mul
from typing import Mapping, Union

from .partitions import Partition, merge, weight
from .ypoly import YPolynomial

Scalar = Union[int, Fraction, YPolynomial]

# Inhomogeneous linear combinations, used for intermediates only.
GradedTerms = dict[Partition, YPolynomial]


class ChernPolynomial:
    """Homogeneous combination of Chern monomials of a fixed total grade."""

    __slots__ = ("grade", "_terms", "_cleared")

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
        self._cleared: tuple[int, tuple[Partition, ...], list[list[int]]] | None = None

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

    def evaluate(self, values: Mapping[Partition, Fraction | int]) -> YPolynomial:
        """Substitute numbers for the monomials: sum of coeff(y) * values[p].

        The sum runs on Python ints over the cleared form, built on the first
        call and kept: D, the lcm of the denominators of every coefficient,
        and for each y-degree d the column of D * coeff_p[d] over the
        partitions p. With E the lcm of the denominators of the values read,
        the y^d coefficient is sum_p column_d[p] * (E * values[p]) / (D * E),
        made as one ``Fraction``.
        """
        if self._cleared is None:
            self._cleared = self._clear()
        d, parts, columns = self._cleared
        try:
            picked = [values[part] for part in parts]
        except KeyError as exc:
            raise ValueError(f"missing Chern number for partition {list(exc.args[0])}") from None
        # a list, not a generator: CPython sizes the argument tuple of f(*generator) by
        # resizing, and each such tuple ends in the interpreter's free list for its length
        e = lcm(*[v.denominator for v in picked])
        scaled = [v.numerator * (e // v.denominator) for v in picked]
        totals = [sum(map(mul, column, scaled)) for column in columns]
        return YPolynomial({degree: Fraction(t, d * e) for degree, t in enumerate(totals) if t})

    def _clear(self) -> tuple[int, tuple[Partition, ...], list[list[int]]]:
        """The cleared form: D, the partitions in term order, one int column per y-degree."""
        terms = self._terms
        d = lcm(*[value.denominator for poly in terms.values() for _, value in poly.items()])
        width = max((poly.degree for poly in terms.values()), default=-1) + 1
        columns = [[0] * len(terms) for _ in range(width)]
        for i, poly in enumerate(terms.values()):
            for degree, value in poly.items():
                columns[degree][i] = value.numerator * (d // value.denominator)
        return d, tuple(terms), columns

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


def graded_exponential(a: GradedTerms, cap: int) -> GradedTerms:
    """exp of a combination with no weight-0 part, truncated at weight cap.

    Uses the grading derivative: if E = exp(A) then m*E_m is the weight-m
    part of (sum_k k*A_k) * E. The recurrence runs on dense lists of Python
    ints, indexed by y-degree. With D the lcm of every denominator in A, the
    weight-k part is held as D*A_k and the weight-m bucket as S_m*E_m, where
    S_m = m! * D^m; then

        S_m E_m = sum_k k * D^(k-1) * (m-1)!/(m-k)! * (D A_k) * (S_{m-k} E_{m-k})

    has integer terms only. Weights add, so a product never exceeds the cap
    and none is tested against it. Each output coefficient is made as one
    ``Fraction``, the numerator over S_m.
    """
    if () in a:
        raise ValueError("exponential requires vanishing constant term")
    d = lcm(*(value.denominator for poly in a.values() for _, value in poly.items()))
    scaled: list[list[tuple[Partition, list[int]]]] = [[] for _ in range(cap + 1)]
    for part, poly in a.items():
        w = weight(part)
        if w <= cap and not poly.is_zero():
            dense = [0] * (poly.degree + 1)
            for degree, value in poly.items():
                dense[degree] = value.numerator * (d // value.denominator)
            scaled[w].append((part, dense))
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
    combined: GradedTerms = {}
    scale = 1
    for m, bucket in enumerate(exp_scaled):
        if m:
            scale *= m * d
        for part, coeffs in bucket.items():
            combined[part] = YPolynomial(
                {degree: Fraction(c, scale) for degree, c in enumerate(coeffs) if c}
            )
    return combined


def graded_part(a: GradedTerms, grade: int) -> ChernPolynomial:
    """Extract the homogeneous piece of the given weight."""
    return ChernPolynomial(grade, {p: c for p, c in a.items() if weight(p) == grade})
