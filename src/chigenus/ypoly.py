"""Sparse exact polynomials in the genus variable y.

Every coefficient is a ``fractions.Fraction``; nothing in the package ever
rounds. Zero coefficients are never stored, so the zero polynomial carries
an empty map and prints as ``"0"``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

Scalar = Union[int, Fraction]


class YPolynomial:
    """A polynomial in y over the rationals, stored degree -> coefficient.

    Instances are immutable by convention: every operation returns a new
    object and ``_coeffs`` is never mutated after construction.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None) -> None:
        clean: dict[int, Fraction] = {}
        if coeffs:
            for degree, value in coeffs.items():
                if degree < 0:
                    raise ValueError(f"negative degree {degree}")
                q = Fraction(value)
                if q != 0:
                    clean[int(degree)] = q
        self._coeffs = clean

    @classmethod
    def zero(cls) -> "YPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "YPolynomial":
        return cls({0: 1})

    @classmethod
    def constant(cls, value: Scalar) -> "YPolynomial":
        return cls({0: value})

    @classmethod
    def variable(cls) -> "YPolynomial":
        return cls({1: 1})

    def coefficient(self, degree: int) -> Fraction:
        return self._coeffs.get(degree, Fraction(0))

    def items(self) -> list[tuple[int, Fraction]]:
        return sorted(self._coeffs.items())

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else -1

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_constant(self) -> bool:
        return not self._coeffs or set(self._coeffs) == {0}

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant polynomial")
        return self.coefficient(0)

    def __add__(self, other: "YPolynomial | Scalar") -> "YPolynomial":
        other = _coerce(other)
        merged = dict(self._coeffs)
        for degree, value in other._coeffs.items():
            merged[degree] = merged.get(degree, Fraction(0)) + value
        return YPolynomial(merged)

    __radd__ = __add__

    def __neg__(self) -> "YPolynomial":
        return YPolynomial({d: -v for d, v in self._coeffs.items()})

    def __sub__(self, other: "YPolynomial | Scalar") -> "YPolynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> "YPolynomial":
        return _coerce(other) - self

    def __mul__(self, other: "YPolynomial | Scalar") -> "YPolynomial":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return YPolynomial()
            return YPolynomial({d: v * other for d, v in self._coeffs.items()})
        product: dict[int, Fraction] = {}
        for da, va in self._coeffs.items():
            for db, vb in other._coeffs.items():
                d = da + db
                product[d] = product.get(d, Fraction(0)) + va * vb
        return YPolynomial(product)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "YPolynomial":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = YPolynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, YPolynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self._coeffs == YPolynomial.constant(other)._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._coeffs.items())))

    def evaluate(self, value: Scalar) -> Fraction:
        point = Fraction(value)
        return sum((v * point**d for d, v in self._coeffs.items()), Fraction(0))

    def negate_y(self) -> "YPolynomial":
        """Substitute y -> -y."""
        return YPolynomial({d: v if d % 2 == 0 else -v for d, v in self._coeffs.items()})

    def stretch(self, factor: int) -> "YPolynomial":
        """Substitute y -> y**factor."""
        if factor <= 0:
            raise ValueError("stretch factor must be positive")
        return YPolynomial({d * factor: v for d, v in self._coeffs.items()})

    def shift_degree(self, k: int) -> "YPolynomial":
        """Multiply by y**k."""
        if k < 0:
            raise ValueError("cannot shift to negative degrees")
        return YPolynomial({d + k: v for d, v in self._coeffs.items()})

    def coefficients_dense(self, length: int | None = None) -> list[Fraction]:
        """Dense coefficient list for degrees 0..length-1 (default degree+1)."""
        size = (self.degree + 1) if length is None else length
        dense = [Fraction(0)] * max(size, 0)
        for d, v in self._coeffs.items():
            if d < size:
                dense[d] = v
        return dense

    def __repr__(self) -> str:
        if not self._coeffs:
            return "0"
        chunks = []
        for d, v in self.items():
            if d == 0:
                chunks.append(str(v))
            elif d == 1:
                chunks.append(f"{v}*y")
            else:
                chunks.append(f"{v}*y^{d}")
        return " + ".join(chunks)


def _coerce(value: "YPolynomial | Scalar") -> YPolynomial:
    if isinstance(value, YPolynomial):
        return value
    return YPolynomial.constant(value)
