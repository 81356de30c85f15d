"""Exact polynomials in the genus variable y: one integer row over one denominator.

The y^d coefficient is ``row[d] / denominator``. The denominator is
positive, it and the row have gcd 1 and the row has no trailing zero, so
equal polynomials have equal forms; the zero polynomial is 1 over ``()``
and prints as ``"0"``. Arithmetic runs on Python ints and coefficients are
read out as ``fractions.Fraction`` values; nothing ever rounds.

The module is the one home of that cleared-row arithmetic, which the Chern
tables, the K-expansion and the inertia use too: :func:`reduce_rows`, the
one normalizer, puts rows over one scale in that canonical form (a
``YPolynomial`` is one such row, a ``ChernPolynomial`` one per partition);
:func:`clear`, :func:`convolve` and :func:`add_into` build them. It is also
the one home of the guards of the exact-data records (manifolds, Chern
polynomials, fixed-point data, Betti profiles): :func:`require_exact`
refuses, by type, every value that is not exact data (a ``bool`` is not,
though Python counts it an ``int``), :func:`require_counts` every value
that is not a non-negative ``int``, and :func:`slots_equal` is their one
``__eq__``, and ``YPolynomial``'s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


def slots_equal(self: object, other: object) -> bool:
    """The ``__eq__`` of the exact-data records: same class and every slot equal."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return [getattr(self, f) for f in self.__slots__] == [getattr(other, f) for f in self.__slots__]


class YPolynomial:
    """A polynomial in y over the rationals, ``sum_d row[d] y^d / denominator``.

    Instances are immutable by convention: every operation returns a new
    object and neither slot is rebound after construction. A polynomial
    equals only a ``YPolynomial``, never a scalar, so equal values hash alike.
    """

    __slots__ = ("denominator", "row")

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None) -> None:
        """The polynomial sum_d coeffs[d] y^d, for ``int`` or ``Fraction`` coefficients."""
        coeffs = coeffs or {}
        require_exact("coefficients", coeffs.values())
        require_counts("degrees", coeffs)
        terms = {degree: value for degree, value in coeffs.items() if value}
        self._store(*clear([terms.get(d, 0) for d in range(max(terms, default=-1) + 1)]))

    @classmethod
    def from_row(cls, denominator: int, row: Sequence[int]) -> "YPolynomial":
        """sum_d row[d] y^d / denominator for any positive denominator, reduced to the canonical form."""
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        poly = cls.__new__(cls)
        poly._store(denominator, row)
        return poly

    def _store(self, denominator: int, row: Sequence[int]) -> None:
        self.denominator, (self.row,) = reduce_rows(denominator, (row,))

    @classmethod
    def zero(cls) -> "YPolynomial":
        return cls.from_row(1, ())

    @classmethod
    def one(cls) -> "YPolynomial":
        return cls.from_row(1, (1,))

    @classmethod
    def constant(cls, value: Scalar) -> "YPolynomial":
        return cls({0: value})

    @classmethod
    def variable(cls) -> "YPolynomial":
        return cls.from_row(1, (0, 1))

    def coefficient(self, degree: int) -> Fraction:
        inside = 0 <= degree < len(self.row)
        return Fraction(self.row[degree] if inside else 0, self.denominator)

    def items(self) -> list[tuple[int, Fraction]]:
        """The nonzero coefficients as (degree, coefficient), by increasing degree."""
        return [(d, Fraction(c, self.denominator)) for d, c in enumerate(self.row) if c]

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self.row) - 1

    def is_zero(self) -> bool:
        return not self.row

    def constant_value(self) -> Fraction:
        if len(self.row) > 1:
            raise ValueError(f"{self} is not a constant polynomial")
        return self.coefficient(0)

    def __add__(self, other: "YPolynomial | Scalar") -> "YPolynomial":
        return shifted_sum([(self, 0), (_coerce(other), 0)])

    __radd__ = __add__

    def __neg__(self) -> "YPolynomial":
        return YPolynomial.from_row(self.denominator, [-c for c in self.row])

    def __sub__(self, other: "YPolynomial | Scalar") -> "YPolynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> "YPolynomial":
        return _coerce(other) - self

    def __mul__(self, other: "YPolynomial | Scalar") -> "YPolynomial":
        other = _coerce(other)
        return YPolynomial.from_row(self.denominator * other.denominator, convolve(self.row, other.row))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "YPolynomial":
        require_exact("exponent", [exponent], (int,))
        if exponent < 0:
            raise ValueError("negative exponent")
        result, base = YPolynomial.one(), self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    __eq__ = slots_equal

    def __hash__(self) -> int:
        return hash((self.denominator, self.row))

    def evaluate(self, value: Scalar) -> Fraction:
        """The value at y = p/q: sum_d row[d] p^d q^(deg-d) over denominator q^deg, one ``Fraction``."""
        require_exact("evaluation point", [value])
        p, q = value.numerator, value.denominator
        total, scale = 0, 1
        for c in reversed(self.row):
            total = total * p + c * scale
            scale *= q
        return Fraction(total, self.denominator * q ** max(self.degree, 0))

    def negate_y(self) -> "YPolynomial":
        """Substitute y -> -y."""
        row = [-c if d % 2 else c for d, c in enumerate(self.row)]
        return YPolynomial.from_row(self.denominator, row)

    def __repr__(self) -> str:
        if not self.row:
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


def require_exact(field: str, values: Iterable[object], kinds: tuple[type, ...] = (int, Fraction)) -> None:
    """Refuse the first value not of ``kinds``, naming its type: floats, strings and bools are not exact."""
    for value in values:
        if not isinstance(value, kinds) or value.__class__ is bool:
            names = " or ".join([kind.__name__ for kind in kinds])
            raise ValueError(f"{field} must be {names}, got {type(value).__name__}")


def require_counts(field: str, values: Iterable[object]) -> None:
    """Refuse the first value that is not a non-negative ``int``: by type, then by sign."""
    for value in values:
        if value.__class__ is not int or value < 0:
            require_exact(field, [value], (int,))
            if value < 0:
                raise ValueError(f"{field} must be non-negative")


def clear(values: Sequence[Scalar]) -> tuple[int, list[int]]:
    """(D, ints): D is the lcm of the denominators and ``values[i] == ints[i] / D``."""
    # one as_integer_ratio() call per value, not three Fraction property reads
    ratios = [v.as_integer_ratio() for v in values]
    # a list, not a generator: CPython sizes the argument tuple of f(*generator) by
    # resizing, and each such tuple ends in the interpreter's free list for its length
    den = lcm(*[q for _, q in ratios])
    return den, [p * (den // q) for p, q in ratios]


def reduce_rows(scale: int, rows: Iterable[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Rows over ``scale`` made canonical: trailing zeros trimmed, then all divided by the gcd of scale and entries."""
    g, trimmed = scale, []
    for row in rows:
        end = len(row)
        while end and not row[end - 1]:
            end -= 1
        trimmed.append(row[:end])
        g = gcd(g, *trimmed[-1])
    if g == 1:
        return scale, tuple([tuple(row) for row in trimmed])
    return scale // g, tuple([tuple([c // g for c in row]) for row in trimmed])


def convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product row, ``out[k] = sum_{i+j=k} a[i] * b[j]``; zero entries of ``a`` are skipped."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, v in enumerate(b, i):
                out[j] += x * v
    return out


def add_into(total: list[int], row: Sequence[int], factor: int = 1, shift: int = 0) -> None:
    """Add factor * row * y^shift into ``total`` in place, padding it with zeros as needed."""
    end = shift + len(row)
    if len(total) < end:
        total.extend([0] * (end - len(total)))
    for i, c in enumerate(row, shift):
        total[i] += factor * c


def shifted_sum(terms: Sequence[tuple[YPolynomial, int]]) -> YPolynomial:
    """sum_t poly_t y^shift_t, each row scaled to the lcm of the denominators and added into one."""
    den = lcm(*[poly.denominator for poly, _ in terms])
    total = [0] * max([len(poly.row) + shift for poly, shift in terms], default=0)
    for poly, shift in terms:
        add_into(total, poly.row, den // poly.denominator, shift)
    return YPolynomial.from_row(den, total)


def _coerce(value: "YPolynomial | Scalar") -> YPolynomial:
    if isinstance(value, YPolynomial):
        return value
    return YPolynomial.constant(value)
