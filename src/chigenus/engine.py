"""The chi_y genus as a universal Chern polynomial and its evaluations.

The genus of a 2n-real-dimensional almost-complex manifold is the integral
of the product over the Chern roots x_i of the normalized series Q(y; x_i).
We never manipulate the roots themselves: the logarithm of the series turns
the product into a sum over power sums of the roots, each power sum is
rewritten in the c_i via Newton's identities, and a truncated exponential
in the graded monomial ring recovers the degree-n integrand.

The logarithm is taken in closed form (Hirzebruch, *Topological Methods in
Algebraic Geometry*, section 1.8): its x^j coefficient is
l_j(y) = beta_j (1+y)^j + (-1)^j y A_{j-1}(-y) / j!, with A_k the Eulerian
polynomials and beta_j = -A_{j-1}(-1) / (2^j (2^j - 1) j!) for j >= 2, so
one integer Eulerian triangle is its only ingredient. The build runs on
ints only: each l_j is a ``YPolynomial``, an integer row over a
denominator, each power sum p_j an integer Chern polynomial, and the
exponential takes the exponent factored as the pieces l_j p_j and keeps
every weight over its own reduced scale. :func:`normalized_series` builds Q
itself, as the reference route the tests check the closed form against.
:class:`ManifoldData` is the one manifold record; it takes Chern numbers as
``int`` or ``Fraction`` only and holds them cleared, the way a
``YPolynomial`` holds its coefficients: one int row in ``iter_partitions``
order over one positive ``scale``, each partition's position kept by
:func:`partition_index`, the one owner of that order. It evaluates its
chi_y polynomial once as it is built, and checks a given signature
and action against it; the ``chern_numbers`` mapping of ``Fraction`` values
is made only when it is read. It rebuilds a profile through the profile's
own type and reads an action's chi_{-y} off the model, which localized it
as it was built, so loading this module loads neither ``betti`` nor
``localization``. Serre duality has one predicate, :func:`duality_holds`,
on a bare chi-vector.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from .chern import ChernPolynomial, graded_exponential, integer_power_sums
from .partitions import Partition, iter_partitions
from .ypoly import YPolynomial, clear, require_exact, slots_equal

if TYPE_CHECKING:
    from .betti import BettiProfile
    from .localization import FixedPointModel
    from .series import TruncatedSeries


# n -> {partition: position} in ``iter_partitions`` order; a dict, not functools.cache,
# because only a walk that completed is kept, so claiming a huge dimension costs one partition
_INDEX: dict[int, dict[Partition, int]] = {}


def partition_index(n: int) -> dict[Partition, int]:
    """partition -> position among the partitions of n, in ``iter_partitions`` order, walked once and kept."""
    index = _INDEX.get(n)
    if index is None:
        index = _INDEX[n] = {part: i for i, part in enumerate(iter_partitions(n))}
    return index


class ManifoldData:
    """Exact Chern numbers of a closed almost-complex manifold, plus extras.

    The Chern numbers are held in one cleared form, as ``ypoly.clear``
    gives it: ``chern_row``, one int per partition of the complex dimension
    in the reverse-lexicographic order of ``iter_partitions``, over
    ``scale``, the lcm of their denominators, so the row and the scale have
    gcd 1 and equal numbers have equal forms, given as ``int`` or as
    ``Fraction`` in any order. ``chern_numbers`` reads them as a fresh
    read-only mapping, partition -> ``Fraction``, in that order, and
    ``partitions`` names the row's entries. ``betti.dim`` is twice that
    dimension, the Betti numbers' alternating sum, the Euler number, is the
    top Chern number, and ``action.n`` equals the dimension. Past those
    checks, ``genus`` holds the chi_y polynomial. A profile's sigma must be
    chi_y(1), and is filled in when absent; an action whose components all
    carry their modified genus must localize chi_{-y}, and a Hamiltonian
    action whose components all carry their Betti numbers must have the
    profile's as Novikov numbers. Builders and readers pass every field to
    the constructor, so each is checked once, and no field is rebound after
    it. Instances compare by value, every field included, but define no
    hash.
    """

    __slots__ = ("dimension", "scale", "chern_row", "betti", "action", "genus")

    def __init__(
        self,
        dimension: int,
        chern_numbers: Mapping[Partition, Fraction | int],
        betti: BettiProfile | None = None,
        action: FixedPointModel | None = None,
    ) -> None:
        require_exact("dimension", (dimension,), (int,))
        require_exact("Chern numbers", chern_numbers.values())
        # the walk stops at the first missing partition, so it visits at most one
        # partition more than were given: a dimension costs nothing to claim, and
        # only a dimension whose numbers are all there is kept in _INDEX
        known = _INDEX.get(dimension)
        try:
            values = [chern_numbers[part] for part in known or iter_partitions(dimension)]
        except KeyError as exc:
            raise ValueError(
                f"Chern numbers must cover all partitions of {dimension}; missing {list(exc.args[0])}"
            ) from None
        if len(values) != len(chern_numbers):
            raise ValueError(
                f"Chern numbers must cover all partitions of {dimension}; "
                f"got {len(chern_numbers)}, but p({dimension}) = {len(values)}"
            )
        if known is None:
            partition_index(dimension)
        scale, row = clear(values)
        if betti is not None:
            if betti.dim != 2 * dimension:
                raise ValueError(f"betti.dim {betti.dim} is not twice the dimension {dimension}")
            euler = sum(betti.betti[0::2]) - sum(betti.betti[1::2])
            # the top partition, (dimension,) or (), comes first
            if euler * scale != row[0]:
                top = Fraction(row[0], scale)
                raise ValueError(f"betti has Euler number {euler}, but the top Chern number is {top}")
        if action is not None and action.n != dimension:
            raise ValueError(f"action.n {action.n} is not the dimension {dimension}")
        self.dimension = dimension
        self.scale = scale
        self.chern_row = tuple(row)
        self.genus = genus = evaluate_genus(chi_y_chern_polynomial(dimension), self)
        if betti is not None:
            sigma = genus.evaluate(1)
            if sigma.denominator != 1:
                raise ValueError(f"chi_y(1) = {sigma} is not an integer signature")
            if betti.sigma is None:
                betti = type(betti)(betti.dim, betti.betti, int(sigma))
            elif betti.sigma != sigma:
                raise ValueError(f"signature {betti.sigma} is not chi_y(1) = {sigma}")
        localized = action.chi_minus_y if action is not None else None
        if localized is not None and localized != genus.negate_y():
            raise ValueError(
                f"action localizes chi_-y = {localized}, but the Chern numbers give {genus.negate_y()}"
            )
        # a Hamiltonian model's Novikov row ends in b_2n = 1, so it has the profile's length
        novikov = action.novikov if action is not None and action.hamiltonian else None
        if novikov is not None and betti is not None and novikov.row != betti.betti:
            i = next(i for i, (a, b) in enumerate(zip(novikov.row, betti.betti)) if a != b)
            raise ValueError(
                "a Hamiltonian action's Novikov numbers are its Betti numbers, "
                f"but the action gives b_{i} = {novikov.row[i]} and betti has b_{i} = {betti.betti[i]}"
            )
        self.betti = betti
        self.action = action

    @property
    def partitions(self) -> tuple[Partition, ...]:
        """The partitions of the dimension in ``iter_partitions`` order, one per entry of ``chern_row``."""
        return tuple(partition_index(self.dimension))

    @property
    def chern_numbers(self) -> MappingProxyType[Partition, Fraction]:
        """partition -> Chern number as a ``Fraction``, in ``iter_partitions`` order, made on each read."""
        scale = self.scale
        numbers = {part: Fraction(v, scale) for part, v in zip(self.partitions, self.chern_row)}
        return MappingProxyType(numbers)

    __eq__ = slots_equal


SPECIAL_VALUES = {"euler": Fraction(-1), "todd": Fraction(0), "signature": Fraction(1)}


def normalized_series(order: int) -> TruncatedSeries:
    """The genus-defining power series in x, normalized to constant term 1.

    Writing u = x*(1+y), the series is x*(1 + y*e^{-u}) / (1 - e^{-u}).
    Both factors below have coefficients in Q[y] and the denominator has
    constant term 1, so the quotient stays inside Q[y] with no division by
    non-constant polynomials. At y = 0 it reduces to the Todd series
    x / (1 - e^{-x}); the x^k coefficient has y-degree at most k + 1.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    from .series import TruncatedSeries

    one_plus_y = YPolynomial({0: 1, 1: 1})
    y = YPolynomial.variable()
    numerator = [YPolynomial.one()]
    denominator = [YPolynomial.one()]
    for k in range(1, order):
        sign = Fraction(-1) ** k
        numerator.append(y * one_plus_y ** (k - 1) * (sign / factorial(k)))
        denominator.append(one_plus_y**k * (sign / factorial(k + 1)))
    num = TruncatedSeries(numerator, order)
    den = TruncatedSeries(denominator, order)
    return num * den.inverse()


def eulerian_polynomials(up_to: int) -> list[YPolynomial]:
    """P_1..P_up_to, the descent-count polynomials.

    P_m has degree m - 1, positive palindromic coefficients, and total mass m!.
    The rows come from the descent-count triangle
    a(m, k) = (k+1) a(m-1, k) + (m-k) a(m-1, k-1): appending the letter m to
    a permutation either preserves or creates a descent.
    """
    if up_to < 1:
        raise ValueError("need at least one polynomial")
    polys = []
    prev = [1]
    for m in range(1, up_to + 1):
        padded = [0, *prev, 0]
        row = [(k + 1) * padded[k + 1] + (m - k) * padded[k] for k in range(m)]
        polys.append(YPolynomial.from_row(1, row))
        prev = row
    return polys


def log_q_coefficients(n: int) -> list[YPolynomial]:
    """The x^1..x^n coefficients of log Q, in closed form.

    With u = x(1+y), log Q = log(u / (1 - e^{-u})) + log((1 + y e^{-u}) / (1 + y)).
    The first term gives beta_j (1+y)^j, with beta_1 = 1/2 and
    beta_j = -A_{j-1}(-1) / (2^j (2^j - 1) j!) = -B_j / (j j!) for j >= 2
    (zero for odd j >= 3); the second gives (-1)^j y A_{j-1}(-y) / j!, A_0 = 1.
    Over den = 2^j (2^j - 1) j!, beta_j is den/2 at j = 1 and -A_{j-1}(-1)
    after, and the tail's y^(i+1) coefficient is (-1)^(j+i) a(j-1, i) den/j!,
    so each l_j is built as one integer row over den.
    """
    eulerian = [(1,)] + [p.row for p in eulerian_polynomials(max(n - 1, 1))]
    out = []
    for j in range(1, n + 1):
        a = eulerian[j - 1]
        den = 2**j * (2**j - 1) * factorial(j)
        beta = den // 2 if j == 1 else sum(a[1::2]) - sum(a[::2])
        row = [beta * comb(j, i) for i in range(j + 1)]
        for i, c in enumerate(a):
            row[i + 1] += (-1) ** (j + i) * c * (den // factorial(j))
        out.append(YPolynomial.from_row(den, row))
    return out


@cache
def chi_y_chern_polynomial(n: int) -> ChernPolynomial:
    """Universal grade-n Chern polynomial of the chi_y genus.

    Its evaluation on the Chern numbers of a manifold is the chi_y polynomial.
    The power sums p_1..p_n are built once, on integer coefficients, and
    paired with the x^k coefficients l_k of log Q in the closed form of
    Hirzebruch section 1.8, each an integer row over a denominator, so no
    series or ``Fraction`` arithmetic runs. The exponential
    of sum_k l_k p_k keeps each weight m as a grade-m Chern polynomial in
    its cleared form and returns the weight-n one as the table (see
    :func:`~chigenus.chern.graded_exponential`).
    Memoized per argument for the life of the process.
    """
    if n < 0:
        raise ValueError("dimension must be non-negative")
    sums = integer_power_sums(n, n)
    pieces = {k: (ell, sums[k]) for k, ell in enumerate(log_q_coefficients(n), start=1)}
    return graded_exponential(pieces, n)


def evaluate_genus(table: ChernPolynomial, manifold: ManifoldData) -> YPolynomial:
    """chi_y polynomial of a manifold: pair the table with its Chern numbers.

    Each of the table's partitions is read off the record's cleared row at
    its position in :func:`partition_index`, so no ``Fraction`` is made and
    any table of the grade reads the same row.
    """
    if manifold.dimension != table.grade:
        raise ValueError(
            f"dimension mismatch: table is for n={table.grade}, manifold has n={manifold.dimension}"
        )
    index, row = partition_index(table.grade), manifold.chern_row
    return table.evaluate_cleared(manifold.scale, [row[index[part]] for part in table.partitions])


def chi_vector(manifold: ManifoldData) -> list[Fraction]:
    """The indices chi^0, ..., chi^n read off the genus polynomial."""
    return [manifold.genus.coefficient(p) for p in range(manifold.dimension + 1)]


def chi_minus_y(manifold: ManifoldData) -> YPolynomial:
    """The modified genus: coefficient of y^p is (-1)^p chi^p."""
    return manifold.genus.negate_y()


def specialize(manifold: ManifoldData, at: str) -> Fraction:
    """Evaluate the genus at y = -1, 0, 1 (Euler, Todd, signature).

    The Euler specialization is cross-checked against the top Chern number,
    which it must reproduce identically.
    """
    try:
        point = SPECIAL_VALUES[at]
    except KeyError:
        raise ValueError(f"unknown specialization {at!r}; expected euler, todd or signature") from None
    value = manifold.genus.evaluate(point)
    # the top Chern number is the row's first entry over the scale
    top, scale = manifold.chern_row[0], manifold.scale
    if at == "euler" and value.numerator * scale != top * value.denominator:
        raise ArithmeticError(
            f"Euler specialization {value} disagrees with top Chern number {Fraction(top, scale)}"
        )
    return value


def duality_holds(chi: "list[Fraction]") -> bool:
    """Whether chi^p == (-1)^n chi^{n-p} for all p, on a bare chi-vector.

    On ``chi_vector(manifold)`` this holds identically for the symbolic
    table, so it doubles as an end-to-end consistency check of evaluation.
    """
    n = len(chi) - 1
    sign = (-1) ** n
    return all(chi[p] == sign * chi[n - p] for p in range(n + 1))
