"""Chern number inequalities attached to positivity of the modified genus.

A manifold whose modified genus has positive (resp. signed-positive)
coefficients satisfies floor(n/2) + 1 inequalities: for each i, the Chern
number combination eps^n K_{2i} is at least its value on P^n, with equality
exactly when chi^p = eps^n (-1)^p for all p >= 2i. Reports use the cleared
integer form: both sides are multiplied by the denominator D of K_{2i}'s
cleared form (reported as ``scale``), so the i = 0 line reads
eps^n c_n >= n + 1 and the i = 1 line has right-hand side 2(n-1)n(n+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import NamedTuple, Sequence

from .catalog import one_generator_chern_numbers
from .chern import ChernPolynomial
from .engine import ManifoldLike, chi_vector
from .kexpansion import k_coefficients
from .partitions import Partition


def _validate_epsilon(epsilon: int) -> None:
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 (chi-positive) or -1 (signed chi-positive)")


class PositivityResult(NamedTuple):
    chi_positive: bool
    signed_chi_positive: bool


def positivity_predicate(chi: Sequence[Fraction | int]) -> PositivityResult:
    """Positivity of the modified genus coefficients (plain and signed)."""
    n = len(chi) - 1
    plain = all((-1) ** p * chi[p] > 0 for p in range(n + 1))
    signed = all((-1) ** (n + p) * chi[p] > 0 for p in range(n + 1))
    return PositivityResult(plain, signed)


@dataclass(frozen=True)
class InequalityReport:
    """One inequality, evaluated in cleared integer form.

    ``equality`` is the chi-vector criterion (chi^p = eps^n (-1)^p for
    p >= 2i), which coincides with lhs == rhs under the positivity
    hypothesis; ``hypothesis_met`` records that hypothesis so failing
    manifolds are flagged rather than rejected.
    """

    index: int
    lhs: Fraction
    rhs: Fraction
    scale: int
    holds: bool
    equality: bool
    equality_witness: tuple[int, ...]
    hypothesis_met: bool


_BOUND_CACHE: dict[int, tuple[tuple[ChernPolynomial, int, Fraction], ...]] = {}


def _bounds(n: int) -> tuple[tuple[ChernPolynomial, int, Fraction], ...]:
    """(K_{2i}, its denominator, its cleared value on P^n) for i = 0..n//2.

    These depend on n only, so they are memoized per n like the K-tables.
    The i = 1 right-hand side is cross-checked against 2(n-1)n(n+1) as it
    is computed; an n that fails the check is not memoized.
    """
    cached = _BOUND_CACHE.get(n)
    if cached is not None:
        return cached
    table = k_coefficients(n)
    projective = one_generator_chern_numbers([comb(n + 1, j) for j in range(n + 1)], 1)
    bounds = []
    for i in range(n // 2 + 1):
        k_poly = table.k_polys[2 * i]
        scale = k_poly.denominator
        rhs = k_poly.evaluate(projective).constant_value() * scale
        if i == 1 and rhs != 2 * (n - 1) * n * (n + 1):
            raise ArithmeticError(
                f"cleared i=1 bound {rhs} disagrees with 2(n-1)n(n+1) = {2 * (n - 1) * n * (n + 1)}"
            )
        bounds.append((k_poly, scale, rhs))
    result = tuple(bounds)
    _BOUND_CACHE[n] = result
    return result


def check_inequalities(manifold: ManifoldLike, epsilon: int = 1) -> list[InequalityReport]:
    """Evaluate every inequality on a manifold, detecting equality cases."""
    _validate_epsilon(epsilon)
    n = manifold.dimension
    if n < 1:
        raise ValueError("need a manifold of positive dimension")
    sign = Fraction(epsilon) ** n
    chi = chi_vector(manifold)
    positivity = positivity_predicate(chi)
    hypothesis = positivity.chi_positive if epsilon == 1 else positivity.signed_chi_positive
    reports = []
    for i, (k_poly, scale, rhs) in enumerate(_bounds(n)):
        lhs = sign * k_poly.evaluate(manifold.chern_numbers).constant_value() * scale
        witness = tuple(range(2 * i, n + 1))
        equality = all(chi[p] == sign * (-1) ** p for p in witness)
        reports.append(
            InequalityReport(
                index=i,
                lhs=lhs,
                rhs=rhs,
                scale=scale,
                holds=lhs >= rhs,
                equality=equality,
                equality_witness=witness,
                hypothesis_met=hypothesis,
            )
        )
    return reports


@dataclass(frozen=True)
class SurfaceInequality:
    label: str
    lhs: Fraction
    rhs: Fraction
    holds: bool
    equality: bool


@dataclass(frozen=True)
class CurvatureBoundReport:
    """The negative-first-Chern-class bound c_2 (-c_1)^{n-2} >= n/(2(n+1)) (-c_1)^n.

    For surfaces the report also carries the two cleared consequences
    3 c_2 >= c_1^2 and c_2 + c_1^2 >= 12, whose equality cases are realized
    by ball quotients with c_1^2 = 9, c_2 = 3.
    """

    n: int
    lhs: Fraction
    rhs: Fraction
    holds: bool
    equality: bool
    surface: tuple[SurfaceInequality, ...]


def miyaoka_yau_check(manifold: ManifoldLike) -> CurvatureBoundReport:
    n = manifold.dimension
    if n < 2:
        raise ValueError("need n >= 2")
    numbers = manifold.chern_numbers
    mixed: Partition = tuple(sorted([2] + [1] * (n - 2), reverse=True))
    powers: Partition = tuple([1] * n)
    try:
        c2_c1 = numbers[mixed]
        c1_n = numbers[powers]
    except KeyError as exc:
        raise ValueError(f"missing Chern number for partition {exc.args[0]}") from None
    sign = Fraction(-1) ** n
    lhs = sign * c2_c1
    rhs = Fraction(n, 2 * (n + 1)) * sign * c1_n
    surface: tuple[SurfaceInequality, ...] = ()
    if n == 2:
        c2 = numbers[(2,)]
        c1_sq = numbers[(1, 1)]
        surface = (
            SurfaceInequality("3*c2 >= c1^2", 3 * c2, c1_sq, 3 * c2 >= c1_sq, 3 * c2 == c1_sq),
            SurfaceInequality(
                "c2 + c1^2 >= 12", c2 + c1_sq, Fraction(12), c2 + c1_sq >= 12, c2 + c1_sq == 12
            ),
        )
    return CurvatureBoundReport(n, lhs, rhs, lhs >= rhs, lhs == rhs, surface)
