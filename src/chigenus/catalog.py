"""Built-in manifolds with exact Chern numbers and circle-action data.

Chern numbers come from the total Chern class. P^n and the hypersurfaces
have cohomology Q[h]/(h^{n+1}) with the integral of h^n equal to the degree
d, so for c = sum_j a_j h^j the number c_lambda is d * prod_i a_{lambda_i}
(:func:`one_generator_chern_numbers`). A product takes its numbers from its
factors' numbers by the Whitney product formula (:func:`product`), so any
two manifolds multiply, whether built here or loaded from JSON. No floating
point: the numbers are summed as ints, and each number of a product is one
exact division of its integer sum by the factors' common denominators.

A factor stays numbers until the last step: :func:`_fold` multiplies
(dimension, Chern numbers, Betti row) triples, so each build constructs one
record, and a factor of a product builds no record, genus or action.

:func:`make_manifold` and :func:`make_action` build from what
:func:`chigenus.serialize.parse_key`, the one reader of catalog keys, returns.
The builders return ``engine``'s :class:`ManifoldData`, importable from here.

:class:`CohomologyModel` integrates in a truncated polynomial ring instead.
It is the independent reference the tests compare against; no other module
of the package calls it.

Tuples are built from lists, never from generators: CPython sizes a tuple
built from a generator by resizing it, and each such tuple joins the
interpreter's free list for its final length when it dies, so a hot loop of
them fills those lists (up to 2000 tuples per length) and the process keeps
that memory.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb

from .betti import BettiProfile
from .engine import ManifoldData
from .localization import FixedComponent, FixedPointModel
from .partitions import Partition, iter_partitions, merge
from .serialize import ACTION_KEYS, CATALOG_KEYS, CatalogKey, parse_key
from .ypoly import clear, convolve

Monomial = tuple[int, ...]
PolyDict = dict[Monomial, Fraction]


class CohomologyModel:
    """Q[h_1..h_k]/(h_i^{orders_i + 1}) with a chosen top integral.

    Generators sit in cohomological degree 2; ``total_chern`` is a
    polynomial in them. Only the fundamental monomial h_1^{o_1}...h_k^{o_k}
    has a nonzero integral.

    A reference route only: the catalog's numbers come from the total Chern
    class directly, and no other module of the package calls this class.
    """

    __slots__ = ("names", "orders", "top_integral", "total_chern")

    def __init__(
        self,
        names: tuple[str, ...],
        orders: tuple[int, ...],
        top_integral: Fraction,
        total_chern: PolyDict,
    ) -> None:
        if len(names) != len(orders):
            raise ValueError("one name per generator")
        if top_integral == 0:
            raise ValueError("top integral must be nonzero")
        self.names = names
        self.orders = orders
        self.top_integral = top_integral
        self.total_chern = total_chern

    def multiply(self, a: PolyDict, b: PolyDict) -> PolyDict:
        out: PolyDict = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                key = tuple([x + y for x, y in zip(ma, mb)])
                if any(e > o for e, o in zip(key, self.orders)):
                    continue
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return {m: c for m, c in out.items() if c != 0}

    def chern_component(self, i: int) -> PolyDict:
        return {m: c for m, c in self.total_chern.items() if sum(m) == i}

    def integrate(self, poly: PolyDict) -> Fraction:
        return poly.get(self.orders, Fraction(0)) * self.top_integral

    def chern_numbers(self, n: int) -> dict[Partition, Fraction]:
        numbers = {}
        for part in iter_partitions(n):
            product: PolyDict = {(0,) * len(self.orders): Fraction(1)}
            for i in part:
                product = self.multiply(product, self.chern_component(i))
            numbers[part] = self.integrate(product)
        return numbers


def one_generator_chern_numbers(total_chern: list[int], degree: int) -> dict[Partition, int]:
    """c_lambda of an n-fold with cohomology Q[h]/(h^{n+1}) and integral of h^n equal to ``degree``.

    ``total_chern`` lists a_0..a_n, the total Chern class being
    sum_j a_j h^j; then c_lambda = degree * prod_i a_{lambda_i}, returned as
    an int: the ``ManifoldData`` built from it makes the one ``Fraction``.
    """
    numbers = {}
    for part in iter_partitions(len(total_chern) - 1):
        value = degree
        for i in part:
            value *= total_chern[i]
        numbers[part] = value
    return numbers


def projective_space(n: int) -> ManifoldData:
    """P^n: total Chern class (1+h)^{n+1}, integral of h^n is 1, with its standard action."""
    return _fold([_pn_factor(n)], standard_pn_action(n))


def hypersurface(n: int, d: int) -> ManifoldData:
    """Smooth degree-d hypersurface of dimension n: adjunction in Q[h]/(h^{n+1}).

    The total Chern class is (1+h)^{n+2} * (1+dh)^{-1}, expanded as a
    geometric series in the nilpotent quotient, and the integral of h^n is d.
    """
    return _fold([_hyp_factor(n, d)])


def product(a: ManifoldData, b: ManifoldData) -> ManifoldData:
    """The product manifold A x B, from the Chern numbers of its factors (:func:`_fold`)."""
    factors = [(m.dimension, m.chern_numbers, m.betti.betti if m.betti is not None else None) for m in (a, b)]
    return _fold(factors)


def _fold(factors: list[tuple], action: FixedPointModel | None = None) -> ManifoldData:
    """The one record of the product of the factors, folded left to right as numbers.

    A factor is (dimension, Chern numbers in ``iter_partitions`` order, Betti
    row or None). Each factor's numbers are cleared once to ints over their
    lcm, read by position, and summed over the Whitney splits of
    :func:`_splits`; each number of a product is then one exact division by
    the two lcms, left an int when both are 1. Betti rows convolve when every
    factor has one. ``action`` goes to the constructor, which fills in sigma.
    """
    n, numbers, betti = factors[0]
    for m, other, other_betti in factors[1:]:
        ea, va = clear(list(numbers.values()))
        eb, vb = clear(list(other.values()))
        den = ea * eb
        numbers = {}
        for part, splits in _splits(n, m):
            total = sum([count * va[i] * vb[j] for count, i, j in splits])
            numbers[part] = total if den == 1 else Fraction(total, den)
        betti = convolve(betti, other_betti) if betti is not None and other_betti is not None else None
        n += m
    profile = BettiProfile(2 * n, betti) if betti is not None else None
    return ManifoldData(n, numbers, betti=profile, action=action)


@cache
def _splits(dim_a: int, dim_b: int) -> list[tuple[Partition, list[tuple[int, int, int]]]]:
    """For each partition of dim_a + dim_b, in ``iter_partitions`` order, its Whitney splits.

    c_k(A x B) = sum_{s+t=k} c_s(A) c_t(B) and the integral over A x B
    factors, so c_part[A x B] is the sum, over the ways to write each part
    lambda_i = s_i + t_i with sum s_i = dim A, of c_{sort(s)}[A] c_{sort(t)}[B]
    (zero parts dropped). Each split is a triple (count, i, j): its number of
    ways and the positions of sort(s) and sort(t) among the partitions of
    dim_a and dim_b. Splits are merged as the parts are read, keyed on the
    partial pair (s, t). Memoized per argument for the life of the process.
    """
    index_a = {part: i for i, part in enumerate(iter_partitions(dim_a))}
    index_b = {part: j for j, part in enumerate(iter_partitions(dim_b))}
    table = []
    for part in iter_partitions(dim_a + dim_b):
        ways: dict[tuple[Partition, Partition], int] = {((), ()): 1}
        for p in part:
            step: dict[tuple[Partition, Partition], int] = {}
            for (s, t), count in ways.items():
                room_s = dim_a - sum(s)
                room_t = dim_b - sum(t)
                for i in range(max(0, p - room_t), min(p, room_s) + 1):
                    key = (merge(s, (i,)) if i else s, merge(t, (p - i,)) if i < p else t)
                    step[key] = step.get(key, 0) + count
            ways = step
        table.append((part, [(count, index_a[s], index_b[t]) for (s, t), count in ways.items()]))
    return table


def _pn_factor(n: int) -> tuple:
    if n < 1:
        raise ValueError("need n >= 1")
    return _one_generator(n, [comb(n + 1, j) for j in range(n + 1)], 1)


def _hyp_factor(n: int, d: int) -> tuple:
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    total = [sum([comb(n + 2, i) * (-d) ** (j - i) for i in range(j + 1)]) for j in range(n + 1)]
    return _one_generator(n, total, d)


def _one_generator(n: int, total: list[int], degree: int) -> tuple:
    """An n-fold with cohomology Q[h]/(h^{n+1}), total Chern class sum_j total[j] h^j.

    The integral of h^n is ``degree``. Betti numbers agree with those of P^n
    away from the middle degree, where the Euler number ``degree * total[n]``
    pins the last.
    """
    euler = degree * total[n]
    betti = [1 if i % 2 == 0 else 0 for i in range(2 * n + 1)]
    betti[n] = euler - n if n % 2 == 0 else (n + 1) - euler
    return n, one_generator_chern_numbers(total, degree), betti


_FACTORS = {"pn": _pn_factor, "hyp": _hyp_factor}


def standard_pn_action(n: int, exponents: tuple[int, ...] | None = None) -> FixedPointModel:
    """The linear circle action on P^n with the given distinct exponents.

    Fixed points are the coordinate axes; the point with exponent a_j sees
    the weights a_i - a_j, so the number of negative weights equals the rank
    of a_j among the exponents.
    """
    if exponents is None:
        exponents = tuple(range(n + 1))
    if len(exponents) != n + 1:
        raise ValueError(f"need exactly {n + 1} exponents for n = {n}")
    if len(set(exponents)) != len(exponents):
        raise ValueError("exponents must be pairwise distinct")
    components = []
    for j, a_j in enumerate(exponents):
        weights = [a - a_j for a in exponents]
        del weights[j]
        components.append(FixedComponent(complex_dim=0, weights=weights))
    return FixedPointModel(n, tuple(components), hamiltonian=True)


def make_manifold(key: str | CatalogKey) -> ManifoldData:
    """Build a manifold from a catalog key such as ``pn:3`` or ``hyp:2:4``, or from its parsed form."""
    parsed = parse_key(key) if isinstance(key, str) else key
    if parsed.kind == "pn":
        return projective_space(*parsed.args)
    if parsed.kind == "hyp":
        return hypersurface(*parsed.args)
    if parsed.kind == "product":
        return _fold([_FACTORS[f.kind](*f.args) for f in parsed.args])
    raise ValueError(f"unknown catalog key {key!r}")


def make_action(key: str | CatalogKey) -> FixedPointModel:
    """Build a fixed-point model from a key like ``pnaction:2:0,1,2``, or from its parsed form."""
    parsed = parse_key(key) if isinstance(key, str) else key
    if parsed.kind != "pnaction":
        raise ValueError(f"unknown action key {key!r}")
    return standard_pn_action(*parsed.args)


def standard_catalog() -> list[tuple[str, ManifoldData]]:
    """The named instances exercised by the verification suite."""
    return [(key, make_manifold(key)) for key in CATALOG_KEYS]


def standard_actions() -> list[tuple[str, FixedPointModel]]:
    return [(key, make_action(key)) for key in ACTION_KEYS]
