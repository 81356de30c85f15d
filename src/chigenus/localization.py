"""Fixed-point data of circle actions and the localization formulas.

A fixed-point model lists the connected components of the fixed set of a
circle action on a 2n-real-dimensional almost-complex manifold. Each
component carries the rotation weights on its normal bundle (all nonzero);
the count d_F of negative weights drives every formula here: the modified
genus localizes as sum_F chi_{-y}(F) y^{d_F}, the Novikov numbers as
sum_F P_y(F) y^{2 d_F}, and the signature as sum_F sigma(F) (-1)^{d_F}.

A ``FixedPointModel`` localizes once, as it is built: after its checks it
sums its components into ``chi_minus_y``, ``novikov`` and ``signature``,
each None when a component lacks the invariant it sums; a Hamiltonian
model's Novikov row and signature must make a ``betti.BettiProfile`` of
dimension 2n with every even entry at least 1. The module functions return
those fields, and refuse a None by naming what is missing.

Each localized polynomial is built in one pass into one integer row,
reduced once. A fixed point adds y^{d_F}, y^{2 d_F} and (-1)^{d_F} to the
three sums, so the points enter each as one row N, N_p counting the points
with d_F = p: the n + 1 points of an action on P^n are one term, not n + 1.
Positive-dimensional components are added row by row: their genera with N
in one ``ypoly.shifted_sum``, which scales each row to the lcm of the
denominators, and their Betti rows with ``ypoly.add_into`` into the Novikov
row, which holds N on its even entries, over the denominator 1. The
reports read those rows too: a Novikov coefficient is its row entry, and a
coefficient of the modified genus has the sign of its row entry, the
denominator being positive. The records' count and type checks and their
``__eq__`` are the shared guards of ``ypoly``. ``betti.BettiProfile``
checks a component's Betti numbers and signature, and
``betti.even_alternating_sum`` gives the sum b_0 - b_2 + b_4 - ... of a
positive-dimensional component's row and of the Novikov row.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .betti import BettiProfile, even_alternating_sum, require_signature
from .ypoly import YPolynomial, add_into, require_counts, require_exact, shifted_sum, slots_equal


def negative_weight_count(weights: Sequence[int]) -> int:
    """Number of strictly negative weights, in one pass that refuses a zero or non-``int`` weight."""
    count = 0
    for w in weights:
        if w.__class__ is not int or not w:
            require_exact("rotation weights", [w], (int,))
            if not w:
                raise ValueError("rotation weights must be nonzero")
        if w < 0:
            count += 1
    return count


# a point's Betti numbers, signature and modified genus, shared by every fixed point; the
# JSON reader passes POINT_GENUS itself for a point's {"0": "1"}
POINT_GENUS = YPolynomial.one()
_POINT = ((1,), 1, POINT_GENUS)


class FixedComponent:
    """One connected component of the fixed-point set.

    ``weights`` determine ``d_f``; when no weights are supplied an explicit
    ``d_f`` is required. A zero-dimensional component is a point: it has
    Betti numbers (1,), signature 1 (the rank-one positive form on H^0) and
    constant modified genus 1, which are its defaults, and any other value
    supplied for them is refused. Positive-dimensional components must be
    given their own invariants: the localization formulas consume them as
    data. Those that no component of complex dimension k can have are
    refused. Betti numbers, with the signature if one is given, must make a
    ``betti.BettiProfile`` of dimension 2k, which states the rules and their
    messages; a component is connected, so b_0 must also be 1. A signature
    given without Betti numbers meets ``betti.require_signature`` alone.
    A modified genus must have degree at most k.
    """

    __slots__ = ("complex_dim", "weights", "d_f", "betti", "signature", "chi_minus_y")

    def __init__(
        self,
        complex_dim: int = 0,
        weights: Sequence[int] | None = None,
        d_f: int | None = None,
        betti: Sequence[int] | None = None,
        signature: int | None = None,
        chi_minus_y: YPolynomial | None = None,
    ) -> None:
        require_counts("component dimension", (complex_dim,))
        self.complex_dim = complex_dim
        self.weights = tuple(weights) if weights is not None else None
        if self.weights is not None:
            derived = negative_weight_count(self.weights)
            if d_f is not None and d_f != derived:
                raise ValueError(f"explicit d_f={d_f} contradicts weights (count {derived})")
            self.d_f = derived
        else:
            if d_f is None:
                raise ValueError("component needs weights or an explicit d_f")
            require_counts("d_f", (d_f,))
            self.d_f = d_f
        # the shared point genus passes by identity; any other is checked by type, and a point's by value
        given = chi_minus_y is not None and chi_minus_y is not POINT_GENUS
        if given:
            require_exact("modified genus", [chi_minus_y], (YPolynomial,))
        if complex_dim == 0:
            if betti is not None and tuple(betti) != _POINT[0]:
                raise ValueError("a fixed point has Betti numbers (1,)")
            if signature is not None and signature != _POINT[1]:
                raise ValueError("a fixed point has signature 1")
            if given and chi_minus_y != POINT_GENUS:
                raise ValueError("a fixed point has modified genus 1")
            self.betti, self.signature, self.chi_minus_y = _POINT
            return
        if betti is not None:
            betti = BettiProfile(2 * complex_dim, betti, signature).betti
            if betti[0] != 1:
                raise ValueError("a fixed component is connected, so b_0 must be 1")
        elif signature is not None:
            require_signature(2 * complex_dim, signature)
        if chi_minus_y is not None and chi_minus_y.degree > complex_dim:
            raise ValueError(
                f"modified genus of degree {chi_minus_y.degree} exceeds the component dimension {complex_dim}"
            )
        self.betti = betti
        self.signature = signature
        self.chi_minus_y = chi_minus_y

    __eq__ = slots_equal


class FixedPointModel:
    """Nonempty list of fixed components of a circle action.

    ``hamiltonian`` must be a ``bool``. A Hamiltonian model has exactly one
    component with d_F = 0 and exactly one with d_F = n - dim_C F, the
    moment map's minimum and maximum, and its Novikov numbers are its Betti
    numbers. ``chi_minus_y``, ``novikov`` and ``signature`` are the localized
    sums, functions of the other fields.
    """

    __slots__ = ("n", "components", "hamiltonian", "chi_minus_y", "novikov", "signature")

    def __init__(
        self,
        n: int,
        components: Iterable[FixedComponent],
        hamiltonian: bool = False,
    ) -> None:
        require_counts("n", (n,))
        if hamiltonian.__class__ is not bool:
            raise ValueError(f"hamiltonian must be bool, got {type(hamiltonian).__name__}")
        components = tuple(components)
        if not components:
            raise ValueError("fixed-point set must be nonempty")
        # a component has d_F negative weights and n - dim F - d_F positive ones; points[p]
        # counts the fixed points with d_F = p
        minima = maxima = 0
        points, others = [0] * (n + 1), []
        for comp in components:
            rank = n - comp.complex_dim
            if rank < 0:
                raise ValueError("component dimension exceeds the manifold's")
            if comp.d_f > rank:
                raise ValueError(f"d_f={comp.d_f} exceeds the normal rank {rank}")
            if comp.weights is not None and len(comp.weights) != rank:
                raise ValueError(f"component of dimension {comp.complex_dim} needs {rank} weights")
            minima += comp.d_f == 0
            maxima += comp.d_f == rank
            if comp.complex_dim:
                others.append(comp)
            else:
                points[comp.d_f] += 1
        self.n = n
        self.components = components
        self.hamiltonian = hamiltonian
        if hamiltonian:
            # the moment map attains its minimum and maximum on a closed manifold, and each
            # is connected (Atiyah 1982), so exactly one component has no negative weight
            # and exactly one has no positive weight
            if not minima or not maxima:
                raise ValueError("a Hamiltonian action must attain d_f = 0 and d_f = n - dim F")
            if minima > 1 or maxima > 1:
                raise ValueError(
                    "a Hamiltonian action has one minimum and one maximum; "
                    f"got {minima} components with d_f = 0 and {maxima} with d_f = n - dim F"
                )
        # a point adds y^{d_F}, y^{2 d_F} and (-1)^{d_F} to the three sums, so points enter as counts
        self.chi_minus_y = None
        if all(c.chi_minus_y is not None for c in others):
            terms = [(c.chi_minus_y, c.d_f) for c in others]
            self.chi_minus_y = shifted_sum([(YPolynomial.from_row(1, points), 0), *terms])
        novikov = None
        if all(c.betti is not None for c in others):
            total = [0] * (2 * n + 1)
            total[0::2] = points
            for c in others:
                add_into(total, c.betti, 1, 2 * c.d_f)
            novikov = YPolynomial.from_row(1, total)
        self.novikov = novikov
        self.signature = None
        if all(c.signature is not None for c in others):
            signs = [-c.signature if c.d_f & 1 else c.signature for c in others]
            self.signature = sum(points[0::2]) - sum(points[1::2]) + sum(signs)
        if hamiltonian and novikov is not None and self.signature is not None:
            # the moment map is a perfect Morse-Bott function (Frankel 1959, Kirwan 1984), so the
            # Novikov numbers are the Betti numbers, and b_2p >= 1 as [omega]^p is nonzero
            row = novikov.row + (0,) * (2 * n + 1 - len(novikov.row))
            try:
                BettiProfile(2 * n, row, self.signature)
                if not all(row[0::2]):
                    raise ValueError(f"b_0, b_2, ..., b_{2 * n} must be positive")
            except ValueError as exc:
                raise ValueError(f"a Hamiltonian action's Novikov numbers are its Betti numbers: {exc}") from None

    __eq__ = slots_equal


def localized_chi_minus_y(model: FixedPointModel) -> YPolynomial:
    """chi_{-y} of the total space: sum over components of chi_{-y}(F) y^{d_F}."""
    if model.chi_minus_y is None:
        raise ValueError("positive-dimensional component lacks its modified genus")
    return model.chi_minus_y


def novikov_polynomial(model: FixedPointModel) -> YPolynomial:
    """Generating polynomial of the Novikov numbers: sum_F P_y(F) y^{2 d_F}.

    For a Hamiltonian action these are the Betti numbers of the total space.
    """
    if model.novikov is None:
        raise ValueError("component has no Betti numbers")
    return model.novikov


def localized_signature(model: FixedPointModel) -> int:
    """Signature of the total space: sum_F sigma(F) (-1)^{d_F}."""
    if model.signature is None:
        raise ValueError("component lacks a signature")
    return model.signature


class IsolatedConsistencyReport(NamedTuple):
    """Cross-checks available when every fixed component is a point."""

    odd_novikov_vanish: bool
    substitution_matches: bool
    chi_positive: bool

    @property
    def consistent(self) -> bool:
        return self.odd_novikov_vanish and self.substitution_matches


def consistency_isolated(model: FixedPointModel) -> IsolatedConsistencyReport:
    """For isolated fixed points the two localizations determine each other.

    The Novikov polynomial must have vanishing odd coefficients and equal
    the modified genus with y replaced by y^2; the manifold is chi-positive
    exactly when every even Novikov number is positive.
    """
    if any(c.complex_dim for c in model.components):
        raise ValueError("all components must be isolated points")
    chi = localized_chi_minus_y(model)
    novikov = novikov_polynomial(model)
    odd_vanish = not any(novikov.row[1::2])
    matches = odd_vanish and novikov.row[0::2] == chi.row and novikov.denominator == chi.denominator
    positive = len(chi.row) == model.n + 1 and all(c > 0 for c in chi.row)
    return IsolatedConsistencyReport(odd_vanish, matches, positive)


class SignatureIdentityReport(NamedTuple):
    """Outcome of the signature-vs-Novikov identity check.

    ``applicable`` records whether every component is signature-alternating
    (points count, via the rank-one convention). When it is False the
    identity is not asserted; both numbers are still reported.
    """

    applicable: bool
    signature: int
    alternating_sum: int

    @property
    def holds(self) -> bool:
        return self.signature == self.alternating_sum


def signature_identity_check(model: FixedPointModel) -> SignatureIdentityReport:
    """Check sigma(M) = sum_i (-1)^i b_{2i}(xi) via both localizations."""
    # a point is signature-alternating: sigma = b_0 = 1
    applicable = all(
        c.betti is not None and c.signature == even_alternating_sum(c.betti)
        for c in model.components
        if c.complex_dim
    )
    signature = localized_signature(model)
    alternating = even_alternating_sum(novikov_polynomial(model).row)
    return SignatureIdentityReport(applicable, signature, alternating)
