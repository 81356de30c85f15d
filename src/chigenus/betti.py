"""Inertia of intersection forms and Betti-number inequalities.

The middle intersection form of a 4m-dimensional manifold decomposes as
b^+ positive, b^- negative and (for degenerate input) b^0 null directions;
the triple is a congruence invariant. For signature-alternating manifolds
the even Betti numbers obey two families of inequalities whose equality
cases are exactly b^+ = 1 and b^- = 0, the same conditions that
characterize the reverse and direct Cauchy-Schwarz property of the middle
cohomology pairing.

The inertia is computed on integers: the form is scaled by the one common
denominator that ``ypoly.clear`` gives all its entries (a positive scaling
is a congruence), and a fraction-free symmetric
elimination keeps the remaining block equal to the previous pivot times the
true Schur complement, so each pivot's sign is its own sign times the
previous pivot's. Every division in it is exact: by Sylvester's identity
every entry is a minor of the scaled form, up to unimodular congruences.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .ypoly import clear, require_counts, require_exact, slots_equal


class InertiaTriple(NamedTuple):
    b_plus: int
    b_minus: int
    b_zero: int


def inertia(matrix: Sequence[Sequence[Fraction | int]]) -> InertiaTriple:
    """Inertia of a symmetric rational matrix by fraction-free congruence diagonalization.

    Entries must be ``int`` or ``Fraction``, whose numerators and
    denominators are read as they are; any other type raises ``ValueError``.
    ``ypoly.clear`` puts all entries over one common denominator; scaling by
    a positive number is a congruence, so the inertia is unchanged and every
    later step runs on Python integers. Symmetric pivoting then eliminates
    one row and column at a time (Bareiss 1968): with ``prev`` the previous
    pivot (1 before the first), the remaining block is updated by
    ``w[r][t] = (p * w[r][t] - w[r][k] * w[k][t]) / prev``, and eliminated
    rows and columns are never read again.

    The remaining block is always ``prev`` times the true Schur complement,
    so it has the same zero pattern, and the true pivot has the sign of
    ``p * prev``. The division is exact: by Sylvester's identity each entry
    is a minor of an integer matrix congruent to the scaled input. A zero
    diagonal with a nonzero off-diagonal entry is repaired by adding the
    partner row/column; that is a unimodular congruence on rows not yet
    eliminated, so the entries stay minors of an integer matrix, and it
    surfaces a usable pivot (the hyperbolic pair then contributes one
    positive and one negative direction). A nonzero remainder would break
    that invariant and raises ``ArithmeticError``.
    """
    size = len(matrix)
    for row in matrix:
        if len(row) != size:
            raise ValueError("matrix must be square")
        require_exact("matrix entries", row)
    _, flat = clear([v for row in matrix for v in row])
    work = [flat[i * size : (i + 1) * size] for i in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if work[i][j] != work[j][i]:
                raise ValueError("matrix must be symmetric")
    plus = minus = zero = 0
    prev = 1
    rows = list(range(size))
    while rows:
        k = next((r for r in rows if work[r][r] != 0), None)
        if k is None:
            pair = next(
                ((r, s) for r in rows for s in rows if r != s and work[r][s] != 0),
                None,
            )
            if pair is None:
                zero += len(rows)
                break
            r, s = pair
            for t in rows:
                work[r][t] += work[s][t]
            for t in rows:
                work[t][r] += work[t][s]
            k = r
        pivot = work[k][k]
        if (pivot > 0) == (prev > 0):
            plus += 1
        else:
            minus += 1
        rows.remove(k)
        pivot_row = work[k]
        for i, r in enumerate(rows):
            row = work[r]
            factor = row[k]
            for t in rows[i:]:
                entry, remainder = divmod(pivot * row[t] - factor * pivot_row[t], prev)
                if remainder:
                    raise ArithmeticError("fraction-free elimination left a remainder")
                row[t] = work[t][r] = entry
        prev = pivot
    return InertiaTriple(plus, minus, zero)


def require_signature(dim: int, sigma: object) -> None:
    """Refuse a signature that is not an ``int``, or that is nonzero in a real dimension not divisible by 4."""
    if sigma.__class__ is not int:
        require_exact("signature", [sigma], (int,))
    if dim % 4 and sigma:
        raise ValueError("signature must vanish in dimensions not divisible by 4")


class BettiProfile:
    """Betti numbers b_0..b_dim of a closed oriented manifold, maybe with sigma.

    This is the one check of a (Betti row, signature) pair. Poincare duality
    (b_i = b_{dim-i}) is enforced. A sigma passes :func:`require_signature`,
    so it vanishes when the dimension is not divisible by 4; in dimension 4m
    it is b^+ - b^- of a nondegenerate middle form of rank b_{2m} = b^+ + b^-,
    so |sigma| <= b_{2m} and sigma has the parity of b_{2m}. Profiles are
    immutable values: equal fields compare equal and hash alike.
    """

    __slots__ = ("dim", "betti", "sigma")

    def __init__(self, dim: int, betti: Sequence[int], sigma: int | None = None) -> None:
        require_exact("dimension", (dim,), (int,))
        if dim < 0 or dim % 2 != 0:
            raise ValueError("dimension must be even and non-negative")
        betti = tuple(betti)
        if len(betti) != dim + 1:
            raise ValueError(f"need Betti numbers b_0..b_{dim}")
        require_counts("Betti numbers", betti)
        if sigma is not None:
            require_signature(dim, sigma)
        if betti != betti[::-1]:
            raise ValueError("Betti numbers must satisfy Poincare duality")
        if sigma is not None and not dim % 4:
            middle = betti[dim // 2]
            if abs(sigma) > middle:
                raise ValueError(f"signature {sigma} exceeds the middle Betti number {middle}")
            if (sigma - middle) % 2:
                raise ValueError("middle Betti number and signature have different parity")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "betti", betti)
        object.__setattr__(self, "sigma", sigma)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __eq__ = slots_equal

    def __hash__(self) -> int:
        return hash((self.dim, self.betti, self.sigma))

    def __repr__(self) -> str:
        return f"BettiProfile(dim={self.dim}, betti={self.betti}, sigma={self.sigma})"


def with_middle_form(profile: BettiProfile, triple: InertiaTriple) -> BettiProfile:
    """``profile`` checked against the inertia of its middle intersection form, sigma filled in.

    The form lives in the middle degree of a 4m-dimensional manifold, so its
    size is the middle Betti number, and by Poincare duality it is
    nondegenerate. A sigma the profile gives must be b^+ - b^-.
    """
    if profile.dim % 4 != 0:
        raise ValueError("a middle intersection form needs dimension divisible by 4")
    middle = profile.betti[profile.dim // 2]
    size = triple.b_plus + triple.b_minus + triple.b_zero
    if size != middle:
        raise ValueError(f"form size {size} does not match the middle Betti number {middle}")
    if triple.b_zero:
        raise ValueError(f"a middle intersection form is nondegenerate, got b_zero = {triple.b_zero}")
    sigma = triple.b_plus - triple.b_minus
    if profile.sigma is not None and profile.sigma != sigma:
        raise ValueError(f"profile sigma {profile.sigma} is not the form's b_plus - b_minus = {sigma}")
    return BettiProfile(profile.dim, profile.betti, sigma)


def even_alternating_sum(row: Sequence[int]) -> int:
    """b_0 - b_2 + b_4 - ... of a row b_0, b_1, ...: entries of index 0 mod 4 minus those of index 2 mod 4."""
    return sum(row[0::4]) - sum(row[2::4])


def signature_alternating(profile: BettiProfile) -> bool:
    """Whether sigma equals the alternating sum of the even Betti numbers.

    In dimensions 2 mod 4 the alternating sum cancels by duality, so the
    predicate reduces to sigma == 0 there.
    """
    if profile.sigma is None:
        raise ValueError("profile has no signature")
    return profile.sigma == even_alternating_sum(profile.betti)


class CauchySchwarzStatus(NamedTuple):
    reverse_cs: bool
    cs: bool


def cs_classification(triple: InertiaTriple) -> CauchySchwarzStatus:
    """Reverse Cauchy-Schwarz iff b^+ = 1; Cauchy-Schwarz iff b^- = 0.

    A middle intersection form of a symplectic manifold pairs the symplectic
    class positively with itself, so b^+ = 0 cannot occur in valid data.
    """
    if triple.b_plus < 1:
        raise ValueError("invalid symplectic data: middle form needs b_plus >= 1")
    return CauchySchwarzStatus(triple.b_plus == 1, triple.b_minus == 0)


class BettiInequality(NamedTuple):
    k: int
    lhs: int
    rhs: int
    holds: bool
    equality: bool


class BettiInequalityReport(NamedTuple):
    b_plus: int
    b_minus: int
    alternating: bool
    upper: BettiInequality  # sum b_{2+4i} <= sum b_{4+4i}; equality iff b^+ = 1
    lower: BettiInequality  # sum b_{2+4i} >= sum b_{4i};   equality iff b^- = 0


def _betti_sums(betti: tuple[int, ...], k: int, start: int, at_most: bool) -> BettiInequality:
    """sum b_{2+4i} against sum b_{start+4i} over i < k: at most it if ``at_most``, else at least."""
    lhs = sum(betti[2 : 4 * k : 4])
    rhs = sum(betti[start : start + 4 * k : 4])
    return BettiInequality(k, lhs, rhs, lhs <= rhs if at_most else lhs >= rhs, lhs == rhs)


def betti_inequality_check(profile: BettiProfile) -> BettiInequalityReport:
    """Both Betti-sum inequalities for a 4m-dimensional profile.

    b^{+-} are (b_{2m} +- sigma) / 2, whole and non-negative because the
    profile's constructor bounds sigma by b_{2m} and gives it b_{2m}'s
    parity. The equality cases are only meaningful when the profile is
    signature-alternating, which the report records; a profile without a
    signature is refused by :func:`signature_alternating`.
    """
    if profile.dim % 4 != 0:
        raise ValueError("need dimension divisible by 4")
    alternating = signature_alternating(profile)
    m = profile.dim // 4
    middle = profile.betti[2 * m]
    b_plus = (middle + profile.sigma) // 2
    b_minus = (middle - profile.sigma) // 2
    upper = _betti_sums(profile.betti, m // 2, 4, True)
    lower = _betti_sums(profile.betti, (m + 1) // 2, 0, False)
    return BettiInequalityReport(b_plus, b_minus, alternating, upper, lower)


UNIMODALITY_LABEL = "conjecture diagnostic"


def tolman_unimodality_report(profile: BettiProfile) -> bool:
    """Diagnostic only: whether the chain b_2 <= b_4 <= ... up to the middle holds.

    This inequality chain is an open question, not a theorem; writers label it
    :data:`UNIMODALITY_LABEL` and it must never be asserted.
    """
    chain = profile.betti[2 : profile.dim // 2 + 1 : 2]
    return all([a <= b for a, b in zip(chain, chain[1:])])
