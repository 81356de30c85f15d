"""Fixed-point localization of the genus, Novikov polynomial, and signature."""

import random
import re
from fractions import Fraction

import pytest

from chigenus import localization, serialize
from chigenus.catalog import projective_space, standard_pn_action
from chigenus.engine import chi_minus_y
from chigenus.localization import (
    FixedComponent,
    FixedPointModel,
    consistency_isolated,
    localized_chi_minus_y,
    localized_signature,
    negative_weight_count,
    novikov_polynomial,
    signature_identity_check,
)
from chigenus.ypoly import YPolynomial, shifted_sum
from oracles import (
    reference_chi_minus_y,
    reference_consistency_isolated,
    reference_novikov_polynomial,
    reference_signature,
    reference_signature_identity_check,
)


def isolated(weights=None, d_f=None):
    return FixedComponent(complex_dim=0, weights=weights, d_f=d_f)


def test_negative_weight_count():
    assert negative_weight_count([1, 2, 3]) == 0
    assert negative_weight_count([-1, 2, -5]) == 2
    assert negative_weight_count([-1]) == 1


@pytest.mark.parametrize(
    "weights, message",
    [
        ([1, 0], "rotation weights must be nonzero"),
        ([-1, 0.0], "rotation weights must be int, got float"),
        ([2, -0.5], "rotation weights must be int, got float"),
        ([1, True], "rotation weights must be int, got bool"),
        ([False], "rotation weights must be int, got bool"),
    ],
)
def test_negative_weight_count_refusals(weights, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        negative_weight_count(weights)


def test_hamiltonian_must_be_a_bool():
    # a flag coerced with bool() would make "no" Hamiltonian, and refuse this valid
    # model for its two maxima
    components = [isolated(d_f=0), isolated(d_f=1), isolated(d_f=1)]
    assert not FixedPointModel(1, components).hamiltonian
    for value, kind in (("no", "str"), (1, "int"), (0, "int"), (None, "NoneType")):
        with pytest.raises(ValueError, match=f"^hamiltonian must be bool, got {kind}$"):
            FixedPointModel(1, components, hamiltonian=value)
    assert FixedPointModel(1, components[:2], hamiltonian=True).hamiltonian is True


def test_rotation_of_the_line():
    model = standard_pn_action(1, (0, 1))
    assert [c.weights for c in model.components] == [(1,), (-1,)]
    assert [c.d_f for c in model.components] == [0, 1]
    assert localized_chi_minus_y(model) == YPolynomial({0: 1, 1: 1})
    assert novikov_polynomial(model) == YPolynomial({0: 1, 2: 1})
    assert localized_signature(model) == 0


def test_standard_actions_match_genus_route():
    for n in range(1, 7):
        model = standard_pn_action(n)
        assert localized_chi_minus_y(model) == chi_minus_y(projective_space(n)), n
        assert novikov_polynomial(model) == YPolynomial({2 * i: 1 for i in range(n + 1)}), n


def test_single_point_model():
    model = FixedPointModel(0, [isolated(weights=())])
    assert localized_chi_minus_y(model) == YPolynomial.one()
    assert novikov_polynomial(model) == YPolynomial.one()
    assert localized_signature(model) == 1
    report = consistency_isolated(model)
    assert report.consistent and report.chi_positive


def test_trivial_action_on_sphere():
    # the whole space as a single fixed component at d_f = 0
    sphere = FixedComponent(
        complex_dim=1,
        weights=(),
        betti=(1, 0, 1),
        signature=0,
        chi_minus_y=YPolynomial({0: 1, 1: 1}),
    )
    model = FixedPointModel(1, [sphere])
    assert novikov_polynomial(model) == YPolynomial({0: 1, 2: 1})
    assert localized_chi_minus_y(model) == YPolynomial({0: 1, 1: 1})


def test_positive_dimensional_component_contributes_its_genus():
    sphere = FixedComponent(
        complex_dim=1,
        weights=(-1,),
        betti=(1, 0, 1),
        signature=0,
        chi_minus_y=YPolynomial({0: 1, 1: 1}),
    )
    model = FixedPointModel(2, [sphere, isolated(weights=(1, 2))])
    assert localized_chi_minus_y(model) == YPolynomial({0: 1, 1: 1, 2: 1})
    assert novikov_polynomial(model) == YPolynomial({0: 1, 2: 1, 4: 1})


def test_degree_bounds():
    for n in (2, 4, 6):
        model = standard_pn_action(n)
        assert localized_chi_minus_y(model).degree <= n
        assert novikov_polynomial(model).degree <= 2 * n


def test_isolated_consistency_detects_positivity_failure():
    # points at d_f = 0, 0, 2 with n = 2: coefficient of y^1 vanishes
    model = FixedPointModel(
        2, [isolated(d_f=0), isolated(d_f=0), isolated(d_f=2)]
    )
    assert localized_chi_minus_y(model) == YPolynomial({0: 2, 2: 1})
    assert novikov_polynomial(model) == YPolynomial({0: 2, 4: 1})
    report = consistency_isolated(model)
    assert report.consistent
    assert not report.chi_positive


def test_consistency_requires_isolated_points():
    sphere = FixedComponent(
        complex_dim=1,
        weights=(1,),
        betti=(1, 0, 1),
        signature=0,
        chi_minus_y=YPolynomial({0: 1, 1: 1}),
    )
    with pytest.raises(ValueError):
        consistency_isolated(FixedPointModel(2, [sphere, isolated(weights=(1, 2))]))


def test_localized_signature_alternates():
    assert localized_signature(standard_pn_action(2)) == 1
    assert localized_signature(standard_pn_action(4)) == 1
    assert localized_signature(standard_pn_action(3)) == 0


def test_signature_identity_on_mixed_model():
    sphere = FixedComponent(
        complex_dim=1,
        weights=(-2,),
        betti=(1, 0, 1),
        signature=0,
        chi_minus_y=YPolynomial({0: 1, 1: 1}),
    )
    model = FixedPointModel(
        2, [sphere, isolated(weights=(1, 2)), isolated(weights=(3, 5))]
    )
    report = signature_identity_check(model)
    assert report.applicable
    assert report.signature == report.alternating_sum == 2
    assert localized_chi_minus_y(model).evaluate(-1) == localized_signature(model)


def test_signature_identity_point():
    model = FixedPointModel(0, [isolated(weights=())])
    report = signature_identity_check(model)
    assert report.applicable and report.holds
    assert report.signature == 1


def test_signature_identity_flags_bad_components():
    # K3 x P^1 rotated on the line: two fixed K3 surfaces, which are not
    # signature-alternating (sigma = -16, b_0 - b_2 + b_4 = -20)
    k3 = {
        "complex_dim": 2,
        "betti": (1, 0, 22, 0, 1),
        "signature": -16,
        "chi_minus_y": YPolynomial({0: 2, 1: -20, 2: 2}),
    }
    model = FixedPointModel(3, [FixedComponent(weights=(1,), **k3), FixedComponent(weights=(-1,), **k3)])
    report = signature_identity_check(model)
    assert not report.applicable
    assert report.signature == report.alternating_sum == 0


def test_specialization_matches_signature_on_standard_actions():
    for n in range(1, 7):
        model = standard_pn_action(n)
        assert localized_chi_minus_y(model).evaluate(-1) == localized_signature(model)


def test_component_validation():
    with pytest.raises(ValueError, match="nonzero"):
        FixedComponent(weights=(0, 1))
    with pytest.raises(ValueError, match="weights or an explicit d_f"):
        FixedComponent(complex_dim=1)
    with pytest.raises(ValueError, match="contradicts"):
        FixedComponent(weights=(-1, 2), d_f=2)
    with pytest.raises(ValueError, match="^need Betti numbers b_0..b_2$"):
        FixedComponent(complex_dim=1, d_f=0, betti=(1,))


@pytest.mark.parametrize(
    "given, message",
    [
        ({"weights": (0.5, -1.5)}, "rotation weights must be int, got float"),
        (
            {"complex_dim": 1, "d_f": 0, "betti": (1.0, 0, 1.0), "signature": 0.5},
            "Betti numbers must be int, got float",
        ),
        ({"complex_dim": 1, "d_f": 0, "betti": (Fraction(1), 0, 1)}, "Betti numbers must be int, got Fraction"),
        ({"complex_dim": 1, "d_f": 0, "betti": (1, 0, 1), "signature": 0.5}, "signature must be int, got float"),
        # without Betti numbers the signature meets the same rule, by type first
        ({"complex_dim": 2, "d_f": 0, "signature": True}, "signature must be int, got bool"),
        ({"complex_dim": 1, "d_f": 0, "signature": 0.0}, "signature must be int, got float"),
    ],
)
def test_component_numbers_must_be_ints(given, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FixedComponent(**given)


@pytest.mark.parametrize(
    "given, message",
    [
        # only a manifold of real dimension 4k has a symmetric middle form, so a surface has sigma = 0
        (
            {"complex_dim": 1, "betti": (1, 0, 1), "signature": 5},
            "signature must vanish in dimensions not divisible by 4",
        ),
        ({"complex_dim": 3, "signature": -2}, "signature must vanish in dimensions not divisible by 4"),
        ({"complex_dim": 2, "betti": (1, 0, 1, 0, 1), "signature": 3}, "signature 3 exceeds the middle Betti number 1"),
        (
            {"complex_dim": 2, "betti": (1, 0, 22, 0, 1), "signature": -24},
            "signature -24 exceeds the middle Betti number 22",
        ),
        (
            {"complex_dim": 2, "betti": (1, 0, 2, 0, 1), "signature": 1},
            "middle Betti number and signature have different parity",
        ),
        (
            {"complex_dim": 1, "betti": (1, 0, 1), "signature": 0, "chi_minus_y": YPolynomial({5: 1})},
            "modified genus of degree 5 exceeds the component dimension 1",
        ),
        (
            {"complex_dim": 2, "chi_minus_y": YPolynomial({0: 1, 3: Fraction(1, 2)})},
            "modified genus of degree 3 exceeds the component dimension 2",
        ),
        # a closed connected component has b_0 = 1 and Poincare duality
        (
            {"complex_dim": 1, "betti": (0, 0, 5), "signature": 0, "chi_minus_y": YPolynomial({0: 1, 1: 1})},
            "Betti numbers must satisfy Poincare duality",
        ),
        ({"complex_dim": 1, "betti": (2, 0, 2)}, "a fixed component is connected, so b_0 must be 1"),
        ({"complex_dim": 2, "betti": (1, 0, 3, 0, 2), "signature": 1}, "Betti numbers must satisfy Poincare duality"),
    ],
)
def test_component_invariants_no_component_can_have_are_refused(given, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FixedComponent(d_f=0, **given)


def test_component_invariants_at_their_bounds_are_accepted():
    for given in (
        {"complex_dim": 1, "betti": (1, 2, 1), "signature": 0},
        {"complex_dim": 2, "betti": (1, 0, 22, 0, 1), "signature": -22},
        {"complex_dim": 2, "betti": (1, 0, 22, 0, 1), "signature": 22},
        {"complex_dim": 2, "betti": (1, 0, 0, 0, 1), "signature": 0},
        {"complex_dim": 4, "signature": 7},  # without Betti numbers only the dimension bounds sigma
        {"complex_dim": 2, "chi_minus_y": YPolynomial({2: Fraction(1, 3)})},
        {"complex_dim": 3, "chi_minus_y": YPolynomial.zero()},
    ):
        comp = FixedComponent(d_f=0, **given)
        assert (comp.signature, comp.chi_minus_y) == (given.get("signature"), given.get("chi_minus_y"))


def test_a_fixed_point_has_the_invariants_of_a_point():
    explicit = FixedComponent(d_f=0, betti=[1], signature=1, chi_minus_y=YPolynomial.one())
    default = FixedComponent(d_f=0)
    assert (explicit.betti, explicit.signature, explicit.chi_minus_y) == ((1,), 1, YPolynomial.one())
    assert (default.betti, default.signature, default.chi_minus_y) == ((1,), 1, YPolynomial.one())
    for given, message in (
        ({"betti": (3,)}, "a fixed point has Betti numbers (1,)"),
        ({"betti": (1, 0, 1)}, "a fixed point has Betti numbers (1,)"),
        ({"signature": -5}, "a fixed point has signature 1"),
        ({"chi_minus_y": YPolynomial({0: 2})}, "a fixed point has modified genus 1"),
        ({"chi_minus_y": YPolynomial({0: 1, 1: 1})}, "a fixed point has modified genus 1"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FixedComponent(complex_dim=0, d_f=0, **given)


def test_a_modified_genus_that_is_not_a_ypolynomial_is_refused():
    # a scalar is not a constant polynomial, so it cannot pass for a point's genus 1
    assert YPolynomial.constant(5) != 5 and YPolynomial.one() != Fraction(1)
    assert len({YPolynomial.constant(5), 5}) == 2
    for complex_dim in (0, 1):
        with pytest.raises(ValueError, match="^modified genus must be YPolynomial, got int$"):
            FixedComponent(complex_dim, d_f=0, chi_minus_y=1)


def test_fixed_points_share_one_set_of_invariants():
    # a point builds none of its own: every one holds the same three objects
    first = FixedComponent(d_f=0)
    second = FixedComponent(weights=(1, -1), betti=[1], signature=1, chi_minus_y=YPolynomial.one())
    assert first.betti is second.betti
    assert first.signature is second.signature
    assert first.chi_minus_y is second.chi_minus_y


def test_model_validation():
    with pytest.raises(ValueError, match="nonempty"):
        FixedPointModel(2, [])
    with pytest.raises(ValueError, match="exceeds the normal rank"):
        FixedPointModel(1, [isolated(weights=(-1, -2))])
    with pytest.raises(ValueError, match="needs 2 weights"):
        FixedPointModel(2, [isolated(weights=(1,))])
    with pytest.raises(ValueError, match="must attain"):
        FixedPointModel(2, [isolated(d_f=0), isolated(d_f=1)], hamiltonian=True)


def test_a_model_built_from_a_generator_equals_the_one_built_from_a_list():
    # a generator is read once, so the nonempty check, the validation and the
    # stored components all see the same tuple
    weights = [(1, 2), (-1, 1), (-1, -2)]
    from_list = FixedPointModel(2, [FixedComponent(weights=w) for w in weights])
    from_generator = FixedPointModel(2, (FixedComponent(weights=w) for w in weights))
    assert from_generator == from_list and len(from_generator.components) == 3
    assert localized_signature(from_generator) == 1


def test_an_empty_generator_is_an_empty_fixed_point_set():
    with pytest.raises(ValueError, match="^fixed-point set must be nonempty$"):
        FixedPointModel(2, (c for c in ()))


def test_a_hamiltonian_model_has_one_minimum_and_one_maximum():
    curve = {"complex_dim": 1, "betti": (1, 0, 1), "signature": 0, "chi_minus_y": YPolynomial.one()}
    cases = [
        # two isolated minima and two maxima: once accepted, with Novikov polynomial 2 + 2y^2
        (1, [isolated(d_f=0), isolated(d_f=0), isolated(d_f=1), isolated(d_f=1)], 2, 2),
        # two fixed curves at the bottom of a surface's moment map
        (2, [FixedComponent(d_f=0, **curve), FixedComponent(d_f=0, **curve), isolated(d_f=2)], 2, 1),
        # two fixed curves at the top: all of their normal weights negative
        (2, [isolated(d_f=0), FixedComponent(d_f=1, **curve), FixedComponent(d_f=1, **curve)], 1, 2),
    ]
    for n, components, minima, maxima in cases:
        message = (
            "a Hamiltonian action has one minimum and one maximum; "
            f"got {minima} components with d_f = 0 and {maxima} with d_f = n - dim F"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FixedPointModel(n, components, hamiltonian=True)
        assert not FixedPointModel(n, components).hamiltonian
    # a surface fixed by the action is its own minimum and maximum
    surface = FixedComponent(2, d_f=0, betti=(1, 0, 1, 0, 1), signature=1, chi_minus_y=YPolynomial.one())
    assert FixedPointModel(2, [surface], hamiltonian=True).hamiltonian
    # a missing extreme is refused before a repeated one, whatever the components' dimensions
    with pytest.raises(ValueError, match="must attain d_f = 0 and d_f = n"):
        FixedPointModel(1, [isolated(d_f=0), isolated(d_f=0)], hamiltonian=True)
    missing = "a Hamiltonian action must attain d_f = 0 and d_f = n - dim F"
    for components in (
        # no minimum: the one fixed curve has a negative weight, and b_0 would read 0
        [FixedComponent(d_f=1, **curve)],
        # no maximum: the bottom curve and the point both have a positive weight
        [FixedComponent(d_f=0, **curve), isolated(d_f=1)],
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(missing)}$"):
            FixedPointModel(2, components, hamiltonian=True)
        assert not FixedPointModel(2, components).hamiltonian


@pytest.mark.parametrize(
    "n, d_fs, rule",
    [
        # two points, weights (1, 1) and (-1, -1): Novikov 1 + y^4 and sigma = 2
        (2, (0, 2), "signature 2 exceeds the middle Betti number 0"),
        (3, (0, 2, 3), "signature must vanish in dimensions not divisible by 4"),
        (4, (0, 1, 2, 3, 3, 4), "Betti numbers must satisfy Poincare duality"),
        # 1 + y^6 with sigma = 0 is a Betti profile, but [omega] would square to 0
        (3, (0, 3), "b_0, b_2, ..., b_6 must be positive"),
    ],
)
def test_a_hamiltonian_models_novikov_numbers_are_its_betti_numbers(n, d_fs, rule):
    components = [isolated(d_f=d_f) for d_f in d_fs]
    message = f"a Hamiltonian action's Novikov numbers are its Betti numbers: {rule}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FixedPointModel(n, components, hamiltonian=True)
    assert not FixedPointModel(n, components).hamiltonian
    # a Hamiltonian model that lacks the Novikov numbers or the signature is not checked
    curve = FixedComponent(1, d_f=n - 1, betti=(1, 0, 1), chi_minus_y=YPolynomial.one())
    assert FixedPointModel(n, [*components[:-1], curve], hamiltonian=True).signature is None


def test_standard_actions_keep_one_minimum_and_one_maximum():
    # the forms-actions models: distinct exponents in any order, n up to 60
    rng = random.Random(7)
    for n in range(1, 61):
        exponents = rng.sample(range(-100, 100), n + 1)
        model = standard_pn_action(n, tuple(exponents))
        assert model.hamiltonian and sorted([c.d_f for c in model.components]) == list(range(n + 1))


def test_hamiltonian_extremality_accepts_standard_action():
    model = standard_pn_action(3)
    assert model.hamiltonian
    assert {c.d_f for c in model.components} == {0, 1, 2, 3}


def test_hamiltonian_isolated_models_have_unique_minimum():
    # connectedness: exactly one fixed point at the moment-map minimum,
    # visible as a y^0 coefficient of 1 in the Novikov polynomial
    for n in range(1, 7):
        model = standard_pn_action(n)
        assert novikov_polynomial(model).coefficient(0) == 1


def test_exponent_choice_does_not_matter():
    reference = standard_pn_action(2, (0, 1, 2))
    for exponents in ((0, 2, 5), (-3, 1, 4), (10, 20, 30)):
        other = standard_pn_action(2, exponents)
        assert localized_chi_minus_y(other) == localized_chi_minus_y(reference)
        assert novikov_polynomial(other) == novikov_polynomial(reference)


def test_repeated_exponents_rejected():
    with pytest.raises(ValueError, match="distinct"):
        standard_pn_action(2, (0, 1, 1))


def test_missing_data_errors():
    comp = FixedComponent(complex_dim=1, weights=(1,), betti=(1, 0, 1))
    model = FixedPointModel(2, [comp, isolated(weights=(1, 2))])
    with pytest.raises(ValueError, match="modified genus"):
        localized_chi_minus_y(model)
    with pytest.raises(ValueError, match="signature"):
        localized_signature(model)
    bare = FixedComponent(complex_dim=1, weights=(1,), signature=0, chi_minus_y=YPolynomial.one())
    model2 = FixedPointModel(2, [bare, isolated(weights=(1, 2))])
    with pytest.raises(ValueError, match="Betti"):
        novikov_polynomial(model2)


def random_component(rng, n, signed=False):
    """A component of random dimension with Fraction genus coefficients and int Betti numbers.

    A ``signed`` component also gets a signature that its dimension and
    middle Betti number allow, half the time the alternating sum of its even
    Betti numbers when that is allowed.
    """
    r = rng.randint(0, n)
    d_f = rng.randint(0, n - r)
    half = [rng.randint(0, 4) for _ in range(r + 1)]
    half[0] = 1  # a component is connected; drawn all the same, so the seeded stream is unchanged
    betti = half + half[-2::-1] if r else [1]  # a point has the invariants of a point
    chi = YPolynomial({p: Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for p in range(r + 1)})
    if not r:
        chi = YPolynomial.one()
    signature = None
    if signed and r:
        middle = betti[r]
        alternating = sum((-1) ** i * betti[2 * i] for i in range(r + 1))
        if r % 2:
            signature = 0
        elif abs(alternating) <= middle and rng.random() < 0.5:
            signature = alternating
        else:
            signature = rng.choice(range(-middle, middle + 1, 2))
    return FixedComponent(complex_dim=r, d_f=d_f, betti=betti, signature=signature, chi_minus_y=chi)


def test_one_pass_sums_match_reference_route():
    rng = random.Random(60)
    for _ in range(200):
        n = rng.randint(0, 8)
        model = FixedPointModel(n, [random_component(rng, n) for _ in range(rng.randint(1, 6))])
        assert localized_chi_minus_y(model) == reference_chi_minus_y(model)
        assert novikov_polynomial(model) == reference_novikov_polynomial(model)
    for n in range(1, 13):
        model = standard_pn_action(n)
        assert localized_chi_minus_y(model) == reference_chi_minus_y(model)
        assert novikov_polynomial(model) == reference_novikov_polynomial(model)


def test_one_pass_sums_keep_reference_errors():
    no_genus = FixedComponent(complex_dim=1, weights=(1,), betti=(1, 0, 1))
    no_betti = FixedComponent(complex_dim=1, weights=(1,), chi_minus_y=YPolynomial.one())
    for comp, field, route, reference in (
        (no_genus, "chi_minus_y", localized_chi_minus_y, reference_chi_minus_y),
        (no_betti, "novikov", novikov_polynomial, reference_novikov_polynomial),
        (no_genus, "signature", localized_signature, reference_signature),
    ):
        # the model is built all the same: only the sum that needs the missing data is refused
        model = FixedPointModel(2, [isolated(weights=(1, 2)), comp])
        assert getattr(model, field) is None
        with pytest.raises(ValueError) as got:
            route(model)
        with pytest.raises(ValueError) as want:
            reference(model)
        assert str(got.value) == str(want.value)


def test_one_localization_per_model(monkeypatch):
    # a model sums its fixed points once, as it is built, and no report sums them again
    summed = []

    def counting(terms):
        summed.append(len(terms))
        return shifted_sum(terms)

    monkeypatch.setattr(localization, "shifted_sum", counting)
    # the four calls of a forms-actions action batch
    model = standard_pn_action(8)
    assert localized_chi_minus_y(model).items() == [(p, 1) for p in range(9)]
    assert novikov_polynomial(model).items() == [(2 * p, 1) for p in range(9)]
    assert signature_identity_check(model) == (True, 1, 1)
    assert consistency_isolated(model) == (True, True, True)
    assert summed == [9]
    # a catalog build and its read-back: one model each, one sum each
    summed.clear()
    built = projective_space(4)
    assert serialize.manifold_from_json(serialize.manifold_to_json(built)) == built
    assert summed == [5, 5]


def test_reports_on_rows_match_the_fraction_routes():
    # seeded models of points only (any d_F, so the modified genus need not be
    # positive) and of points mixed with components that have odd Betti numbers
    # and modified genera with denominators above 1
    rng = random.Random(28)
    seen = set()
    for _ in range(300):
        n = rng.randint(0, 9)
        size = rng.randint(1, 7)
        if rng.random() < 0.5:
            model = FixedPointModel(n, [isolated(d_f=rng.randint(0, n)) for _ in range(size)])
        else:
            model = FixedPointModel(n, [random_component(rng, n, signed=True) for _ in range(size)])
        assert novikov_polynomial(model) == reference_novikov_polynomial(model) == model.novikov
        assert localized_chi_minus_y(model) == reference_chi_minus_y(model) == model.chi_minus_y
        assert localized_signature(model) == reference_signature(model) == model.signature
        identity = signature_identity_check(model)
        assert identity == reference_signature_identity_check(model)
        seen.add(("applicable", identity.applicable, identity.holds))
        if not any(c.complex_dim for c in model.components):
            report = consistency_isolated(model)
            assert report == reference_consistency_isolated(model)
            seen.add(("isolated",) + tuple(report))
        else:
            with pytest.raises(ValueError, match="^all components must be isolated points$"):
                consistency_isolated(model)
            with pytest.raises(ValueError, match="^all components must be isolated points$"):
                reference_consistency_isolated(model)
    # the seeds reach both outcomes of every field the reports read off the rows
    assert {("applicable", True, True), ("applicable", False, True), ("applicable", False, False)} <= seen
    assert {("isolated", True, True, True), ("isolated", True, True, False)} <= seen
    for n in range(0, 13):
        model = standard_pn_action(n)
        assert model.chi_minus_y == reference_chi_minus_y(model)
        assert model.novikov == reference_novikov_polynomial(model)
        assert model.signature == reference_signature(model) == (1 if n % 2 == 0 else 0)
        assert signature_identity_check(model) == reference_signature_identity_check(model)
        assert consistency_isolated(model) == reference_consistency_isolated(model) == (True, True, True)
