"""The report records and the validated data classes keep their fields, defaults and checks."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

from chigenus import serialize, ypoly
from chigenus.betti import BettiInequality, BettiInequalityReport, BettiProfile, betti_inequality_check
from chigenus.catalog import (
    CohomologyModel,
    ManifoldData,
    hypersurface,
    make_action,
    make_manifold,
    projective_space,
    standard_pn_action,
)
from chigenus.chern import ChernPolynomial
from chigenus.engine import chi_vector
from chigenus.inequalities import CurvatureBoundReport, InequalityReport, SurfaceInequality, check_inequalities
from chigenus.kexpansion import KTable, SpanCheck, binomial_transform, closed_form_k, k_coefficients
from chigenus.localization import (
    FixedComponent,
    FixedPointModel,
    IsolatedConsistencyReport,
    SignatureIdentityReport,
)
from chigenus.series import TruncatedSeries
from chigenus.ypoly import YPolynomial

from oracles import point

FIELDS = {
    BettiInequality: ("k", "lhs", "rhs", "holds", "equality"),
    BettiInequalityReport: ("b_plus", "b_minus", "alternating", "upper", "lower"),
    InequalityReport: (
        "index", "lhs", "rhs", "scale", "holds", "equality", "equality_witness", "hypothesis_met"
    ),
    SurfaceInequality: ("label", "lhs", "rhs", "holds", "equality"),
    CurvatureBoundReport: ("n", "lhs", "rhs", "holds", "equality", "surface"),
    KTable: ("k_polys",),
    SpanCheck: ("in_span", "combination"),
    IsolatedConsistencyReport: ("odd_novikov_vanish", "substitution_matches", "chi_positive"),
    SignatureIdentityReport: ("applicable", "signature", "alternating_sum"),
}


P2_NUMBERS, P2_ROW = {(2,): 3, (1, 1): 9}, (1, 0, 1, 0, 1)


def test_records_keep_their_fields_defaults_properties_and_checks():
    for record, fields in FIELDS.items():
        assert record._fields == fields, record.__name__
    check = BettiInequality(1, 2, 4, True, False)
    assert check == (1, 2, 4, True, False) and check._asdict()["rhs"] == 4
    k, lhs, *_ = check
    assert (k, lhs) == (1, 2)

    assert SpanCheck(False).combination == ()
    assert IsolatedConsistencyReport(True, True, False).consistent
    assert not IsolatedConsistencyReport(True, False, True).consistent
    assert SignatureIdentityReport(True, 1, 1).holds
    assert not SignatureIdentityReport(True, 1, -1).holds

    profile = BettiProfile(4, [1, 0, 2, 0, 1], 0)
    assert profile.betti == (1, 0, 2, 0, 1)
    assert profile == BettiProfile(4, (1, 0, 2, 0, 1), 0)
    assert hash(profile) == hash(BettiProfile(4, (1, 0, 2, 0, 1), 0))
    assert profile != BettiProfile(4, (1, 0, 2, 0, 1)) and profile != (4, (1, 0, 2, 0, 1), 0)
    assert len({profile, BettiProfile(4, (1, 0, 2, 0, 1), 0), BettiProfile(4, (1, 0, 2, 0, 1), 2)}) == 2
    with pytest.raises(AttributeError):
        profile.sigma = 2
    for args, message in (
        ((3, (1, 0, 0, 1)), "dimension must be even and non-negative"),
        ((4, (1, 0, 1)), "need Betti numbers b_0..b_4"),
        ((2, (1, -1, 1)), "Betti numbers must be non-negative"),
        ((4, (1, 0, 2, 0, 3)), "Betti numbers must satisfy Poincare duality"),
        ((2, (1, 2, 1), 1), "signature must vanish in dimensions not divisible by 4"),
        ((4, (1, 0, 2, 0, 1), 4), "signature 4 exceeds the middle Betti number 2"),
        ((4, (1, 0, 2, 0, 1), 1), "middle Betti number and signature have different parity"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BettiProfile(*args)

    with pytest.raises(ValueError, match="^one name per generator$"):
        CohomologyModel(("h", "k"), (1,), Fraction(1), {})
    with pytest.raises(ValueError, match="^top integral must be nonzero$"):
        CohomologyModel(("h",), (1,), Fraction(0), {})

    data = ManifoldData(1, {(1,): 2})
    assert data.chern_numbers == {(1,): Fraction(2)} and data.betti is None and data.action is None
    assert data == ManifoldData(1, {(1,): Fraction(2)})
    assert data != ManifoldData(1, {(1,): Fraction(3)})
    with pytest.raises(TypeError):
        hash(data)
    for args, kwargs, message in (
        ((1, {}), {}, "Chern numbers must cover all partitions of 1; missing [1]"),
        ((1, {(1,): 2, (2,): 1}), {}, "Chern numbers must cover all partitions of 1; got 2, but p(1) = 1"),
        ((2, {(2,): 1, (1, 1, 1): 1}), {}, "Chern numbers must cover all partitions of 2; missing [1, 1]"),
        ((1, {(1,): 2}), {"betti": projective_space(2).betti}, "betti.dim 4 is not twice the dimension 1"),
        ((1, {(1,): 2}), {"action": projective_space(2).action}, "action.n 2 is not the dimension 1"),
        # P^2's Betti numbers with K3's Chern numbers, and a point's with c_0 = 2
        (
            (2, {(2,): 24, (1, 1): 0}),
            {"betti": projective_space(2).betti},
            "betti has Euler number 3, but the top Chern number is 24",
        ),
        ((0, {(): 2}), {"betti": BettiProfile(0, (1,), 1)}, "betti has Euler number 1, but the top Chern number is 2"),
        # P^2's numbers with the opposite signature, and with the P^1 x P^1 action of four points
        ((2, P2_NUMBERS), {"betti": BettiProfile(4, P2_ROW, -1)}, "signature -1 is not chi_y(1) = 1"),
        (
            (2, P2_NUMBERS),
            {"action": FixedPointModel(2, [FixedComponent(weights=(a, b)) for a in (1, -1) for b in (1, -1)])},
            "action localizes chi_-y = 1 + 2*y + 1*y^2, but the Chern numbers give 1 + 1*y + 1*y^2",
        ),
        # c_2 = 3 on P^2's row: chi_y(1) = (c_1^2 - 2 c_2) / 3 is 4/3 at c_1^2 = 10, and 2 > b_2 at 12
        ((2, {(2,): 3, (1, 1): 10}), {"betti": BettiProfile(4, P2_ROW)}, "chi_y(1) = 4/3 is not an integer"),
        ((2, {(2,): 3, (1, 1): 12}), {"betti": BettiProfile(4, P2_ROW)}, "signature 2 exceeds the middle Betti number 1"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            ManifoldData(*args, **kwargs)


def test_a_record_fills_in_its_signature_and_keeps_its_numbers_read_only():
    p2 = projective_space(2)
    doc = serialize.manifold_to_json(p2)
    del doc["betti"]["sigma"]
    read = serialize.manifold_from_json(doc)
    assert read.betti.sigma == 1 == p2.genus.evaluate(1) and read == p2
    assert serialize.manifold_to_json(read) == serialize.manifold_to_json(p2) != doc
    with pytest.raises(TypeError):
        p2.chern_numbers[(2,)] = 4
    assert p2.chern_numbers == P2_NUMBERS and p2 == projective_space(2)


EXACT_RECORDS = (ManifoldData, ChernPolynomial, FixedComponent, FixedPointModel, BettiProfile, TruncatedSeries)

CURVE = {"d_f": 0, "betti": (1, 0, 1), "signature": 0}


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ManifoldData(1.0, {(1,): 2}), "dimension must be int, got float"),
        (lambda: ManifoldData(1, {(1,): 0.1}), "Chern numbers must be int or Fraction, got float"),
        (
            lambda: FixedComponent(complex_dim=1.0, chi_minus_y=YPolynomial.one(), **CURVE),
            "component dimension must be int, got float",
        ),
        (lambda: FixedComponent(d_f=0.0), "d_f must be int, got float"),
        (lambda: BettiProfile(4.0, (1, 0, 2, 0, 1), 0), "dimension must be int, got float"),
        (lambda: FixedPointModel(1.0, [FixedComponent(d_f=0), FixedComponent(d_f=1)]), "n must be int, got float"),
        (lambda: binomial_transform([Fraction(1, 2), 0.5]), "chi-vector must be int or Fraction, got float"),
        (lambda: FixedComponent(1, chi_minus_y={0: 1}, **CURVE), "modified genus must be YPolynomial, got dict"),
        (lambda: FixedComponent(1, chi_minus_y=5, **CURVE), "modified genus must be YPolynomial, got int"),
        (lambda: YPolynomial({1.5: 1}), "degrees must be int, got float"),
        (lambda: YPolynomial({0: 1, 1: 1}).evaluate(0.1), "evaluation point must be int or Fraction, got float"),
        (
            lambda: ChernPolynomial(1, {(1,): 1}).evaluate({(1,): 0.5}),
            "Chern numbers must be int or Fraction, got float",
        ),
        # a bool is an int to Python, but a writer would emit it as true or "True"
        (lambda: ManifoldData(True, {(1,): 2}), "dimension must be int, got bool"),
        (lambda: ManifoldData(1, {(1,): True}), "Chern numbers must be int or Fraction, got bool"),
        (lambda: BettiProfile(4, (1, 0, 1, 0, 1), True), "signature must be int, got bool"),
        (lambda: BettiProfile(4, (True, 0, 1, 0, 1), 1), "Betti numbers must be int, got bool"),
        (lambda: FixedComponent(d_f=False), "d_f must be int, got bool"),
        (lambda: FixedComponent(weights=(-1, True)), "rotation weights must be int, got bool"),
        (lambda: FixedComponent(weights=(False,)), "rotation weights must be int, got bool"),
        (lambda: FixedComponent(1, d_f=0, signature=True), "signature must be int, got bool"),
        (lambda: YPolynomial({0: True}), "coefficients must be int or Fraction, got bool"),
    ],
    ids=[
        "manifold-dimension", "chern-number", "component-dimension", "d_f", "profile-dimension", "model-n",
        "chi-vector", "modified-genus-dict", "modified-genus-int", "degree", "evaluation-point", "chern-evaluate",
        "manifold-dimension-bool", "chern-number-bool", "profile-signature-bool", "betti-number-bool",
        "d_f-bool", "weight-bool", "zero-weight-bool", "component-signature-bool", "coefficient-bool",
    ],
)
def test_every_record_field_refuses_what_is_not_exact(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FixedPointModel(1, [FixedComponent(2, d_f=0)]), "component dimension exceeds the manifold's"),
        (
            lambda: betti_inequality_check(BettiProfile(6, (1, 0, 1, 0, 1, 0, 1), 0)),
            "need dimension divisible by 4",
        ),
        (lambda: betti_inequality_check(BettiProfile(4, (1, 0, 2, 0, 1))), "profile has no signature"),
        (lambda: projective_space(0), "need n >= 1"),
        (lambda: hypersurface(1, 0), "need n >= 1 and d >= 1"),
        (lambda: standard_pn_action(2, (0, 1)), "need exactly 3 exponents for n = 2"),
        (lambda: make_action("pn:2"), "unknown action key 'pn:2'"),
        (lambda: make_manifold("pnaction:2"), "unknown catalog key 'pnaction:2'"),
        (lambda: YPolynomial.from_row(0, (1,)), "denominator must be positive"),
        (lambda: YPolynomial.one() ** -1, "negative exponent"),
        (lambda: ChernPolynomial(-1), "grade must be non-negative"),
        (lambda: closed_form_k(5, 6), "closed forms are implemented for j <= 4 only"),
        (lambda: check_inequalities(point(), 1), "need a manifold of positive dimension"),
    ],
    ids=[
        "model-component-dimension", "betti-check-dimension", "betti-check-signature", "projective-space",
        "hypersurface", "action-exponents", "action-key", "manifold-key", "row-denominator",
        "negative-power", "chern-grade", "closed-form-index", "inequalities-of-a-point",
    ],
)
def test_every_builder_and_record_guard_keeps_its_message(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_a_chern_polynomial_reads_as_its_terms():
    # the README's quick start displays this form
    assert repr(k_coefficients(2).k_polys[2]) == "(1/12)*c2 + (1/12)*c1c1"
    assert repr(ChernPolynomial(2)) == "0"


def test_the_exact_records_share_one_slot_wise_equality():
    for record in EXACT_RECORDS:
        assert record.__eq__ is ypoly.slots_equal, record.__name__
    line = ChernPolynomial(1, {(1,): Fraction(1, 2)})
    assert line == ChernPolynomial(1, {(1,): Fraction(1, 2)}) and line != ChernPolynomial(1, {(1,): 1})
    assert TruncatedSeries([1, 2], 3) == TruncatedSeries([1, 2, 0]) != TruncatedSeries([1, 2])
    assert TruncatedSeries([1, 2]) != TruncatedSeries([1, 3])  # the coefficients are data, not a memo
    # every slot counts: the same d_f with and without its weights are different records
    assert FixedComponent(d_f=1) == FixedComponent(d_f=1) != FixedComponent(weights=(-1,))
    assert line != (1, {(1,): Fraction(1, 2)}) and FixedComponent(d_f=0) != 0
    # a manifold equals its round trip, its genus included, after reports have read it
    for key in ("pn:3", "product:pn:2,pn:2"):
        built = make_manifold(key)
        chi_vector(built), check_inequalities(built, 1)
        back = serialize.manifold_from_json(serialize.manifold_to_json(built))
        assert built == make_manifold(key) == back == built, key
    assert built != make_manifold("pn:4")


def test_no_other_module_writes_its_own_equality():
    # YPolynomial keeps its own __eq__: it compares equal to the numbers it coerces
    src = Path(ypoly.__file__).parent
    defined = sorted(
        (path.stem, cls.name)
        for path in src.glob("*.py")
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "__eq__"
    )
    assert defined == [("ypoly", "YPolynomial")]
