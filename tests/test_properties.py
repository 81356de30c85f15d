"""Property tests: rational strings, the y-polynomial form, inertia, the graded
exponential and the binomial transform against their oracles, and the readers on any
JSON, on catalog documents with one key added, and on any catalog key."""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction
from math import gcd, lcm

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from chigenus import catalog, serialize  # noqa: E402
from chigenus.betti import BettiProfile, even_alternating_sum, inertia  # noqa: E402
from chigenus.chern import graded_exponential  # noqa: E402
from chigenus.cli import main  # noqa: E402
from chigenus.kexpansion import binomial_transform  # noqa: E402
from chigenus.localization import FixedComponent  # noqa: E402
from chigenus.partitions import iter_partitions  # noqa: E402
from chigenus.ypoly import YPolynomial, clear, convolve, shifted_sum  # noqa: E402
from oracles import (  # noqa: E402
    fraction_inertia,
    reference_binomial_transform,
    reference_graded_exponential,
    shift_degree,
)


@given(st.from_regex(serialize._RATIONAL_RE, fullmatch=True))
def test_accepted_rational_strings_round_trip(text):
    try:
        value = serialize.parse_rational(text)
    except serialize.SchemaError:
        # the pattern admits p/q not in lowest terms; only those are refused
        assert str(Fraction(text)) != text
        return
    assert str(value) == text


@given(st.fractions())
def test_written_rationals_read_back(value):
    assert serialize.parse_rational(str(value)) == value


_coefficient_maps = st.dictionaries(
    st.integers(0, 7), st.fractions(min_value=-30, max_value=30, max_denominator=40), max_size=6
)


def assert_canonical(poly):
    assert poly.denominator > 0
    assert gcd(poly.denominator, *poly.row) == 1
    assert not poly.row or poly.row[-1] != 0


@given(_coefficient_maps, _coefficient_maps, st.integers(1, 60), st.integers(0, 3))
def test_ypolynomial_form_is_canonical(a_map, b_map, k, pad):
    a, b = YPolynomial(a_map), YPolynomial(b_map)
    for coeffs, poly in ((a_map, a), (b_map, b)):
        assert poly.items() == sorted((d, c) for d, c in coeffs.items() if c)
    for poly in (a, b, a + b, a - b, a * b):
        assert_canonical(poly)
        # the same polynomial over a multiple of the denominator, with trailing zeros
        scaled = YPolynomial.from_row(k * poly.denominator, [k * c for c in poly.row] + [0] * pad)
        assert scaled == poly and hash(scaled) == hash(poly)
        again = YPolynomial(dict(poly.items()))
        assert again == poly and hash(again) == hash(poly)
    assert hash(a + b) == hash(b + a) and hash((a - b) + b) == hash(a)


@given(st.lists(st.tuples(_coefficient_maps, st.integers(0, 5)), max_size=5))
def test_shifted_sum_matches_pairwise_sums(terms):
    polys = [(YPolynomial(coeffs), shift) for coeffs, shift in terms]
    total = shifted_sum(polys)
    assert_canonical(total)
    assert total == sum((shift_degree(poly, shift) for poly, shift in polys), YPolynomial.zero())
    # and against plain Fraction sums, which share no row arithmetic with either side
    expected: dict = {}
    for coeffs, shift in terms:
        for d, c in coeffs.items():
            expected[d + shift] = expected.get(d + shift, 0) + c
    assert total.items() == sorted((d, c) for d, c in expected.items() if c)


def _horner(row, t):
    value = 0
    for c in reversed(row):
        value = value * t + c
    return value


_rows = st.lists(st.integers(-10**6, 10**6), max_size=8)


@given(_rows, _rows)
def test_convolve_is_the_product_of_evaluations(a, b):
    product = convolve(a, b)
    assert len(product) == max(len(a) + len(b) - 1, 0)
    for t in range(4):
        assert _horner(product, t) == _horner(a, t) * _horner(b, t)


@given(st.lists(st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**4)), max_size=8))
@example([])
@example([3, Fraction(-1, 6), Fraction(5, 4), 0])
def test_clear_puts_values_over_their_lcm_denominator(values):
    den, ints = clear(values)
    assert den == lcm(*[Fraction(v).denominator for v in values])
    assert all(type(c) is int for c in ints)
    assert [Fraction(c, den) for c in ints] == values


@given(
    st.lists(
        st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**4)), max_size=14
    )
)
@example([])
@example([Fraction(1, 3), 2, Fraction(-5, 6)])
def test_binomial_transform_matches_the_fraction_oracle(chi):
    transformed = binomial_transform(chi)
    assert transformed == reference_binomial_transform(chi)
    assert all(type(k) is Fraction for k in transformed)


ENTRIES = st.one_of(
    st.just(0),
    st.integers(-20, 20),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def symmetric_matrices(draw):
    size = draw(st.integers(0, 8))
    upper = {(i, j): draw(ENTRIES) for i in range(size) for j in range(i, size)}
    return [[upper[min(i, j), max(i, j)] for j in range(size)] for i in range(size)]


@settings(deadline=None)
@given(symmetric_matrices())
def test_inertia_matches_fraction_oracle(matrix):
    assert inertia(matrix) == fraction_inertia(matrix)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=16, unique=True))
@example([0])
@example([3, -7, 0, -1, 12])
@example(list(range(-5, 6))[::-1])
def test_standard_action_weights_match_the_enumerate_route(exponents):
    model = catalog.standard_pn_action(len(exponents) - 1, tuple(exponents))
    expected = [tuple([a_i - a_j for i, a_i in enumerate(exponents) if i != j]) for j, a_j in enumerate(exponents)]
    assert [c.weights for c in model.components] == expected
    assert [c.d_f for c in model.components] == [sum(a < a_j for a in exponents) for a_j in exponents]


@st.composite
def exponent_pieces(draw):
    """A cap <= 6 and factored pieces l_k(y) p_k(c) for some weights up to one past it.

    Each l_k is read from a row over a denominator that need not be reduced
    against it, and denominators differ from piece to piece; a row may be
    empty or all zeros, and p_k may skip partitions or give them a zero
    coefficient.
    """
    cap = draw(st.integers(0, 6))
    pieces = {}
    for k in range(1, cap + 2):
        if draw(st.booleans()):
            den = draw(st.sampled_from((1, 2, 3, 4, 6, 7, 12, 30)))
            row = draw(st.lists(st.integers(-9, 9), max_size=4))
            chern = {part: draw(st.integers(-5, 5)) for part in iter_partitions(k) if draw(st.booleans())}
            pieces[k] = (YPolynomial.from_row(den, row), chern)
    return pieces, cap


def _piece(den, row, chern):
    return YPolynomial.from_row(den, row), chern


@settings(deadline=None)
@given(exponent_pieces())
@example(({1: _piece(2, [1, -1], {(1,): 1}), 3: _piece(6, [0, 0], {(3,): 2, (1, 1, 1): 1})}, 4))
@example(({2: _piece(4, [2, 0, 6], {(2,): 1, (1, 1): -2}), 4: _piece(3, [1], {(4,): 0})}, 6))
def test_graded_exponential_matches_the_ypolynomial_oracle(drawn):
    pieces, cap = drawn
    expanded = {}
    for ell, chern in pieces.values():
        for part, c in chern.items():
            expanded[part] = ell * c
    assert graded_exponential(pieces, cap) == reference_graded_exponential(expanded, cap)


_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
    | st.from_regex(r"-?[0-9]{1,3}(/[0-9]{1,3})?", fullmatch=True)
)
# the readers' own field names, so that objects get past the first lookup more often
_fields = st.sampled_from(
    ("n", "components", "complexDim", "weights", "dF", "betti", "signature", "chiMinusY", "hamiltonian")
    + ("dim", "sigma", "dimension", "chernNumbers", "partition", "value", "0", "1", "2")
)
_json = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_fields | st.text(max_size=4), inner, max_size=4),
    max_leaves=24,
)
# the keys each object kind may carry, by the array or object key it sits under
_MANIFOLD = ("dimension", "chernNumbers", "betti", "action")
_MODEL = ("n", "hamiltonian", "components")
_PROFILE = ("dim", "betti", "sigma")
_ALLOWED = {
    "chernNumbers": ("partition", "value"),
    "betti": _PROFILE,
    "action": _MODEL,
    "components": ("complexDim", "weights", "dF", "betti", "signature", "chiMinusY"),
}
_KNOWN_KEYS = sorted(set(_MANIFOLD).union(*_ALLOWED.values()))
# (command, option, top-level field, a valid document, the keys its top-level object may carry)
_CATALOG_DOCUMENTS = []
for _key in catalog.CATALOG_KEYS:
    _doc = serialize.manifold_to_json(catalog.make_manifold(_key))
    _CATALOG_DOCUMENTS.append(("chi", "--manifold", "manifold", _doc, _MANIFOLD))
    _CATALOG_DOCUMENTS.append(("betti", "--profile", "profile", _doc["betti"], _PROFILE))
for _key in catalog.ACTION_KEYS:
    _doc = serialize.model_to_json(catalog.make_action(_key))
    _CATALOG_DOCUMENTS.append(("localize", "--model", "model", _doc, _MODEL))


def _objects(value, path, where, allowed):
    """(path, field name, allowed keys) of each object a reader checks the keys of."""
    yield path, where, allowed
    for key, item in value.items():
        items = list(enumerate(item)) if isinstance(item, list) else [(None, item)]
        for index, entry in items:
            if isinstance(entry, dict) and key in _ALLOWED:
                step = [key] if index is None else [key, index]
                at = f"{where}.{key}" if index is None else f"{where}.{key}[{index}]"
                yield from _objects(entry, path + step, at, _ALLOWED[key])


@st.composite
def documents_with_an_extra_key(draw):
    """(command, option, document, field, key) of a catalog document with one key added."""
    command, option, top, doc, allowed = draw(st.sampled_from(_CATALOG_DOCUMENTS))
    path, field, allowed = draw(st.sampled_from(list(_objects(doc, [], top, allowed))))
    keys = st.sampled_from(_KNOWN_KEYS) | st.text(max_size=8)
    key = draw(keys.filter(lambda k: k not in allowed))
    doc = json.loads(json.dumps(doc))
    owner = doc
    for step in path:
        owner = owner[step]
    owner[key] = draw(_leaves)
    return command, option, doc, field, key


_documents = st.one_of(
    _json,
    st.lists(st.lists(_leaves, max_size=4), max_size=4),
    documents_with_an_extra_key().map(lambda drawn: drawn[2]),
)


def run_genus(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_on_document(command, option, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return run_genus([command, option, path])


def assert_accepted_or_cleanly_rejected(code, out, err):
    """Exit 0 with a JSON document on stdout, or exit 2 with one short stderr line and no traceback."""
    if code == 0:
        json.loads(out)
        assert err == ""
    else:
        assert code == 2 and out == ""
        assert err.startswith("genus: ") and err.count("\n") == 1
        assert len(err.encode()) < 1024 and "Traceback" not in err


@settings(deadline=None, max_examples=150)
@given(_documents)
def test_form_reader_handles_any_json(doc):
    code, out, err = run_on_document("betti", "--form", doc)
    assert_accepted_or_cleanly_rejected(code, out, err)
    if code == 0:
        assert "inertia" in json.loads(out)


@pytest.mark.parametrize(
    "command, option",
    [("localize", "--model"), ("betti", "--profile"), ("chi", "--manifold"), ("ineq", "--manifold")],
)
@settings(deadline=None, max_examples=150)
@given(doc=_documents)
def test_document_readers_handle_any_json(command, option, doc):
    assert_accepted_or_cleanly_rejected(*run_on_document(command, option, doc))


@settings(deadline=None, max_examples=150)
@given(documents_with_an_extra_key())
def test_an_extra_key_in_a_catalog_document_is_refused(drawn):
    command, option, doc, field, key = drawn
    code, out, err = run_on_document(command, option, doc)
    assert code == 2 and out == "" and err == f"genus: {field}: unknown key {key!r}\n", err


_key_text = st.lists(
    st.sampled_from(("pn", "hyp", "product", "pnaction", ":", ",", "-") + tuple("0123456789")),
    max_size=12,
).map("".join)


@settings(deadline=None, max_examples=300)
@given(_key_text)
def test_catalog_key_reader_handles_any_key(key):
    # --make=KEY, so that a key starting with "-" reaches the key reader, not argparse
    assert_accepted_or_cleanly_rejected(*run_genus(["catalog", f"--make={key}"]))


def _refusal(build):
    try:
        build()
    except ValueError as error:
        return str(error)
    return None


@st.composite
def component_rows(draw):
    """(k, b_0..b_2k) with b_0 = 1, palindromic or not."""
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        half = [1] + draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
        return k, half + half[-2::-1]
    return k, [1] + draw(st.lists(st.integers(0, 4), min_size=2 * k, max_size=2 * k))


@given(component_rows(), st.one_of(st.none(), st.integers(-6, 6)))
@example((2, [1, 0, 2, 0, 1]), 1)
@example((2, [1, 0, 1, 0, 1]), 3)
@example((1, [1, 0, 1]), 2)
@example((1, [1, 0, 2]), None)
@example((2, [1, 0, 2, 0, 1]), 2)
def test_a_component_refuses_exactly_what_its_profile_refuses(case, sigma):
    k, row = case
    component = _refusal(lambda: FixedComponent(k, d_f=0, betti=row, signature=sigma))
    assert component == _refusal(lambda: BettiProfile(2 * k, row, sigma))


@given(st.integers(1, 2), st.lists(st.integers(0, 5), min_size=5, max_size=5), st.integers(-7, 7))
def test_a_4m_profile_takes_the_signatures_of_its_middle_forms(m, draws, sigma):
    half = draws[: 2 * m + 1]
    row = half + half[-2::-1]
    middle = half[-1]
    # a nondegenerate middle form of rank b_2m: b^+ + b^- = b_2m and sigma = b^+ - b^-
    realizable = any(p + q == middle and p - q == sigma for p in range(middle + 1) for q in range(middle + 1))
    assert (_refusal(lambda: BettiProfile(4 * m, row, sigma)) is None) == realizable


@given(st.lists(st.integers(-50, 50), max_size=14))
def test_even_alternating_sum_is_the_signed_sum_of_even_entries(row):
    assert even_alternating_sum(row) == sum((-1) ** i * row[2 * i] for i in range((len(row) + 1) // 2))
