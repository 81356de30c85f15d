"""Wire formats: canonical strings, round trips, schema errors."""

import json
import random
import re
import time
from fractions import Fraction

import pytest

from chigenus import serialize
from chigenus.betti import BettiProfile
from chigenus.catalog import (
    ManifoldData,
    hypersurface,
    make_action,
    make_manifold,
    product,
    projective_space,
    standard_pn_action,
)
from chigenus.chern import ChernPolynomial
from chigenus.engine import chi_y_chern_polynomial
from chigenus.partitions import iter_partitions
from chigenus.serialize import SchemaError
from chigenus.ypoly import YPolynomial
from oracles import point
from test_inequalities import fractional_synthetic


def test_rational_strings():
    # writers print a rational with str: "p" for a whole one, "p/q" in lowest terms
    assert serialize.ypoly_to_json(YPolynomial({0: Fraction(3), 1: Fraction(-2, 24)})) == {"0": "3", "1": "-1/12"}
    assert serialize.parse_rational("7/2") == Fraction(7, 2)
    assert serialize.parse_rational("-4") == Fraction(-4)
    with pytest.raises(SchemaError):
        serialize.parse_rational("1.5e3")
    with pytest.raises(SchemaError):
        serialize.parse_rational(12)
    with pytest.raises(SchemaError):
        serialize.parse_rational("1/0")


def test_rational_strings_must_be_canonical():
    # the writers never emit these, so the readers refuse them
    for text in ("-0", "007", "-01/3", "00", "0/3", "3/1", "4/2", "-6/4"):
        with pytest.raises(SchemaError, match="entry"):
            serialize.parse_rational(text, "entry")
    assert serialize.parse_rational("0") == 0
    assert serialize.parse_rational("-10/3") == Fraction(-10, 3)


def _rational_pairs(rng, count):
    """Seeded (p, q) pairs, q > 0: zero, negative and whole values, and some over 60 digits."""
    pairs = [(0, 1), (0, 7), (-5, 1), (12, 4), (-12, 8), (10**70 + 1, 1), (-(10**65), 10**64)]
    for _ in range(count):
        digits = rng.choice((1, 3, 65, 90))
        p = rng.choice((-1, 1, 0)) * rng.randrange(10**digits)
        q = rng.choice((1, rng.randrange(1, 10**rng.choice((1, 3, 61)))))
        pairs.append((p * rng.choice((1, q)), q))
    return pairs


def test_the_rational_writer_prints_an_int_pair_as_its_fraction():
    rng = random.Random(48)
    for p, q in _rational_pairs(rng, 400):
        assert serialize._rational_text(p, q) == str(Fraction(p, q)), (p, q)


def test_the_writers_print_rows_over_a_scale_as_their_fractions():
    rng = random.Random(4848)
    pairs = _rational_pairs(rng, 200)
    for i in range(0, len(pairs) - 2, 3):
        values = [Fraction(p, q) for p, q in pairs[i : i + 3]]
        poly = YPolynomial(dict(enumerate(values)))
        expected = {str(d): str(c) for d, c in enumerate(values) if c}
        assert serialize.ypoly_to_json(poly) == expected, values
        data = ManifoldData(2, {(2,): values[0], (1, 1): values[1]})
        written = [entry["value"] for entry in serialize.manifold_to_json(data)["chernNumbers"]]
        assert written == [str(values[0]), str(values[1])], values


def test_dumps_writes_what_json_dumps_writes():
    documents = [serialize.manifold_to_json(make_manifold(key)) for key in serialize.CATALOG_KEYS]
    documents += [serialize.model_to_json(make_action(key)) for key in serialize.ACTION_KEYS]
    for n in range(0, 13):
        documents.append(serialize.manifold_to_json(fractional_synthetic(n, n)))
        documents.append(serialize.chern_to_json(chi_y_chern_polynomial(n)))
    for doc in documents:
        assert serialize.dumps(doc) == json.dumps(doc, separators=(",", ":"))


def test_ypoly_round_trip():
    poly = YPolynomial({0: Fraction(1, 12), 3: Fraction(-5)})
    encoded = serialize.ypoly_to_json(poly)
    assert encoded == {"0": "1/12", "3": "-5"}
    assert serialize.ypoly_from_json(encoded, "poly", 3) == poly
    with pytest.raises(SchemaError, match=r"^poly: degree 3 exceeds the largest allowed, 2$"):
        serialize.ypoly_from_json(encoded, "poly", 2)


def test_chern_round_trip():
    # no command reads a Chern polynomial back, so the document is read here term by term
    poly = chi_y_chern_polynomial(3)
    encoded = serialize.chern_to_json(poly)
    grade = encoded["grade"]
    terms = {
        tuple(term["partition"]): serialize.ypoly_from_json(term["coeff"], "coeff", grade)
        for term in encoded["terms"]
    }
    again = ChernPolynomial(grade, terms)
    assert again == poly
    assert serialize.chern_to_json(again) == encoded


def test_duplicate_partitions_rejected():
    entry = {"partition": [1], "value": "2"}
    with pytest.raises(SchemaError, match="duplicate"):
        serialize.manifold_from_json({"dimension": 1, "chernNumbers": [entry, entry]})


def test_manifold_round_trip_is_byte_identical():
    for data in (projective_space(3), hypersurface(2, 4)):
        doc = serialize.manifold_to_json(data)
        text = serialize.dumps(doc)
        again = serialize.manifold_from_json(json.loads(text))
        assert serialize.dumps(serialize.manifold_to_json(again)) == text


def test_chern_numbers_are_stored_in_partition_walk_order():
    # manifold_to_json writes them in this order without sorting
    built = [projective_space(4), hypersurface(3, 5), product(hypersurface(2, 4), projective_space(2)), point()]
    for data in built + [make_manifold(key) for key in serialize.CATALOG_KEYS]:
        assert list(data.chern_numbers) == list(iter_partitions(data.dimension))


def test_a_shuffled_document_is_read_and_written_in_partition_walk_order():
    doc = serialize.manifold_to_json(product(projective_space(2), projective_space(3)))
    numbers = doc["chernNumbers"]
    shuffled = numbers[1::2] + numbers[0::2]
    assert shuffled != numbers
    data = serialize.manifold_from_json({"dimension": 5, "chernNumbers": shuffled})
    assert list(data.chern_numbers) == list(iter_partitions(5))
    assert serialize.manifold_to_json(data)["chernNumbers"] == numbers


def test_every_catalog_entry_reads_back_equal():
    # equality reaches into the action: P^n carries one
    assert projective_space(3) == projective_space(3)
    assert standard_pn_action(2) != standard_pn_action(2, (2, 1, 0))
    with pytest.raises(TypeError, match="unhashable"):
        hash(standard_pn_action(1).components[0])
    for key in serialize.CATALOG_KEYS:
        data = make_manifold(key)
        assert serialize.manifold_from_json(serialize.manifold_to_json(data)) == data, key
    for key in serialize.ACTION_KEYS:
        model = make_action(key)
        assert serialize.model_from_json(serialize.model_to_json(model)) == model, key


def test_manifold_schema_error_names_field():
    with pytest.raises(SchemaError, match="manifold.dimension"):
        serialize.manifold_from_json({"chernNumbers": []})
    with pytest.raises(SchemaError, match=r"chernNumbers\[0\].value"):
        serialize.manifold_from_json(
            {"dimension": 1, "chernNumbers": [{"partition": [1], "value": 2}]}
        )


REFUSAL_DOCUMENTS = ("pn:3", "product:pn:2,hyp:2:3")  # the first carries an action, the second is 4-dimensional
ENTRY = ("chernNumbers", 0)
POINT = ("action", "components", 0)

class _Duplicate:
    def __repr__(self) -> str:  # a fixed repr, so the test ids are the same in every process
        return "DUPLICATE"


# (path into the document, the value put there, the refusal); a DUPLICATE value is the
# first entry's partition, and every case but the action's runs on both documents
DUPLICATE = _Duplicate()
REFUSALS = [
    (ENTRY, 5, "manifold.chernNumbers[0]: expected an object"),
    (ENTRY, None, "manifold.chernNumbers[0]: expected an object"),
    (("x",), 1, "manifold: unknown key 'x'"),
    ((*ENTRY, "x"), 1, "manifold.chernNumbers[0]: unknown key 'x'"),
    (ENTRY, {"y": 1, "partition": [1], "x": 1}, "manifold.chernNumbers[0]: unknown key 'y'"),
    (("betti", "x"), 1, "manifold.betti: unknown key 'x'"),
    (("betti", "betti"), [1, True, 1], "manifold.betti.betti: expected an array of integers"),
    (("betti", "betti", -1), 2, "manifold.betti: Betti numbers must satisfy Poincare duality"),
    ((*ENTRY, "partition"), "3", "manifold.chernNumbers[0].partition: expected an array of integers"),
    ((*ENTRY, "partition"), [True, 2], "manifold.chernNumbers[0].partition: expected an array of integers"),
    ((*ENTRY, "partition"), [2, 1.0], "manifold.chernNumbers[0].partition: expected an array of integers"),
    ((*ENTRY, "partition"), [0, 3], "manifold.chernNumbers[0].partition: partition parts must be positive: [0, 3]"),
    ((*ENTRY, "partition"), [4, -1], "manifold.chernNumbers[0].partition: partition parts must be positive: [4, -1]"),
    (("chernNumbers", 1, "partition"), DUPLICATE, "manifold.chernNumbers[1].partition: duplicate partition {}"),
    ((*ENTRY, "value"), 2, "manifold.chernNumbers[0].value: expected 'p' or 'p/q' with q > 0, got 2"),
    ((*ENTRY, "value"), "02", "manifold.chernNumbers[0].value: expected 'p' or 'p/q' with q > 0, got '02'"),
    ((*ENTRY, "value"), "2/4", "manifold.chernNumbers[0].value: expected lowest terms with q > 1, got '2/4'"),
    (("action", "x"), 1, "manifold.action: unknown key 'x'"),
    ((*POINT, "x"), 1, "manifold.action.components[0]: unknown key 'x'"),
    ((*POINT, "betti"), [2], "manifold.action.components[0]: a fixed point has Betti numbers (1,)"),
    ((*POINT, "signature"), -1, "manifold.action.components[0]: a fixed point has signature 1"),
    ((*POINT, "chiMinusY"), {"0": "2"}, "manifold.action.components[0]: a fixed point has modified genus 1"),
    (
        (*POINT, "chiMinusY"), {"1": "1"},
        "manifold.action.components[0].chiMinusY: degree 1 exceeds the largest allowed, 0",
    ),
    ((*POINT, "chiMinusY"), {"01": "1"}, "manifold.action.components[0].chiMinusY: bad degree '01'"),
    ((*POINT, "weights"), [True, 2, 3], "manifold.action.components[0].weights: expected an array of integers"),
    ((*POINT, "weights"), [0, 2, 3], "manifold.action.components[0]: rotation weights must be nonzero"),
]


@pytest.mark.parametrize(
    "key, path, value, message",
    [
        pytest.param(key, path, value, message, id=f"{key}-{'.'.join(map(str, path))}={value!r}")
        for key in REFUSAL_DOCUMENTS
        for path, value, message in REFUSALS
        if path[0] != "action" or key.startswith("pn:")
    ],
)
def test_every_reader_refusal_of_a_malformed_catalog_document(key, path, value, message):
    doc = serialize.manifold_to_json(make_manifold(key))
    first = doc["chernNumbers"][0]["partition"]
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = list(first) if value is DUPLICATE else value
    with pytest.raises(SchemaError) as refusal:
        serialize.manifold_from_json(doc)
    assert str(refusal.value) == message.format(first)


def test_a_duplicate_partition_is_quoted_by_a_prefix_and_its_part_count():
    entry = {"partition": [1] * 100_000, "value": "1"}
    with pytest.raises(SchemaError) as refusal:
        serialize.manifold_from_json({"dimension": 100_000, "chernNumbers": [entry, entry]})
    message = f"manifold.chernNumbers[1].partition: duplicate partition {str([1] * 12)[:-1]}, ...] (100000 parts)"
    assert str(refusal.value) == message


@pytest.mark.parametrize("genus", [{"0": "1"}, {"0": "1", "1": "0"}, None], ids=["canonical", "zero-term", "absent"])
def test_a_point_genus_of_one_reads_in_any_spelling(genus):
    built = make_manifold("pn:3")
    doc = serialize.manifold_to_json(built)["action"]
    for component in doc["components"]:
        if genus is None:
            del component["chiMinusY"]
        else:
            component["chiMinusY"] = genus
    model = serialize.model_from_json(doc)
    assert model == built.action
    assert all([c.chi_minus_y == YPolynomial.one() for c in model.components])


def test_the_writers_point_genus_is_read_without_a_parse(monkeypatch):
    from chigenus.localization import POINT_GENUS

    parsed = []
    parse = serialize.ypoly_from_json
    monkeypatch.setattr(serialize, "ypoly_from_json", lambda *args: parsed.append(args[0]) or parse(*args))
    doc = serialize.model_to_json(make_action("pnaction:3"))
    model = serialize.model_from_json(doc)
    assert parsed == [] and all([c.chi_minus_y is POINT_GENUS for c in model.components])
    # any other spelling of 1 takes the general parse, once per point
    for component in doc["components"]:
        component["chiMinusY"] = {"0": "1", "1": "0"}
    assert serialize.model_from_json(doc) == model
    assert len(parsed) == len(model.components)


@pytest.mark.parametrize(
    "genus, message",
    [
        ({"0": "2"}, "model.components[2]: a fixed point has modified genus 1"),
        ({"0": "1/1"}, "model.components[2].chiMinusY[0]: expected lowest terms with q > 1, got '1/1'"),
        ({"1": "1"}, "model.components[2].chiMinusY: degree 1 exceeds the largest allowed, 0"),
    ],
    ids=["two", "one-over-one", "degree-one"],
)
def test_a_point_genus_other_than_one_keeps_its_refusal(genus, message):
    doc = serialize.manifold_to_json(make_manifold("pn:3"))["action"]
    doc["components"][2]["chiMinusY"] = genus
    with pytest.raises(SchemaError) as refusal:
        serialize.model_from_json(doc)
    assert str(refusal.value) == message


def test_a_rational_genus_reads_over_the_lcm_of_its_denominators():
    poly = serialize.ypoly_from_json({"2": "0", "1": "-3/4", "0": "1/6"}, "g", 2)
    assert poly == YPolynomial({0: Fraction(1, 6), 1: Fraction(-3, 4)})
    assert (poly.denominator, poly.row) == (12, (2, -9))
    assert serialize.ypoly_from_json({"0": "0", "3": "0"}, "g", 0) == YPolynomial.zero()


def _sweep_key(rng: random.Random, kind: str, dim: int) -> str:
    """A pn:, hyp: or product: key of complex dimension ``dim``, of the shapes the catalog sweep reads."""
    if kind == "pn":
        return f"pn:{dim}"
    if kind == "hyp":
        return f"hyp:{dim}:{rng.randint(1, 7)}"
    count = 2 if dim < 3 else rng.randint(2, 3)
    cuts = sorted(rng.sample(range(1, dim), count - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [dim])]
    return "product:" + ",".join([f"pn:{a}" if rng.random() < 0.6 else f"hyp:{a}:{rng.randint(1, 5)}" for a in parts])


def test_seeded_sweep_documents_read_back_equal_to_their_build():
    rng = random.Random(47)
    keys = [_sweep_key(rng, rng.choice(("pn", "hyp", "product")), rng.randint(2, 8)) for _ in range(200)]
    for key in keys:
        data = make_manifold(key)
        assert serialize.manifold_from_json(json.loads(serialize.dumps(serialize.manifold_to_json(data)))) == data, key


def test_a_claimed_dimension_is_refused_before_its_partitions_are_listed():
    # p(60) = 966467 partitions took seconds to list; the walk stops at the first missing one
    message = r"^manifold: Chern numbers must cover all partitions of 60; missing \[60\]$"
    start = time.perf_counter()
    with pytest.raises(SchemaError, match=message):
        serialize.manifold_from_json({"dimension": 60, "chernNumbers": []})
    assert time.perf_counter() - start < 0.5


def test_a_dimension_of_a_million_costs_one_partition():
    message = r"^manifold: Chern numbers must cover all partitions of 1000000; missing \[1000000\]$"
    start = time.perf_counter()
    with pytest.raises(SchemaError, match=message):
        serialize.manifold_from_json({"dimension": 10**6, "chernNumbers": []})
    assert time.perf_counter() - start < 0.5


def test_the_partition_walk_stops_one_past_the_given_numbers():
    numbers = {(60,): 1, (59, 1): 1, (58, 2): 1}
    message = r"^Chern numbers must cover all partitions of 60; missing \[58, 1, 1\]$"
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        ManifoldData(60, numbers)
    assert time.perf_counter() - start < 0.5


def test_parse_key_reads_the_whole_key():
    assert serialize.parse_key("pn:3") == ("pn", 3, (3,))
    assert serialize.parse_key("hyp:2:4") == ("hyp", 2, (2, 4))
    assert serialize.parse_key("pnaction:2:0,-1,5") == ("pnaction", 2, (2, (0, -1, 5)))
    assert serialize.parse_key("pnaction:4") == ("pnaction", 4, (4, None))
    factors = (serialize.parse_key("pn:1"), serialize.parse_key("hyp:2:4"))
    assert serialize.parse_key("product:pn:1,hyp:2:4") == ("product", 3, factors)
    # values are the builders' to check
    assert serialize.parse_key("pn:0").dimension == 0
    assert serialize.parse_key("pnaction:2:0,0").args == (2, (0, 0))


@pytest.mark.parametrize(
    "key, message",
    [
        ("torus:1", "unknown catalog key 'torus:1'"),
        ("", "unknown catalog key ''"),
        ("pn:1:2", "malformed catalog key 'pn:1:2'"),
        ("hyp:2", "malformed catalog key 'hyp:2'"),
        ("hyp:2:x", "malformed catalog key 'hyp:2:x'"),
        ("hyp:13:x", "malformed catalog key 'hyp:13:x'"),
        ("pnaction:2:0,1,x", "malformed catalog key 'pnaction:2:0,1,x'"),
        ("pnaction:2:0,1,", "malformed catalog key 'pnaction:2:0,1,'"),
        ("pnaction:2:", "malformed catalog key 'pnaction:2:'"),
        ("product:pn:1,hyp:2", "malformed catalog key 'hyp:2'"),
        ("product:pn:1,,pn:1", "empty product factor in 'pn:1,,pn:1'"),
        ("product:pnaction:1,pn:1", "product factors must be pn or hyp keys, got 'pnaction:1'"),
        ("product:pn:1", "product needs at least two factors: 'product:pn:1'"),
        ("product:", "product needs at least two factors: 'product:'"),
    ],
)
def test_parse_key_refuses_what_breaks_the_grammar(key, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        serialize.parse_key(key)


DEEP_LIST = json.loads("[" * 900 + "]" * 900)
DEEPER_LIST: list = []  # 5000 levels, deeper than the recursion limit: no decoder builds it
for _ in range(4999):
    DEEPER_LIST = [DEEPER_LIST]


@pytest.mark.parametrize(
    "read, value, lead, length",
    [
        (serialize.parse_key, "pn:" + "9" * 5000, "malformed catalog key 'pn:999", 5003),
        (serialize.parse_key, "hyp:2:" + "x" * 5000, "malformed catalog key 'hyp:2:xxx", 5006),
        (serialize.parse_key, "x" * 5000, "unknown catalog key 'xxx", 5000),
        (serialize.parse_key, "product:pn:1," + "x" * 5000, "product factors must be pn or hyp keys, got 'xxx", 5000),
        (serialize.parse_key, "product:pn:1" + "," * 5000, "empty product factor in 'pn:1,,,", 5004),
        (serialize.parse_key, "product:pn:" + "1" * 4000, "product needs at least two factors: 'product:pn:111", 4011),
        (serialize.parse_rational, "1/" + "0" * 3000, "value: expected 'p' or 'p/q' with q > 0, got '1/000", 3002),
        (serialize.parse_rational, "2/" + "4" * 3000, "value: expected lowest terms with q > 1, got '2/444", 3002),
        (lambda key: serialize.ypoly_from_json({key: "1"}, "poly", 3), "x" * 5000, "poly: bad degree 'xxx", 5000),
        (lambda key: serialize.manifold_from_json({key: 1}), "k" * 5000, "manifold: unknown key 'kkk", 5000),
    ],
    ids=[
        "key-integer", "key-hyp-degree", "key-kind", "key-factor-kind", "key-empty-factor", "key-one-factor",
        "rational-zero-denominator", "rational-lowest-terms", "degree", "object-key",
    ],
)
def test_a_refusal_quotes_long_input_by_a_prefix_and_its_length(read, value, lead, length):
    with pytest.raises(ValueError) as refusal:
        read(value)
    message = str(refusal.value)
    assert message.startswith(lead) and message.endswith(f"'... ({length} characters)") and len(message) < 200


class Row(list):
    """A list subclass, as a library caller might pass."""


@pytest.mark.parametrize(
    "value",
    [DEEP_LIST, DEEPER_LIST, [0] * 10**6, (), Row(["1"])],
    ids=["rational-deep-list", "rational-deeper-list", "rational-wide-list", "rational-tuple", "rational-list-subclass"],
)
def test_a_refused_container_is_named_by_its_json_kind(value):
    with pytest.raises(SchemaError) as refusal:
        serialize.parse_rational(value)
    assert str(refusal.value) == "value: expected 'p' or 'p/q' with q > 0, got an array"


def test_a_library_value_of_any_depth_or_size_is_refused_as_a_schema_error():
    # a repr of these would recurse past the limit or print 10^5000 in decimal
    expected = "value: expected 'p' or 'p/q' with q > 0, got "
    for read, value, message in (
        (serialize.parse_rational, DEEPER_LIST + [1], expected + "an array"),
        (serialize.parse_rational, {"a": (DEEPER_LIST,)}, expected + "an object"),
        (serialize.parse_rational, [10**5000], expected + "an array"),
        (serialize.parse_rational, 10**5000, expected + "<int too large to print>"),
        # no JSON decoder writes a key that is not a string
        (lambda poly: serialize.ypoly_from_json(poly, "p", 3), {1: "1"}, "p: bad degree 1"),
        (serialize.manifold_from_json, {(1,): 1}, "manifold: unknown key an array"),
    ):
        with pytest.raises(SchemaError) as refusal:
            read(value)
        assert str(refusal.value) == message


def test_model_round_trip():
    model = standard_pn_action(3)
    doc = serialize.model_to_json(model)
    text = serialize.dumps(doc)
    again = serialize.model_from_json(json.loads(text))
    assert serialize.dumps(serialize.model_to_json(again)) == text


def test_model_schema_errors():
    with pytest.raises(SchemaError, match="components"):
        serialize.model_from_json({"n": 2, "components": []})
    with pytest.raises(SchemaError, match=r"^model\.components\[0\]: rotation weights must be nonzero$"):
        serialize.model_from_json(
            {"n": 1, "components": [{"complexDim": 0, "weights": [0]}]}
        )
    message = r"^model\.components\[0\]\.chiMinusY: expected an object mapping degree to coefficient$"
    with pytest.raises(SchemaError, match=message):
        serialize.model_from_json({"n": 1, "components": [{"complexDim": 1, "dF": 0, "chiMinusY": []}]})


def test_model_n_is_bounded_before_any_row_is_built(monkeypatch):
    def unread(*args):
        raise AssertionError("read a y-polynomial")

    monkeypatch.setattr(serialize, "ypoly_from_json", unread)
    for n in (serialize.MAX_MODEL_N + 1, 10**9, 10**20):
        component = {"complexDim": n, "dF": 0, "chiMinusY": {str(n): "1"}}
        with pytest.raises(SchemaError, match=r"^model\.n: exceeds the largest allowed, 10000$"):
            serialize.model_from_json({"n": n, "components": [component]})
        manifold = {"dimension": n, "chernNumbers": [], "action": {"n": n, "components": [component]}}
        with pytest.raises(SchemaError, match=r"^manifold\.action\.n: exceeds the largest allowed"):
            serialize.manifold_from_json(manifold)
    model = serialize.model_from_json({"n": serialize.MAX_MODEL_N, "components": [{"dF": 0}]})
    assert model.n == serialize.MAX_MODEL_N


def test_model_accepts_explicit_df():
    doc = {
        "n": 2,
        "hamiltonian": False,
        "components": [
            {"complexDim": 0, "dF": 0},
            {"complexDim": 0, "dF": 2},
        ],
    }
    model = serialize.model_from_json(doc)
    assert [c.d_f for c in model.components] == [0, 2]
    # re-emission keeps the explicit dF since no weights are known
    assert serialize.model_to_json(model)["components"][0]["dF"] == 0


def test_profile_round_trip():
    profile = BettiProfile(4, (1, 0, 22, 0, 1), -16)
    doc = serialize.profile_to_json(profile)
    assert serialize.profile_from_json(doc) == profile
    no_sigma = BettiProfile(4, (1, 0, 2, 0, 1))
    assert serialize.profile_from_json(serialize.profile_to_json(no_sigma)) == no_sigma


def test_profile_schema_errors():
    with pytest.raises(SchemaError, match="profile.betti"):
        serialize.profile_from_json({"dim": 2, "betti": ["1", "0", "1"]})
    with pytest.raises(SchemaError, match="profile"):
        serialize.profile_from_json({"dim": 2, "betti": [1, 5, 2]})


def test_form_round_trip():
    doc = [["0", "-1/2"], ["-1/2", "3"]]
    matrix = serialize.form_from_json(doc)
    assert matrix == [[Fraction(0), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(3)]]
    assert [[str(v) for v in row] for row in matrix] == doc
    with pytest.raises(SchemaError, match=r"form\[0\]\[1\]"):
        serialize.form_from_json([["0", 1]])
