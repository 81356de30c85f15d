"""Property tests: rational strings, inertia, rank and the graded exponential against their oracles, the form reader on any JSON."""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from chigenus import serialize  # noqa: E402
from chigenus.betti import inertia, rank  # noqa: E402
from chigenus.chern import graded_exponential  # noqa: E402
from chigenus.cli import main  # noqa: E402
from chigenus.partitions import partitions_of  # noqa: E402
from chigenus.ypoly import YPolynomial  # noqa: E402
from oracles import fraction_inertia, fraction_rank, reference_graded_exponential  # noqa: E402


@given(st.from_regex(serialize._RATIONAL_RE, fullmatch=True))
def test_accepted_rational_strings_round_trip(text):
    try:
        value = serialize.parse_rational(text)
    except serialize.SchemaError:
        # the pattern admits p/q not in lowest terms; only those are refused
        assert serialize.format_rational(Fraction(text)) != text
        return
    assert serialize.format_rational(value) == text


@given(st.fractions())
def test_written_rationals_read_back(value):
    assert serialize.parse_rational(serialize.format_rational(value)) == value


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


@st.composite
def rectangular_matrices(draw):
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    return [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]


@settings(deadline=None)
@given(rectangular_matrices())
@example([[0, 0, 0], [0, 0, 0]])
@example([[0, Fraction(3, 4), -2, 5]])
@example([[0, 0, 0, 0]])
def test_rank_matches_fraction_oracle(matrix):
    assert rank(matrix) == fraction_rank(matrix)


@st.composite
def exponent_pieces(draw):
    """A cap <= 6 and factored pieces l_k(y) p_k(c) for some weights up to one past it.

    Denominators differ from piece to piece and need not be reduced against
    their rows; a row may be empty or all zeros, and p_k may skip partitions
    or give them a zero coefficient.
    """
    cap = draw(st.integers(0, 6))
    pieces = {}
    for k in range(1, cap + 2):
        if draw(st.booleans()):
            den = draw(st.sampled_from((1, 2, 3, 4, 6, 7, 12, 30)))
            row = draw(st.lists(st.integers(-9, 9), max_size=4))
            chern = {part: draw(st.integers(-5, 5)) for part in partitions_of(k) if draw(st.booleans())}
            pieces[k] = (den, row, chern)
    return pieces, cap


@settings(deadline=None)
@given(exponent_pieces())
@example(({1: (2, [1, -1], {(1,): 1}), 3: (6, [0, 0], {(3,): 2, (1, 1, 1): 1})}, 4))
@example(({2: (4, [2, 0, 6], {(2,): 1, (1, 1): -2}), 4: (3, [1], {(4,): 0})}, 6))
def test_graded_exponential_matches_the_ypolynomial_oracle(drawn):
    pieces, cap = drawn
    expanded = {}
    for den, row, chern in pieces.values():
        ell = YPolynomial({i: Fraction(c, den) for i, c in enumerate(row)})
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
_json = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=24,
)


@settings(deadline=None, max_examples=150)
@given(st.one_of(_json, st.lists(st.lists(_leaves, max_size=4), max_size=4)))
def test_form_reader_handles_any_json(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "form.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["betti", "--form", path])
    if code == 0:
        assert "inertia" in json.loads(out.getvalue()) and err.getvalue() == ""
    else:
        message = err.getvalue()
        assert code == 2 and out.getvalue() == ""
        assert message.startswith("genus: ") and message.count("\n") == 1
        assert len(message.encode()) < 1024 and "Traceback" not in message
