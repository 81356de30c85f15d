"""JSON wire formats.

Rationals travel as strings, as ``str`` prints an int or a Fraction ("p/q"
in lowest terms, or "p" when the denominator is 1), so no consumer can lose
precision; partitions as arrays of integers; y-polynomials as degree ->
coefficient objects. The writers print a rational from the int pair a
record holds, a y-polynomial's row entry over its denominator or a
manifold's Chern row entry over its scale, reduced by one ``gcd``, so no
``Fraction`` is made, and write a fixed point, whose invariants are fixed,
as one literal; :func:`dumps` is one shared encoder. Readers accept the
canonical form that the writers emit, in any key order and with optional
fields left out, and re-emission is byte-identical. Every object is read
through one core (:func:`_object`, :func:`_field`, :func:`_build`): a key
the writers do not emit is refused with the object's path, a field of the
wrong kind with the field's path and the kind it expected, and a
constructor's ValueError becomes a :class:`SchemaError` on that path.
A y-polynomial's coefficients are read once each into an int pair (p, q)
by the one rational parser that :func:`parse_rational` wraps, and its row
is cleared over the lcm of the q's by ``ypoly.clear_pairs``, with no
``Fraction``. A component's ``chiMinusY`` equal to the writers' value for
a point, ``{"0": "1"}``, is recognized and read as the one shared point
genus of ``localization``; any other spelling is parsed in full. A
manifold's Chern numbers are read to an ``int`` where whole, and to a
``Fraction`` only where not.
Two formats go one way only: Chern polynomials are written (``genus chi
--n``) but never read back, and intersection forms (``genus betti --form``)
are read but never written.

Catalog keys are read here alone: :func:`parse_key` reads a whole key, its
integers in the grammar of the rationals' numerators, and refuses a
malformed one before anything is built; :data:`KEY_GRAMMAR` names the kinds.

The classes a reader builds are imported inside that reader, and a writer
only calls methods of what it is given, so loading this module loads no
``betti``, ``catalog``, ``chern`` or ``localization`` code. A manifold
reader loads ``engine``, and ``betti`` or ``localization`` only for a
document's ``betti`` or ``action``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from .partitions import Partition, as_partition, quote_parts
from .ypoly import YPolynomial, clear_pairs

if TYPE_CHECKING:
    from .betti import BettiProfile
    from .chern import ChernPolynomial
    from .engine import ManifoldData
    from .localization import FixedComponent, FixedPointModel


class SchemaError(ValueError):
    """Malformed document; the message starts with the offending entry's name."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")


def is_json_int(value: Any) -> bool:
    """Whether a decoded JSON value is an integer; ``true``/``false`` are not."""
    return value.__class__ is int


# the writers build trees, never cycles, so the encoder skips its cycle check
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def dumps(payload: Any) -> str:
    return _ENCODER.encode(payload)


_INT = r"0|-?[1-9][0-9]*"
_RATIONAL_RE = re.compile(rf"({_INT})(/[1-9][0-9]*)?")
_DEGREE_RE = re.compile(r"0|[1-9][0-9]*")
_KEY_INT_RE = re.compile(_INT)


_QUOTE_CHARS = 60  # a refusal quotes input of up to this many characters whole, and a prefix of longer input


def _quote(value: Any) -> str:
    """``repr(value)``, or past _QUOTE_CHARS characters the repr of a prefix and the length, for a refusal.

    A list, tuple or dict is named by its JSON kind, "an array" or "an
    object", so quoting costs the same for a value of any size or depth; an
    int over the interpreter's limit on digits converted to str is named by
    its type.
    """
    if isinstance(value, (list, tuple, dict)):
        return "an object" if isinstance(value, dict) else "an array"
    if isinstance(value, str):
        if len(value) <= _QUOTE_CHARS:
            return repr(value)
        text = value
    else:
        try:
            text = repr(value)
        except ValueError:  # over the interpreter's limit on digits converted to str
            return f"<{type(value).__name__} too large to print>"
        if len(text) <= _QUOTE_CHARS:
            return text
    return f"{text[:_QUOTE_CHARS]!r}... ({len(text)} characters)"


def _rational_pair(text: Any, field: str) -> tuple[int, int]:
    """(p, q) of a rational as the writers emit it: canonical numerator, lowest terms, q > 1 or absent (q = 1)."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise SchemaError(field, f"expected 'p' or 'p/q' with q > 0, got {_quote(text)}")
    numerator, _, denominator = text.partition("/")
    try:
        p = int(numerator)
        q = int(denominator) if denominator else 1
    except ValueError:  # over the interpreter's limit on digits converted to int
        raise SchemaError(field, f"too many digits ({len(text)} characters)") from None
    if denominator and (q == 1 or gcd(p, q) != 1):
        raise SchemaError(field, f"expected lowest terms with q > 1, got {_quote(text)}")
    return p, q


def _rational_text(p: int, q: int) -> str:
    """``str(Fraction(p, q))`` for ints p and q > 0, made without the ``Fraction``."""
    if q == 1:
        return str(p)
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def parse_rational(text: Any, field: str = "value") -> Fraction:
    """A rational as the writers emit it: canonical numerator, lowest terms, q > 1."""
    p, q = _rational_pair(text, field)
    return Fraction(p, q) if q != 1 else Fraction(p)


# kind -> the grammar line `genus catalog --list` prints
KEY_GRAMMAR = {
    "pn": "pn:N",
    "hyp": "hyp:N:D",
    "product": "product:KEY,KEY[,...]",
    "pnaction": "pnaction:N[:A0,A1,...,AN]",
}

CATALOG_KEYS = (
    *[f"pn:{n}" for n in range(1, 9)],
    *["hyp:1:3", "hyp:2:1", "hyp:2:2", "hyp:2:4", "hyp:3:5", "hyp:4:6"],
    *["product:pn:1,pn:1", "product:pn:1,pn:2", "product:pn:1,pn:3", "product:pn:2,pn:2"],
    "product:pn:1,pn:1,pn:1",
)
ACTION_KEYS = tuple([f"pnaction:{n}:" + ",".join([str(i) for i in range(n + 1)]) for n in range(1, 7)])


class CatalogKey(NamedTuple):
    """A parsed key; ``args`` is ``(n,)``, ``(n, d)``, ``(n, exponents or None)`` or the factors."""

    kind: str
    dimension: int
    args: tuple[Any, ...]


def _key_int(text: str, key: str) -> int:
    """An integer field of a catalog key: ASCII digits, an optional minus sign, no leading zero."""
    if not _KEY_INT_RE.fullmatch(text):
        raise ValueError(f"malformed catalog key {_quote(key)}")
    try:
        return int(text)
    except ValueError:  # over the interpreter's limit on digits converted to int
        raise ValueError(f"malformed catalog key {_quote(key)}") from None


def parse_key(key: str) -> CatalogKey:
    """Read a whole catalog key, every integer and factor of it, without building anything.

    Values (n >= 1, d >= 1, the exponents) are the builders' to check. Factor
    keys hold no comma, so a split finds them; products do not nest.
    """
    kind, _, rest = key.partition(":")
    if kind not in KEY_GRAMMAR:
        raise ValueError(f"unknown catalog key {_quote(key)}")
    if kind == "product":
        factors = rest.split(",") if rest else []
        for factor in factors:
            if not factor:
                raise ValueError(f"empty product factor in {_quote(rest)}")
            if factor.partition(":")[0] not in ("pn", "hyp"):
                raise ValueError(f"product factors must be pn or hyp keys, got {_quote(factor)}")
        parsed = tuple([parse_key(factor) for factor in factors])
        if len(parsed) < 2:
            raise ValueError(f"product needs at least two factors: {_quote(key)}")
        return CatalogKey(kind, sum([factor.dimension for factor in parsed]), parsed)
    if kind == "pn":
        n = _key_int(rest, key)
        return CatalogKey(kind, n, (n,))
    n_text, colon, tail = rest.partition(":")
    n = _key_int(n_text, key)
    if kind == "hyp":
        return CatalogKey(kind, n, (n, _key_int(tail, key)))
    exponents = tuple([_key_int(text, key) for text in tail.split(",")]) if colon else None
    return CatalogKey(kind, n, (n, exponents))


def ypoly_to_json(poly: YPolynomial) -> dict[str, str]:
    den = poly.denominator
    return {str(d): _rational_text(c, den) for d, c in enumerate(poly.row) if c}


def ypoly_from_json(obj: Any, field: str, max_degree: int) -> YPolynomial:
    """A nonzero coefficient above ``max_degree`` is refused before the polynomial's dense row is built."""
    if not isinstance(obj, dict):
        raise SchemaError(field, "expected an object mapping degree to coefficient")
    pairs = {}
    for key, value in obj.items():
        if not isinstance(key, str) or not _DEGREE_RE.fullmatch(key):
            raise SchemaError(field, f"bad degree {_quote(key)}")
        try:
            degree = int(key)
        except ValueError:  # over the interpreter's limit on digits converted to int
            message = f"degree has too many digits ({len(key)} characters)"
            raise SchemaError(field, message) from None
        pairs[degree] = _rational_pair(value, f"{field}[{key}]")
    top = max([d for d, (p, _) in pairs.items() if p], default=0)
    if top > max_degree:
        raise SchemaError(field, f"degree {top} exceeds the largest allowed, {max_degree}")
    return YPolynomial.from_row(*clear_pairs([pairs.get(d, (0, 1)) for d in range(top + 1)]))


_REQUIRED: Any = object()  # the default of a field that must be present


def _object(obj: Any, field: str, keys: frozenset[str]) -> dict[str, Any]:
    """``obj`` as an object whose keys are all in ``keys``; the first other key is refused."""
    if not isinstance(obj, dict):
        raise SchemaError(field, "expected an object")
    if not obj.keys() <= keys:
        other = next(key for key in obj if key not in keys)
        raise SchemaError(field, f"unknown key {_quote(other)}")
    return obj


# the phrase a SchemaError puts after "expected" -> whether a decoded value is one
_KINDS: dict[str, Callable[[Any], bool]] = {
    "an integer": is_json_int,
    "a non-negative integer": lambda v: is_json_int(v) and v >= 0,
    "an array": lambda v: isinstance(v, list),
    "a nonempty array": lambda v: isinstance(v, list) and len(v) > 0,
    "an array of integers": lambda v: isinstance(v, list) and all([x.__class__ is int for x in v]),
    "a boolean": lambda v: isinstance(v, bool),
}


def _field(obj: dict[str, Any], field: str, key: str, kind: str, default: Any = _REQUIRED) -> Any:
    """The value at ``key`` if it is ``kind``, ``default`` when absent.

    ``kind`` is a key of :data:`_KINDS`, the phrase the error message puts
    after "expected"; a None default lets null read as absent.
    """
    value = obj.get(key, default)
    if value is None and default is None:
        return None
    if not _KINDS[kind](value):
        raise SchemaError(f"{field}.{key}", f"expected {kind}")
    return value


def _build(field: str, cls: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``cls(*args, **kwargs)``, with its ValueError reported as a SchemaError on ``field``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise SchemaError(field, str(exc)) from None


def chern_to_json(poly: ChernPolynomial) -> dict[str, Any]:
    terms = [{"partition": list(part), "coeff": ypoly_to_json(coeff)} for part, coeff in poly.items()]
    return {"grade": poly.grade, "terms": terms}


def profile_to_json(profile: BettiProfile) -> dict[str, Any]:
    out: dict[str, Any] = {"dim": profile.dim, "betti": list(profile.betti)}
    if profile.sigma is not None:
        out["sigma"] = profile.sigma
    return out


_PROFILE_KEYS = frozenset(["dim", "betti", "sigma"])


def profile_from_json(obj: Any, field: str = "profile") -> BettiProfile:
    obj = _object(obj, field, _PROFILE_KEYS)
    dim = _field(obj, field, "dim", "an integer")
    betti = _field(obj, field, "betti", "an array of integers")
    sigma = _field(obj, field, "sigma", "an integer", None)
    from .betti import BettiProfile

    return _build(field, BettiProfile, dim, betti, sigma)


def component_to_json(comp: FixedComponent) -> dict[str, Any]:
    if not comp.complex_dim:  # a point's Betti numbers, signature and genus are fixed
        if comp.weights is not None:
            weights = list(comp.weights)
            return {"complexDim": 0, "weights": weights, "betti": [1], "signature": 1, "chiMinusY": {"0": "1"}}
        return {"complexDim": 0, "dF": comp.d_f, "betti": [1], "signature": 1, "chiMinusY": {"0": "1"}}
    out: dict[str, Any] = {"complexDim": comp.complex_dim}
    if comp.weights is not None:
        out["weights"] = list(comp.weights)
    else:
        out["dF"] = comp.d_f
    if comp.betti is not None:
        out["betti"] = list(comp.betti)
    if comp.signature is not None:
        out["signature"] = comp.signature
    if comp.chi_minus_y is not None:
        out["chiMinusY"] = ypoly_to_json(comp.chi_minus_y)
    return out


_COMPONENT_KEYS = frozenset(["complexDim", "weights", "dF", "betti", "signature", "chiMinusY"])
_POINT_GENUS_JSON = ypoly_to_json(YPolynomial.one())  # {"0": "1"}, as every writer emits it


def component_from_json(obj: Any, field: str) -> FixedComponent:
    obj = _object(obj, field, _COMPONENT_KEYS)
    r = _field(obj, field, "complexDim", "a non-negative integer", 0)
    weights = _field(obj, field, "weights", "an array of integers", None)
    d_f = _field(obj, field, "dF", "an integer", None)
    betti = _field(obj, field, "betti", "an array of integers", None)
    signature = _field(obj, field, "signature", "an integer", None)
    chi = obj.get("chiMinusY")
    from .localization import POINT_GENUS, FixedComponent

    if chi == _POINT_GENUS_JSON:  # the writers' genus of a point: the shared polynomial, not a parse
        chi = POINT_GENUS
    elif chi is not None:
        chi = ypoly_from_json(chi, f"{field}.chiMinusY", r)
    return _build(field, FixedComponent, r, weights, d_f, betti, signature, chi)


def model_to_json(model: FixedPointModel) -> dict[str, Any]:
    return {
        "n": model.n,
        "hamiltonian": model.hamiltonian,
        "components": [component_to_json(c) for c in model.components],
    }


# The largest n a fixed-point model may have. n bounds the degree of every dense
# row read or localized from a model, so rows stay small whatever the caller; the
# command line caps n far lower (GENUS_MAX_N).
MAX_MODEL_N = 10_000


_MODEL_KEYS = frozenset(["n", "hamiltonian", "components"])


def model_from_json(obj: Any, field: str = "model") -> FixedPointModel:
    obj = _object(obj, field, _MODEL_KEYS)
    n = _field(obj, field, "n", "a non-negative integer")
    if n > MAX_MODEL_N:
        raise SchemaError(f"{field}.n", f"exceeds the largest allowed, {MAX_MODEL_N}")
    hamiltonian = _field(obj, field, "hamiltonian", "a boolean", False)
    raw = _field(obj, field, "components", "a nonempty array")
    for entry in raw:
        r = entry.get("complexDim") if isinstance(entry, dict) else None
        if is_json_int(r) and r > n:  # before any component's polynomial of degree up to r is built
            raise SchemaError(field, "component dimension exceeds the manifold's")
    components = [
        component_from_json(entry, f"{field}.components[{i}]") for i, entry in enumerate(raw)
    ]
    from .localization import FixedPointModel

    return _build(field, FixedPointModel, n, components, hamiltonian)


def manifold_to_json(data: ManifoldData) -> dict[str, Any]:
    scale = data.scale
    numbers = [
        {"partition": list(part), "value": _rational_text(value, scale)}
        for part, value in zip(data.partitions, data.chern_row)
    ]
    out: dict[str, Any] = {"dimension": data.dimension, "chernNumbers": numbers}
    if data.betti is not None:
        out["betti"] = profile_to_json(data.betti)
    if data.action is not None:
        out["action"] = model_to_json(data.action)
    return out


_MANIFOLD_KEYS = frozenset(["dimension", "chernNumbers", "betti", "action"])
_ENTRY_KEYS = frozenset(["partition", "value"])


def manifold_from_json(obj: Any, field: str = "manifold") -> ManifoldData:
    obj = _object(obj, field, _MANIFOLD_KEYS)
    dimension = _field(obj, field, "dimension", "a non-negative integer")
    raw = _field(obj, field, "chernNumbers", "an array")
    numbers: dict[Partition, Fraction | int] = {}
    for idx, entry in enumerate(raw):
        where = f"{field}.chernNumbers[{idx}]"
        entry = _object(entry, where, _ENTRY_KEYS)
        parts = _field(entry, where, "partition", "an array of integers")
        part = _build(f"{where}.partition", as_partition, parts)
        if part in numbers:
            raise SchemaError(f"{where}.partition", f"duplicate partition {quote_parts(list(part))}")
        p, q = _rational_pair(entry.get("value"), f"{where}.value")
        numbers[part] = p if q == 1 else Fraction(p, q)
    betti, action = obj.get("betti"), obj.get("action")
    n = action.get("n") if isinstance(action, dict) else None
    if is_json_int(n) and n != dimension:  # before any row of degree up to n is read
        raise SchemaError(field, f"action.n {n} is not the dimension {dimension}")
    from .engine import ManifoldData

    return _build(
        field,
        ManifoldData,
        dimension,
        numbers,
        betti=profile_from_json(betti, f"{field}.betti") if betti is not None else None,
        action=model_from_json(action, f"{field}.action") if action is not None else None,
    )


def form_from_json(obj: Any, field: str = "form") -> list[list[Fraction]]:
    """Intersection form: array of arrays of rational strings."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError(field, "expected a nonempty array of rows")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise SchemaError(f"{field}[{i}]", "expected an array")
        rows.append([parse_rational(v, f"{field}[{i}][{j}]") for j, v in enumerate(row)])
    return rows
