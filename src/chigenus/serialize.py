"""JSON wire formats.

Rationals travel as strings ("p/q", or "p" when the denominator is 1) so
no consumer can lose precision; partitions as arrays of integers; y-
polynomials as degree -> coefficient objects. Readers accept exactly the
canonical form that the writers emit, and re-emission is byte-identical.
Two formats go one way only: Chern polynomials are written (``genus chi
--n``) but never read back, and intersection forms (``genus betti --form``)
are read but never written. Catalog keys
(``pn:N``, ``hyp:N:D``, ``product:...``, ``pnaction:N[:...]``) share the
integer grammar of the rationals' numerators; :func:`key_dimension` reads a
key's dimension without loading the catalog.

The classes a reader builds are imported inside that reader, so loading
this module loads no ``betti``, ``catalog`` or ``localization`` code.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Any

from .partitions import Partition, as_partition
from .chern import ChernPolynomial
from .ypoly import YPolynomial

if TYPE_CHECKING:
    from .betti import BettiProfile
    from .catalog import ManifoldData
    from .localization import FixedComponent, FixedPointModel


class SchemaError(ValueError):
    """Malformed document; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


def is_json_int(value: Any) -> bool:
    """Whether a decoded JSON value is an integer; ``true``/``false`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def dumps(payload: Any) -> str:
    return json.dumps(payload, separators=(",", ":"))


def format_rational(value: Fraction | int) -> str:
    q = value if isinstance(value, Fraction) else Fraction(value)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


_INT = r"0|-?[1-9][0-9]*"
_RATIONAL_RE = re.compile(rf"({_INT})(/[1-9][0-9]*)?")
_DEGREE_RE = re.compile(r"0|[1-9][0-9]*")
_KEY_INT_RE = re.compile(_INT)


def parse_rational(text: Any, field: str = "value") -> Fraction:
    """A rational as the writers emit it: canonical numerator, lowest terms, q > 1."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise SchemaError(field, f"expected 'p' or 'p/q' with q > 0, got {text!r}")
    numerator, _, denominator = text.partition("/")
    try:
        p = int(numerator)
        q = int(denominator) if denominator else 1
    except ValueError:  # over the interpreter's limit on digits converted to int
        raise SchemaError(field, f"too many digits ({len(text)} characters)") from None
    if denominator and (q == 1 or gcd(p, q) != 1):
        raise SchemaError(field, f"expected lowest terms with q > 1, got {text!r}")
    return Fraction(p, q)


def key_int(text: str, key: str) -> int:
    """An integer field of a catalog key: ASCII digits, an optional minus sign, no leading zero."""
    if not _KEY_INT_RE.fullmatch(text):
        raise ValueError(f"malformed catalog key {key!r}")
    try:
        return int(text)
    except ValueError:  # over the interpreter's limit on digits converted to int
        raise ValueError(f"malformed catalog key {key!r}") from None


def key_factors(rest: str) -> list[str]:
    """Split ``pn:1,hyp:2:4`` into factor keys.

    Factor keys (``pn:N``, ``hyp:N:D``) never contain commas, so a plain
    split suffices; nested products are not part of the grammar.
    """
    factors = rest.split(",") if rest else []
    for factor in factors:
        if not factor:
            raise ValueError(f"empty product factor in {rest!r}")
        if factor.partition(":")[0] not in ("pn", "hyp"):
            raise ValueError(f"product factors must be pn or hyp keys, got {factor!r}")
    return factors


def key_dimension(key: str) -> int:
    """Complex dimension named by a catalog manifold or action key, read without building it.

    ``pn:N``, ``hyp:N:D`` and ``pnaction:N[:...]`` name dimension N; a
    ``product:`` key names the sum over its factors. The rest of the key is
    validated only when ``chigenus.catalog`` builds it.
    """
    kind, _, rest = key.partition(":")
    if kind in ("pn", "hyp", "pnaction"):
        return key_int(rest.partition(":")[0], key)
    if kind == "product":
        return sum(key_dimension(factor) for factor in key_factors(rest))
    raise ValueError(f"unknown catalog key {key!r}")


def ypoly_to_json(poly: YPolynomial) -> dict[str, str]:
    return {str(d): format_rational(c) for d, c in poly.items()}


def ypoly_from_json(obj: Any, field: str, max_degree: int) -> YPolynomial:
    """A nonzero coefficient above ``max_degree`` is refused before the polynomial's dense row is built."""
    if not isinstance(obj, dict):
        raise SchemaError(field, "expected an object mapping degree to coefficient")
    coeffs = {}
    for key, value in obj.items():
        if not _DEGREE_RE.fullmatch(key):
            raise SchemaError(field, f"bad degree {key!r}")
        try:
            degree = int(key)
        except ValueError:  # over the interpreter's limit on digits converted to int
            message = f"degree has too many digits ({len(key)} characters)"
            raise SchemaError(field, message) from None
        coeffs[degree] = parse_rational(value, f"{field}[{key}]")
    top = max([d for d, c in coeffs.items() if c], default=0)
    if top > max_degree:
        raise SchemaError(field, f"degree {top} exceeds the largest allowed, {max_degree}")
    return YPolynomial(coeffs)


def partition_from_json(obj: Any, field: str = "partition") -> Partition:
    if not isinstance(obj, list) or not all(is_json_int(p) for p in obj):
        raise SchemaError(field, "expected an array of integers")
    try:
        return as_partition(obj)
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


def profile_from_json(obj: Any, field: str = "profile") -> BettiProfile:
    if not isinstance(obj, dict):
        raise SchemaError(field, "expected an object")
    dim = obj.get("dim")
    if not is_json_int(dim):
        raise SchemaError(f"{field}.dim", "expected an integer")
    betti = obj.get("betti")
    if not isinstance(betti, list) or not all(is_json_int(b) for b in betti):
        raise SchemaError(f"{field}.betti", "expected an array of integers")
    sigma = obj.get("sigma")
    if sigma is not None and not is_json_int(sigma):
        raise SchemaError(f"{field}.sigma", "expected an integer")
    from .betti import BettiProfile

    try:
        return BettiProfile(dim, tuple(betti), sigma)
    except ValueError as exc:
        raise SchemaError(field, str(exc)) from None


def component_to_json(comp: FixedComponent) -> dict[str, Any]:
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


def component_from_json(obj: Any, field: str) -> FixedComponent:
    if not isinstance(obj, dict):
        raise SchemaError(field, "expected an object")
    r = obj.get("complexDim", 0)
    if not is_json_int(r) or r < 0:
        raise SchemaError(f"{field}.complexDim", "expected a non-negative integer")
    weights = obj.get("weights")
    if weights is not None:
        if not isinstance(weights, list) or not all(is_json_int(w) for w in weights):
            raise SchemaError(f"{field}.weights", "expected an array of integers")
        if any(w == 0 for w in weights):
            raise SchemaError(f"{field}.weights", "rotation weights must be nonzero")
    d_f = obj.get("dF")
    if d_f is not None and not is_json_int(d_f):
        raise SchemaError(f"{field}.dF", "expected an integer")
    betti = obj.get("betti")
    if betti is not None and (
        not isinstance(betti, list) or not all(is_json_int(b) for b in betti)
    ):
        raise SchemaError(f"{field}.betti", "expected an array of integers")
    signature = obj.get("signature")
    if signature is not None and not is_json_int(signature):
        raise SchemaError(f"{field}.signature", "expected an integer")
    chi = obj.get("chiMinusY")
    chi_poly = ypoly_from_json(chi, f"{field}.chiMinusY", r) if chi is not None else None
    from .localization import FixedComponent

    try:
        return FixedComponent(
            complex_dim=r,
            weights=weights,
            d_f=d_f,
            betti=betti,
            signature=signature,
            chi_minus_y=chi_poly,
        )
    except ValueError as exc:
        raise SchemaError(field, str(exc)) from None


def model_to_json(model: FixedPointModel) -> dict[str, Any]:
    return {
        "n": model.n,
        "hamiltonian": model.hamiltonian,
        "components": [component_to_json(c) for c in model.components],
    }


def model_from_json(obj: Any, field: str = "model") -> FixedPointModel:
    if not isinstance(obj, dict):
        raise SchemaError(field, "expected an object")
    n = obj.get("n")
    if not is_json_int(n) or n < 0:
        raise SchemaError(f"{field}.n", "expected a non-negative integer")
    hamiltonian = obj.get("hamiltonian", False)
    if not isinstance(hamiltonian, bool):
        raise SchemaError(f"{field}.hamiltonian", "expected a boolean")
    raw = obj.get("components")
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{field}.components", "expected a nonempty array")
    for entry in raw:
        r = entry.get("complexDim") if isinstance(entry, dict) else None
        if is_json_int(r) and r > n:  # before any component's polynomial of degree up to r is built
            raise SchemaError(field, "component dimension exceeds the manifold's")
    components = [
        component_from_json(entry, f"{field}.components[{i}]") for i, entry in enumerate(raw)
    ]
    from .localization import FixedPointModel

    try:
        return FixedPointModel(n, components, hamiltonian)
    except ValueError as exc:
        raise SchemaError(field, str(exc)) from None


_FLAG_KEYS = (
    ("pureType", "pure_type"),
    ("hamiltonianS1", "hamiltonian_s1"),
)


def manifold_to_json(data: ManifoldData) -> dict[str, Any]:
    numbers = [
        {"partition": list(part), "value": format_rational(value)}
        for part, value in sorted(data.chern_numbers.items(), reverse=True)
    ]
    out: dict[str, Any] = {"dimension": data.dimension, "chernNumbers": numbers}
    flags = {
        json_key: getattr(data, attr)
        for json_key, attr in _FLAG_KEYS
        if getattr(data, attr) is not None
    }
    if flags:
        out["flags"] = flags
    if data.betti is not None:
        out["betti"] = profile_to_json(data.betti)
    if data.action is not None:
        out["action"] = model_to_json(data.action)
    return out


def manifold_from_json(obj: Any, field: str = "manifold") -> ManifoldData:
    if not isinstance(obj, dict):
        raise SchemaError(field, "expected an object")
    dimension = obj.get("dimension")
    if not is_json_int(dimension) or dimension < 0:
        raise SchemaError(f"{field}.dimension", "expected a non-negative integer")
    raw = obj.get("chernNumbers")
    if not isinstance(raw, list):
        raise SchemaError(f"{field}.chernNumbers", "expected an array")
    numbers: dict[Partition, Fraction] = {}
    for idx, entry in enumerate(raw):
        where = f"{field}.chernNumbers[{idx}]"
        if not isinstance(entry, dict):
            raise SchemaError(where, "expected an object")
        part = partition_from_json(entry.get("partition"), f"{where}.partition")
        if part in numbers:
            raise SchemaError(f"{where}.partition", f"duplicate partition {list(part)}")
        numbers[part] = parse_rational(entry.get("value"), f"{where}.value")
    flags = obj.get("flags", {})
    if not isinstance(flags, dict):
        raise SchemaError(f"{field}.flags", "expected an object")
    kwargs = {}
    for json_key, attr in _FLAG_KEYS:
        if json_key in flags:
            if not isinstance(flags[json_key], bool):
                raise SchemaError(f"{field}.flags.{json_key}", "expected a boolean")
            kwargs[attr] = flags[json_key]
    betti = obj.get("betti")
    action = obj.get("action")
    from .catalog import ManifoldData

    try:
        return ManifoldData(
            dimension,
            numbers,
            betti=profile_from_json(betti, f"{field}.betti") if betti is not None else None,
            action=model_from_json(action, f"{field}.action") if action is not None else None,
            **kwargs,
        )
    except ValueError as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(field, str(exc)) from None


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
