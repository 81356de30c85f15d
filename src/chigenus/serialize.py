"""JSON wire formats.

Rationals travel as strings ("p/q", or "p" when the denominator is 1) so
no consumer can lose precision; partitions as arrays of integers; y-
polynomials as degree -> coefficient objects. Readers accept exactly what
the writers emit, and re-emission is byte-identical.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .betti import BettiProfile
from .catalog import ManifoldData
from .localization import FixedComponent, FixedPointModel
from .partitions import Partition, as_partition, weight
from .chern import ChernPolynomial
from .ypoly import YPolynomial


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
    q = Fraction(value)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_rational(text: Any, field: str = "value") -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise SchemaError(field, f"expected 'p' or 'p/q' with q > 0, got {text!r}")
    return Fraction(text)


def ypoly_to_json(poly: YPolynomial) -> dict[str, str]:
    return {str(d): format_rational(c) for d, c in poly.items()}


def ypoly_from_json(obj: Any, field: str = "poly") -> YPolynomial:
    if not isinstance(obj, dict):
        raise SchemaError(field, "expected an object mapping degree to coefficient")
    coeffs = {}
    for key, value in obj.items():
        try:
            degree = int(key)
        except ValueError:
            raise SchemaError(field, f"bad degree {key!r}") from None
        coeffs[degree] = parse_rational(value, f"{field}[{key}]")
    return YPolynomial(coeffs)


def partition_from_json(obj: Any, field: str = "partition") -> Partition:
    if not isinstance(obj, list) or not all(is_json_int(p) for p in obj):
        raise SchemaError(field, "expected an array of integers")
    try:
        return as_partition(obj)
    except ValueError as exc:
        raise SchemaError(field, str(exc)) from None


def chern_to_json(poly: ChernPolynomial) -> dict[str, Any]:
    terms = [
        {"partition": list(part), "coeff": ypoly_to_json(coeff)}
        for part, coeff in poly.items()
    ]
    return {"grade": poly.grade, "terms": terms}


def chern_from_json(obj: Any, field: str = "chern") -> ChernPolynomial:
    if not isinstance(obj, dict) or "grade" not in obj or "terms" not in obj:
        raise SchemaError(field, "expected an object with grade and terms")
    grade = obj["grade"]
    if not is_json_int(grade) or grade < 0:
        raise SchemaError(f"{field}.grade", "expected a non-negative integer")
    terms = {}
    for idx, entry in enumerate(obj["terms"]):
        where = f"{field}.terms[{idx}]"
        if not isinstance(entry, dict):
            raise SchemaError(where, "expected an object")
        part = partition_from_json(entry.get("partition"), f"{where}.partition")
        coeff = ypoly_from_json(entry.get("coeff"), f"{where}.coeff")
        if weight(part) != grade:
            raise SchemaError(f"{where}.partition", f"weight differs from grade {grade}")
        if part in terms:
            raise SchemaError(f"{where}.partition", f"duplicate partition {list(part)}")
        terms[part] = coeff
    return ChernPolynomial(grade, terms)


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
    chi_poly = ypoly_from_json(chi, f"{field}.chiMinusY") if chi is not None else None
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
    components = [
        component_from_json(entry, f"{field}.components[{i}]") for i, entry in enumerate(raw)
    ]
    try:
        return FixedPointModel(n, components, hamiltonian)
    except ValueError as exc:
        raise SchemaError(field, str(exc)) from None


_FLAG_KEYS = (
    ("pureType", "pure_type"),
    ("kahlerHyperbolic", "kahler_hyperbolic"),
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


def form_to_json(matrix: list[list[Fraction]]) -> list[list[str]]:
    return [[format_rational(v) for v in row] for row in matrix]
