"""Command-line front end.

Machine-readable JSON goes to stdout, diagnostics to stderr, and the exit
code separates input problems (2) from mathematical check failures (1).
The environment variable GENUS_MAX_N (default 12) caps the symbolic degree
so a typo cannot start an enormous expansion.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Any

from . import betti as betti_mod
from . import catalog, engine, inequalities, kexpansion, localization, serialize, verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

DEFAULT_MAX_N = 12


class InputError(Exception):
    pass


def _max_n() -> int:
    raw = os.environ.get("GENUS_MAX_N", "")
    try:
        return int(raw) if raw else DEFAULT_MAX_N
    except ValueError:
        raise InputError(f"GENUS_MAX_N must be an integer, got {raw!r}") from None


def _check_cap(n: int) -> None:
    cap = _max_n()
    if n > cap:
        raise InputError(f"degree {n} exceeds GENUS_MAX_N={cap}")
    if n < 0:
        raise InputError("degree must be non-negative")


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _load_manifold(path: str) -> catalog.ManifoldData:
    """A manifold document; an over-cap dimension is rejected before the Chern numbers are read."""
    obj = _load_json(path)
    dimension = obj.get("dimension") if isinstance(obj, dict) else None
    if serialize.is_json_int(dimension) and dimension >= 0:
        _check_cap(dimension)
    return serialize.manifold_from_json(obj)


def _emit(payload: Any) -> None:
    print(serialize.dumps(payload))


def _rational(value: Fraction | int) -> str:
    return serialize.format_rational(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genus",
        description="Exact chi_y-genus, Chern number inequalities, and circle-action localization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chi = sub.add_parser("chi", help="symbolic genus table or its evaluation on a manifold")
    chi.add_argument("--n", type=int, default=None, help="complex dimension")
    chi.add_argument("--manifold", metavar="FILE.json", default=None)
    chi.add_argument("--at", choices=("euler", "todd", "signature"), default=None)

    kco = sub.add_parser("kcoeffs", help="Taylor coefficients of the genus at y = -1")
    kco.add_argument("--n", type=int, required=True)
    kco.add_argument("--verify", action="store_true", help="also check closed forms and odd spans")

    ineq = sub.add_parser("ineq", help="Chern number inequality reports for a manifold")
    ineq.add_argument("--manifold", metavar="FILE.json", required=True)
    ineq.add_argument("--epsilon", type=int, choices=(1, -1), default=1)

    loc = sub.add_parser("localize", help="fixed-point localization of a circle action")
    loc.add_argument("--model", metavar="FILE.json", required=True)
    loc.add_argument("--check", choices=("mainapp4",), default=None)

    bet = sub.add_parser("betti", help="Betti inequalities and intersection-form inertia")
    bet.add_argument("--profile", metavar="FILE.json", default=None)
    bet.add_argument("--form", metavar="FILE.json", default=None)

    cat = sub.add_parser("catalog", help="built-in manifolds and circle actions")
    group = cat.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true")
    group.add_argument("--make", metavar="KEY", default=None)

    sub.add_parser("verify-paper", help="run the whole verification battery")
    return parser


def _cmd_chi(args: argparse.Namespace) -> int:
    manifold = None
    if args.manifold is not None:
        manifold = _load_manifold(args.manifold)
    n = args.n
    if n is None:
        if manifold is None:
            raise InputError("chi needs --n or --manifold")
        n = manifold.dimension
    if manifold is not None and manifold.dimension != n:
        raise InputError(f"--n {n} does not match manifold dimension {manifold.dimension}")
    _check_cap(n)
    if args.at is not None:
        if manifold is None:
            raise InputError("--at needs --manifold")
        _emit(_rational(engine.specialize(manifold, args.at)))
        return EXIT_OK
    if manifold is None:
        _emit(serialize.chern_to_json(engine.chi_y_chern_polynomial(n)))
        return EXIT_OK
    chi = engine.chi_vector(manifold)
    _emit({"chi": [[str(p), _rational(v)] for p, v in enumerate(chi)]})
    return EXIT_OK


def _cmd_kcoeffs(args: argparse.Namespace) -> int:
    _check_cap(args.n)
    if args.n < 1:
        raise InputError("kcoeffs needs --n >= 1")
    table = kexpansion.k_coefficients(args.n)
    payload: dict[str, Any] = {
        "n": args.n,
        "k": [serialize.chern_to_json(poly) for poly in table.k_polys],
    }
    if not args.verify:
        _emit(payload)
        return EXIT_OK
    closed = kexpansion.verify_closed_forms(args.n)
    payload["closedForms"] = {
        "checks": [{"j": c.j, "match": c.matches} for c in closed.checks],
        "allMatch": closed.all_match,
    }
    ok = closed.all_match
    if args.n >= 3:
        span = kexpansion.odd_k_span_check(args.n)
        payload["oddSpan"] = {
            "checks": [
                {
                    "j": c.odd_index,
                    "inSpan": c.in_span,
                    "combination": [_rational(v) for v in c.combination],
                }
                for c in span.checks
            ],
            "allInSpan": span.all_in_span,
        }
        ok = ok and span.all_in_span
    _emit(payload)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_ineq(args: argparse.Namespace) -> int:
    manifold = _load_manifold(args.manifold)
    reports = inequalities.check_inequalities(manifold, args.epsilon)
    _emit(
        [
            {
                "i": r.index,
                "lhs": _rational(r.lhs),
                "rhs": _rational(r.rhs),
                "scale": r.scale,
                "holds": r.holds,
                "equality": r.equality,
                "equalityWitness": list(r.equality_witness),
                "hypothesisMet": r.hypothesis_met,
            }
            for r in reports
        ]
    )
    return EXIT_OK


def _cmd_localize(args: argparse.Namespace) -> int:
    model = serialize.model_from_json(_load_json(args.model))
    _check_cap(model.n)
    payload: dict[str, Any] = {
        "chiMinusY": serialize.ypoly_to_json(localization.localized_chi_minus_y(model)),
        "novikov": serialize.ypoly_to_json(localization.novikov_polynomial(model)),
        "signature": localization.localized_signature(model),
    }
    exit_code = EXIT_OK
    if args.check == "mainapp4":
        report = localization.signature_identity_check(model)
        payload["check"] = {
            "name": args.check,
            "applicable": report.applicable,
            "signature": report.signature,
            "alternatingSum": report.alternating_sum,
            "holds": report.holds,
        }
        if report.applicable and not report.holds:
            exit_code = EXIT_CHECK_FAILED
    _emit(payload)
    return exit_code


def _cmd_betti(args: argparse.Namespace) -> int:
    if args.profile is None and args.form is None:
        raise InputError("betti needs --profile and/or --form")
    payload: dict[str, Any] = {}
    triple = None
    if args.form is not None:
        matrix = serialize.form_from_json(_load_json(args.form))
        triple = betti_mod.inertia(matrix)
        payload["inertia"] = {
            "bPlus": triple.b_plus,
            "bMinus": triple.b_minus,
            "bZero": triple.b_zero,
        }
        status = betti_mod.cs_classification(triple)
        payload["cs"] = {"reverseCS": status.reverse_cs, "CS": status.cs}
    if args.profile is not None:
        profile = serialize.profile_from_json(_load_json(args.profile))
        if profile.sigma is None and triple is not None:
            if profile.dim % 4 != 0:
                raise InputError("a middle intersection form needs dimension divisible by 4")
            middle = profile.betti[profile.dim // 2]
            size = triple.b_plus + triple.b_minus + triple.b_zero
            if size != middle:
                raise InputError(
                    f"form size {size} does not match the middle Betti number {middle}"
                )
            profile = betti_mod.BettiProfile(
                profile.dim, profile.betti, triple.b_plus - triple.b_minus
            )
        if profile.sigma is not None:
            payload["signatureAlternating"] = betti_mod.signature_alternating(profile)
            if profile.dim % 4 == 0:
                report = betti_mod.betti_inequality_check(profile)
                payload["inequalities"] = {
                    "bPlus": report.b_plus,
                    "bMinus": report.b_minus,
                    "upper": asdict(report.upper),
                    "lower": asdict(report.lower),
                }
        payload["unimodality"] = {
            "label": betti_mod.UNIMODALITY_LABEL,
            "holds": betti_mod.tolman_unimodality_report(profile).holds,
        }
    _emit(payload)
    return EXIT_OK


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.list:
        _emit(
            {
                "manifolds": list(catalog.CATALOG_KEYS),
                "actions": list(catalog.ACTION_KEYS),
                "grammar": [
                    "pn:N",
                    "hyp:N:D",
                    "product:KEY,KEY[,...]",
                    "pnaction:N[:A0,A1,...,AN]",
                ],
            }
        )
        return EXIT_OK
    key = args.make
    _check_cap(catalog.key_dimension(key))
    if key.partition(":")[0] == "pnaction":
        _emit(serialize.model_to_json(catalog.make_action(key)))
    else:
        _emit(serialize.manifold_to_json(catalog.make_manifold(key)))
    return EXIT_OK


def _cmd_verify(_: argparse.Namespace) -> int:
    results = verify.run_all()
    _emit(results)
    return EXIT_OK if all(r["pass"] for r in results) else EXIT_CHECK_FAILED


_HANDLERS = {
    "chi": _cmd_chi,
    "kcoeffs": _cmd_kcoeffs,
    "ineq": _cmd_ineq,
    "localize": _cmd_localize,
    "betti": _cmd_betti,
    "catalog": _cmd_catalog,
    "verify-paper": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_INPUT_ERROR
    try:
        return _HANDLERS[args.command](args)
    except (InputError, ValueError) as exc:
        print(f"genus: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ArithmeticError as exc:
        # only the internal cross-checks raise these: a failed mathematical check
        print(f"genus: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def entry() -> None:
    raise SystemExit(main())
