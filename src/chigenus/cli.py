"""Command-line front end.

Machine-readable JSON goes to stdout, diagnostics to stderr, and the exit
code separates bad input (2: a usage error or a ``ValueError``) from
failed mathematical checks (1: an ``ArithmeticError``).
The environment variable GENUS_MAX_N (default 12) caps the symbolic degree
so a typo cannot start an enormous expansion.

Only ``serialize`` is imported with this module. Each subcommand imports the
modules it runs, after it has checked its input and the cap, so a process
spends its start-up on what it executes and a rejected input loads nothing
heavy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable

from . import serialize

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

DEFAULT_MAX_N = 12

# at most 4 UTF-8 bytes a character, so a cut message stays under 1 KiB of stderr
_MAX_MESSAGE_CHARS = 200


def _check_cap(n: int) -> None:
    raw = os.environ.get("GENUS_MAX_N", "")
    try:
        cap = int(raw) if raw else DEFAULT_MAX_N
    except ValueError:
        raise ValueError(f"GENUS_MAX_N must be an integer, got {raw!r}") from None
    if n > cap:
        raise ValueError(f"degree {n} exceeds GENUS_MAX_N={cap}")
    if n < 0:
        raise ValueError("degree must be non-negative")


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    except ValueError:  # an integer literal over the interpreter's limit on digits converted
        raise ValueError(f"{path} holds a number with too many digits") from None
    except RecursionError:
        raise ValueError(f"{path} is nested too deeply") from None


def _load_capped(path: str, key: str, reader: Callable[[Any], Any]) -> Any:
    """A document whose degree ``key`` is checked against the cap before ``reader`` reads the rest."""
    obj = _load_json(path)
    degree = obj.get(key) if isinstance(obj, dict) else None
    if serialize.is_json_int(degree) and degree >= 0:
        _check_cap(degree)
    return reader(obj)


def _emit(payload: Any) -> None:
    """Print one JSON document; a reader that closed stdout ends the output, not the command."""
    try:
        print(serialize.dumps(payload))
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; /dev/null takes what is left
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genus",
        description="Exact chi_y-genus, Chern number inequalities, and circle-action localization.",
    )
    # the dest names the missing subcommand in argparse's usage error
    sub = parser.add_subparsers(dest="command", required=True)

    chi = sub.add_parser("chi", help="symbolic genus table or its evaluation on a manifold")
    chi.add_argument("--n", type=int, default=None, help="complex dimension")
    chi.add_argument("--manifold", metavar="FILE.json", default=None)
    chi.add_argument("--at", choices=("euler", "todd", "signature"), default=None)
    chi.set_defaults(handler=_cmd_chi)

    kco = sub.add_parser("kcoeffs", help="Taylor coefficients of the genus at y = -1")
    kco.add_argument("--n", type=int, required=True)
    kco.add_argument("--verify", action="store_true", help="also check closed forms and odd spans")
    kco.set_defaults(handler=_cmd_kcoeffs)

    ineq = sub.add_parser("ineq", help="Chern number inequality reports for a manifold")
    ineq.add_argument("--manifold", metavar="FILE.json", required=True)
    ineq.add_argument("--epsilon", type=int, choices=(1, -1), default=1)
    ineq.set_defaults(handler=_cmd_ineq)

    loc = sub.add_parser("localize", help="fixed-point localization of a circle action")
    loc.add_argument("--model", metavar="FILE.json", required=True)
    loc.add_argument("--check", choices=("mainapp4",), default=None)
    loc.set_defaults(handler=_cmd_localize)

    bet = sub.add_parser("betti", help="Betti inequalities and intersection-form inertia")
    bet.add_argument("--profile", metavar="FILE.json", default=None)
    bet.add_argument("--form", metavar="FILE.json", default=None)
    bet.set_defaults(handler=_cmd_betti)

    cat = sub.add_parser("catalog", help="built-in manifolds and circle actions")
    group = cat.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true")
    group.add_argument("--make", metavar="KEY", default=None)
    cat.set_defaults(handler=_cmd_catalog)

    sub.add_parser("verify-paper", help="run the whole verification battery").set_defaults(handler=_cmd_verify)
    return parser


def _cmd_chi(args: argparse.Namespace) -> int:
    manifold = None
    if args.manifold is not None:
        manifold = _load_capped(args.manifold, "dimension", serialize.manifold_from_json)
    n = args.n
    if n is None:
        if manifold is None:
            raise ValueError("chi needs --n or --manifold")
        n = manifold.dimension
    if manifold is not None and manifold.dimension != n:
        raise ValueError(f"--n {n} does not match manifold dimension {manifold.dimension}")
    _check_cap(n)
    if args.at is not None and manifold is None:
        raise ValueError("--at needs --manifold")
    from . import engine

    if args.at is not None:
        _emit(str(engine.specialize(manifold, args.at)))
        return EXIT_OK
    if manifold is None:
        _emit(serialize.chern_to_json(engine.chi_y_chern_polynomial(n)))
        return EXIT_OK
    chi = engine.chi_vector(manifold)
    _emit({"chi": [[str(p), str(v)] for p, v in enumerate(chi)]})
    return EXIT_OK


def _cmd_kcoeffs(args: argparse.Namespace) -> int:
    _check_cap(args.n)
    if args.n < 1:
        raise ValueError("kcoeffs needs --n >= 1")
    from . import kexpansion

    table = kexpansion.k_coefficients(args.n)
    payload: dict[str, Any] = {
        "n": args.n,
        "k": [serialize.chern_to_json(poly) for poly in table.k_polys],
    }
    if not args.verify:
        _emit(payload)
        return EXIT_OK
    closed = kexpansion.verify_closed_forms(args.n)
    ok = all(closed)
    payload["closedForms"] = {
        "checks": [{"j": j, "match": match} for j, match in enumerate(closed)],
        "allMatch": ok,
    }
    if args.n >= 3:
        span = kexpansion.odd_k_span_check(args.n)
        in_span = all(c.in_span for c in span)
        payload["oddSpan"] = {
            "checks": [
                {
                    "j": 2 * k + 1,
                    "inSpan": c.in_span,
                    "combination": [str(v) for v in c.combination],
                }
                for k, c in enumerate(span)
            ],
            "allInSpan": in_span,
        }
        ok = ok and in_span
    _emit(payload)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_ineq(args: argparse.Namespace) -> int:
    manifold = _load_capped(args.manifold, "dimension", serialize.manifold_from_json)
    from . import inequalities

    reports = inequalities.check_inequalities(manifold, args.epsilon)
    _emit(
        [
            {
                "i": r.index,
                "lhs": str(r.lhs),
                "rhs": str(r.rhs),
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
    model = _load_capped(args.model, "n", serialize.model_from_json)
    from . import localization

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
        raise ValueError("betti needs --profile and/or --form")
    from . import betti as betti_mod

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
        if triple is not None:
            profile = betti_mod.with_middle_form(profile, triple)
        if profile.sigma is not None:
            payload["signatureAlternating"] = betti_mod.signature_alternating(profile)
            if profile.dim % 4 == 0:
                report = betti_mod.betti_inequality_check(profile)
                payload["inequalities"] = {
                    "bPlus": report.b_plus,
                    "bMinus": report.b_minus,
                    "upper": report.upper._asdict(),
                    "lower": report.lower._asdict(),
                }
        payload["unimodality"] = {
            "label": betti_mod.UNIMODALITY_LABEL,
            "holds": betti_mod.tolman_unimodality_report(profile),
        }
    _emit(payload)
    return EXIT_OK


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.list:
        _emit(
            {
                "manifolds": list(serialize.CATALOG_KEYS),
                "actions": list(serialize.ACTION_KEYS),
                "grammar": list(serialize.KEY_GRAMMAR.values()),
            }
        )
        return EXIT_OK
    key = serialize.parse_key(args.make)
    _check_cap(key.dimension)
    from . import catalog

    if key.kind == "pnaction":
        _emit(serialize.model_to_json(catalog.make_action(key)))
    else:
        _emit(serialize.manifold_to_json(catalog.make_manifold(key)))
    return EXIT_OK


def _cmd_verify(_: argparse.Namespace) -> int:
    from . import verify

    results = []
    for key, statement, check in verify.CHECKS:
        witness = check()
        if witness is not None:
            _report(f"verify-paper: {key}: {witness}")
        results.append({"key": key, "statement": statement, "pass": witness is None})
    _emit(results)
    return EXIT_OK if all(r["pass"] for r in results) else EXIT_CHECK_FAILED


def _report(problem: Exception | str) -> None:
    """Print an error message, cut to _MAX_MESSAGE_CHARS: some echo their input."""
    message = str(problem)
    if len(message) > _MAX_MESSAGE_CHARS:
        message = f"{message[:_MAX_MESSAGE_CHARS]}... ({len(message)} characters)"
    print(f"genus: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_INPUT_ERROR
    # some argparse versions read "--option=--" as an empty list, not as a value
    if [] in vars(args).values():
        _report("an option was given '--' in place of its value")
        return EXIT_INPUT_ERROR
    try:
        return args.handler(args)
    except ValueError as exc:
        _report(exc)
        return EXIT_INPUT_ERROR
    except ArithmeticError as exc:
        # only the internal cross-checks raise these: a failed mathematical check
        _report(exc)
        return EXIT_CHECK_FAILED


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
