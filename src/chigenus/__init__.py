"""Exact chi_y-genus arithmetic over the rationals.

The package computes the Hirzebruch genus of an almost-complex manifold as
a universal polynomial in Chern classes, expands it at y = -1, evaluates
the resulting Chern number inequalities with equality detection, localizes
genus, Novikov polynomial, and signature over the fixed points of a circle
action, and classifies intersection forms by their inertia. Every result is
an exact rational, and the hot paths run on Python integers over one common
denominator; there is no floating point anywhere.

The top-level namespace is the README's quick start: the eleven names below.
Everything else is imported from the submodule that defines it, such as
``chigenus.engine.ManifoldData`` (also importable from ``chigenus.catalog``)
or ``chigenus.betti.BettiProfile``.
The names resolve lazily (PEP 562): ``import chigenus`` loads no submodule,
and ``chigenus.inertia`` or ``from chigenus import inertia`` imports only
the submodule that defines it, so a ``genus`` process pays only for the
modules its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "betti": ("inertia",),
    "catalog": ("hypersurface", "product", "projective_space", "standard_pn_action"),
    "engine": ("chi_vector", "chi_y_chern_polynomial", "specialize"),
    "inequalities": ("check_inequalities",),
    "kexpansion": ("k_coefficients",),
    "localization": ("localized_chi_minus_y",),
}

# exported name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

# submodules reachable as attributes after a bare ``import chigenus``
_SUBMODULES = frozenset({
    "betti", "catalog", "chern", "cli", "engine", "inequalities", "kexpansion",
    "localization", "partitions", "serialize", "series", "verify", "ypoly",
})

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SOURCE:
        return getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
