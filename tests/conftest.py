"""Shared fixtures: no test module leaves the package's memoized tables behind.

A table one module builds would make the next module's first lookup a cache
hit, so a test that counts builds (the benchmark's tracer test, among
others) would pass or fail with the order the modules run in.
"""

import pytest

from chigenus import catalog, engine, kexpansion


@pytest.fixture(autouse=True, scope="module")
def cleared_tables():
    """After each module, drop the chi_y and K tables, the Whitney splits and the partition indexes."""
    yield
    engine.chi_y_chern_polynomial.cache_clear()
    kexpansion.k_coefficients.cache_clear()
    catalog._splits.cache_clear()
    engine._INDEX.clear()
