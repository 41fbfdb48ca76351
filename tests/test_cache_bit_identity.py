"""The host-performance contract: caches change wall clock, nothing else.

Compiled expressions, the plan cache, and the dataset cache are pure
host-side accelerations.  This test runs the same query under a node
crash and a seeded runtime-tuning schedule with every cache enabled vs
every cache disabled, and requires the *simulated* execution to be
bit-identical: same answer rows, same virtual completion time, same
number of kernel events processed.
"""

from __future__ import annotations

import pytest

from conftest import TEST_SEED, run_under_crash_and_tuning, slow_engine

from repro.data import Catalog
from repro.data.tpch.dataset_cache import clear_dataset_cache
from repro.data.tpch.queries import QUERIES
from repro.sql.compiler import clear_compile_cache


def run_instrumented(sql: str, caches: bool) -> dict:
    """One full run with every host cache on or off."""

    def make_engine():
        catalog = Catalog.tpch(scale=0.005, seed=TEST_SEED, dataset_cache=caches)
        return slow_engine(catalog, plan_cache=caches, compiled_expressions=caches)

    return run_under_crash_and_tuning(make_engine, sql)


@pytest.mark.parametrize("name", ["Q3", "Q5"])
def test_caches_are_bit_inert(name):
    clear_compile_cache()
    clear_dataset_cache()
    cold = run_instrumented(QUERIES[name], caches=True)
    # Second cached run: plan cache and dataset memo are now warm.
    warm = run_instrumented(QUERIES[name], caches=True)
    bare = run_instrumented(QUERIES[name], caches=False)
    assert cold == warm == bare
    assert cold["rows"]  # the query survived the crash and answered
    assert cold["faults"] >= 1  # the crash actually fired
