"""Shared fixtures for the test suite.

The heavyweight fixtures (generated TPC-H catalogs) are session-scoped;
engines are cheap to build on top of a shared catalog.
"""

from __future__ import annotations

import math

import json

import numpy as np
import pytest

from repro import AccordionEngine, EngineConfig, FaultPlan, NodeCrash
from repro.config import CostModel
from repro.data import Catalog
from repro.errors import TuningRejected


TEST_SCALE = 0.005
TEST_SEED = 777
#: Virtual times at which run_under_crash_and_tuning's seeded tuning
#: schedule acts.
TUNING_TIMES = (0.5, 1.0, 1.8)


@pytest.fixture(scope="session")
def catalog() -> Catalog:
    """A small shared TPC-H catalog (lineitem ~30k rows)."""
    return Catalog.tpch(scale=TEST_SCALE, seed=TEST_SEED)


@pytest.fixture(scope="session")
def tiny_catalog() -> Catalog:
    """A very small catalog for expensive (e.g. property-based) tests."""
    return Catalog.tpch(scale=0.001, seed=TEST_SEED)


def make_engine(catalog: Catalog, **config_kwargs) -> AccordionEngine:
    config = EngineConfig(**config_kwargs) if config_kwargs else EngineConfig()
    return AccordionEngine(catalog, config=config)


def slow_engine(catalog: Catalog, multiplier: float = 1000.0, **kwargs) -> AccordionEngine:
    """Engine whose queries run long enough for runtime tuning to act.

    Pages are kept small so driver quanta stay well under a virtual second
    at the stretched cost scale.
    """
    kwargs.setdefault("page_row_limit", 256)
    config = EngineConfig(cost=CostModel().scaled(multiplier), **kwargs)
    return AccordionEngine(catalog, config=config)


@pytest.fixture()
def engine(catalog) -> AccordionEngine:
    return make_engine(catalog)


def run_until_cond(engine: AccordionEngine, predicate, max_seconds: float = 1e6) -> None:
    """Advance the simulation until ``predicate()`` holds (or fail)."""
    engine.kernel.run(until=engine.now + max_seconds, stop_when=predicate)
    assert predicate(), "condition not reached within the time limit"


def builds_ready(query, stage_id: int):
    """Predicate: every active task of the stage has its hash table built."""

    def check() -> bool:
        stage = query.stages[stage_id]
        active = stage.active_group
        return bool(active) and all(b.ready for t in active for b in t.bridges)

    return check


def norm_rows(rows, ndigits: int = 4):
    """Normalise rows for set comparison (round floats, map NaN)."""
    out = []
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append("nan" if math.isnan(value) else round(value, ndigits))
            else:
                cells.append(value)
        out.append(tuple(cells))
    return sorted(out)


def run_under_crash_and_tuning(make_engine, sql: str, trace: bool = False) -> dict:
    """One full run under a node crash and a seeded tuning schedule.

    ``make_engine()`` builds the engine (and its catalog, if the caller
    varies it).  Compute node 1 crashes at 2.2 virtual seconds and a
    seeded (rng 99) schedule resizes random stages at ``TUNING_TIMES``.
    Returns everything the simulation determines, so an inertness test
    compares two of these dicts for equality; ``trace=True`` adds the
    query's Chrome trace (the engine must have tracing on).
    """
    engine = make_engine()
    engine.inject_faults(
        FaultPlan(seed=11, events=(NodeCrash(at=2.2, node="compute1"),))
    )
    handle = engine.submit(sql)
    rng = np.random.default_rng(99)
    actions = []
    for at in TUNING_TIMES:
        engine.run_until(at)
        stage = int(rng.integers(1, 4))
        dop = int(rng.integers(1, 6))
        try:
            outcome = handle.tuning.ap(stage, dop).accepted
        except TuningRejected as rejected:
            outcome = f"rejected: {rejected}"
        actions.append((at, stage, dop, outcome))
    engine.run_until_done(handle, max_events=5_000_000)
    result = {
        "rows": norm_rows(handle.result().rows),
        "virtual_time": engine.now,
        "events": engine.kernel.events_processed,
        "actions": actions,
        "faults": len(engine.fault_injector.history),
    }
    if trace:
        result["trace"] = json.dumps(
            handle.trace().to_chrome_json(), sort_keys=True, default=str
        )
    return result
