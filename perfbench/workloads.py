"""The benchmark's workloads.

Each workload makes all of its inputs from the seed: the dataset, the
query order, the literals and the arrival times.  ``prepare`` computes
the reference answers untimed on a plain static engine (sharing and
prediction off, no memory budget); ``setup`` builds the measured engine
on a fresh catalog and runs the warm-up that fills the compile, plan and
prediction caches; ``run_round`` runs one round of queries and returns
one :class:`Query` per attempted query.

Why these four (each stresses different layers):

* ``tpch-inmem``: operator kernels, pages and expression code do most of
  the work; exchange and simulator overhead is small.
* ``iqre-shuffle``: the paper's shuffle-bottleneck query under mid-flight
  DOP changes and the auto-tuner; simulator, exchange, buffers, elastic
  and autotune code dominate.
* ``tenant-burst``: many short queries from three tenants through
  admission, sharing and prediction; workload, sharing, predict, plan and
  sql code dominate, and the mix shares work.
* ``tpch-spill``: the same operators with their state written to and
  read back from disk under a memory budget, so spill code is measured.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import (
    AccordionEngine,
    Catalog,
    ClosedLoop,
    CostModel,
    DopPlanner,
    EngineConfig,
    PoissonArrivals,
    QueryOptions,
    TPCH_QUERIES,
    TraceArrivals,
    TuningRejected,
    Workload,
    shuffle_experiment_engine,
)

#: The default seed; answers for it are pinned in ``digests.json``.
DEFAULT_SEED = 1
#: Virtual-second guard for every run, so a stuck query raises.
MAX_VIRTUAL_SECONDS = 1e6


# -- answers -----------------------------------------------------------------
def _norm_cell(value, ndigits: int = 4):
    if isinstance(value, float):
        return "nan" if math.isnan(value) else round(value, ndigits)
    return value


def norm_rows(rows) -> list[tuple]:
    """Rows as a sorted list with floats rounded to 4 places (NaN mapped
    to "nan"), the normal form the repository's tests compare."""
    return sorted((tuple(_norm_cell(v) for v in row) for row in rows), key=repr)


def _cells_match(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        # Partial sums add up in another order when DOPs differ, and a
        # value can then round to either side of the 4th place.
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def rows_match(rows, reference, reference_norm) -> bool:
    """``rows`` equal ``reference`` (whose ``norm_rows`` form is
    ``reference_norm``) as multisets, floats within the accumulation-order
    tolerance."""
    if len(rows) != len(reference):
        return False
    if norm_rows(rows) == reference_norm:
        return True
    key = lambda row: repr(tuple(_norm_cell(v) for v in row))  # noqa: E731
    return all(
        len(x) == len(y) and all(_cells_match(a, b) for a, b in zip(x, y))
        for x, y in zip(sorted(rows, key=key), sorted(reference, key=key))
    )


def digest(norm: list[tuple]) -> str:
    """Digest of rows in ``norm_rows`` form (pinned in digests.json)."""
    return hashlib.sha256(repr(norm).encode()).hexdigest()


def busy_core_seconds(engines) -> float:
    """Virtual busy core-seconds summed over every node's CPU pool."""
    return sum(
        node.cpu.busy_core_seconds()
        for engine in engines
        for node in engine.cluster.all_nodes()
    )


@dataclass
class Query:
    """One attempted query of a measured round."""

    label: str
    #: Answered, and its rows match the reference.
    ok: bool
    #: Host seconds from submit to result (None where queries interleave).
    host_s: float | None
    #: Virtual seconds from submission to result (None unless finished).
    virt_s: float | None
    #: Whether it met its deadline; None when it has none.
    deadline_met: bool | None = None
    #: Exact rows digest (inertness check) or the failure's text.
    rows_key: str = ""
    #: Sharing role (unshared / carrier / folded / cached).
    role: str = "unshared"
    #: Virtual seconds waited in the admission queue (session queries).
    queue_s: float | None = None
    spill: dict = field(default_factory=dict)
    #: Bytes of the base tables the query scans (spill ratio base).
    input_bytes: int = 0
    #: Tuning requests made for it and how many were applied.
    tuning: dict = field(default_factory=dict)


@dataclass
class State:
    """One set-up: the measured engines (by name) with warm caches."""

    engines: dict


class BenchWorkload:
    name = ""
    scale = 0.0
    #: Rounds in the fixed window that virtual metrics, the traced run
    #: and the inertness check use.
    window_rounds = 1
    #: Whether queries go through sessions (the workload layer exists).
    uses_sessions = False
    #: How the workload's host time follows the host's speed: it grows
    #: as the calibration kernel's time to this power (see
    #: ``perfbench/speed.py``).  Each workload's value is the slope of
    #: log throughput on log kernel time, rounded, over 25 to 40 runs on
    #: the 2-core container the baseline was measured on.
    host_speed_exponent = 1.0

    def __init__(self, seed: int, spill_dir: Path):
        self.seed = seed
        self.spill_dir = spill_dir
        #: Label -> the reference engine's rows, and their normal form.
        self.reference: dict[str, list[tuple]] = {}
        self.reference_norm: dict[str, list[tuple]] = {}
        self.reference_peak: dict[str, int] = {}
        self.table_bytes: dict[str, int] = {}

    def rng(self, *parts) -> random.Random:
        return random.Random("/".join(str(p) for p in (self.name, self.seed, *parts)))

    # -- inputs ----------------------------------------------------------------
    def reference_sql(self) -> dict[str, str]:
        """Every distinct query text the workload can submit, by label."""
        raise NotImplementedError

    def inputs(self, rounds: int) -> dict:
        """The generated inputs of the first ``rounds`` rounds."""
        raise NotImplementedError

    # -- phases ----------------------------------------------------------------
    def prepare(self) -> None:
        """Reference answers on a plain static engine (untimed)."""
        catalog = Catalog.tpch(self.scale, self.seed, dataset_cache=False)
        self.table_bytes = {name: catalog.table(name).size_bytes for name in catalog.names()}
        engine = AccordionEngine(catalog)
        for label, sql in self.reference_sql().items():
            handle = engine.submit(sql)
            rows = handle.result(MAX_VIRTUAL_SECONDS).rows
            self.reference[label] = rows
            self.reference_norm[label] = norm_rows(rows)
            self.reference_peak[label] = handle.execution.memory.peak_bytes

    def setup(self, catalog: Catalog) -> State:
        raise NotImplementedError

    def run_round(self, state: State, index: int) -> tuple[list[Query], float]:
        """One round: its queries and the host seconds it was timed for."""
        raise NotImplementedError

    # -- shared pieces -----------------------------------------------------------
    def judge(self, label: str, rows) -> tuple[bool, str]:
        """Whether ``rows`` match the reference, and their exact digest."""
        ok = rows_match(rows, self.reference[label], self.reference_norm[label])
        return ok, hashlib.sha256(repr(rows).encode()).hexdigest()

    def input_bytes(self, execution) -> int:
        tables = {
            f.source_table for f in execution.plan.fragments.values()
            if getattr(f, "source_table", None)
        }
        return sum(self.table_bytes.get(t, 0) for t in tables)

    def timed_query(self, engine, label: str, sql: str, options=None, drive=None) -> Query:
        """Submit, drive to completion and check one closed-loop query.
        ``drive(engine, handle)`` may tune the query on its way and return
        its tuning handle."""
        start = time.perf_counter()
        handle = engine.submit(sql, options)
        tuning = None
        try:
            if drive is not None:
                tuning = drive(engine, handle)
            rows = handle.result(MAX_VIRTUAL_SECONDS).rows
        except Exception as exc:  # noqa: BLE001 - a failed query is a result
            host_s = time.perf_counter() - start
            return Query(label, False, host_s, None, rows_key=f"error: {exc!r}")
        host_s = time.perf_counter() - start
        execution = handle.execution
        ok, rows_key = self.judge(label, rows)
        return Query(
            label,
            ok,
            host_s,
            execution.finished_at - execution.submitted_at,
            rows_key=rows_key,
            spill=execution.memory.stats(),
            input_bytes=self.input_bytes(execution),
            tuning={} if tuning is None else {
                "applied": len(tuning.tuner.applied),
                "requests": len(tuning.tuner.applied) + len(tuning.filter.rejections),
            },
        )


def closed_loop(queries: list[Query]) -> tuple[list[Query], float]:
    return queries, sum(q.host_s for q in queries)


# -- tpch-inmem ----------------------------------------------------------------
TPCH_NAMES = sorted(
    (n for n in TPCH_QUERIES if n[1:].isdigit()), key=lambda n: int(n[1:])
)


class TpchInmem(BenchWorkload):
    """The TPC-H queries that plan, closed loop with one client, in a
    seeded order per round, on the default engine."""

    name = "tpch-inmem"
    scale = 0.05
    host_speed_exponent = 0.6

    def reference_sql(self):
        return {name: TPCH_QUERIES[name] for name in TPCH_NAMES}

    def order(self, index):
        names = list(TPCH_NAMES)
        self.rng("order", index).shuffle(names)
        return names

    def inputs(self, rounds):
        return {"order": [self.order(r) for r in range(rounds)]}

    def setup(self, catalog):
        engine = AccordionEngine(catalog)
        for name in TPCH_NAMES:
            engine.execute(TPCH_QUERIES[name], max_virtual_seconds=MAX_VIRTUAL_SECONDS)
        return State({"engine": engine})

    def run_round(self, state, index):
        engine = state.engines["engine"]
        return closed_loop([
            self.timed_query(engine, name, TPCH_QUERIES[name])
            for name in self.order(index)
        ])


# -- tpch-spill ----------------------------------------------------------------
class TpchSpill(BenchWorkload):
    """Q9 and Q18, each under a memory budget set at a fixed fraction of
    its unbudgeted peak, so join and aggregation state spills to disk."""

    name = "tpch-spill"
    scale = 0.05
    queries = ("Q9", "Q18")
    budget_fraction = 0.2
    host_speed_exponent = 0.9

    def reference_sql(self):
        return {name: TPCH_QUERIES[name] for name in self.queries}

    def order(self, index):
        names = list(self.queries)
        self.rng("order", index).shuffle(names)
        return names

    def inputs(self, rounds):
        return {
            "order": [self.order(r) for r in range(rounds)],
            "budget_bytes": self.budgets(),
        }

    def budgets(self):
        return {
            name: int(self.reference_peak[name] * self.budget_fraction)
            for name in self.queries
        }

    def setup(self, catalog):
        engines = {}
        for name, budget in self.budgets().items():
            config = EngineConfig().with_memory(
                query_budget_bytes=budget, spill_dir=str(self.spill_dir)
            )
            engines[name] = AccordionEngine(catalog, config=config)
            engines[name].execute(TPCH_QUERIES[name], max_virtual_seconds=MAX_VIRTUAL_SECONDS)
        return State(engines)

    def run_round(self, state, index):
        return closed_loop([
            self.timed_query(state.engines[name], name, TPCH_QUERIES[name])
            for name in self.order(index)
        ])


# -- iqre-shuffle --------------------------------------------------------------
SHUFFLE_BASE = dict(join_distribution="partitioned", scan_stage_dop=2)


def shuffle_options(shuffle_dop: int) -> QueryOptions:
    return QueryOptions(
        shuffle_stage_tables=frozenset({"orders"}),
        stage_dops={1: 10, 2: shuffle_dop},
        initial_task_dop=6,
        **SHUFFLE_BASE,
    )


class IqreShuffle(BenchWorkload):
    """QSHUFFLE in the Section 6.4.2 setup (orders on two storage nodes,
    a dedicated shuffle stage): one run with the Figure 28 mid-flight
    shuffle-stage DOP schedule and one auto-tuned run whose DOPs and scan
    deadlines come from the DOP planner."""

    name = "iqre-shuffle"
    #: Host time grows faster than the scale (the exchange waiter leak);
    #: at this scale a run holds a dozen rounds, enough to average the
    #: host's noise.
    scale = 0.003
    window_rounds = 2
    #: (virtual seconds after submission, shuffle-stage DOP): the Figure 28
    #: steps, placed inside this scale's ~3 s static run.
    schedule = ((0.5, 4), (1.0, 8))
    #: Virtual deadline of the auto-tuned run, about the static run's
    #: latency; the tuner sheds DOP while ahead of its scan deadline.
    deadline = 5.0
    monitor_period = 0.5

    def __init__(self, seed, spill_dir):
        super().__init__(seed, spill_dir)
        self.config = None

    def reference_sql(self):
        return {"QSHUFFLE": TPCH_QUERIES["QSHUFFLE"]}

    def inputs(self, rounds):
        return {
            "sql": TPCH_QUERIES["QSHUFFLE"],
            "schedule": list(self.schedule),
            "deadline": self.deadline,
            "rounds": rounds,
        }

    def prepare(self):
        super().prepare()
        self.config = shuffle_experiment_engine(scale=self.scale).config

    def auto_options(self, engine):
        sql = TPCH_QUERIES["QSHUFFLE"]
        plan = engine.coordinator.plan_sql(sql, shuffle_options(1))
        dop_plan = DopPlanner(engine.catalog, engine.config).plan(plan, self.deadline)
        options = QueryOptions(
            shuffle_stage_tables=frozenset({"orders"}),
            initial_stage_dop=max(2, dop_plan.initial_stage_dop),
            initial_task_dop=dop_plan.initial_task_dop,
            **SHUFFLE_BASE,
        )
        return options, dop_plan

    def setup(self, catalog):
        engine = AccordionEngine(catalog, config=self.config)
        engine.coordinator.plan_sql(TPCH_QUERIES["QSHUFFLE"], shuffle_options(1))
        options, _ = self.auto_options(engine)
        engine.execute(TPCH_QUERIES["QSHUFFLE"], options, MAX_VIRTUAL_SECONDS)
        return State({"engine": engine})

    def drive_schedule(self, engine, handle):
        tuning = handle.tuning
        start = engine.now
        for at, dop in self.schedule:
            engine.kernel.run(until=start + at, stop_when=lambda: handle.finished)
            if handle.finished:
                break
            try:
                tuning.ap(2, dop)
            except TuningRejected:
                pass
        return tuning

    def run_round(self, state, index):
        engine = state.engines["engine"]
        sql = TPCH_QUERIES["QSHUFFLE"]
        scheduled = self.timed_query(
            engine, "QSHUFFLE", sql, shuffle_options(1), drive=self.drive_schedule
        )
        start = time.perf_counter()
        options, dop_plan = self.auto_options(engine)
        plan_s = time.perf_counter() - start

        def drive_auto(engine, handle):
            tuning = handle.tuning
            for stage, seconds in dop_plan.scan_deadlines.items():
                tuning.set_constraint(stage, seconds)
            tuning.start_monitor(period=self.monitor_period)
            return tuning

        auto = self.timed_query(engine, "QSHUFFLE", sql, options, drive=drive_auto)
        auto.host_s += plan_s
        auto.deadline_met = auto.ok and auto.virt_s is not None and auto.virt_s <= self.deadline
        return closed_loop([scheduled, auto])


# -- tenant-burst --------------------------------------------------------------
INTERACTIVE = (
    "select l_returnflag, l_linestatus, count(*), sum(l_quantity) from lineitem "
    "where l_quantity > {n} group by l_returnflag, l_linestatus "
    "order by l_returnflag, l_linestatus",
    "select o_orderstatus, count(*), sum(o_totalprice) from orders "
    "where o_totalprice > {n}00 group by o_orderstatus order by o_orderstatus",
    "select c_mktsegment, count(*), avg(c_acctbal) from customer "
    "where c_acctbal > {n}0 group by c_mktsegment order by c_mktsegment",
)
ETL = (
    "select l_orderkey, sum(l_extendedprice), count(*) from lineitem "
    "where l_quantity > {n} group by l_orderkey order by l_orderkey",
)
DASHBOARD = (
    "select count(*), sum(l_extendedprice) from lineitem "
    "where l_shipdate >= date '1995-01-01'"
)


class TenantBurst(BenchWorkload):
    """Three tenants through sessions, with sharing and prediction on:
    interactive Poisson arrivals (open loop in virtual time) with a
    deadline, a closed-loop ETL tenant, and a dashboard query refreshed
    once per virtual second.
    Literals come from a seeded pool per template, so repeats fold onto
    running queries or hit the result cache within its TTL."""

    name = "tenant-burst"
    scale = 0.01
    uses_sessions = True
    host_speed_exponent = 0.6
    #: Open-loop arrivals make each round's latencies vary with the draw,
    #: so the virtual metrics pool four rounds (480 queries).
    window_rounds = 4
    pool = 8
    #: Below saturation: at higher rates queueing makes the latency
    #: percentiles swing with each seed's arrival bursts.
    interactive = dict(rate=2.0, count=80, deadline=2.0)
    etl_count = 8
    #: Refreshes at a fixed period, so how many hit the result cache
    #: does not swing with each seed's arrival gaps.
    dashboard = dict(period=1.0, count=32)

    def literals(self) -> dict[str, list[int]]:
        # One literal from each of ``pool`` equal slices of a range: every
        # seed's pool then spans the same selectivities, so seeds differ
        # in data and order, not in how much work the mix asks for.
        rng = self.rng("pool")
        return {
            "interactive": stratified(rng, 20, 45, self.pool),
            "etl": stratified(rng, 25, 37, self.pool),
        }

    def reference_sql(self):
        lits = self.literals()
        out = {}
        for t, template in enumerate(INTERACTIVE):
            for n in lits["interactive"]:
                out[f"i{t}:{n}"] = template.format(n=n)
        for t, template in enumerate(ETL):
            for n in lits["etl"]:
                out[f"e{t}:{n}"] = template.format(n=n)
        out["dash"] = DASHBOARD
        return out

    def round_plan(self, index) -> dict:
        rng = self.rng("round", index)
        lits = self.literals()
        # Every round holds each template, and each literal of its pool,
        # equally often (in seeded order), so rounds and seeds differ in
        # data and order, not in mix.
        interactive = balanced(
            rng, "i", len(INTERACTIVE), lits["interactive"], self.interactive["count"]
        )
        rng.shuffle(interactive)
        etl = balanced(rng, "e", len(ETL), lits["etl"], self.etl_count)
        return {
            "interactive": interactive,
            "etl": etl,
            "arrival_seed": rng.randrange(1 << 30),
            "dashboard_phase": rng.random() * self.dashboard["period"],
        }

    def inputs(self, rounds):
        sql = self.reference_sql()
        out = []
        for r in range(rounds):
            plan = self.round_plan(r)
            out.append({
                "interactive": [sql[k] for k in plan["interactive"]],
                "etl": [sql[k] for k in plan["etl"]],
                "arrival_seed": plan["arrival_seed"],
                "dashboard_phase": plan["dashboard_phase"],
            })
        return {"rounds": out, "interactive": self.interactive, "dashboard": self.dashboard}

    def config(self) -> EngineConfig:
        return (
            EngineConfig(cost=CostModel().scaled(100.0))
            .with_sharing(cache_ttl=2.0)
            .with_prediction()
            .with_workload(arbitration="deadline", max_concurrent_queries=4)
            # Pre-granted memory budgets may spill; keep it in the checkout.
            .with_memory(spill_dir=str(self.spill_dir))
        )

    def setup(self, catalog):
        engine = AccordionEngine(catalog, config=self.config())
        self.run_workload(engine, "warmup")
        return State({"engine": engine})

    def run_workload(self, engine, index):
        plan = self.round_plan(index)
        sql = self.reference_sql()
        workload = Workload(engine, seed=plan["arrival_seed"])
        workload.add_tenant(
            "interactive", [sql[k] for k in plan["interactive"]],
            PoissonArrivals(rate=self.interactive["rate"], count=self.interactive["count"]),
            priority=1.0, deadline=self.interactive["deadline"],
        )
        workload.add_tenant("etl", [sql[k] for k in plan["etl"]], ClosedLoop(count=self.etl_count))
        period = self.dashboard["period"]
        workload.add_tenant("dashboard", [DASHBOARD], TraceArrivals(tuple(
            plan["dashboard_phase"] + i * period for i in range(self.dashboard["count"])
        )))
        records_before = len(engine.workload.records)
        workload.run(MAX_VIRTUAL_SECONDS)
        return workload, engine.workload.records[records_before:]

    def run_round(self, state, index):
        engine = state.engines["engine"]
        start = time.perf_counter()
        workload, records = self.run_workload(engine, index)
        results = []
        for handle in workload.handles:
            try:
                results.append(handle.result(MAX_VIRTUAL_SECONDS).rows)
            except Exception as exc:  # noqa: BLE001 - rejected / failed
                results.append(exc)
        host_s = time.perf_counter() - start
        by_sql = {}
        for key, text in self.reference_sql().items():
            by_sql.setdefault(text, key)
        out = []
        for handle, rows, record in zip(workload.handles, results, records):
            label = by_sql[handle.sql]
            if isinstance(rows, Exception):
                out.append(Query(label, False, None, None, record.deadline_met,
                                 rows_key=f"error: {rows!r}"))
                continue
            ok, rows_key = self.judge(label, rows)
            out.append(Query(
                label,
                ok and record.sql == handle.sql,
                None,
                record.latency,
                record.deadline_met,
                rows_key=rows_key,
                role=handle.sharing.role,
                queue_s=record.queue_seconds,
            ))
        return out, host_s


def stratified(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """One integer from each of ``count`` equal slices of [low, high)."""
    bounds = [low + (high - low) * k // count for k in range(count + 1)]
    return [rng.randrange(a, b) for a, b in zip(bounds, bounds[1:])]


def balanced(
    rng: random.Random, prefix: str, templates: int, pool: list[int], count: int
) -> list[str]:
    """``count`` query labels in template order ``i % templates``, each
    template cycling through its own seeded shuffle of ``pool``."""
    orders = [rng.sample(pool, len(pool)) for _ in range(templates)]
    return [
        f"{prefix}{i % templates}:{orders[i % templates][(i // templates) % len(pool)]}"
        for i in range(count)
    ]


WORKLOADS = {
    w.name: w for w in (TpchInmem, IqreShuffle, TenantBurst, TpchSpill)
}


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    """The 90th percentile (inclusive interpolation)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def probe_objects(spill_dir: Path) -> list:
    """Objects of every layer, from a small throwaway engine with sharing,
    prediction, sessions, spilling and runtime tuning all in use.  The
    span recorder starts its search for program code from them, so the
    measured engines never run a query only to be inspected."""
    catalog = Catalog.tpch(0.001, DEFAULT_SEED)
    config = (
        EngineConfig()
        .with_sharing()
        .with_prediction()
        .with_memory(query_budget_bytes=1 << 16, spill_dir=str(spill_dir))
    )
    engine = AccordionEngine(catalog, config=config)
    session = engine.session("probe", deadline=10.0)
    queued = session.submit(TPCH_QUERIES["Q3"])
    handle = engine.submit(TPCH_QUERIES["QSHUFFLE"], shuffle_options(1))
    tuning = handle.tuning
    execution = handle.execution
    objects = [
        engine, engine.kernel, engine.coordinator, engine.coordinator.rpc,
        engine.coordinator.scheduler, engine.sharing, engine.predict_service,
        engine.workload, session, tuning, execution, Workload(engine),
        DopPlanner(catalog, engine.config),
    ]
    for stage in execution.stages.values():
        for task in getattr(stage, "tasks", ()):
            objects.append(task)
    handle.result(MAX_VIRTUAL_SECONDS)
    queued.result(MAX_VIRTUAL_SECONDS)
    return objects
