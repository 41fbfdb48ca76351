"""The repository benchmark: one workload per run, every answer checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tpch-inmem --seed 1 --seconds 18 --trace 0

Workloads: ``tpch-inmem``, ``iqre-shuffle``, ``tenant-burst``,
``tpch-spill`` (see ``perfbench/workloads.py`` for why each exists).
``--workload all`` runs them one after another in child processes.

A run has four phases:

1. **Reference** (untimed): every distinct query of the workload runs on
   a plain static engine; its rows are the expected answers.  For the
   default seed their digests must also match ``perfbench/digests.json``.
2. **Set-up**, ``SETUP_REPS`` times: a catalog built from an empty
   dataset cache, the engine, and a warm-up pass that fills the compile,
   plan and prediction caches.  ``setup_s`` is the median, plus the
   one-off ``import repro``.
3. **Measured phase**: whole rounds of the workload for ``--seconds``
   host seconds (at least ``window_rounds``).  Every answer is compared
   with the reference; a wrong answer, an error or a rejection counts as
   failed and as a missed deadline.  Virtual metrics come from the first
   ``window_rounds`` rounds, which are the same queries for a seed, so
   they repeat exactly.
4. With ``--trace 1``, a second engine is set up and the same window runs
   under the span recorder (``perfbench/spans.py``).  The traced window
   must give the same rows, virtual times and counts as the untraced one
   (inertness); the run reports the per-layer split instead of the
   end-to-end metrics.

Host speed: a fixed kernel (``perfbench/speed.py``) is timed before and
after every set-up, and after every measured round for about
``CALIBRATION_SHARE`` of the round's time (the measured phase's
``--seconds`` include it).  ``setup_s`` and ``throughput_qps`` count
host seconds at the kernel's reference speed, scaled by its mean time
over the set-ups and over the measured phase respectively, so that most
of the host's drift under its neighbours' load cancels; the unscaled
figures are printed as ``setup_raw_s`` and ``throughput_raw_qps``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record with the host's
labels and every metric goes to ``.perfbench-out/``, as do spill files
and the span file of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 3
#: Host seconds of each calibration around a set-up; at least that of
#: each calibration in the measured phase, and the share of a measured
#: round's time spent calibrating after it.
SETUP_CALIBRATION_S = 0.25
CALIBRATION_S = 0.1
CALIBRATION_SHARE = 0.15

#: End-to-end metrics every workload reports (the JSON line with --trace 0).
END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "virt_latency_p50_s": "s",
    "virt_core_s": "s",
    "peak_rss_mb": "MB",
}

OPERATORS = (
    "ScanSource", "ExchangeSource", "LocalExchangeSource",
    "FilterOperator", "ProjectOperator", "LimitOperator",
    "PartialAggOperator", "FinalAggOperator",
    "JoinBuildSink", "HashJoinProbeOperator",
    "SortOperator", "TopNOperator",
    "TaskOutputSink", "LocalExchangeSink", "CoordinatorSink",
)

#: Per-layer metrics (the JSON line with --trace 1), name -> unit.
PER_LAYER = {
    "data.catalog_s": "s",
    "sql.self_s": "s",
    "plan.self_s": "s",
    "plan.cache_hit_ratio": "ratio",
    "sim.self_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "exec.driver.self_s": "s",
    "exec.driver.quanta": "count",
    "exec.exchange.self_s": "s",
    "exec.exchange.polls": "count",
    "exec.exchange.pages": "count",
    "exec.exchange.polls_per_page": "ratio",
    "buffers.self_s": "s",
    "buffers.notifies": "count",
    "buffers.callbacks_per_notify": "ratio",
    **{f"exec.operators.{op}.self_s": "s" for op in OPERATORS},
    **{f"exec.operators.{op}.rows": "count" for op in OPERATORS},
    "pages.self_s": "s",
    "pages.created": "count",
    "pages.size_bytes_s": "s",
    "exec.spill.self_s": "s",
    "exec.spill.spills": "count",
    "exec.spill.bytes_written": "bytes",
    "exec.spill.bytes_per_input_byte": "ratio",
    "exec.spill.tracked_peak_bytes": "bytes",
    "elastic.self_s": "s",
    "elastic.requests": "count",
    "elastic.applied_ratio": "ratio",
    "autotune.self_s": "s",
    "autotune.actions": "count",
    "cluster.self_s": "s",
    "cluster.rpc_requests": "count",
    "cluster.rpc_retried": "count",
    "workload.self_s": "s",
    "workload.queue_wait_p50_s": "s",
    "workload.queue_wait_p90_s": "s",
    "workload.rejected": "count",
    "workload.revocations": "count",
    "sharing.self_s": "s",
    "sharing.folds": "count",
    "sharing.cache_hit_ratio": "ratio",
    "predict.self_s": "s",
    "predict.pregrants": "count",
    "predict.reprovisions": "count",
    "engine.self_s": "s",
    "obs.self_s": "s",
    "bench.self_s": "s",
    "other.self_s": "s",
    "obs.traced_s": "s",
    "obs.trace_overhead_ratio": "ratio",
}


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def host_labels(workload) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor() or platform.machine(),
        "commit": commit_id(),
        "seed": workload.seed,
        "scale": workload.scale,
    }


def commit_id() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- counters ---------------------------------------------------------------
def counters(workload, state) -> Counter:
    """Program counters summed over the state's engines (all exact)."""
    from workloads import busy_core_seconds

    c = Counter()
    for engine in state.engines.values():
        c["sim.events"] += engine.kernel.events_processed
        rpc = engine.coordinator.rpc
        c["cluster.rpc_requests"] += rpc.total_requests
        c["cluster.rpc_retried"] += rpc.retried_requests
        snapshot = engine.metrics.snapshot()
        c["plan.cache_hits"] += snapshot.get("plan_cache.hits", 0)
        c["plan.cache_misses"] += snapshot.get("plan_cache.misses", 0)
        if engine.sharing is not None:
            stats = engine.sharing.stats()
            for key in ("folds", "cache_hits", "cache_misses"):
                c[f"sharing.{key}"] += stats[key]
        if engine.predict_service is not None:
            stats = engine.predict_service.stats()
            for key in ("pregrants", "reprovisions"):
                c[f"predict.{key}"] += stats[key]
        if workload.uses_sessions:
            c["workload.rejected"] += engine.workload.admission.stats()["rejected"]
            c["workload.revocations"] += engine.workload.arbiter.stats()["revocations"]
    c["virt.busy_core_s"] = busy_core_seconds(state.engines.values())
    return c


def run_rounds(workload, state, rounds, calibrator=None) -> tuple[list, list[dict]]:
    """Run ``rounds`` whole rounds, each followed by a calibration when a
    calibrator is given; returns the queries and one entry per round."""
    queries, per_round = [], []
    for index in rounds:
        round_queries, round_s = workload.run_round(state, index)
        queries.extend(round_queries)
        per_round.append({"ok": sum(1 for q in round_queries if q.ok), "host_s": round_s})
        if calibrator is not None:
            calibrator.calibrate(max(CALIBRATION_S, CALIBRATION_SHARE * round_s))
    return queries, per_round


def run_window(workload, state, rounds, calibrator=None) -> dict:
    """Run the fixed window; returns queries, rounds and the counter
    deltas over them."""
    before = counters(workload, state)
    queries, per_round = run_rounds(workload, state, rounds, calibrator)
    after = counters(workload, state)
    delta = Counter({k: after[k] - before[k] for k in after})
    return {
        "queries": queries, "rounds": per_round, "counts": delta,
        "host_s": sum(r["host_s"] for r in per_round),
        # Finished queries stay reachable from the engine, so resident
        # memory keeps growing with the rounds a host fits in --seconds;
        # the peak is read after the fixed window to measure fixed work.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def signature(window) -> dict:
    """What the traced and untraced windows must agree on exactly."""
    return {
        "queries": [
            (q.label, q.ok, q.virt_s, q.deadline_met, q.rows_key, q.role,
             q.queue_s, q.spill.get("spills"), q.spill.get("spilled_bytes"),
             q.tuning.get("applied"), q.tuning.get("requests"))
            for q in window["queries"]
        ],
        "counts": dict(sorted(window["counts"].items())),
    }


# -- metrics ---------------------------------------------------------------
def end_to_end(workload, setups, window, measured, setup_speed, speed) -> dict:
    from workloads import median, p90

    queries = measured["queries"]
    ok = [q for q in queries if q.ok]
    setup_s = median(setups)
    host_s = sum(r["host_s"] for r in measured["rounds"])
    exponent = workload.host_speed_exponent
    out = {
        "setup_s": setup_speed.at_reference(setup_s, exponent),
        "throughput_qps": ratio(len(ok), speed.at_reference(host_s, exponent)),
        "setup_raw_s": setup_s,
        "throughput_raw_qps": ratio(len(ok), host_s),
        "kernel_ms": 1000.0 * speed.kernel_s(),
    }
    host = [q.host_s for q in ok if q.host_s is not None]
    if host:
        out["host_latency_p50_s"] = median(host)
        if len(host) >= 100:
            out["host_latency_p90_s"] = p90(host)
    win = window["queries"]
    virt = [q.virt_s for q in win if q.ok and q.virt_s is not None]
    out["virt_latency_p50_s"] = median(virt)
    if len(win) >= 100:
        out["virt_latency_p90_s"] = p90(virt)
    completed = sum(1 for q in win if q.ok)
    out["virt_core_s"] = ratio(window["counts"]["virt.busy_core_s"], completed)
    deadlines = [q for q in win if q.deadline_met is not None]
    if deadlines:
        out["deadline_met_frac"] = ratio(
            sum(1 for q in deadlines if q.deadline_met and q.ok), len(deadlines)
        )
    out["failed_frac"] = ratio(len(queries) - len(ok), len(queries))
    out["shared_frac"] = ratio(
        sum(1 for q in queries if q.role in ("folded", "cached")), len(queries)
    )
    out["peak_rss_mb"] = window["peak_rss_mb"]
    return out


UNITS = {
    **END_TO_END,
    "setup_raw_s": "s",
    "throughput_raw_qps": "1/s",
    "kernel_ms": "ms",
    "host_latency_p50_s": "s",
    "host_latency_p90_s": "s",
    "virt_latency_p90_s": "s",
    "deadline_met_frac": "ratio",
    "failed_frac": "ratio",
    "shared_frac": "ratio",
}


def per_layer(workload, catalog_s, window, traced_s, recorder) -> dict:
    from workloads import median, p90

    layers = recorder.layer_self_s()
    counts = window["counts"]
    rec = recorder.counts
    queries = window["queries"]
    spilled = sum(q.spill.get("spilled_bytes", 0) for q in queries)
    queue = [q.queue_s for q in queries if q.queue_s is not None]
    tuning_requests = sum(q.tuning.get("requests", 0) for q in queries)
    tuning_applied = sum(q.tuning.get("applied", 0) for q in queries)
    out = {
        "data.catalog_s": median(catalog_s),
        "plan.cache_hit_ratio": ratio(
            counts["plan.cache_hits"], counts["plan.cache_hits"] + counts["plan.cache_misses"]
        ),
        "sim.events": counts["sim.events"],
        "sim.events_per_s": ratio(counts["sim.events"], window["host_s"]),
        "exec.driver.quanta": recorder.calls_of("Driver._run_quantum"),
        "exec.exchange.polls": recorder.calls_of("ExchangeClient._try_fetch"),
        "exec.exchange.pages": rec["exec.exchange.pages"],
        "buffers.notifies": rec["buffers.notifies"],
        "buffers.callbacks_per_notify": ratio(rec["buffers.callbacks"], rec["buffers.notifies"]),
        "pages.created": rec["pages.created"],
        "pages.size_bytes_s": recorder.self_s.get("Page.size_bytes", 0.0),
        "exec.spill.spills": sum(q.spill.get("spills", 0) for q in queries),
        "exec.spill.bytes_written": spilled,
        "exec.spill.bytes_per_input_byte": ratio(spilled, sum(q.input_bytes for q in queries)),
        "exec.spill.tracked_peak_bytes": max((q.spill.get("peak_bytes", 0) for q in queries), default=0),
        "elastic.requests": tuning_requests,
        "elastic.applied_ratio": ratio(tuning_applied, tuning_requests),
        "autotune.actions": tuning_applied,
        "cluster.rpc_requests": counts["cluster.rpc_requests"],
        "cluster.rpc_retried": counts["cluster.rpc_retried"],
        "workload.queue_wait_p50_s": median(queue),
        "workload.queue_wait_p90_s": p90(queue),
        "workload.rejected": counts["workload.rejected"],
        "workload.revocations": counts["workload.revocations"],
        "sharing.folds": counts["sharing.folds"],
        "sharing.cache_hit_ratio": ratio(
            counts["sharing.cache_hits"],
            counts["sharing.cache_hits"] + counts["sharing.cache_misses"],
        ),
        "predict.pregrants": counts["predict.pregrants"],
        "predict.reprovisions": counts["predict.reprovisions"],
        "obs.traced_s": traced_s,
        "obs.trace_overhead_ratio": ratio(traced_s, window["host_s"]),
    }
    out["exec.exchange.polls_per_page"] = ratio(
        out["exec.exchange.polls"], out["exec.exchange.pages"]
    )
    for op in OPERATORS:
        out[f"exec.operators.{op}.rows"] = rec[f"exec.operators.{op}.rows"]
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = layers.get(name[: -len(".self_s")], 0.0)
    return {name: out.get(name, 0) for name in PER_LAYER}


def layer_shares(layer: dict) -> list[tuple[str, float]]:
    """Each layer's share of the traced self time, operators summed,
    largest first."""
    groups: dict[str, float] = {}
    for name, value in layer.items():
        if name.endswith(".self_s"):
            group = name[: -len(".self_s")]
            if group.startswith("exec.operators."):
                group = "exec.operators"
            groups[group] = groups.get(group, 0.0) + value
    total = sum(groups.values())
    return sorted(((g, ratio(v, total)) for g, v in groups.items()), key=lambda item: -item[1])


# -- the run ---------------------------------------------------------------
def measure(args) -> tuple[dict, dict, int, int, bool]:
    """Run one workload; returns (metrics printed, record, attempted,
    failed, correct)."""
    from repro import Catalog
    from workloads import DEFAULT_SEED, WORKLOADS, digest, probe_objects
    from spans import SpanRecorder
    from speed import Calibrator

    workload = WORKLOADS[args.workload](args.seed, OUT / "spill")
    workload.prepare()
    problems = []
    if args.seed == DEFAULT_SEED:
        pinned = json.loads((BENCH_DIR / "digests.json").read_text())[workload.name]
        for label, rows in workload.reference_norm.items():
            if pinned.get(label) != digest(rows):
                problems.append(f"reference answer of {label} differs from digests.json")

    def set_up():
        start = time.perf_counter()
        catalog = Catalog.tpch(workload.scale, workload.seed, dataset_cache=False)
        built = time.perf_counter()
        state = workload.setup(catalog)
        return state, time.perf_counter() - start, built - start

    setup_speed = Calibrator()
    setups, catalog_s, state = [], [], None
    for _ in range(SETUP_REPS):
        state = None
        gc.collect()
        setup_speed.calibrate(SETUP_CALIBRATION_S)
        state, setup_s, build_s = set_up()
        setups.append(args.import_s + setup_s)
        catalog_s.append(build_s)
    setup_speed.calibrate(SETUP_CALIBRATION_S)

    gc.collect()
    speed = Calibrator()
    start = time.perf_counter()
    speed.calibrate(CALIBRATION_S)
    window_rounds = range(workload.window_rounds)
    window = run_window(workload, state, window_rounds, speed)
    measured = {"queries": list(window["queries"]), "rounds": list(window["rounds"])}
    index = workload.window_rounds
    while time.perf_counter() - start < args.seconds:
        queries, rounds = run_rounds(workload, state, [index], speed)
        measured["queries"].extend(queries)
        measured["rounds"].extend(rounds)
        index += 1
    metrics = end_to_end(workload, setups, window, measured, setup_speed, speed)
    record = {
        "workload": workload.name,
        "host": host_labels(workload),
        "seconds": args.seconds,
        "rounds": measured["rounds"],
        "end_to_end": metrics,
        "window_counts": dict(window["counts"]),
        "setup_samples_s": setups,
        "setup_calibrations": setup_speed.calibrations,
        "calibrations": speed.calibrations,
    }

    if args.trace:
        state = None
        gc.collect()
        state, _, _ = set_up()
        recorder = SpanRecorder()
        recorder.install(probe_objects(OUT / "spill"))
        # Answer checking runs inside the window; charge it to its own
        # layer so "other" holds only program code outside every layer.
        workload.judge = recorder.wrap(workload.judge, "bench.judge", "bench")
        workload.input_bytes = recorder.wrap(workload.input_bytes, "bench.input_bytes", "bench")
        try:
            start = time.perf_counter()
            with recorder.span("bench.window", "other"):
                traced = run_window(workload, state, window_rounds)
            traced_s = time.perf_counter() - start
        finally:
            recorder.uninstall()
            del workload.judge, workload.input_bytes
        if signature(traced) != signature(window):
            problems.append("traced run differs from the untraced run (rows, virtual times or counts)")
        layer = per_layer(workload, catalog_s, window, traced_s, recorder)
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"{workload.name}-seed{workload.seed}-spans.jsonl"
        recorder.write(spans_path)
        record.update(per_layer=layer, spans_file=str(spans_path.relative_to(ROOT)),
                      spans_kept=len(recorder.spans), spans_dropped=recorder.dropped)
        printed = {name: (layer[name], PER_LAYER[name]) for name in PER_LAYER}
    else:
        printed = {name: (metrics[name], END_TO_END[name]) for name in END_TO_END}

    attempted = len(measured["queries"])
    failed = sum(1 for q in measured["queries"] if not q.ok)
    for q in measured["queries"]:
        if not q.ok and q.rows_key.startswith("error"):
            problems.append(f"{q.label}: {q.rows_key}")
    record.update(attempted=attempted, failed=failed, problems=problems[:20])
    correct = failed == 0 and not problems
    return printed, record, attempted, failed, correct


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        status |= subprocess.run(argv, check=False).returncode
    return status


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # The dataset cache must start empty and nothing may be read from or
    # written to a shared cache directory.
    os.environ.pop("REPRO_CACHE_DIR", None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import repro  # noqa: F401  (timed: the import is part of set-up)

    args.import_s = time.perf_counter() - start
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")

    printed, record, attempted, failed, correct = measure(args)
    for name, (value, unit) in printed.items():
        print(f"{args.workload:<13} {name:<40} {value:>16.6g} {unit}")
    if args.trace:
        for layer, share in layer_shares(record["per_layer"]):
            print(f"{args.workload:<13} {'share of self time: ' + layer:<40} {share:>16.1%}")
    else:
        extra = record["end_to_end"]
        for name, value in extra.items():
            if name not in printed:
                print(f"{args.workload:<13} {name:<40} {value:>16.6g} {UNITS[name]}")
    print(f"{args.workload:<13} {'attempted':<40} {attempted:>16d} count")
    print(f"{args.workload:<13} {'failed':<40} {failed:>16d} count")
    for problem in record["problems"]:
        print(f"{args.workload}: PROBLEM {problem}", file=sys.stderr)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in printed.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
