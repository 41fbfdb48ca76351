"""Determinism check for the benchmark's inputs and counts.

Usage (from the root of a checkout)::

    python3 perfbench/check.py [--seed 1] [--other-seed 2] [--seconds 3]
    python3 perfbench/check.py --write-digests   # re-pin digests.json

For every workload it checks that

* two independent generations from one seed give identical inputs (SQL
  text, literals, query order, arrival seeds, memory budgets);
* two traced runs with that seed agree exactly on every count-type
  metric (simulated events, exchange polls, RPCs, spills, folds,
  pre-grants...) and on the virtual end-to-end metrics;
* a run with a second seed is correct and has no failed query.

``--write-digests`` recomputes the reference answers for the default seed
and writes their digests to ``perfbench/digests.json``; do that only when
a change is meant to alter the answers (for example a new data generator).
Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from run import OUT, PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, digest  # noqa: E402

#: Per-layer metrics that are counts of program work, not host time.
COUNT_METRICS = [n for n, unit in PER_LAYER.items() if unit in ("count", "bytes")]
VIRTUAL_METRICS = ["virt_latency_p50_s", "virt_core_s"]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def write_digests() -> None:
    out = {}
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED, OUT / "spill")
        workload.prepare()
        out[name] = {label: digest(rows) for label, rows in sorted(workload.reference_norm.items())}
    (BENCH_DIR / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--other-seed", type=int, default=DEFAULT_SEED + 1)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()
    if args.write_digests:
        write_digests()
        return 0

    failures = []
    for name in args.workloads:
        first, second = (WORKLOADS[name](args.seed, OUT / "spill") for _ in range(2))
        for workload in (first, second):
            workload.prepare()
        if first.inputs(3) != second.inputs(3):
            failures.append(f"{name}: one seed generated different inputs")

        runs = [run(name, args.seed, args.seconds, trace=1) for _ in range(2)]
        for metric in COUNT_METRICS:
            values = [r["record"]["per_layer"][metric] for r in runs]
            if values[0] != values[1]:
                failures.append(f"{name}: {metric} differs across runs: {values}")
        for metric in VIRTUAL_METRICS:
            values = [r["record"]["end_to_end"][metric] for r in runs]
            if values[0] != values[1]:
                failures.append(f"{name}: {metric} differs across runs: {values}")
        if runs[0]["record"]["window_counts"] != runs[1]["record"]["window_counts"]:
            failures.append(f"{name}: program counters differ across runs")
        for r in runs:
            if not r["result"]["correct"]:
                failures.append(f"{name}: traced run not correct: {r['record']['problems']}")

        other = run(name, args.other_seed, args.seconds, trace=0)
        if not other["result"]["correct"] or other["result"]["failed"]:
            failures.append(
                f"{name}: seed {args.other_seed} failed {other['result']['failed']} "
                f"of {other['result']['attempted']}: {other['record']['problems']}"
            )
        print(f"{name}: checked", flush=True)

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("determinism check " + ("FAILED" if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
