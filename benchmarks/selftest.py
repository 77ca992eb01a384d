"""Smoke self-test of the benchmark harness (``run.py --smoke``).

Runs every workload at the tiny ``smoke`` size with two seeds untraced and
once traced, then asserts that:

- every run is correct and reports exactly the metrics BENCHMARK.json
  names, with its units, and no end-to-end metric is zero;
- the workload seed reaches the package only as generated inputs: the
  traced run passes no call the raw seed, as an argument or as a field of
  one, and the eval inputs are the same for one seed and differ for two;
- the solve workloads do not depend on the seed: their strategy files are
  byte-identical across the two seeds;
- the trace file parses, gives back the reported per-layer metrics, and
  the layers' self shares plus the unattributed share add up to one.
"""

from __future__ import annotations

import json
import math

from tracer import LAYERS, layer_metrics, read_trace

# Distinctive values, so a hit in the traced arguments cannot be a
# coincidence with an iteration count, hand count or seat index.
SEED_A = 1_000_003
SEED_B = 2_000_029
SOLVE_WORKLOADS = ("leduc-cfr", "leduc-rcfr-tree")


def _benchmark_json() -> dict:
    with open("BENCHMARK.json") as handle:
        return json.load(handle)


def _expect(ok: bool, message: str, problems: list[str]) -> None:
    if not ok:
        problems.append(message)


def _check_metrics(record, declared, problems) -> None:
    metrics = record["result"]["metrics"]
    where = f"{record['workload']} trace={record['trace']}"
    _expect(
        list(metrics) == [m["name"] for m in declared],
        f"{where}: metric names differ from BENCHMARK.json",
        problems,
    )
    for entry in declared:
        got = metrics.get(entry["name"], {})
        _expect(
            got.get("unit") == entry["unit"],
            f"{where}: {entry['name']} unit {got.get('unit')!r} is not "
            f"{entry['unit']!r}",
            problems,
        )


def _check_trace(record, problems) -> None:
    child = record["child"]
    where = record["workload"]
    columns = read_trace(child["trace_file"])
    again = layer_metrics(columns, child["traced_runs"], tuple(child["game_size"]))
    for name, value in again.items():
        _expect(
            value == child["per_layer"][name],
            f"{where}: {name} from the trace file {value!r} != reported "
            f"{child['per_layer'][name]!r}",
            problems,
        )
    total = sum(again[f"{layer}.self_share"] for layer in LAYERS)
    total += again["trace.unattributed_share"]
    _expect(
        math.isclose(total, 1.0, rel_tol=1e-9),
        f"{where}: self shares add up to {total!r}, not 1",
        problems,
    )
    _expect(
        child["watch_hits"] == 0,
        f"{where}: the raw workload seed was passed to the package "
        f"{child['watch_hits']} times",
        problems,
    )
    _expect(
        not child["missing_targets"],
        f"{where}: entry points not traced: {child['missing_targets']}",
        problems,
    )


def smoke(bench) -> int:
    """Run the self-test with ``bench`` from run.py; 0 when every check holds."""
    declared = _benchmark_json()
    problems: list[str] = []
    for workload in ("leduc-cfr", "leduc-rcfr-tree", "leduc-eval"):
        runs = {
            "a": bench(workload, SEED_A, 0.5, 0, size="smoke"),
            "b": bench(workload, SEED_B, 0.5, 0, size="smoke"),
            "traced": bench(workload, SEED_A, 0.5, 1, size="smoke", watch_seed=True),
        }
        for key, record in runs.items():
            result = record["result"]
            _expect(
                result["correct"] and result["failed"] == 0,
                f"{workload} {key}: failed checks {record['child']['failures']}",
                problems,
            )
            kind = "per_layer" if record["trace"] else "end_to_end"
            _check_metrics(record, declared[kind], problems)
        for name, metric in runs["a"]["result"]["metrics"].items():
            _expect(metric["value"] > 0, f"{workload}: {name} is not > 0", problems)
        _check_trace(runs["traced"], problems)
        a, b, traced = (runs[k]["child"] for k in ("a", "b", "traced"))
        if workload in SOLVE_WORKLOADS:
            _expect(
                a["output_digests"] == b["output_digests"],
                f"{workload}: strategy files depend on the seed",
                problems,
            )
        else:
            _expect(
                a["inputs_digest"] == traced["inputs_digest"],
                f"{workload}: one seed gave two different inputs",
                problems,
            )
            _expect(
                a["inputs_digest"] != b["inputs_digest"],
                f"{workload}: two seeds gave the same inputs",
                problems,
            )
        if workload == "leduc-rcfr-tree":
            layer = traced["per_layer"]
            _expect(
                0 < layer["estimator.fit_distinct_rows.ml4"]
                < layer["estimator.fit_rows.ml4"],
                f"{workload}: fit inputs hold no duplicate rows",
                problems,
            )
    for problem in problems:
        print(f"smoke: FAILED {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failures")
    return 0 if not problems else 1
