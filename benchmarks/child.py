"""One benchmark process: set up a workload, time its tasks, check outputs.

``run.py`` starts this file with the thread-pinning environment; it is not
meant to be run by hand. Run from the checkout root:

    python3 benchmarks/child.py --workload leduc-cfr --seed 0 --seconds 20 \\
        --trace 0 --size full --result .bench_out/r.json [--setup-only]

Set-up time runs from the first import of the package to a built game and
solver state. One untimed warm-up task follows, then tasks until
``--seconds`` have passed. Every time is normalized for host speed (see
``workloads.SpeedProbe``); the raw wall times are kept as ``*.wall``. With
``--trace 1`` tasks alternate between traced and untraced, and the
difference of their median times is the tracing overhead. The result,
with every raw sample, goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from types import SimpleNamespace

from tracer import Tracer, layer_metrics, setup_metrics
from workloads import (
    RECORDED,
    SIZES,
    WORKLOADS,
    Run,
    SpeedProbe,
    count_nodes,
)

MODULES = ("games", "efg_core", "regret", "cfr", "rcfr", "estimator", "eval", "cli")
MIN_TASKS = 2


def import_fregret(root: str) -> SimpleNamespace:
    """Import the package from ``root``/src, never from anywhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    modules = {name: importlib.import_module(f"fregret.{name}") for name in MODULES}
    origin = os.path.abspath(sys.modules["fregret"].__file__)
    if not origin.startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"fregret imported from {origin}, not from {src}")
    return SimpleNamespace(**modules)


def one_task(fr, workload, state, run, tracer, run_id: int, recorded) -> None:
    """One task; its time is the sum of its stages' normalized times."""
    gc.collect()
    traced = tracer is not None and run_id >= 0
    if traced:
        tracer.run_id = run_id
        tracer.install()
        run.tracing = True
    run.task_seconds = run.task_wall = 0.0
    outputs = None
    try:
        outputs = workload.task(fr, state, run)
    except Exception:  # a failed task is counted, never silently dropped
        run.attempted += 1
        run.fail("task raised: " + traceback.format_exc(limit=3))
    finally:
        if traced:
            tracer.uninstall()
            run.tracing = False
            tracer.run_id = -1
    key = "task_traced" if traced else "task"
    run.sample(key, run.task_seconds)
    run.sample(f"{key}.wall", run.task_wall)
    if outputs is None:
        return
    try:
        workload.check(fr, state, outputs, run, recorded)
    except Exception:
        run.attempted += 1
        run.fail("check raised: " + traceback.format_exc(limit=3))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--result", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--watch-seed", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)

    tracer = None
    with SpeedProbe() as probe:
        fr = import_fregret(os.getcwd())
        if args.trace:
            tracer = Tracer(fr, watch_value=args.seed if args.watch_seed else None)
            tracer.install()
        state = workload.set_up(fr, args.seed, SIZES[args.size], args.workdir)
    run = Run(tracer)
    result = {"setup_s": probe.seconds, "setup_wall_s": probe.wall}
    if tracer is not None:
        tracer.uninstall()
    if not args.setup_only:
        recorded = RECORDED[args.size]
        one_task(fr, workload, state, run, None, -1, recorded)  # warm-up
        run.samples.clear()
        deadline = time.perf_counter() + args.seconds
        index = 0
        while index < MIN_TASKS or time.perf_counter() < deadline:
            run_id = index if tracer is not None and index % 2 == 0 else -1
            one_task(fr, workload, state, run, tracer, run_id, recorded)
            index += 1
        result.update(
            samples=run.samples,
            attempted=run.attempted,
            failed=run.failed,
            failures=run.failures,
            finals=state.finals,
            inputs_digest=state.inputs_digest,
            output_digests=state.digests,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            numpy=sys.modules["numpy"].__version__,
        )
        if tracer is not None:
            result.update(traced_result(tracer, state, run, args))
    with open(args.result, "w") as out:
        json.dump(result, out)
    return 0


def traced_result(tracer, state, run, args) -> dict:
    columns = tracer.columns()
    traced_runs = sorted({r for r in columns["run"] if r >= 0})
    size = (count_nodes(state.game), len(state.game.action_labels))
    metrics = layer_metrics(columns, traced_runs, size)
    metrics.update(setup_metrics(columns))
    metrics["games.nodes"], metrics["games.infosets"] = size
    passes = metrics["cfr.passes"] * len(traced_runs)
    metrics["regret.match_calls_per_pass"] = (
        tracer.match_calls_in_pass / passes if passes else 0.0
    )
    metrics["trace.overhead_s"] = statistics.median(
        run.samples["task_traced"]
    ) - statistics.median(run.samples["task"])
    trace_file = os.path.join(
        os.path.dirname(args.result),
        f"trace-{args.workload}-seed{args.seed}.csv.gz",
    )
    tracer.write(trace_file)
    return {
        "per_layer": metrics,
        "trace_file": trace_file,
        "traced_runs": traced_runs,
        "game_size": size,
        "missing_targets": tracer.missing,
        "watch_hits": tracer.watch_hits,
    }


if __name__ == "__main__":
    sys.exit(main())
