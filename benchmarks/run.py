"""fregret benchmark: Leduc solve, refit and evaluate, end to end and per layer.

Run from the root of a checkout; it measures the package under ``src/``:

    python3 benchmarks/run.py --workload leduc-cfr --seed 0 --seconds 20 --trace 0
    python3 benchmarks/run.py --all --seed 0 --seconds 20   # every workload, both modes
    python3 benchmarks/run.py --smoke                        # self-test, tiny sizes

Workloads (see ``workloads.py``): ``leduc-cfr``, ``leduc-rcfr-tree`` and
``leduc-eval``. Each run builds nothing but byte code, then starts
single-threaded child processes with BLAS/OpenMP threads pinned to 1: a few
that only set up, for ``setup_s``, and one that sets up, runs an untimed
warm-up task and then times tasks for ``--seconds``.

With ``--trace 0`` the last line of standard output is the end-to-end
result, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, where every metric is a median over the run. Times are wall
times normalized for the host's drifting speed by a fixed calibration walk
that probes it every 10 ms (see ``workloads.SpeedProbe``); the raw wall
times are kept in the result file:

    setup_s            import + game build + solver state (featurization), s
    task_s             one whole task: the solves with their logged
                       evaluations and file writes, then the evaluation of
                       the written files; for leduc-eval, one sweep, s
    exploit_s          read one strategy file + its exploitability, s
    exact_ev_s         exact EV of one profile against the reference, s
    match_hands_per_s  duplicate sampled-match hands per second
    peak_rss_mb        peak resident memory of the timed process, MB

With ``--trace 1`` the metrics are the per-layer ones of ``tracer.py``,
from tasks traced by wrappers around the package's entry points; their
times are raw span wall times. Lines
before the last one give the run manifest, every metric by name with its
unit, and the workload's own figures: ``solve_s``, each final
exploitability, and ``error_rate`` (failed checks over checks attempted).
Results, manifests and traces are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYERS  # noqa: E402
from workloads import MIN_LEAVES, WORKLOADS  # noqa: E402

OUT_DIR = ".bench_out"
SETUP_CHILDREN = 8
DEADLINE_S = 170.0
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
END_TO_END = (
    ("setup_s", "s"),
    ("task_s", "s"),
    ("exploit_s", "s"),
    ("exact_ev_s", "s"),
    ("match_hands_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """A run that cannot produce a result."""


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in the order they are reported."""
    units = {
        "games.build_ms": "ms",
        "games.nodes": "count",
        "games.infosets": "count",
        "estimator.featurize_ms": "ms",
        "cfr.pass_ms.p50": "ms",
        "cfr.pass_ms.p95": "ms",
        "cfr.passes": "count",
        "cfr.node_visits_per_s": "1/s",
        "cfr.pass_self_share": "share",
        "regret.match_calls_per_pass": "count",
    }
    for ml in MIN_LEAVES:
        units.update(
            {
                f"estimator.fit_ms.p50.ml{ml}": "ms",
                f"estimator.fit_ms.p95.ml{ml}": "ms",
                f"estimator.fit_rows.ml{ml}": "count",
                f"estimator.fit_distinct_rows.ml{ml}": "count",
                f"estimator.distinct_row_ratio.ml{ml}": "share",
                f"estimator.leaves.ml{ml}": "count",
                f"estimator.fit_self_share.ml{ml}": "share",
            }
        )
    units.update(
        {
            "estimator.predict_calls_per_iter": "count",
            "estimator.predict_us": "us",
            "rcfr.iteration_ms.p50": "ms",
            "rcfr.iteration_ms.p95": "ms",
            "rcfr.training_mse_ms": "ms",
            "eval.best_response_ms.p50": "ms",
            "eval.best_response_ms.p95": "ms",
            "eval.exploitability_calls": "count",
            "efg_core.expected_value_ms": "ms",
            "eval.hands": "count",
            "eval.hands_per_s": "1/s",
            "cli.read_strategy_ms": "ms",
            "cli.write_strategy_ms": "ms",
            "cli.strategy_bytes": "bytes",
        }
    )
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "share"
    units["trace.overhead_s"] = "s"
    units["trace.unattributed_share"] = "share"
    return units


def _command_output(command) -> str:
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob("src/**/*.py", recursive=True)):
        digest.update(path.encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def manifest(child: dict) -> dict:
    """Versions, machine and environment; git sha only inside a git checkout."""
    sha = (
        _command_output(["git", "rev-parse", "HEAD"])
        if os.path.isdir(".git")
        else "unknown"
    )
    return {
        "git_sha": sha,
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_env": PINNED_ENV,
    }


def run_child(args_list, deadline: float) -> dict:
    """Run ``child.py`` once, pinned; return its result and load averages."""
    os.makedirs(OUT_DIR, exist_ok=True)
    result_path = os.path.join(OUT_DIR, f"child-{os.getpid()}.json")
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    command = [
        sys.executable, os.path.join(HERE, "child.py"), *args_list,
        "--result", result_path, "--workdir", workdir,
    ]
    env = dict(os.environ, **PINNED_ENV)
    load_before = os.getloadavg()
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        with subprocess.Popen(command, env=env) as child:
            try:
                code = child.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
                raise BenchError(f"child timed out: {' '.join(args_list)}") from None
        if code != 0:
            raise BenchError(f"child exited with {code}: {' '.join(args_list)}")
        with open(result_path) as handle:
            result = json.load(handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.exists(result_path):
            os.remove(result_path)
    result["load_before"] = load_before
    result["load_after"] = os.getloadavg()
    return result


def _median(values) -> float:
    if not values:
        raise BenchError("a metric has no samples")
    return statistics.median(values)


def end_to_end(main: dict, setups: list[float]) -> dict[str, float]:
    samples = main["samples"]
    return {
        "setup_s": _median(setups),
        "task_s": _median(samples["task"]),
        "exploit_s": _median(samples["exploit"]),
        "exact_ev_s": _median(samples["exact_ev"]),
        "match_hands_per_s": _median(samples["match_hands_per_s"]),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def workload_figures(main: dict) -> list[tuple[str, float, str]]:
    """The workload's own figures: solve time, final exploitabilities, errors."""
    samples = main["samples"]
    solve_keys = [
        k for k in samples if k.startswith("solve") and not k.endswith(".wall")
    ]
    figures = []
    if solve_keys:
        per_task = [sum(v) for v in zip(*(samples[k] for k in solve_keys))]
        figures.append(("solve_s", _median(per_task), "s"))
    for label, value in sorted(main["finals"].items()):
        if label == "cfr":
            figures.append(("final_exploitability", value, "chips"))
        elif label.startswith("ml"):
            figures.append((f"final_exploitability.{label}", value, "chips"))
        else:
            figures.append((f"exploitability.{label}", value, "chips"))
    figures.append(("error_rate", main["failed"] / max(1, main["attempted"]), "share"))
    return figures


def bench(workload: str, seed: int, seconds: float, trace: int,
          size: str = "full", watch_seed: bool = False) -> dict:
    """One benchmark run: the result line plus everything recorded with it."""
    deadline = time.monotonic() + DEADLINE_S
    compileall.compile_dir("src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    setups = []
    if not trace:
        for _ in range(SETUP_CHILDREN):
            child = run_child([*common, "--seconds", "0", "--setup-only"], deadline)
            setups.append(child["setup_s"])
    extra = ["--watch-seed"] if watch_seed else []
    main = run_child(
        [*common, "--seconds", str(seconds), "--trace", str(trace), *extra],
        deadline,
    )
    setups.append(main["setup_s"])
    if trace:
        units = per_layer_units()
        metrics = {name: main["per_layer"][name] for name in units}
    else:
        units = dict(END_TO_END)
        metrics = end_to_end(main, setups)
    line = {
        "correct": main["failed"] == 0 and main["attempted"] > 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "manifest": manifest(main), "setup_samples": setups,
        "figures": workload_figures(main), "child": main, "result": line,
    }
    path = os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as out:
        json.dump(record, out, indent=1)
    return record


def report(record: dict) -> None:
    """Everything but the result line, for a reader."""
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}")
    print("manifest " + json.dumps(record["manifest"], sort_keys=True))
    child = record["child"]
    print(f"load_average before={child['load_before']} after={child['load_after']}")
    for name, metric in record["result"]["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    for name, value, unit in record["figures"]:
        print(f"{name} {value!r} {unit}")
    for failure in child["failures"]:
        print(f"FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fregret benchmark", formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="every workload, both modes")
    mode.add_argument("--smoke", action="store_true", help="self-test at tiny sizes")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "fregret", "__init__.py")):
        print("run.py: no src/fregret here; run it from a fregret checkout",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            from selftest import smoke

            return smoke(bench)
        if args.all:
            for name in WORKLOADS:
                for trace in (0, 1):
                    report(bench(name, args.seed, args.seconds, trace))
            return 0
        if args.workload is None:
            parser.error("give --workload, --all or --smoke")
        record = bench(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
