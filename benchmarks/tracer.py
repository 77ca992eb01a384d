"""Span tracer for the benchmark's traced run.

The tracer rebinds fregret's public entry points (module attributes and two
TreeRegressor methods) to thin wrappers defined here, so no file of the
package changes. Each call becomes one span: name, start, end, parent span
and run id (the index of the benchmark task it ran in). Spans are kept in
flat ``array`` columns, so a long run costs a few bytes per call, and are
written out once at the end.

Self time of a span is its duration minus the durations of its direct
children. In a traced task only calls inside the benchmark's timed stages
are traced, and each stage is a root ``bench.<stage>`` span, so the self
times of all spans add up to the stages' wall time; the share left on
``bench.*`` spans is time spent in the benchmark's own code, reported as
``trace.unattributed_share``.
"""

from __future__ import annotations

import functools
import gzip
import os
import statistics
import time
from array import array
from contextlib import contextmanager

from workloads import MIN_LEAVES

# (module attribute path, span name, observer). Several module attributes
# may name one function (``cfr.cfr_pass`` is also ``rcfr.cfr_pass``); every
# binding is replaced, and all of them record under the one span name.
# Targets the package no longer has are skipped and listed as missing.
TRACED = (
    ("games.build_leduc", "games.build_leduc", None),
    ("cfr.solve", "cfr.solve", None),
    ("cfr.cfr_iteration", "cfr.cfr_iteration", None),
    ("cfr.cfr_pass", "cfr.cfr_pass", None),
    ("rcfr.cfr_pass", "cfr.cfr_pass", None),
    ("rcfr.rcfr_solve", "rcfr.rcfr_solve", None),
    ("rcfr.new_state", "rcfr.new_state", None),
    ("rcfr.rcfr_iteration", "rcfr.rcfr_iteration", None),
    ("rcfr.training_mse", "rcfr.training_mse", None),
    ("rcfr.featurize", "estimator.featurize", None),
    ("estimator.TreeRegressor.fit", "estimator.TreeRegressor.fit", None),
    ("estimator.TreeRegressor.predict_one", "estimator.predict_one", None),
    ("estimator.fit_tree", "estimator.fit_tree", "fit"),
    ("eval.exploitability", "eval.exploitability", None),
    ("cfr.exploitability", "eval.exploitability", None),
    ("rcfr.exploitability", "eval.exploitability", None),
    ("eval.best_response", "eval.best_response", None),
    ("eval.exact_ev", "eval.exact_ev", None),
    ("eval.expected_value", "efg_core.expected_value", None),
    ("eval.sampled_match", "eval.sampled_match", "match"),
    ("cli.read_strategy_file", "cli.read_strategy_file", None),
    ("cli.write_strategy_file", "cli.write_strategy_file", "write"),
    ("cli.format_csv", "cli.format_csv", None),
)
# Called once per infoset per pass; counted, not spanned.
COUNTED = ("cfr.regret_match", "rcfr.regret_match")
LAYERS = ("games", "cfr", "rcfr", "estimator", "eval", "efg_core", "cli")


def _resolve(modules, path):
    owner_path, attr = path.rsplit(".", 1)
    owner = modules
    for part in owner_path.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


def _mentions(args, kwargs, value) -> bool:
    """True if ``value`` is passed as an argument or as a field of one."""
    for arg in (*args, *kwargs.values()):
        if type(arg) is int and arg == value:
            return True
        fields = getattr(arg, "__dict__", None)
        if fields and any(type(v) is int and v == value for v in fields.values()):
            return True
    return False


class Tracer:
    """Records spans from wrappers around the package's entry points."""

    def __init__(self, modules, watch_value=None):
        self.modules = modules
        self.watch_value = watch_value
        self.watch_hits = 0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.stack = [-1]
        self.run_id = -1
        self.extras: dict[int, tuple] = {}
        self.match_calls_in_pass = 0
        self.missing: list[str] = []
        self._saved: list[tuple] = []
        self._pass_id = self._id("cfr.cfr_pass")

    def _id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        index = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name: str, observer):
        name_id = self._id(name)
        observe = getattr(self, f"_observe_{observer}") if observer else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.watch_value is not None and _mentions(
                args, kwargs, self.watch_value
            ):
                self.watch_hits += 1
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(index, args, result)
            return result

        return traced

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            top = self.stack[-1]
            if top >= 0 and self.name[top] == self._pass_id:
                self.match_calls_in_pass += 1
            return fn(*args, **kwargs)

        return counted

    def _observe_fit(self, index, args, tree):
        import numpy as np

        rows = np.asarray(args[0], dtype=np.float64)
        distinct = len(np.unique(rows, axis=0))
        leaves = self.modules.estimator.model_complexity(tree)
        self.extras[index] = (rows.shape[0], distinct, leaves)

    def _observe_match(self, index, args, result):
        self.extras[index] = (result.hands,)

    def _observe_write(self, index, args, result):
        self.extras[index] = (os.path.getsize(args[0]),)

    def _rebind(self, path: str, make, wrapped: dict) -> None:
        owner, attr = _resolve(self.modules, path)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.missing.append(path)
            return
        if id(fn) not in wrapped:
            wrapped[id(fn)] = make(fn)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapped[id(fn)])

    def install(self) -> None:
        """Rebind every traced entry point that exists; idempotent."""
        if self._saved:
            return
        self.missing = []
        wrapped: dict[int, object] = {}
        for path, name, observer in TRACED:
            self._rebind(path, lambda fn: self._wrap(fn, name, observer), wrapped)
        for path in COUNTED:
            self._rebind(path, self._count, wrapped)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def columns(self) -> dict:
        """The recorded spans in the form ``read_trace`` returns."""
        return {
            "name": [self.names[i] for i in self.name],
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "run": list(self.run),
            "extra": [self.extras.get(i, ()) for i in range(len(self.start))],
        }

    def write(self, path: str) -> None:
        """Spans as gzip CSV: index,name,start,end,parent,run,extra; the
        extra column holds the observed counts joined by ``;``."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index,name,start,end,parent,run,extra\n")
            for i in range(len(self.start)):
                extra = ";".join(str(v) for v in self.extras.get(i, ()))
                out.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i]!r},"
                    f"{self.end[i]!r},{self.parent[i]},{self.run[i]},{extra}\n"
                )


def read_trace(path: str) -> dict:
    """Parse a file written by ``Tracer.write`` back into columns."""
    columns = {k: [] for k in ("name", "start", "end", "parent", "run", "extra")}
    with gzip.open(path, "rt") as handle:
        header = handle.readline().strip().split(",")
        if header != ["index", "name", "start", "end", "parent", "run", "extra"]:
            raise ValueError(f"{path}: not a benchmark trace")
        for number, line in enumerate(handle):
            index, name, start, end, parent, run, extra = line.rstrip("\n").split(",")
            if int(index) != number:
                raise ValueError(f"{path}: span {number} out of order")
            columns["name"].append(name)
            columns["start"].append(float(start))
            columns["end"].append(float(end))
            columns["parent"].append(int(parent))
            columns["run"].append(int(run))
            columns["extra"].append(tuple(int(v) for v in extra.split(";") if v))
    return columns


def self_times(columns) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(columns["start"], columns["end"])]
    for i, parent in enumerate(columns["parent"]):
        if parent >= 0:
            own[parent] -= columns["end"][i] - columns["start"][i]
    return own


def _ancestor(columns, index: int, prefix: str) -> str | None:
    parent = columns["parent"][index]
    while parent >= 0:
        name = columns["name"][parent]
        if name.startswith(prefix):
            return name
        parent = columns["parent"][parent]
    return None


def _p(values, q: float) -> float:
    """Percentile by linear interpolation; 0 when there are no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def layer_metrics(columns, traced_runs, game_size) -> dict[str, float]:
    """Per-layer metrics over the spans of the traced task runs.

    ``traced_runs`` are the run ids of traced tasks; counts are reported per
    task, so they repeat exactly. Shares are of the traced tasks' wall time.
    ``game_size`` is (nodes, infosets) of the game the tasks solved.
    """
    runs = set(traced_runs)
    tasks = max(1, len(runs))
    names = columns["name"]
    own = self_times(columns)
    durations = {}
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    fit_self = {ml: 0.0 for ml in MIN_LEAVES}
    fit_stats = {ml: [] for ml in MIN_LEAVES}
    fit_ms = {ml: [] for ml in MIN_LEAVES}
    pass_self = unattributed = task_total = 0.0
    predict_in_iteration = hands = written = writes = 0
    for i, name in enumerate(names):
        if columns["run"][i] not in runs:
            continue
        duration = columns["end"][i] - columns["start"][i]
        durations.setdefault(name, []).append(duration)
        layer = name.split(".", 1)[0]
        if columns["parent"][i] < 0:
            task_total += duration
        if layer == "bench":
            unattributed += own[i]
            continue
        self_by_layer[layer] += own[i]
        if name == "cfr.cfr_pass":
            pass_self += own[i]
        elif name == "estimator.predict_one":
            if _ancestor(columns, i, "rcfr.rcfr_iteration"):
                predict_in_iteration += 1
        elif name == "eval.sampled_match":
            hands += columns["extra"][i][0]
        elif name == "cli.write_strategy_file":
            written += columns["extra"][i][0]
            writes += 1
        if name in ("estimator.TreeRegressor.fit", "estimator.fit_tree"):
            solve = _ancestor(columns, i, "bench.solve.ml")
            if solve is not None:
                ml = int(solve.rsplit("ml", 1)[1])
                fit_self[ml] += own[i]
                if name == "estimator.fit_tree":
                    fit_stats[ml].append(columns["extra"][i])
                elif name == "estimator.TreeRegressor.fit":
                    fit_ms[ml].append(duration * 1e3)

    def ms(name):
        return [d * 1e3 for d in durations.get(name, [])]

    def share(seconds):
        return seconds / task_total if task_total > 0 else 0.0

    passes = len(durations.get("cfr.cfr_pass", ()))
    iterations = len(durations.get("rcfr.rcfr_iteration", ()))
    nodes, infosets = game_size
    pass_seconds = sum(durations.get("cfr.cfr_pass", ()))
    match_seconds = sum(durations.get("eval.sampled_match", ()))
    out = {
        "cfr.pass_ms.p50": _p(ms("cfr.cfr_pass"), 0.50),
        "cfr.pass_ms.p95": _p(ms("cfr.cfr_pass"), 0.95),
        "cfr.passes": passes / tasks,
        "cfr.node_visits_per_s": nodes * passes / pass_seconds if pass_seconds else 0.0,
        "cfr.pass_self_share": share(pass_self),
    }
    for ml in MIN_LEAVES:
        stats = fit_stats[ml]
        rows = sum(s[0] for s in stats) / len(stats) if stats else 0.0
        distinct = sum(s[1] for s in stats) / len(stats) if stats else 0.0
        out[f"estimator.fit_ms.p50.ml{ml}"] = _p(fit_ms[ml], 0.50)
        out[f"estimator.fit_ms.p95.ml{ml}"] = _p(fit_ms[ml], 0.95)
        out[f"estimator.fit_rows.ml{ml}"] = rows
        out[f"estimator.fit_distinct_rows.ml{ml}"] = distinct
        out[f"estimator.distinct_row_ratio.ml{ml}"] = distinct / rows if rows else 0.0
        out[f"estimator.leaves.ml{ml}"] = (
            sum(s[2] for s in stats) / len(stats) if stats else 0.0
        )
        out[f"estimator.fit_self_share.ml{ml}"] = share(fit_self[ml])
    out.update(
        {
            "estimator.predict_calls_per_iter": (
                predict_in_iteration / iterations if iterations else 0.0
            ),
            "estimator.predict_us": _p(ms("estimator.predict_one"), 0.50) * 1e3,
            "rcfr.iteration_ms.p50": _p(ms("rcfr.rcfr_iteration"), 0.50),
            "rcfr.iteration_ms.p95": _p(ms("rcfr.rcfr_iteration"), 0.95),
            "rcfr.training_mse_ms": _p(ms("rcfr.training_mse"), 0.50),
            "eval.best_response_ms.p50": _p(ms("eval.best_response"), 0.50),
            "eval.best_response_ms.p95": _p(ms("eval.best_response"), 0.95),
            "eval.exploitability_calls": (
                len(durations.get("eval.exploitability", ())) / tasks
            ),
            "efg_core.expected_value_ms": _p(ms("efg_core.expected_value"), 0.50),
            "eval.hands": hands / tasks,
            "eval.hands_per_s": hands / match_seconds if match_seconds else 0.0,
            "cli.read_strategy_ms": _p(ms("cli.read_strategy_file"), 0.50),
            "cli.write_strategy_ms": _p(ms("cli.write_strategy_file"), 0.50),
            "cli.strategy_bytes": written / writes if writes else 0.0,
        }
    )
    for layer in LAYERS:
        out[f"{layer}.self_share"] = share(self_by_layer[layer])
    out["trace.unattributed_share"] = share(unattributed)
    return out


def setup_metrics(columns) -> dict[str, float]:
    """Set-up costs: game build and featurization, from the set-up spans."""
    build = feat = 0.0
    for i, name in enumerate(columns["name"]):
        if columns["run"][i] != -1:
            continue
        duration = columns["end"][i] - columns["start"][i]
        if name == "games.build_leduc":
            build += duration
        elif name == "estimator.featurize":
            feat += duration
    return {"games.build_ms": build * 1e3, "estimator.featurize_ms": feat * 1e3}
