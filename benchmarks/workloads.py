"""The benchmark's workloads: set-up, one timed task, and its output checks.

A workload's ``set_up`` builds everything a task needs from the workload
seed; the package then sees only those generated inputs. ``task`` does the
timed work through the package's public functions, called as module
attributes so that the traced run's wrappers see them, and records each
stage's time on the run. ``check`` verifies the task's outputs afterwards,
outside the timed stages; each check is one operation attempted.

Workloads:

leduc-cfr
    Tabular CFR on Leduc, exploitability logged every 10 iterations, then
    strategy and convergence files written, as ``fregret solve --algo cfr
    --log-every 10`` does. The solved file is then read back and evaluated
    as ``fregret exploit`` and ``fregret compete --exact`` / ``--duplicate``
    do against a reference profile. ``cfr_pass`` is most of the work and
    exploitability the rest; the regression tree is never used, so this is
    the bypass side of every change to the tree learner.
leduc-rcfr-tree
    Tree RCFR with exact targets at min-leaf 64, then 16, then 4, each
    logged every 10 iterations and evaluated like leduc-cfr. This is the
    paper's loop: the refit's share of an iteration grows with the tree, so
    a change to the learner shows in proportion to tree size. Its fit
    inputs hold duplicate feature rows.
leduc-eval
    Evaluation only. Set-up writes a solved profile and seeded random
    behavioural profiles; a task reads each back, computes its
    exploitability and its exact EV against the solved profile, and plays
    one duplicate sampled match. No solver runs, so a change that speeds up
    passes but slows best response or play shows here.

Both solve workloads are deterministic and do not depend on the seed: the
only seeded input they take is the RCFR bagging seed, and bagging is off
(one bag), as in the CLI. ``check`` compares their results with the values
recorded below, which holds for every seed; the smoke mode of ``run.py``
also compares the strategy files of two seeds byte for byte.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
# Written by `fregret solve --game leduc --algo cfr --iters 1000
# --log-every 1000`: the criterion-3 solve, used as the reference opponent.
SOLVED_PROFILE = os.path.join(DATA_DIR, "leduc_cfr1000.csv")
SOLVED_EXPLOITABILITY = 0.079626596628128266
MIN_LEAVES = (64, 16, 4)
LOG_EVERY = 10
# Fixed so that each sampled match, and so its 3-stderr check, is the same
# for every workload seed: a seeded match would fail that check on about
# one seed in 370 with nothing wrong.
MATCH_SEED = 1
REL_TOL = 1e-9

SIZES = {
    "full": {
        "cfr_iterations": 50,
        "rcfr_iterations": 20,
        "solve_match_hands": 10_000,
        "eval_profiles": 6,
        "eval_match_hands": 20_000,
    },
    "smoke": {
        "cfr_iterations": 10,
        "rcfr_iterations": 10,
        "solve_match_hands": 1_000,
        "eval_profiles": 2,
        "eval_match_hands": 2_000,
    },
}

# Final exploitability (chips, summed over seats) of each solve, recorded at
# the commit that added this benchmark. A change may move these at the ulp
# level only; anything more fails the check.
RECORDED = {
    "full": {
        "cfr": 0.5618290274323173,
        "ml64": 4.254374999999998,
        "ml16": 2.314609230619582,
        "ml4": 1.3941203798248156,
    },
    "smoke": {
        "cfr": 1.8540371439353385,
        "ml64": 4.208750000000002,
        "ml16": 2.767701078734275,
        "ml4": 1.8152844042755696,
    },
}

CFR_HEADER = ["t", "exploitability", "max_pos_regret_sum", "wall_ms"]
RCFR_HEADER = [
    "t", "exploitability", "mse_p1", "mse_p2", "leaves_p1", "leaves_p2", "wall_ms",
]


def close(value: float, expected: float) -> bool:
    return abs(value - expected) <= REL_TOL * max(1.0, abs(expected))


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def count_nodes(game) -> int:
    count, stack = 0, [game.root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def _calibration_tree(rng: random.Random, depth: int):
    if depth == 0:
        return (rng.random(), None, ())
    children = tuple(
        _calibration_tree(rng, depth - 1) for _ in range(rng.choice((2, 3)))
    )
    return (0.0, f"k{depth}:{rng.randrange(50)}", children)


_CAL_RNG = random.Random(0)
_CAL_TREE = _calibration_tree(_CAL_RNG, 7)
_CAL_TABLE = {
    f"k{d}:{i}": tuple(_CAL_RNG.random() for _ in range(3))
    for d in range(8)
    for i in range(50)
}
# Nominal time of one calibration walk on an unloaded host; only ratios
# matter, so this just keeps normalized times close to wall times.
CALIBRATION_REF_S = 0.0003
PROBE_INTERVAL_S = 0.01


def _calibration_walk(node, reach: float) -> float:
    value, key, children = node
    if not children:
        return value * reach
    total = 0.0
    for prob, child in zip(_CAL_TABLE[key], children):
        total += prob * _calibration_walk(child, reach * prob)
    return total


class SpeedProbe:
    """Wall time of a section, and that time normalized for host speed.

    On a shared virtual machine the CPU speed can drift by 2x within a
    minute (seen on a 2-vCPU Xeon VM, where CPU time drifts with wall
    time), and a CPU-bound Python section slows with it. So while a
    section runs, a timer signal every 10 ms runs a fixed pure-Python tree
    walk (about 0.3 ms) and records how long it took. Each stretch of work
    between two probes is scaled by the nominal walk time over the mean of
    those two probes, and the probes' own time is left out. The walk mimics
    the package's hot loops (recursion, tuple unpacking, dict lookups,
    float multiply-add) and never calls the package, so no change to the
    package can move it.
    """

    def __init__(self):
        self.marks: list[tuple[float, float]] = []
        self.wall = 0.0
        self.seconds = 0.0

    def _probe(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _calibration_walk(_CAL_TREE, 1.0)
        self.marks.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        for (t0, d0), (t1, d1) in zip(self.marks, self.marks[1:]):
            work = t1 - (t0 + d0)
            self.wall += work
            self.seconds += work * CALIBRATION_REF_S / ((d0 + d1) / 2)


class Run:
    """Stage timings and check tallies of one benchmark process."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.tracing = False
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.task_seconds = 0.0
        self.task_wall = 0.0

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    @contextmanager
    def stage(self, name: str):
        """Time a stage with a speed probe; in a traced task the stage is
        also a root ``bench.`` span, outside which nothing is traced."""
        probe = SpeedProbe()
        if self.tracing:
            with probe, self.tracer.span(f"bench.{name}"):
                yield probe
        else:
            with probe:
                yield probe
        self.task_seconds += probe.seconds
        self.task_wall += probe.wall
        self.sample(name, probe.seconds)
        self.sample(f"{name}.wall", probe.wall)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


@dataclass
class Output:
    """What one solve or one evaluated file produced, kept for the checks."""

    label: str
    path: str
    profile: dict
    exploitability: float
    exact_ev: float
    logged: float | None = None
    match: object = None


@dataclass
class State:
    game: object
    workdir: str
    size: dict
    opponent: dict
    inputs_digest: str
    configs: list = field(default_factory=list)
    paths: list = field(default_factory=list)
    uniform: dict | None = None
    references: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    finals: dict = field(default_factory=dict)


def _write_solve(fr, state, label, profile, header, rows) -> str:
    path = os.path.join(state.workdir, f"{label}.strategy.csv")
    fr.cli.write_strategy_file(path, state.game, profile)
    with open(os.path.join(state.workdir, f"{label}.convergence.csv"), "w") as out:
        out.write(fr.cli.format_csv(header, rows))
    return path


def _evaluate(fr, state, run, label, path, logged, match_hands) -> Output:
    """Read a solved file back and evaluate it, as exploit and compete do."""
    with run.stage("exploit"):
        _, profile = fr.cli.read_strategy_file(path)
        value = fr.eval.exploitability(state.game, profile)
    with run.stage("exact_ev"):
        ev = fr.eval.exact_ev(state.game, profile, state.opponent)
    with run.stage("match") as probe:
        match = fr.eval.sampled_match(
            state.game, profile, state.opponent, hands=match_hands,
            seed=MATCH_SEED, duplicate=True,
        )
    run.sample("match_hands_per_s", match.hands / probe.seconds)
    return Output(label, path, profile, value, ev, logged, match)


def _check_round_trip(fr, state, run, out: Output) -> None:
    again = out.path + ".again"
    fr.cli.write_strategy_file(again, state.game, out.profile)
    run.check(
        file_digest(again) == file_digest(out.path),
        f"{out.label}: strategy write->read->write is not byte-identical",
    )


def _check_match(run, out: Output, expected_ev: float) -> None:
    match = out.match
    run.check(
        abs(match.mean - expected_ev) <= 3.0 * match.stderr,
        f"{out.label}: duplicate match mean {match.mean!r} is more than 3 "
        f"stderr ({match.stderr!r}) from exact EV {expected_ev!r}",
    )


def _check_solve(fr, state, run, outputs, recorded) -> None:
    for out in outputs:
        expected = recorded[out.label]
        state.finals[out.label] = out.exploitability
        run.check(
            close(out.logged, expected),
            f"{out.label}: final logged exploitability {out.logged!r}, "
            f"recorded {expected!r}",
        )
        run.check(
            close(out.exploitability, expected),
            f"{out.label}: exploitability of the written file "
            f"{out.exploitability!r}, recorded {expected!r}",
        )
        _check_round_trip(fr, state, run, out)
        digest = file_digest(out.path)
        first = state.digests.setdefault(out.label, digest)
        run.check(digest == first, f"{out.label}: strategy differs between tasks")
        _check_match(run, out, out.exact_ev)


class LeducCFR:
    name = "leduc-cfr"

    def set_up(self, fr, seed, size, workdir):
        game = fr.games.build_leduc()
        fr.cfr.new_tables(game)
        _, opponent = fr.cli.read_strategy_file(SOLVED_PROFILE)
        config = fr.cfr.CFRConfig(
            iterations=size["cfr_iterations"], log_every=LOG_EVERY
        )
        digest = hashlib.sha256(repr(config).encode()).hexdigest()
        return State(game, workdir, size, opponent, digest, configs=[config])

    def task(self, fr, state, run):
        with run.stage("solve"):
            profile, log = fr.cfr.solve(state.game, state.configs[0])
            rows = [
                (r.t, r.exploitability, r.max_pos_regret_sum, r.wall_ms)
                for r in log
            ]
            path = _write_solve(fr, state, "cfr", profile, CFR_HEADER, rows)
        return [
            _evaluate(
                fr, state, run, "cfr", path, log[-1].exploitability,
                state.size["solve_match_hands"],
            )
        ]

    def check(self, fr, state, outputs, run, recorded):
        _check_solve(fr, state, run, outputs, recorded)


class LeducRCFRTree:
    name = "leduc-rcfr-tree"

    def set_up(self, fr, seed, size, workdir):
        game = fr.games.build_leduc()
        bag_seed = random.Random(seed).getrandbits(31)
        configs = [
            fr.rcfr.RCFRConfig(
                iterations=size["rcfr_iterations"], estimator_kind="tree",
                target_mode="exact", min_leaf_weight=float(ml),
                seed=bag_seed, log_every=LOG_EVERY,
            )
            for ml in MIN_LEAVES
        ]
        for config in configs:
            fr.rcfr.new_state(game, config)
        _, opponent = fr.cli.read_strategy_file(SOLVED_PROFILE)
        digest = hashlib.sha256(repr(configs).encode()).hexdigest()
        return State(game, workdir, size, opponent, digest, configs=configs)

    def task(self, fr, state, run):
        outputs = []
        for ml, config in zip(MIN_LEAVES, state.configs):
            label = f"ml{ml}"
            with run.stage(f"solve.{label}"):
                profile, convergence, sizes = fr.rcfr.rcfr_solve(state.game, config)
                rows = [
                    (c.t, c.exploitability, c.mse_p1, c.mse_p2,
                     s.leaves_p1, s.leaves_p2, c.wall_ms)
                    for c, s in zip(convergence, sizes)
                ]
                path = _write_solve(fr, state, label, profile, RCFR_HEADER, rows)
            outputs.append(
                _evaluate(
                    fr, state, run, label, path, convergence[-1].exploitability,
                    state.size["solve_match_hands"],
                )
            )
        return outputs

    def check(self, fr, state, outputs, run, recorded):
        _check_solve(fr, state, run, outputs, recorded)


def random_profile(game, rng: random.Random) -> dict:
    """Behavioural profile with each infoset's row uniform on the simplex."""
    profile = {}
    for key in sorted(game.action_labels):
        weights = [rng.expovariate(1.0) for _ in game.action_labels[key]]
        total = sum(weights)
        profile[key] = tuple(w / total for w in weights)
    return profile


class LeducEval:
    name = "leduc-eval"

    def set_up(self, fr, seed, size, workdir):
        game = fr.games.build_leduc()
        solved_path = os.path.join(workdir, "solved.csv")
        shutil.copyfile(SOLVED_PROFILE, solved_path)
        _, solved = fr.cli.read_strategy_file(solved_path)
        rng = random.Random(seed)
        paths = [solved_path]
        inputs = hashlib.sha256()
        for k in range(size["eval_profiles"]):
            path = os.path.join(workdir, f"random-{k}.csv")
            fr.cli.write_strategy_file(path, game, random_profile(game, rng))
            inputs.update(file_digest(path).encode())
            paths.append(path)
        return State(
            game, workdir, size, solved, inputs.hexdigest(), paths=paths,
            uniform=fr.efg_core.uniform_profile(game),
        )

    def task(self, fr, state, run):
        outputs = []
        for path in state.paths:
            label = os.path.basename(path)
            with run.stage("exploit"):
                _, profile = fr.cli.read_strategy_file(path)
                value = fr.eval.exploitability(state.game, profile)
            with run.stage("exact_ev"):
                ev = fr.eval.exact_ev(state.game, profile, state.opponent)
            outputs.append(Output(label, path, profile, value, ev))
        with run.stage("match") as probe:
            match = fr.eval.sampled_match(
                state.game, state.opponent, state.uniform,
                hands=state.size["eval_match_hands"], seed=MATCH_SEED,
                duplicate=True,
            )
        run.sample("match_hands_per_s", match.hands / probe.seconds)
        outputs.append(Output("match", "", state.opponent, 0.0, 0.0, match=match))
        return outputs

    def _references(self, fr, state, out):
        """Exploitability and EV references for one file, computed once.

        The solved profile's exploitability is the recorded value. For a
        random profile it is the value each seat's best response actually
        earns against it, evaluated by ``efg_core.expected_value``, a code
        path independent of the best-response recursion. The EV reference
        is the negated EV with the arguments swapped.
        """
        cached = state.references.get(out.label)
        if cached is not None:
            return cached
        game, profile, solved = state.game, out.profile, state.opponent
        if out.path == state.paths[0]:
            cached = (SOLVED_EXPLOITABILITY, 0.0)
        else:
            br0 = fr.eval.best_response(game, profile, 0).response
            br1 = fr.eval.best_response(game, profile, 1).response
            v0 = fr.efg_core.expected_value(
                game, fr.eval.merge_profiles(game, br0, profile)
            )[0]
            v1 = fr.efg_core.expected_value(
                game, fr.eval.merge_profiles(game, profile, br1)
            )[1]
            cached = (v0 + v1, -fr.eval.exact_ev(game, solved, profile))
        state.references[out.label] = cached
        return cached

    def check(self, fr, state, outputs, run, recorded):
        *files, played = outputs
        for out in files:
            exploit_ref, ev_ref = self._references(fr, state, out)
            state.finals[out.label] = out.exploitability
            run.check(
                close(out.exploitability, exploit_ref),
                f"{out.label}: exploitability {out.exploitability!r}, "
                f"reference {exploit_ref!r}",
            )
            run.check(
                close(out.exact_ev, ev_ref),
                f"{out.label}: exact EV {out.exact_ev!r}, reference {ev_ref!r}",
            )
            _check_round_trip(fr, state, run, out)
        if "match" not in state.references:
            state.references["match"] = fr.eval.exact_ev(
                state.game, state.opponent, state.uniform
            )
        _check_match(run, played, state.references["match"])


WORKLOADS = {w.name: w for w in (LeducCFR(), LeducRCFRTree(), LeducEval())}
