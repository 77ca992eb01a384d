"""fregret: regret matching, CFR, and regression-estimated CFR.

Solvers for two-player zero-sum games: tabular counterfactual regret
minimization, a variant whose policies come from a fitted regression model
over infoset-action features, and exact evaluation tools (best response,
exploitability, head-to-head matches) on Kuhn poker and Leduc Hold'em.
"""

from .cfr import CFRConfig, CFRTables, solve
from .efg_core import (
    GameNode,
    GameSpec,
    enumerate_infosets,
    expected_value,
    uniform_profile,
)
from .estimator import RegressionTree, featurize, fit_tree
from .eval import (
    BestResponseResult,
    MatchResult,
    best_response,
    exact_ev,
    exploitability,
    merge_profiles,
    sampled_match,
)
from .games import MatrixGame, build_kuhn, build_leduc, build_matrix
from .rcfr import RCFRConfig, RCFRState, rcfr_solve
from .regret import (
    NoiseModel,
    RegretMatcher,
    regret_bound,
    regret_match,
    rm_update,
    rrm_selfplay,
)

__version__ = "0.1.0"

__all__ = [
    "BestResponseResult",
    "CFRConfig",
    "CFRTables",
    "GameNode",
    "GameSpec",
    "MatchResult",
    "MatrixGame",
    "NoiseModel",
    "RCFRConfig",
    "RCFRState",
    "RegressionTree",
    "RegretMatcher",
    "best_response",
    "build_kuhn",
    "build_leduc",
    "build_matrix",
    "enumerate_infosets",
    "exact_ev",
    "expected_value",
    "exploitability",
    "featurize",
    "fit_tree",
    "merge_profiles",
    "rcfr_solve",
    "regret_bound",
    "regret_match",
    "rm_update",
    "rrm_selfplay",
    "sampled_match",
    "solve",
    "uniform_profile",
    "__version__",
]
