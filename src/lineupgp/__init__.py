"""Win/draw/loss match prediction with a Gaussian process over lineups.

Each public name, and each submodule named as an attribute (``lineupgp.gp``),
is imported on first access (PEP 562), so ``import lineupgp`` loads neither
NumPy nor SciPy and a command pays only for the modules it runs.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_MODULES = {
    "data": (
        "Dataset",
        "HomeSide",
        "MatchRecord",
        "Outcome",
        "parse_dataset",
        "serialize_dataset",
        "split_by_cutoff",
    ),
    "errors": ("DataError", "LineupGpError", "NumericalError", "UsageError"),
    "kernel": (
        "KernelParams",
        "MatchVector",
        "build_match_vector",
        "export_heatmap",
        "kernel_matrix",
    ),
    "likelihood": (
        "DrawParam",
        "PredictiveDistribution",
        "outcome_probs",
    ),
    "gp": (
        "GPModel",
        "Hyperparams",
        "LaplacePosterior",
        "fit",
        "load_model",
        "log_marginal",
        "optimize_hyperparams",
        "quadrature_outcome_probs",
        "save_model",
        "train_model",
    ),
    "baselines": (
        "EloModel",
        "EloState",
        "OddsModel",
        "UniformModel",
        "elo_expected",
        "elo_rk_predict",
        "elo_update",
        "odds_to_probs",
        "uniform_probs",
    ),
    "evaluation": ("EvalReport", "evaluate", "log_loss"),
    "simulate": ("SimConfig", "SimResult", "bayes_log_loss", "simulate_dataset"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str) -> object:
    if name in _MODULES:  # ``lineupgp.gp`` works without ``import lineupgp.gp``
        return importlib.import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
