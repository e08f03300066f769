"""Today's answers, pinned: evidence, hyperparameters and W/D/L probabilities.

``ledger.json`` holds what the package computed for three training sets
when it was written:

  * ``league``: the first 300 matches of the default league (N = 300 over
    P = 224 players, so N > P+1) at fixed hyperparameters, scored on the
    next 40;
  * ``cup``: a cup-shaped fold (N = 200 matches over more than N players)
    at fixed hyperparameters, scored on 40 later matches at a neutral
    venue, half of them with four players per side unseen in training;
  * ``searched``: the first 600 matches of the default league with the
    evidence-searched hyperparameters, scored on the next 40.

The test recomputes each one and compares with a tolerance, not bytes,
because the BLAS thread count alone moves the answers: between one and two
threads, by up to ~2e-16 relative on the cup fold and ~9e-16 on the
searched one, and the searched hyperparameters by ~8e-15.  The weight mean
is the Newton iterate itself, solved to rounding at the mode, not a sum of
N likelihood gradients each known only to Newton's tolerance, so no case
needs more than 1e-12.  A change that means to move an answer rewrites the
ledger and says by how much; ``python tests/test_ledger.py`` (with ``src``
on ``PYTHONPATH``) writes it.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from lineupgp.data import Dataset, HomeSide
from lineupgp.gp import Hyperparams, load_model, optimize_hyperparams, save_model, train_model
from lineupgp.simulate import SimConfig, simulate_dataset

LEDGER = Path(__file__).with_name("ledger.json")
# relative tolerances: evidence and probabilities, and searched
# hyperparameters (see the module docstring)
RTOL = 1e-12
THETA_RTOL = 1e-9
INIT = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)


def _cup_fold() -> tuple[Dataset, list]:
    """200 training matches over ~560 players; 40 later ones, neutral, some with unseen players."""
    records = simulate_dataset(
        SimConfig(seed=3, num_players=560, num_teams=40, matches_per_team=12)
    ).dataset.records
    fresh = tuple(f"q{i:03d}" for i in range(8))
    tests = []
    for i, rec in enumerate(records[200:240]):
        rec = dataclasses.replace(rec, home=HomeSide.NEUTRAL)
        if i % 2:
            rec = dataclasses.replace(
                rec, lineup1=rec.lineup1[:7] + fresh[:4], lineup2=rec.lineup2[:7] + fresh[4:]
            )
        tests.append(rec)
    return Dataset.from_records(records[:200]), tests


def _case(train: Dataset, tests: list, hyper: Hyperparams) -> dict:
    model = train_model(train, hyper)
    kp = model.posterior.hyper.kernel
    return {
        "n": train.n,
        "players": train.num_players,
        "theta": [kp.sigma2, kp.sigma2_home, model.posterior.hyper.alpha],
        "evidence": model.posterior.evidence,
        "probs": [p.as_array().tolist() for p in model.predict_many(Dataset.from_records(tests))],
    }


def _folds() -> dict[str, tuple[Dataset, list, Hyperparams]]:
    """Each case's training set, the records it scores, and its hyperparameters."""
    league = simulate_dataset(SimConfig(seed=0)).dataset.records
    searched = Dataset.from_records(league[:600])
    best = optimize_hyperparams(searched, INIT, budget=200)
    return {
        "league": (Dataset.from_records(league[:300]), league[300:340], INIT),
        "cup": (*_cup_fold(), INIT),
        "searched": (searched, league[600:640], best),
    }


def compute(folds: dict | None = None) -> dict:
    """The ledger's three cases, from the package as it stands."""
    return {name: _case(*fold) for name, fold in (folds or _folds()).items()}


@pytest.fixture(scope="module")
def folds() -> dict[str, tuple[Dataset, list, Hyperparams]]:
    return _folds()


@pytest.fixture(scope="module")
def pinned_and_now(folds) -> tuple[dict, dict]:
    return json.loads(LEDGER.read_text(encoding="utf-8")), compute(folds)


def _close(got, want, rtol: float) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= rtol * np.abs(want)))


@pytest.mark.parametrize("name", ["league", "cup", "searched"])
def test_answers_match_the_ledger(pinned_and_now, name):
    pinned, now = (d[name] for d in pinned_and_now)
    assert (now["n"], now["players"]) == (pinned["n"], pinned["players"])
    assert _close(now["theta"], pinned["theta"], THETA_RTOL if name == "searched" else 0.0)
    assert _close(now["evidence"], pinned["evidence"], RTOL), (now["evidence"], pinned["evidence"])
    assert _close(now["probs"], pinned["probs"], RTOL)


@pytest.mark.parametrize("name", ["league", "cup", "searched"])
def test_model_file_rewrites_byte_for_byte(folds, tmp_path, name):
    # a loaded model saves to the bytes it was loaded from
    train, _, hyper = folds[name]
    first, again = tmp_path / "model.json", tmp_path / "again.json"
    save_model(train_model(train, hyper), first)
    save_model(load_model(first), again)
    assert again.read_bytes() == first.read_bytes()


def test_ledger_covers_both_shapes(pinned_and_now):
    pinned, _ = pinned_and_now
    assert pinned["league"]["n"] > pinned["league"]["players"] + 1
    assert pinned["searched"]["n"] > pinned["searched"]["players"] + 1
    assert pinned["cup"]["n"] <= pinned["cup"]["players"] + 1
    assert all(len(case["probs"]) == 40 for case in pinned.values())
    assert all(math.isfinite(case["evidence"]) for case in pinned.values())


if __name__ == "__main__":
    LEDGER.write_text(json.dumps(compute(), indent=1) + "\n", encoding="utf-8")
