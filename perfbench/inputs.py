"""Write one workload's input files from a seed.

The benchmark runs this script in a fresh interpreter and times it as the
set-up: interpreter start, ``import lineupgp`` and the CSV files.  Per fold
it writes ``<fold>_train.csv``, ``<fold>_test.csv`` and ``<fold>_truth.json``
(the generator's skills, home effect and draw margin); ``folds.json``
lists the fold names in order.

    python3 perfbench/inputs.py --workload season --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import lineupgp.cli  # noqa: E402

import cup  # noqa: E402

# `simulate` league sizes (SimConfig fields); the default league is `search`
LEAGUES = {
    "season": {"num_teams": 30, "num_players": 420, "matches_per_team": 110},
    "search": {},
}
# rounds after the cutoff that are scored; None scores every later round
TEST_ROUNDS = {"season": 7, "search": 13}
_FLAGS = {"num_teams": "--teams", "num_players": "--players", "matches_per_team": "--matches-per-team"}


def league_folds(workload: str, seed: int) -> list[tuple[str, int]]:
    """(fold name, `simulate` seed) for each league of a workload.

    A search's cost follows the hyperparameters it visits, which follow the
    league's realized skill spread; two leagues per run halve that spread.
    """
    if workload == "search":
        return [("search1", 2 * seed), ("search2", 2 * seed + 1)]
    return [(workload, seed)]


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def write_league(workload: str, fold: str, seed: int, out: Path) -> None:
    """Simulate the league, train on the first 3/4 of its dates, test on the rounds after."""
    league, sim_truth = out / f"{fold}_league.csv", out / f"{fold}_league_truth.json"
    flags = [tok for key, val in LEAGUES[workload].items() for tok in (_FLAGS[key], str(val))]
    argv = ["simulate", "--seed", str(seed), *flags, "--out", str(league), "--truth-out", str(sim_truth)]
    if lineupgp.cli.run(argv) != 0:
        raise SystemExit(f"simulate failed: {argv}")
    with open(league, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    dates = sorted({r[1] for r in rows})
    cut = len(dates) * 3 // 4
    rounds = TEST_ROUNDS[workload]
    stop = dates[cut + rounds] if rounds and cut + rounds < len(dates) else "9999"
    _write_csv(out / f"{fold}_train.csv", header, [r for r in rows if r[1] < dates[cut]])
    _write_csv(out / f"{fold}_test.csv", header, [r for r in rows if dates[cut] <= r[1] < stop])
    sim = json.loads(sim_truth.read_text(encoding="utf-8"))
    cfg = sim["config"]
    truth = {"alpha": cfg["true_alpha"], "home": cfg["true_home"], "skills": sim["skills"]}
    (out / f"{fold}_truth.json").write_text(json.dumps(truth, sort_keys=True), encoding="utf-8")


def write_round_trip(out: Path) -> None:
    """A small fixed league, the same for every seed: the first 100 matches of
    the default league at seed 0 to train on, the next 40 to score."""
    out.mkdir(parents=True, exist_ok=True)
    league = out / "league.csv"
    if lineupgp.cli.run(["simulate", "--seed", "0", "--out", str(league)]) != 0:
        raise SystemExit("simulate failed for the round-trip league")
    with open(league, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    _write_csv(out / "roundtrip_train.csv", header, rows[:100])
    _write_csv(out / "roundtrip_test.csv", header, rows[100:140])


def main() -> None:
    ap = argparse.ArgumentParser(description="write one workload's input files")
    ap.add_argument("--workload", required=True, choices=["season", "search", "cup"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    out = Path(a.out)
    out.mkdir(parents=True, exist_ok=True)
    if a.workload == "cup":
        folds = cup.write(cup.generate(a.seed), out)
    else:
        folds = [fold for fold, _ in league_folds(a.workload, a.seed)]
        for fold, seed in league_folds(a.workload, a.seed):
            write_league(a.workload, fold, seed, out)
    (out / "folds.json").write_text(json.dumps(folds), encoding="utf-8")


if __name__ == "__main__":
    main()
