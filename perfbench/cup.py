"""Seeded generator of the `cup` workload: club leagues plus national teams.

The paper's setting in miniature.  Club players fill three leagues that play
a single round robin each season; squads turn over a quarter of their
players between seasons.  Every player has a nationality, drawn with
Zipf-like weights so that big nations have deep pools and small ones lean
on home-based players who never appear in club matches.  National teams
play four home-and-away windows a season and, every second season, a
neutral-venue tournament of eight groups of four.  A quarter of the nations
bring a debutant to each tournament, so some tournament players are absent
from every training window.

Each tournament is one fold: trained on every match before it, scored on
its group matches.  The sizes keep N < P + 1 in every training window,
which is the side of the dual-versus-weight-space choice where the dual
form must stay.  Outcomes follow the ternary likelihood with the true
skills, home effect and draw margin below; the truth is written alongside
the CSV files so the exact-latent predictor can be scored.

Everything comes from one ``numpy.random.Generator`` seeded by the caller,
so a seed reproduces the files byte for byte.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SKILL_SD = 0.3
TRUE_ALPHA = 0.45
TRUE_HOME = 0.25

LEAGUES = 3
CLUBS_PER_LEAGUE = 10
SQUAD = 16
CHURN = 4  # squad players replaced per club between seasons
NATIONS = 32
HOME_BASED = 11  # per nation, never in a club match
SEASONS = 6
TOURNAMENT_EVERY = 2  # seasons
GROUP_SIZE = 4
WINDOWS_PER_SEASON = 4
CLUB_PICK_NOISE = 0.3
NATION_PICK_NOISE = 0.15
LINEUP = 11

HEADER = ("match_id", "date", "competition", "team1", "team2", "home", "lineup1", "lineup2", "outcome")


@dataclass
class Cup:
    """Generated matches in date order, true skills, and the tournament folds."""

    rows: list[tuple] = field(default_factory=list)
    skills: dict[str, float] = field(default_factory=dict)
    # (fold name, first date of the tournament)
    folds: list[tuple[str, dt.date]] = field(default_factory=list)


class _Gen:
    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.cup = Cup()
        self.nation_weights = 1.0 / np.arange(1, NATIONS + 1)
        self.nation_weights /= self.nation_weights.sum()
        self.nationality: dict[str, int] = {}
        self.counter = {"c": 0, "h": 0, "d": 0}

    def new_player(self, kind: str, nation: int | None = None) -> str:
        pid = f"{kind}{self.counter[kind]:05d}"
        self.counter[kind] += 1
        self.cup.skills[pid] = float(self.rng.normal(0.0, SKILL_SD))
        if nation is None:
            nation = int(self.rng.choice(NATIONS, p=self.nation_weights))
        self.nationality[pid] = nation
        return pid

    def pick(self, pool: list[str], noise: float, forced: str | None = None) -> list[str]:
        score = np.array([self.cup.skills[p] for p in pool]) + self.rng.normal(0.0, noise, len(pool))
        order = [pool[i] for i in np.argsort(-score, kind="stable")]
        if forced is None:
            return order[:LINEUP]
        return order[: LINEUP - 1] + [forced]

    def play(self, date: dt.date, comp: str, t1: str, t2: str, home: int, l1: list[str], l2: list[str]) -> None:
        sk = self.cup.skills
        f = sum(sk[p] for p in l1) - sum(sk[p] for p in l2) + TRUE_HOME * home
        p_w = 1.0 / (1.0 + math.exp(TRUE_ALPHA - f))
        p_l = 1.0 / (1.0 + math.exp(TRUE_ALPHA + f))
        u = float(self.rng.random())
        outcome = "W" if u < p_w else ("L" if u < p_w + p_l else "D")
        home_tok = {1: "1", -1: "2", 0: "0"}[home]
        mid = f"m{len(self.cup.rows):06d}"
        self.cup.rows.append((mid, date.isoformat(), comp, t1, t2, home_tok, ";".join(l1), ";".join(l2), outcome))


def _round_robin(n: int) -> list[list[tuple[int, int]]]:
    rot = list(range(1, n))
    rounds = []
    for _ in range(n - 1):
        order = [0] + rot
        rounds.append([(order[i], order[n - 1 - i]) for i in range(n // 2)])
        rot = rot[-1:] + rot[:-1]
    return rounds


def generate(seed: int) -> Cup:
    g = _Gen(seed)
    rng = g.rng
    clubs = [[g.new_player("c") for _ in range(SQUAD)] for _ in range(LEAGUES * CLUBS_PER_LEAGUE)]
    home_based = [[g.new_player("h", n) for _ in range(HOME_BASED)] for n in range(NATIONS)]
    club_rounds = _round_robin(CLUBS_PER_LEAGUE)

    def nation_pool(n: int) -> list[str]:
        club_players = [p for squad in clubs for p in squad if g.nationality[p] == n]
        return sorted(club_players) + home_based[n]

    for season in range(SEASONS):
        start = dt.date(2000 + season, 8, 1)
        if season:
            for squad in clubs:
                for i in sorted(rng.choice(SQUAD, size=CHURN, replace=False)):
                    squad[i] = g.new_player("c")
        for r, pairs in enumerate(club_rounds):
            date = start + dt.timedelta(days=19 + 14 * r)
            for league in range(LEAGUES):
                for a, b in pairs:
                    c1, c2 = league * CLUBS_PER_LEAGUE + a, league * CLUBS_PER_LEAGUE + b
                    if rng.random() < 0.5:
                        c1, c2 = c2, c1
                    g.play(
                        date, f"league{league + 1}", f"club{c1:02d}", f"club{c2:02d}", 1,
                        g.pick(clubs[c1], CLUB_PICK_NOISE), g.pick(clubs[c2], CLUB_PICK_NOISE),
                    )
        pools = [nation_pool(n) for n in range(NATIONS)]
        for w in range(WINDOWS_PER_SEASON):
            date = dt.date(2001 + season, 1 + w, 15)
            order = rng.permutation(NATIONS)
            for i in range(0, NATIONS, 2):
                n1, n2 = int(order[i]), int(order[i + 1])
                g.play(
                    date, "qualifier", f"nation{n1:02d}", f"nation{n2:02d}", 1,
                    g.pick(pools[n1], NATION_PICK_NOISE), g.pick(pools[n2], NATION_PICK_NOISE),
                )
        if (season + 1) % TOURNAMENT_EVERY == 0:
            first = dt.date(2001 + season, 6, 10)
            name = f"cup{len(g.cup.folds) + 1}"
            g.cup.folds.append((name, first))
            debut = {int(n): g.new_player("d", int(n)) for n in rng.choice(NATIONS, NATIONS // 4, replace=False)}
            groups = rng.permutation(NATIONS).reshape(-1, GROUP_SIZE)
            for day, pairs in enumerate(_round_robin(GROUP_SIZE)):
                date = first + dt.timedelta(days=4 * day)
                for group in groups:
                    for a, b in pairs:
                        n1, n2 = int(group[a]), int(group[b])
                        if rng.random() < 0.5:
                            n1, n2 = n2, n1
                        g.play(
                            date, name, f"nation{n1:02d}", f"nation{n2:02d}", 0,
                            g.pick(pools[n1], NATION_PICK_NOISE, debut.get(n1)),
                            g.pick(pools[n2], NATION_PICK_NOISE, debut.get(n2)),
                        )
    return g.cup


def _csv(rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows(rows)
    return buf.getvalue()


def fold_rows(cup: Cup, fold: int) -> tuple[list[tuple], list[tuple]]:
    """(training rows strictly before the tournament, the tournament's rows)."""
    name, first = cup.folds[fold]
    cut = first.isoformat()
    train = [r for r in cup.rows if r[1] < cut]
    test = [r for r in cup.rows if r[2] == name]
    return train, test


def write(cup: Cup, out: Path) -> list[str]:
    """Write ``<fold>_train.csv``, ``<fold>_test.csv`` and ``<fold>_truth.json``; returns fold names."""
    out.mkdir(parents=True, exist_ok=True)
    truth = json.dumps({"alpha": TRUE_ALPHA, "home": TRUE_HOME, "skills": cup.skills}, sort_keys=True)
    for i, (name, _) in enumerate(cup.folds):
        train, test = fold_rows(cup, i)
        (out / f"{name}_train.csv").write_text(_csv(train), encoding="utf-8")
        (out / f"{name}_test.csv").write_text(_csv(test), encoding="utf-8")
        (out / f"{name}_truth.json").write_text(truth, encoding="utf-8")
    return [name for name, _ in cup.folds]

