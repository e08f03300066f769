"""Synthetic league generator with retained ground truth.

Per-player skills are drawn i.i.d. Normal(0, skill_scale^2).  Each team
owns a disjoint pool of up to 14 players; a match lineup starts from the
pool's first eleven and swaps in up to 3 bench players at random.  The
schedule cycles a round-robin (sides alternate between cycles) until each
team has played ``matches_per_team`` matches, one round per week.  The
latent quality of a match is the signed skill sum plus the home effect,
and the outcome is sampled from the ternary likelihood, so the fitted
model's assumptions hold exactly by construction.  Everything is driven
by one seeded generator: a fixed seed reproduces the dataset byte for
byte.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import Dataset, HomeSide, MatchRecord, Outcome, _unchecked_record
from .likelihood import DrawParam, outcome_probs

__all__ = ["SimConfig", "SimResult", "simulate_dataset", "bayes_log_loss"]

_BASE_DATE = dt.date(2021, 8, 1)
_ROUND_SPACING_DAYS = 7
_POOL_CAP = 14
_MAX_SWAPS = 3
_LINEUP = 11


@dataclass(frozen=True)
class SimConfig:
    """Generator knobs; ``true_sigma2`` is derived as ``skill_scale ** 2``."""

    seed: int = 0
    num_players: int = 224
    num_teams: int = 16
    matches_per_team: int = 100
    true_alpha: float = 0.45
    true_home: float = 0.25
    skill_scale: float = 0.3

    def __post_init__(self) -> None:
        if self.num_teams < 2:
            raise ValueError("need at least 2 teams")
        if self.matches_per_team < 1:
            raise ValueError("matches_per_team must be >= 1")
        if self.num_players // self.num_teams < _LINEUP:
            raise ValueError(
                f"num_players={self.num_players} cannot field {self.num_teams} "
                f"disjoint teams of {_LINEUP}"
            )
        if not (self.skill_scale > 0.0 and math.isfinite(self.skill_scale)):
            raise ValueError("skill_scale must be positive and finite")
        # positive, finite, and exp(2 * alpha) finite
        DrawParam.from_alpha(self.true_alpha)
        if not math.isfinite(self.true_home):
            raise ValueError("true_home must be finite")

    @property
    def pool_size(self) -> int:
        """Players per team pool; capped at 14, at least the lineup size."""
        return min(_POOL_CAP, self.num_players // self.num_teams)

    @property
    def true_sigma2(self) -> float:
        return self.skill_scale**2


@dataclass(frozen=True)
class SimResult:
    dataset: Dataset
    skills: dict[str, float]
    latents: dict[str, float]
    config: SimConfig


def _round_robin_rounds(num_teams: int) -> list[list[tuple[int, int]]]:
    """Circle-method rounds; each pair meets once per full set of rounds."""
    teams = list(range(num_teams))
    if num_teams % 2 == 1:
        teams.append(-1)  # bye marker
    half = len(teams) // 2
    rounds = []
    rotating = teams[1:]
    for _ in range(len(teams) - 1):
        order = [teams[0]] + rotating
        pairs = [
            (order[i], order[len(order) - 1 - i])
            for i in range(half)
            if order[i] != -1 and order[len(order) - 1 - i] != -1
        ]
        rounds.append(pairs)
        rotating = rotating[-1:] + rotating[:-1]
    return rounds


def _draw_lineup(pool: Sequence[str], rng: np.random.Generator) -> tuple[str, ...]:
    base = list(pool[:_LINEUP])
    bench = list(pool[_LINEUP:])
    max_swaps = min(_MAX_SWAPS, len(bench))
    swaps = int(rng.integers(0, max_swaps + 1))
    if swaps:
        out = rng.choice(_LINEUP, size=swaps, replace=False)
        inn = rng.choice(len(bench), size=swaps, replace=False)
        for o, i in zip(out, inn):
            base[o] = bench[i]
    return tuple(base)


def simulate_dataset(cfg: SimConfig) -> SimResult:
    rng = np.random.default_rng(cfg.seed)
    pool_size = cfg.pool_size
    player_ids = [f"p{i:04d}" for i in range(cfg.num_teams * pool_size)]
    skill_values = rng.normal(0.0, cfg.skill_scale, size=len(player_ids))
    skills = dict(zip(player_ids, skill_values.tolist()))
    pools = [
        player_ids[t * pool_size : (t + 1) * pool_size] for t in range(cfg.num_teams)
    ]
    team_names = [f"team{t:02d}" for t in range(cfg.num_teams)]
    draw = DrawParam.from_alpha(cfg.true_alpha)

    total = cfg.num_teams * cfg.matches_per_team // 2
    rounds = _round_robin_rounds(cfg.num_teams)
    records: list[MatchRecord] = []
    latents: dict[str, float] = {}
    match_idx = 0
    global_round = 0
    cycle = 0
    while match_idx < total:
        for pairs in rounds:
            date = _BASE_DATE + dt.timedelta(days=_ROUND_SPACING_DAYS * global_round)
            for t1, t2 in pairs:
                if match_idx >= total:
                    break
                home = HomeSide.TEAM1 if cycle % 2 == 0 else HomeSide.TEAM2
                lineup1 = _draw_lineup(pools[t1], rng)
                lineup2 = _draw_lineup(pools[t2], rng)
                f = (
                    float(sum(skills[p] for p in lineup1))
                    - float(sum(skills[p] for p in lineup2))
                    + cfg.true_home * home.sign
                )
                probs = outcome_probs(f, draw)
                u = float(rng.random())
                if u < probs.p_w:
                    outcome = Outcome.TEAM1_WIN
                elif u < probs.p_w + probs.p_d:
                    outcome = Outcome.DRAW
                else:
                    outcome = Outcome.TEAM2_WIN
                match_id = f"m{match_idx:05d}"
                # ids from format strings and disjoint pools: valid by construction
                records.append(
                    _unchecked_record(
                        match_id,
                        date,
                        "league",
                        team_names[t1],
                        team_names[t2],
                        tuple(sorted(lineup1)),
                        tuple(sorted(lineup2)),
                        home,
                        outcome,
                    )
                )
                latents[match_id] = f
                match_idx += 1
            global_round += 1
            if match_idx >= total:
                break
        cycle += 1

    return SimResult(
        dataset=Dataset.from_records(records),
        skills=skills,
        latents=latents,
        config=cfg,
    )


def bayes_log_loss(result: SimResult, matches: Dataset | Iterable[MatchRecord]) -> float:
    """Log loss of the true-latent predictor; the floor any fit aims for."""
    records = matches.records if isinstance(matches, Dataset) else tuple(matches)
    if not records:
        raise ValueError("bayes_log_loss needs at least one match")
    draw = DrawParam.from_alpha(result.config.true_alpha)
    total = 0.0
    for rec in records:
        probs = outcome_probs(result.latents[rec.match_id], draw)
        total += -math.log(probs.prob(rec.outcome))
    return total / len(records)
