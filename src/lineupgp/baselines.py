"""Reference predictors: Elo, bookmaker odds, uniform."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Mapping

import numpy as np

from .data import Dataset, HomeSide, MatchRecord
from .errors import DataError, NumericalError
from .likelihood import (
    DrawParam,
    PredictiveDistribution,
    _probs_arrays,
    loglik_alpha_slope_curvature,
    loglik_vector,
    outcome_probs,
    sigmoid,
)

__all__ = [
    "EloState",
    "elo_expected",
    "elo_update",
    "elo_rk_predict",
    "fit_elo_alpha",
    "EloModel",
    "odds_to_probs",
    "load_odds_csv",
    "OddsModel",
    "uniform_probs",
    "UniformModel",
]

# one Elo rating point in latent units
ELO_LATENT_SCALE = math.log(10.0) / 400.0

# Newton on the Elo draw margin stops at a step this small relative to alpha;
# its error is then of the order of the step squared
_ELO_ALPHA_TOL = 1e-10
_ELO_ALPHA_MAX_ITER = 100


@dataclass(frozen=True)
class EloState:
    """Immutable ratings table plus update constants."""

    ratings: Mapping[str, float] = field(default_factory=dict)
    k_factor: float = 32.0
    home_advantage: float = 100.0
    initial_rating: float = 1500.0

    def rating(self, team: str) -> float:
        return self.ratings.get(team, self.initial_rating)


def elo_expected(
    r1: float,
    r2: float,
    home: HomeSide = HomeSide.NEUTRAL,
    home_advantage: float = 0.0,
) -> float:
    """Expected score for side 1: 1 / (1 + 10^(-delta/400)), as sigmoid(delta ln10 / 400).

    The logistic form cannot overflow, however large the rating gap.
    """
    delta = r1 - r2 + home_advantage * home.sign
    return sigmoid(rating_delta_to_latent(delta))


# side 1's score by outcome code
_SCORE_BY_CODE = {1: 1.0, 0: 0.5, -1: 0.0}


def _elo_fold(
    ratings: dict[str, float],
    matches: Iterable[tuple[str, str, int, int]],
    k_factor: float,
    home_advantage: float,
    initial_rating: float,
) -> list[float]:
    """Update ``ratings`` in place over (team1, team2, home sign, outcome code) in turn.

    Returns each match's pre-match latent.  Every step is scalar float
    arithmetic, so the fold does not depend on where its matches come from.
    """
    get = ratings.get
    latents = []
    for team1, team2, sign, code in matches:
        r1 = get(team1, initial_rating)
        r2 = get(team2, initial_rating)
        latent = rating_delta_to_latent(r1 - r2 + home_advantage * sign)
        shift = k_factor * (_SCORE_BY_CODE[code] - sigmoid(latent))
        ratings[team1] = r1 + shift
        ratings[team2] = r2 - shift
        latents.append(latent)
    return latents


def elo_update(state: EloState, rec: MatchRecord) -> EloState:
    """One functional rating update; total rating mass is conserved."""
    ratings = dict(state.ratings)
    match = (rec.team1, rec.team2, rec.home.sign, rec.outcome.code)
    _elo_fold(ratings, [match], state.k_factor, state.home_advantage, state.initial_rating)
    return EloState(
        ratings=ratings,
        k_factor=state.k_factor,
        home_advantage=state.home_advantage,
        initial_rating=state.initial_rating,
    )


def rating_delta_to_latent(delta: float) -> float:
    return delta * ELO_LATENT_SCALE


def elo_rk_predict(
    r1: float,
    r2: float,
    home: HomeSide,
    d: DrawParam,
    home_advantage: float = 0.0,
) -> PredictiveDistribution:
    """Ternary outcome probabilities from a rating difference."""
    delta = r1 - r2 + home_advantage * home.sign
    return outcome_probs(rating_delta_to_latent(delta), d)


def fit_elo_alpha(
    latents: np.ndarray,
    codes: np.ndarray,
    lo: float = 1e-4,
    hi: float = 10.0,
) -> DrawParam:
    """Draw margin maximizing ternary likelihood at fixed latents.

    The summed log-likelihood L is strictly concave in alpha, so its maximum
    on [lo, hi] is lo where L' <= 0 there, hi where L' >= 0 there, and else
    the root of L'.  Newton's method finds that root from the alpha that fits
    the draw rate when every latent is 0, inside a bracket on the root that
    each step narrows; a step that would leave the bracket, or an L'' that
    underflows to 0, bisects it instead.  Raises NumericalError where L is
    not finite, as when the latents' spread makes its sum overflow.
    """
    if len(latents) != len(codes):
        raise ValueError("latents and outcome codes must have equal length")

    def derivs(alpha: float) -> tuple[float, float]:
        d1, d2 = loglik_alpha_slope_curvature(codes, latents, alpha)
        return float(np.sum(d1)), float(np.sum(d2))

    if derivs(lo)[0] <= 0.0:
        alpha = lo
    elif derivs(hi)[0] >= 0.0:
        alpha = hi
    else:
        # here some matches are draws and some are not: no draws would give
        # L' < 0 at lo, only draws L' > 0 at hi
        a, b = lo, hi
        alpha = 2.0 * math.atanh(float(np.mean(codes == 0)))
        if not a < alpha < b:
            alpha = 0.5 * (a + b)
        for _ in range(_ELO_ALPHA_MAX_ITER):
            d1, d2 = derivs(alpha)
            if d1 > 0.0:
                a = alpha
            else:
                b = alpha
            step = -d1 / d2 if d2 < 0.0 else math.inf
            if abs(step) <= _ELO_ALPHA_TOL * alpha:
                alpha += step
                break
            alpha = alpha + step if a < alpha + step < b else 0.5 * (a + b)
    # the sum of finite terms can overflow: checked here instead of warned about
    with np.errstate(over="ignore"):
        total = float(np.sum(loglik_vector(codes, latents, alpha)))
    if not math.isfinite(total):
        raise NumericalError(f"the Elo log-likelihood is {total} at alpha = {alpha:.6g}")
    return DrawParam.from_alpha(alpha)


@dataclass
class EloModel:
    """Elo ratings folded over training matches, draw margin fitted after.

    Each training match contributes its pre-match rating delta to the
    alpha fit; predictions use the frozen end-of-training ratings and
    unseen teams sit at the initial rating.
    """

    k_factor: float = 32.0
    home_advantage: float = 100.0
    initial_rating: float = 1500.0
    name: str = "elo"
    state: EloState | None = None
    draw: DrawParam | None = None

    def __post_init__(self) -> None:
        for name in ("k_factor", "home_advantage", "initial_rating"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"Elo {name} must be finite, got {getattr(self, name)!r}")
        if self.k_factor < 0.0:
            raise ValueError(f"Elo k_factor must be >= 0, got {self.k_factor!r}")

    def fit(self, train: Dataset) -> "EloModel":
        # one dict updated in place, where elo_update copies it per match
        ratings: dict[str, float] = {}
        k, home_advantage, initial = self.k_factor, self.home_advantage, self.initial_rating
        arrays = train.arrays
        team1s, team2s = arrays.teams.T.tolist()
        matches = zip(team1s, team2s, arrays.homes.tolist(), arrays.codes.tolist())
        latents = _elo_fold(ratings, matches, k, home_advantage, initial)
        if not all(math.isfinite(r) for r in ratings.values()):
            raise NumericalError(
                f"Elo ratings overflowed (k_factor {self.k_factor!r}, "
                f"initial_rating {self.initial_rating!r})"
            )
        self.state = EloState(
            ratings=ratings, k_factor=k, home_advantage=home_advantage, initial_rating=initial
        )
        self.draw = fit_elo_alpha(np.array(latents, float), arrays.codes)
        return self

    def predict(self, rec: MatchRecord) -> PredictiveDistribution:
        if self.state is None or self.draw is None:
            raise NumericalError("EloModel.predict called before fit")
        return elo_rk_predict(
            self.state.rating(rec.team1),
            self.state.rating(rec.team2),
            rec.home,
            self.draw,
            self.home_advantage,
        )

    def predict_many(self, test: Dataset) -> list[PredictiveDistribution]:
        """One distribution per test match from its arrays, equal bit for bit to :meth:`predict`."""
        if self.state is None or self.draw is None:
            raise NumericalError("EloModel.predict called before fit")
        rating, arrays = self.state.rating, test.arrays
        team1s, team2s = arrays.teams.T.tolist()
        r1 = np.fromiter(map(rating, team1s), float, test.n)
        r2 = np.fromiter(map(rating, team2s), float, test.n)
        # a rating gap past the largest double is inf, as in predict's float arithmetic
        with np.errstate(over="ignore"):
            latents = rating_delta_to_latent(r1 - r2 + self.home_advantage * arrays.homes)
        p_w, p_d, p_l = _probs_arrays(latents, self.draw.alpha)
        rows = zip(p_w.tolist(), np.minimum(p_d, 1.0).tolist(), p_l.tolist())
        return [PredictiveDistribution(p_w=w, p_d=d, p_l=l) for w, d, l in rows]


def odds_to_probs(odds_w: float, odds_d: float, odds_l: float) -> PredictiveDistribution:
    """Normalize inverse decimal odds; every quote must exceed 1."""
    odds = (odds_w, odds_d, odds_l)
    for o in odds:
        if not (math.isfinite(o) and o > 1.0):
            raise DataError(f"decimal odds must be finite and > 1, got {o!r}")
    inv = [1.0 / o for o in odds]
    total = sum(inv)
    return PredictiveDistribution(
        p_w=inv[0] / total, p_d=inv[1] / total, p_l=inv[2] / total
    )


ODDS_HEADER = ("match_id", "odds_w", "odds_d", "odds_l")


def load_odds_csv(source: str | Path | IO[str]) -> dict[str, tuple[float, float, float]]:
    """Read the odds sidecar; validates quotes but keeps them as odds."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return load_odds_csv(fh)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty odds file: missing header") from None
    if tuple(header) != ODDS_HEADER:
        raise DataError(f"line 1: bad odds header {header!r}, expected {','.join(ODDS_HEADER)}")
    table: dict[str, tuple[float, float, float]] = {}
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != 4:
            raise DataError(f"line {line}: expected 4 fields, got {len(row)}")
        match_id = row[0]
        if match_id in table:
            raise DataError(f"line {line}: duplicate odds for match {match_id!r}")
        try:
            quotes = (float(row[1]), float(row[2]), float(row[3]))
        except ValueError:
            raise DataError(f"line {line}: non-numeric odds in {row[1:]!r}") from None
        try:
            odds_to_probs(*quotes)
        except DataError as exc:
            raise DataError(f"line {line}: {exc}") from None
        table[match_id] = quotes
    return table


@dataclass
class OddsModel:
    """Bookmaker baseline; matches without a quote are skipped upstream."""

    table: dict[str, tuple[float, float, float]]
    name: str = "odds"

    def predict(self, rec: MatchRecord) -> PredictiveDistribution | None:
        quotes = self.table.get(rec.match_id)
        if quotes is None:
            return None
        return odds_to_probs(*quotes)

    def predict_many(self, test: Dataset) -> list[PredictiveDistribution | None]:
        quotes = map(self.table.get, test.arrays.match_ids.tolist())
        return [None if q is None else odds_to_probs(*q) for q in quotes]


def uniform_probs() -> PredictiveDistribution:
    third = 1.0 / 3.0
    return PredictiveDistribution(p_w=third, p_d=third, p_l=third)


@dataclass
class UniformModel:
    name: str = "random"

    def predict(self, rec: MatchRecord) -> PredictiveDistribution:
        return uniform_probs()

    def predict_many(self, test: Dataset) -> list[PredictiveDistribution]:
        return [uniform_probs()] * test.n
