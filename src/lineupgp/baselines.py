"""Reference predictors: Elo, bookmaker odds, uniform, weight-space Laplace.

The weight-space fit is the slow-but-obvious mirror of the kernel
classifier: an explicit Gaussian prior over per-player weights (plus one
home weight), Newton ascent on the log posterior, dense covariance.  For
any dataset small enough to afford it, its predictions must match the
kernel route, which is what the equivalence tests pin down.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np
import scipy.linalg as sla
from scipy.special import expit

from .data import Dataset, HomeSide, MatchRecord, Outcome
from .errors import DataError, NumericalError
from .gp import Hyperparams, quadrature_outcome_probs
from .kernel import MatchVector
from .likelihood import (
    DrawParam,
    PredictiveDistribution,
    loglik_derivs_vector,
    loglik_vector,
    outcome_probs,
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
    "WeightSpacePosterior",
    "primal_laplace_fit",
    "primal_laplace_fit_vectors",
]

# one Elo rating point in latent units
ELO_LATENT_SCALE = math.log(10.0) / 400.0

_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 100
_STATIONARITY_TOL = 1e-8
_ROUNDING = 8.0 * float(np.finfo(np.float64).eps)


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
    """Expected score for side 1: 1 / (1 + 10^(-delta/400)), as expit(delta ln10 / 400).

    The logistic form cannot overflow, however large the rating gap.
    """
    delta = r1 - r2 + home_advantage * home.sign
    return float(expit(rating_delta_to_latent(delta)))


def _score(outcome: Outcome) -> float:
    return {1: 1.0, 0: 0.5, -1: 0.0}[outcome.code]


def elo_update(state: EloState, rec: MatchRecord) -> EloState:
    """One functional rating update; total rating mass is conserved."""
    r1 = state.rating(rec.team1)
    r2 = state.rating(rec.team2)
    expected = elo_expected(r1, r2, rec.home, state.home_advantage)
    shift = state.k_factor * (_score(rec.outcome) - expected)
    ratings = dict(state.ratings)
    ratings[rec.team1] = r1 + shift
    ratings[rec.team2] = r2 - shift
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


def _golden_min(fun, lo: float, hi: float, iters: int = 100) -> float:
    """Golden-section minimum of a unimodal function on [lo, hi]."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def fit_elo_alpha(
    latents: np.ndarray,
    codes: np.ndarray,
    lo: float = 1e-4,
    hi: float = 10.0,
) -> DrawParam:
    """Draw margin maximizing ternary likelihood at fixed latents.

    1-D golden-section search on log(alpha) over [log lo, log hi].
    """
    if len(latents) != len(codes):
        raise ValueError("latents and outcome codes must have equal length")

    def neg_loglik(log_alpha: float) -> float:
        return -float(np.sum(loglik_vector(codes, latents, math.exp(log_alpha))))

    best = _golden_min(neg_loglik, math.log(lo), math.log(hi))
    return DrawParam(log_alpha=best)


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
        state = EloState(
            ratings={},
            k_factor=self.k_factor,
            home_advantage=self.home_advantage,
            initial_rating=self.initial_rating,
        )
        latents = np.empty(train.n)
        codes = np.empty(train.n, dtype=np.int64)
        for i, rec in enumerate(train.records):
            delta = (
                state.rating(rec.team1)
                - state.rating(rec.team2)
                + self.home_advantage * rec.home.sign
            )
            latents[i] = rating_delta_to_latent(delta)
            codes[i] = rec.outcome.code
            state = elo_update(state, rec)
        if not all(math.isfinite(r) for r in state.ratings.values()):
            raise NumericalError(
                f"Elo ratings overflowed (k_factor {self.k_factor!r}, "
                f"initial_rating {self.initial_rating!r})"
            )
        self.state = state
        self.draw = fit_elo_alpha(latents, codes)
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

    def predict_many(self, records: Sequence[MatchRecord]) -> list[PredictiveDistribution]:
        return [self.predict(rec) for rec in records]


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

    def predict_many(self, records: Sequence[MatchRecord]) -> list[PredictiveDistribution | None]:
        return [self.predict(rec) for rec in records]


def uniform_probs() -> PredictiveDistribution:
    third = 1.0 / 3.0
    return PredictiveDistribution(p_w=third, p_d=third, p_l=third)


@dataclass
class UniformModel:
    name: str = "random"

    def predict(self, rec: MatchRecord) -> PredictiveDistribution:
        return uniform_probs()

    def predict_many(self, records: Sequence[MatchRecord]) -> list[PredictiveDistribution]:
        return [self.predict(rec) for rec in records]


@dataclass(frozen=True)
class WeightSpacePosterior:
    """Dense Laplace posterior over player weights (plus optional home).

    Intended for small P; the feature dimension is fixed at fit time, so
    match vectors scored here must stay within the fitted registry.
    """

    mean: np.ndarray
    cov: np.ndarray
    num_players: int
    has_home: bool
    hyper: Hyperparams

    def _features(self, vec: MatchVector) -> np.ndarray:
        dim = self.num_players + (1 if self.has_home else 0)
        if vec.plus_indices[-1] >= self.num_players or vec.minus_indices[-1] >= self.num_players:
            raise DataError("match vector indexes players outside the fitted registry")
        x = np.zeros(dim)
        x[vec.plus_indices] = 1.0
        x[vec.minus_indices] = -1.0
        if self.has_home:
            x[-1] = float(vec.home)
        return x

    def predict_latent(self, vec: MatchVector) -> tuple[float, float]:
        x = self._features(vec)
        mu = float(self.mean @ x)
        var = float(x @ self.cov @ x)
        return mu, max(var, 0.0)

    def predict_outcomes(self, vec: MatchVector) -> PredictiveDistribution:
        mu, var = self.predict_latent(vec)
        return quadrature_outcome_probs(mu, var, self.hyper.draw)


def primal_laplace_fit(train: Dataset, hyper: Hyperparams) -> WeightSpacePosterior:
    """Weight-space Laplace fit over a dataset's registry."""
    from .kernel import build_match_vector

    vectors = [build_match_vector(r, train.registry) for r in train.records]
    outcomes = [r.outcome for r in train.records]
    return primal_laplace_fit_vectors(vectors, outcomes, train.num_players, hyper)


def primal_laplace_fit_vectors(
    vectors: Sequence[MatchVector],
    outcomes: Sequence[Outcome],
    num_players: int,
    hyper: Hyperparams,
) -> WeightSpacePosterior:
    """Newton ascent on the weight-space log posterior.

    ``sigma2_home = 0`` pins the home weight at zero by dropping the
    feature (a zero-variance prior), keeping the prior covariance
    invertible.  An empty match list returns the prior itself.
    """
    kp = hyper.kernel
    alpha = hyper.alpha
    has_home = kp.sigma2_home > 0.0
    dim = num_players + (1 if has_home else 0)
    prior_var = np.full(dim, kp.sigma2)
    if has_home:
        prior_var[-1] = kp.sigma2_home
    prior_prec = 1.0 / prior_var

    n = len(vectors)
    if n == 0:
        return WeightSpacePosterior(
            mean=np.zeros(dim),
            cov=np.diag(prior_var),
            num_players=num_players,
            has_home=has_home,
            hyper=hyper,
        )

    x_mat = np.zeros((n, dim))
    for i, vec in enumerate(vectors):
        if vec.plus_indices[-1] >= num_players or vec.minus_indices[-1] >= num_players:
            raise DataError("match vector indexes players outside the registry")
        x_mat[i, vec.plus_indices] = 1.0
        x_mat[i, vec.minus_indices] = -1.0
        if has_home:
            x_mat[i, -1] = float(vec.home)
    codes = np.array([o.code for o in outcomes], dtype=np.int64)

    s = np.zeros(dim)
    f = x_mat @ s
    obj = float(np.sum(loglik_vector(codes, f, alpha)))
    hessian = np.zeros((dim, dim))
    converged = False
    last_delta = math.inf
    for _ in range(_NEWTON_MAX_ITER):
        d1, d2 = loglik_derivs_vector(codes, f, alpha)
        grad = x_mat.T @ d1 - prior_prec * s
        hessian = (x_mat.T * (-d2)) @ x_mat
        hessian[np.diag_indices_from(hessian)] += prior_prec
        try:
            chol = sla.cho_factor(hessian, lower=True)
        except sla.LinAlgError as exc:
            raise NumericalError(f"weight-space Hessian factorization failed: {exc}") from None
        step = sla.cho_solve(chol, grad)

        # the full step is also taken when the objective falls by no more
        # than rounding noise; the gradient test below decides convergence
        floor = obj - _ROUNDING * max(1.0, abs(obj))
        t = 1.0
        improved = False
        while t >= 1e-12:
            s_try = s + t * step
            f_try = x_mat @ s_try
            obj_try = float(np.sum(loglik_vector(codes, f_try, alpha))) - 0.5 * float(
                (s_try * prior_prec) @ s_try
            )
            if obj_try > obj or (t == 1.0 and obj_try >= floor):
                improved = True
                break
            t *= 0.5
        if not improved:
            converged = bool(np.max(np.abs(grad)) <= 1e-6 * max(1.0, float(np.max(np.abs(s)))))
            break
        last_delta = obj_try - obj
        s, f, obj = s_try, f_try, obj_try
        d1_new, _ = loglik_derivs_vector(codes, f, alpha)
        grad_new = x_mat.T @ d1_new - prior_prec * s
        if last_delta < _NEWTON_TOL and np.max(np.abs(grad_new)) <= _STATIONARITY_TOL * max(
            1.0, float(np.max(np.abs(s)))
        ):
            converged = True
            break
    if not converged:
        raise NumericalError(
            f"weight-space Newton did not converge (final |dObj| = {last_delta:.3e})"
        )

    d1, d2 = loglik_derivs_vector(codes, f, alpha)
    hessian = (x_mat.T * (-d2)) @ x_mat
    hessian[np.diag_indices_from(hessian)] += prior_prec
    chol = sla.cho_factor(hessian, lower=True)
    cov = sla.cho_solve(chol, np.eye(dim))
    return WeightSpacePosterior(
        mean=s,
        cov=cov,
        num_players=num_players,
        has_home=has_home,
        hyper=hyper,
    )
