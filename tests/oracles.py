"""Independent oracles that the tests check the served code against.

The weight-space fit is the slow-but-obvious mirror of the kernel
classifier: an explicit Gaussian prior over per-player weights (plus one
home weight), Newton ascent on the log posterior, dense covariance.  For
any dataset small enough to afford it, its predictions must match the
kernel route (Rasmussen & Williams 2006, Sections 2.1 and 3.4), which is
what the equivalence tests pin down.  The pairwise kernel intersects two
matches' sorted index lists, where the served Gram comes from sparse
incidence products.  ``dense_c`` builds as a plain square the matrix C,
which the package only ever holds packed.  The one-match helpers are
one-row calls of the batch functions the package serves.  The Elo fold
and the scorer at the end walk ``Dataset.records`` one match at a time,
where the package reads ``Dataset.arrays``; with the same float arithmetic
in the same order, the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg as sla
from scipy.special import expit

from lineupgp.baselines import rating_delta_to_latent
from lineupgp.data import Dataset, Outcome
from lineupgp.errors import DataError, NumericalError
from lineupgp.evaluation import EvalReport, MatchScore
from lineupgp.gp import (
    Hyperparams,
    LaplacePosterior,
    predict_latent_many,
    quadrature_outcome_probs,
)
from lineupgp.kernel import KernelParams, MatchVector, build_match_vector
from lineupgp.likelihood import (
    DrawParam,
    PredictiveDistribution,
    loglik_derivs_vector,
    loglik_vector,
    sigmoid,
)

_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 100
_STATIONARITY_TOL = 1e-8
_ROUNDING = 8.0 * float(np.finfo(np.float64).eps)


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


def dense_c(post: LaplacePosterior) -> np.ndarray:
    """C = I + U'U with U = W^{1/2} X S^{1/2}: the posterior's (P+1) x (P+1) matrix, dense."""
    parts = post.parts
    u = parts.x.toarray()
    u *= post.sqrt_w[:, None]
    u *= np.sqrt(parts.variances(post.hyper.kernel))
    return np.eye(u.shape[1]) + u.T @ u


def _n_common(x: np.ndarray, y: np.ndarray) -> int:
    """|x ∩ y| for sorted unique index arrays (two-pointer merge)."""
    i = j = n = 0
    nx, ny = len(x), len(y)
    while i < nx and j < ny:
        xi, yj = x[i], y[j]
        if xi == yj:
            n += 1
            i += 1
            j += 1
        elif xi < yj:
            i += 1
        else:
            j += 1
    return n


def signed_overlap(a: MatchVector, b: MatchVector) -> int:
    """<z_a, z_b> over the player part alone; an integer in [-22, 22]."""
    return (
        _n_common(a.plus_indices, b.plus_indices)
        + _n_common(a.minus_indices, b.minus_indices)
        - _n_common(a.plus_indices, b.minus_indices)
        - _n_common(a.minus_indices, b.plus_indices)
    )


def kernel_eval(a: MatchVector, b: MatchVector, p: KernelParams) -> float:
    """k(a, b) by intersecting the index lists."""
    return p.sigma2 * float(signed_overlap(a, b)) + p.sigma2_home * float(a.home * b.home)



def predict_latent(post: LaplacePosterior, test: MatchVector) -> tuple[float, float]:
    """Posterior latent mean and variance for one match vector."""
    mu, var = predict_latent_many(post, test.plus_indices, test.minus_indices, [test.home])
    return float(mu[0]), float(var[0])


def predict_outcomes(post: LaplacePosterior, test: MatchVector) -> PredictiveDistribution:
    """Posterior predictive win/draw/loss probabilities for one match."""
    mu, var = predict_latent(post, test)
    return quadrature_outcome_probs(mu, var, post.hyper.draw)


def log_likelihood(y: Outcome, f: float, d: DrawParam) -> float:
    """log p(y | f, alpha)."""
    val = loglik_vector(np.array([y.code]), np.array([float(f)]), d.alpha)
    return float(val[0])


def log_likelihood_derivs(y: Outcome, f: float, d: DrawParam) -> tuple[float, float]:
    """(d/df, d^2/df^2) of log p(y | f, alpha)."""
    d1, d2 = loglik_derivs_vector(np.array([y.code]), np.array([float(f)]), d.alpha)
    return float(d1[0]), float(d2[0])


def elo_fold_records(
    train: Dataset, k_factor: float, home_advantage: float, initial_rating: float
) -> tuple[dict[str, float], np.ndarray, np.ndarray]:
    """(ratings, pre-match latents, outcome codes) of an Elo fold over ``train.records`` in order."""
    ratings: dict[str, float] = {}
    latents = np.empty(train.n)
    codes = np.empty(train.n, dtype=np.int64)
    score = {1: 1.0, 0: 0.5, -1: 0.0}
    for i, rec in enumerate(train.records):
        r1 = ratings.get(rec.team1, initial_rating)
        r2 = ratings.get(rec.team2, initial_rating)
        latent = rating_delta_to_latent(r1 - r2 + home_advantage * rec.home.sign)
        shift = k_factor * (score[rec.outcome.code] - sigmoid(latent))
        ratings[rec.team1] = r1 + shift
        ratings[rec.team2] = r2 - shift
        latents[i], codes[i] = latent, rec.outcome.code
    return ratings, latents, codes


def loglik_alpha_curvature(codes: np.ndarray, f: np.ndarray, alpha: float) -> np.ndarray:
    """d^2 log p/d alpha^2 per match, from its own four sigmoids."""
    g_w = expit(f - alpha) * expit(alpha - f)
    g_l = expit(-f - alpha) * expit(alpha + f)
    draw = -4.0 * math.exp(-2.0 * alpha) / math.expm1(-2.0 * alpha) ** 2
    return np.where(codes > 0, -g_w, np.where(codes < 0, -g_l, draw - g_w - g_l))


def score_records(
    name: str, test: Dataset, preds: Sequence[PredictiveDistribution | None], clip_floor: float | None = None
) -> EvalReport:
    """The report of one model's predictions, one per record of ``test``; ``None`` skips a match.

    ``clip_floor`` floors each probability, as ``evaluate(..., clip=True)``
    does; without it a zero probability is a NumericalError.
    """
    rows = []
    for rec, probs in zip(test.records, preds, strict=True):
        if probs is None:
            continue
        p = probs.prob(rec.outcome)
        if clip_floor is not None:
            p = max(p, clip_floor)
        elif p <= 0.0:
            raise NumericalError(f"zero probability for match {rec.match_id!r}")
        rows.append(MatchScore(rec.match_id, probs, rec.outcome, -math.log(p)))
    avg = sum(r.loss for r in rows) / len(rows) if rows else math.nan
    return EvalReport(model=name, t=len(rows), avg_log_loss=avg, rows=tuple(rows), skipped=test.n - len(rows))
