"""Gaussian process outcome classifier fitted with Laplace's method.

The latent match quality ``f`` has a zero-mean GP prior with the sparse
lineup kernel; the ternary likelihood ties it to observed outcomes.  The
posterior mode is found by damped Newton ascent on

    Psi(f) = log p(y | f) - 0.5 * f' K^{-1} f

parametrized through dual coefficients ``a`` with ``f = K a`` so no solve
against K is ever needed.  Each Newton step, the evidence and prediction
use the well-conditioned matrix B = I + W^{1/2} K W^{1/2} (W is the negated
likelihood Hessian, nonnegative because the likelihood is log-concave).
B is factored one of two ways, chosen by the shape of the training set:

* N <= P+1 matches (P players): the dense N x N Cholesky factor of B;
* N > P+1: the kernel has rank <= P+1, K = X S X' with X = [Z | h] and
  S = diag(sigma2, ..., sigma2, sigma2_home), so B = I + U U' with
  U = W^{1/2} X S^{1/2}, solved by Woodbury through the Cholesky factor of
  the (P+1) x (P+1) matrix C = I + U'U, with log|B| = log|C|.

B and C are each I plus a positive semidefinite matrix, so every eigenvalue
of either is >= 1 (Rasmussen & Williams 2006, Section 3.4): their Cholesky
factors exist for any hyperparameters, even where K is singular, as when two
matches field the same lineups at the same venue.  So K is exactly
sigma2 Z Z' + sigma2_home h h', with no jitter on its diagonal.

The route is chosen once, from the training set's shape.  The posterior is
one record, :class:`LaplacePosterior`, that one function builds for a fit,
each evaluation of the evidence search and load_model.

On the low-rank route the posterior serves from weight space: the weights
w ~ N(0, S) with f = X w have the Laplace posterior mean
m = S X' grad log p(y|f_hat) and covariance S^{1/2} C^{-1} S^{1/2}, exactly,
so a test match x gets mean x'm and variance
|L_C^{-1} S^{1/2} x|^2, with no N x N array.  On the dense route it serves
from the dual form through L_B.  Players unseen in training add their prior
variance and nothing to the mean on either route.

Test matches are scored in batches: their lineups come in as registry-index
arrays, any index past the training registry standing for an unseen player,
and each block of up to ``_BLOCK`` matches costs one triangular solve with
a column per match (Rasmussen & Williams 2006, Algorithm 3.2, with a matrix
right-hand side) and one Gauss-Hermite quadrature over all its matches.
Every single-match entry point is a one-row call of that batch.

The hyperparameters (sigma2, sigma2_home, alpha) can be set by maximizing
the evidence: L-BFGS-B over their logs, in a fixed box, on the analytic
gradient of the Laplace evidence (Rasmussen & Williams 2006, Algorithm 5.1,
with the implicit term through the mode).  Its route-specific parts come
from the inverse of whichever factor Newton built, C^{-1} or B^{-1}, so on
the low-rank route a gradient too builds no N x N array.

A model file stores the training set, hyperparameters, mode and dual
coefficients; loading rebuilds the record from them through the
function a fit ends with, so under the same BLAS threads it is the fitted
posterior bit for bit.
"""

from __future__ import annotations

import base64
import json
import logging
import math
import sys
from collections import ChainMap
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .data import Dataset, MatchRecord, Outcome
from .errors import DataError, NumericalError
from .kernel import (
    PLAYERS_PER_SIDE,
    SELF_OVERLAP,
    KernelParams,
    MatchVector,
    build_match_vector,
    gram,
    incidence,
)
from .likelihood import (
    DrawParam,
    PredictiveDistribution,
    _probs_arrays,
    loglik_alpha_derivs,
    loglik_derivs_vector,
    loglik_vector,
)

logger = logging.getLogger(__name__)

__all__ = [
    "Hyperparams",
    "LaplacePosterior",
    "GPModel",
    "fit",
    "log_marginal",
    "predict_latent",
    "predict_latent_many",
    "predict_outcomes",
    "quadrature_outcome_probs",
    "optimize_hyperparams",
    "train_model",
    "save_model",
    "load_model",
]

MODEL_MAGIC = "lineupgp/model"
MODEL_VERSION = 4

_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 100
# the posterior's published stationarity bound, and the tighter one Newton
# aims for while its steps still raise Psi
_STATIONARITY_BOUND = 1e-6
_STATIONARITY_TOL = 1e-8

_GH_POINTS = 32
_gh_nodes, _gh_weights = np.polynomial.hermite.hermgauss(_GH_POINTS)
_gh_weights = _gh_weights / math.sqrt(math.pi)

# test matches per batch solve: memory stays O(_BLOCK * max(N, P)) for any test set
_BLOCK = 1024


@dataclass(frozen=True)
class Hyperparams:
    """Kernel scales plus the draw margin."""

    kernel: KernelParams
    draw: DrawParam

    @classmethod
    def create(
        cls,
        sigma2: float = 1.0,
        sigma2_home: float = 1.0,
        alpha: float = 0.5,
    ) -> "Hyperparams":
        return cls(
            kernel=KernelParams(sigma2=sigma2, sigma2_home=sigma2_home),
            draw=DrawParam.from_alpha(alpha),
        )

    @property
    def alpha(self) -> float:
        return self.draw.alpha


# a fall in Psi within this share of |Psi| is rounding noise
_ROUNDING = 8.0 * float(np.finfo(np.float64).eps)


def _chol_upper(sym: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor U (U'U = sym) of a C-order matrix held in its lower triangle.

    ``sym.T`` is F-contiguous, so LAPACK factors it in place, and ``U.T`` is
    the lower factor in C order.  The caller checks finiteness.  Every matrix
    factored here is >= I, so a failure means an entry overflowed.
    """
    try:
        return sla.cholesky(sym.T, lower=False, overwrite_a=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise NumericalError(f"Cholesky factorization failed: {exc}") from None


@dataclass(frozen=True)
class _BFactor:
    """B = I + W^{1/2} K W^{1/2} factored: ``solve(v)`` is B^{-1} v.

    ``upper`` is the upper Cholesky factor of C on the low-rank route, of B
    on the dense one.
    """

    solve: Callable[[np.ndarray], np.ndarray]
    half_logdet: float
    upper: np.ndarray


@dataclass(frozen=True)
class _LowRankGram:
    """K = X diag(s) X' for the sparse features X = [Z | h] (N x (P+1)), of rank <= P+1.

    ``pairs`` (sparse, (P+1)^2 x N) maps match weights u to the lower
    triangle of X' diag(u) X, flattened in C order.  K itself is singular
    whenever N > P+1; only C = I + S^{1/2} X' W X S^{1/2} >= I is factored.
    """

    x: sp.csr_matrix
    xt: sp.csc_matrix
    pairs: sp.csc_matrix
    s: np.ndarray

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.x @ (self.s * (self.xt @ v))

    def factor_b(self, sw: np.ndarray) -> _BFactor:
        """B = I + U U' by Woodbury through C = I + U'U (see the module docstring).

        B^{-1} v = v - W^{1/2} X S^{1/2} C^{-1} S^{1/2} X' W^{1/2} v and log|B| = log|C|.
        """
        rs = np.sqrt(self.s)
        p1 = len(rs)
        c = (self.pairs @ (sw * sw)).reshape(p1, p1)
        c *= rs[:, None]
        c *= rs
        c[np.diag_indices(p1)] += 1.0
        upper = _chol_upper(c)

        def solve(v: np.ndarray) -> np.ndarray:
            t = sla.cho_solve((upper, False), rs * (self.xt @ (sw * v)), check_finite=False)
            return v - sw * (self.x @ (rs * t))

        return _BFactor(solve, float(np.sum(np.log(np.diagonal(upper)))), upper)


def _factor_b(k: np.ndarray | _LowRankGram, sw: np.ndarray) -> _BFactor:
    if not np.all(np.isfinite(sw)):
        raise NumericalError("non-finite likelihood curvature in the Laplace fit")
    if isinstance(k, _LowRankGram):
        return k.factor_b(sw)
    b = k * sw[:, None]
    b *= sw
    b[np.diag_indices_from(b)] += 1.0
    upper = _chol_upper(b)
    return _BFactor(
        lambda v: sla.cho_solve((upper, False), v, check_finite=False),
        float(np.sum(np.log(np.diagonal(upper)))),
        upper,
    )


@dataclass(frozen=True)
class _TrainParts:
    """The training set as arrays plus the hyperparameter-free factors of its Gram.

    With more matches than features (N > P+1) the Gram is kept in low-rank
    form, as the features X = [Z | h] and their pair products; otherwise as
    the dense overlap Z Z', with the home term added from ``homes``.
    """

    z: sp.csr_matrix
    homes: np.ndarray
    codes: np.ndarray
    x: sp.csr_matrix | None = None
    pairs: sp.csc_matrix | None = None
    overlap: np.ndarray | None = None

    def gram(self, kp: KernelParams) -> np.ndarray | _LowRankGram:
        """K, low-rank when the parts are."""
        if self.pairs is None:
            return gram(self.overlap, self.homes, self.homes, kp)
        # diag(S): the prior variances of the P player weights and the home weight
        s = np.full(self.x.shape[1], kp.sigma2)
        s[-1] = kp.sigma2_home
        # one transposed view per Gram: building it per product costs more than the product
        return _LowRankGram(self.x, self.x.T, self.pairs, s)


def _dataset_parts(train: Dataset) -> _TrainParts:
    # lineups straight from the registry: a MatchRecord already holds two
    # disjoint lineups of 11 distinct players, so a lookup is all a row needs
    registry = train.registry
    try:
        lineups = [registry[pid] for rec in train.records for pid in rec.players]
    except KeyError as exc:
        pid = exc.args[0]
        rec = next(r for r in train.records if pid in r.players)
        raise DataError(f"match {rec.match_id!r}: player {pid!r} is not in the registry") from None
    rows = np.array(lineups, dtype=np.int64).reshape(-1, SELF_OVERLAP)
    homes = np.array([r.home.sign for r in train.records], dtype=np.int64)
    codes = np.array([r.outcome.code for r in train.records], dtype=np.int64)
    return _make_parts(*np.hsplit(rows, 2), homes, codes, train.num_players)


def _make_parts(
    plus: np.ndarray, minus: np.ndarray, homes: np.ndarray, codes: np.ndarray, width: int
) -> _TrainParts:
    """Parts of N matches: (N, 11) lineup indices below ``width``, home signs, outcome codes."""
    z = incidence(plus, minus, width)
    n, p = z.shape
    # the route rule: low rank when there are more matches than features X = [Z | h]
    if n <= p + 1:
        # exact integer counts either way; float operands spare an N x N cast
        zf = z.astype(np.float64)
        return _TrainParts(z, homes, codes, overlap=(zf @ zf.T).toarray())
    # row i of X: its 22 players in increasing column order, then the home
    # column (kept when zero), so every pair j >= k of a row's entries lands in
    # the lower triangle of X' diag(u) X; narrow ints keep the pair arrays cheap
    idx = np.int32 if (p + 1) ** 2 <= np.iinfo(np.int32).max else np.int64
    cols = np.hstack([z.indices.reshape(n, SELF_OVERLAP), np.full((n, 1), p)]).astype(idx)
    vals = np.hstack([z.data.reshape(n, SELF_OVERLAP), homes[:, None]]).astype(np.int8)
    starts = np.arange(n + 1)
    x = sp.csr_matrix(
        (vals.astype(np.float64).ravel(), cols.ravel(), starts * cols.shape[1]), shape=(n, p + 1)
    )
    hi, lo = np.tril_indices(cols.shape[1])
    pairs = sp.csc_matrix(
        (
            (vals[:, hi] * vals[:, lo]).ravel().astype(np.float64),
            (cols[:, hi] * idx(p + 1) + cols[:, lo]).ravel(),
            starts * len(hi),
        ),
        shape=((p + 1) ** 2, n),
    )
    return _TrainParts(z, homes, codes, x=x, pairs=pairs)


def _psi(codes: np.ndarray, f: np.ndarray, a: np.ndarray, alpha: float) -> float:
    return float(np.sum(loglik_vector(codes, f, alpha))) - 0.5 * float(a @ f)


def _newton_mode(
    k: np.ndarray | _LowRankGram,
    codes: np.ndarray,
    alpha: float,
    a0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Damped Newton ascent; returns (f_hat, a_hat, iterations).

    ``k`` is the Gram, dense or low-rank.  Starts from ``a0`` if given and
    its Psi beats that of a = 0 (hence f = 0), else from a = 0.  The
    objective is strictly concave in f, so every start reaches the same mode.
    """
    n = len(codes)
    a = np.zeros(n)
    f = np.zeros(n)
    psi = _psi(codes, f, a, alpha)
    if a0 is not None:
        a_warm = np.asarray(a0, dtype=float)
        f_warm = k @ a_warm
        psi_warm = _psi(codes, f_warm, a_warm, alpha)
        if psi_warm > psi:
            a, f, psi = a_warm, f_warm, psi_warm
    d1, d2 = loglik_derivs_vector(codes, f, alpha)
    last_delta = math.inf
    for iteration in range(1, _NEWTON_MAX_ITER + 1):
        w = -d2
        sw = np.sqrt(w)
        b_vec = w * f + d1
        step = b_vec - sw * _factor_b(k, sw).solve(sw * (k @ b_vec)) - a
        k_step = k @ step

        # a full step whose Psi falls by no more than rounding noise is
        # taken; the stationarity test below then decides convergence
        floor = psi - _ROUNDING * max(1.0, abs(psi))
        t = 1.0
        while True:
            a_try = a + t * step
            f_try = f + t * k_step
            psi_try = _psi(codes, f_try, a_try, alpha)
            if psi_try > psi or (t == 1.0 and psi_try >= floor):
                break
            t *= 0.5
            if t < 1e-12:
                # ascent exhausted at floating-point resolution
                if _stationary(f, k, d1, _STATIONARITY_BOUND):
                    return f, a, iteration - 1
                raise NumericalError(
                    "Newton ascent stalled away from stationarity "
                    f"(|dPsi| floor reached after {iteration - 1} iterations)"
                )

        last_delta = psi_try - psi
        a, f, psi = a_try, f_try, psi_try
        d1, d2 = loglik_derivs_vector(codes, f, alpha)
        if last_delta < _NEWTON_TOL and _stationary(f, k, d1, _STATIONARITY_TOL):
            return f, a, iteration
        # a full step taken under the rounding rule: Psi cannot rise further,
        # so the residual may stall between the two bounds
        if last_delta <= 0.0 and _stationary(f, k, d1, _STATIONARITY_BOUND):
            return f, a, iteration
    raise NumericalError(
        f"Laplace Newton did not converge after {_NEWTON_MAX_ITER} iterations "
        f"(final |dPsi| = {last_delta:.3e})"
    )


def _stationary(f: np.ndarray, k: np.ndarray | _LowRankGram, d1: np.ndarray, tol: float) -> bool:
    """The mode's fixed point f = K d1, to ``tol`` relative to max(1, max |f|)."""
    return float(np.max(np.abs(f - k @ d1))) <= tol * max(1.0, float(np.max(np.abs(f))))


@dataclass(frozen=True)
class LaplacePosterior:
    """Laplace approximation at the unique mode of Psi, and everything built there.

    ``parts`` is the training set (signed incidence ``parts.z``, N x P, home
    signs ``parts.homes``, outcome codes ``parts.codes``) and ``gram`` its K,
    dense or low-rank; ``mode = gram @ dual_coef``.  ``grad`` is the
    likelihood gradient at the mode, ``sqrt_w`` the square root of its negated
    Hessian and ``loglik`` log p(y|mode).  ``factor`` holds
    B = I + W^{1/2} K W^{1/2} factored by the route: with N > P+1 matches
    (``low_rank``) through the (P+1) x (P+1) matrix C = I + S^{1/2} X' W X S^{1/2},
    otherwise as B.  Both are >= I, so neither needs jitter on K, however
    singular K is.  ``_at_mode`` builds it; a model file saves no field that
    it derives.
    """

    parts: _TrainParts
    hyper: Hyperparams
    gram: np.ndarray | _LowRankGram
    mode: np.ndarray
    dual_coef: np.ndarray
    grad: np.ndarray
    sqrt_w: np.ndarray
    factor: _BFactor
    loglik: float
    newton_iters: int

    @property
    def n(self) -> int:
        return len(self.mode)

    @property
    def low_rank(self) -> bool:
        """N > P+1: ``chol`` factors C and prediction runs in weight space."""
        return isinstance(self.gram, _LowRankGram)

    @property
    def chol(self) -> np.ndarray:
        """The lower Cholesky factor, of C or of B, in C order."""
        return self.factor.upper.T

    @property
    def evidence(self) -> float:
        """Laplace evidence: log p(y|f_hat) - 0.5 f_hat' K^{-1} f_hat - 0.5 log|B|."""
        return self.loglik - 0.5 * float(self.mode @ self.dual_coef) - self.factor.half_logdet

    @cached_property
    def weight_mean(self) -> np.ndarray:
        """m = S X' grad (low-rank route): mean of the P player weights, then the home weight."""
        return self.gram.s * np.append(self.parts.z.T @ self.grad, self.parts.homes @ self.grad)


def _laplace(
    parts: _TrainParts, hyper: Hyperparams, a0: np.ndarray | None = None
) -> LaplacePosterior:
    """Newton to the mode from ``a0`` (see _newton_mode), then everything built there."""
    k = parts.gram(hyper.kernel)
    f_hat, a_hat, iters = _newton_mode(k, parts.codes, hyper.alpha, a0)
    return _at_mode(parts, hyper, k, f_hat, a_hat, iters)


def _at_mode(
    parts: _TrainParts,
    hyper: Hyperparams,
    k: np.ndarray | _LowRankGram,
    f: np.ndarray,
    a: np.ndarray,
    iters: int,
) -> LaplacePosterior:
    """The posterior at the mode ``f = k @ a``: grad log p, W^{1/2}, log p(y|f) and B factored.

    Fit ends here and load_model rebuilds here, so the two agree bit for bit.
    """
    d1, d2 = loglik_derivs_vector(parts.codes, f, hyper.alpha)
    sqrt_w = np.sqrt(-d2)
    loglik = float(np.sum(loglik_vector(parts.codes, f, hyper.alpha)))
    return LaplacePosterior(parts, hyper, k, f, a, d1, sqrt_w, _factor_b(k, sqrt_w), loglik, iters)


def fit(train: Dataset, hyper: Hyperparams) -> LaplacePosterior:
    """Laplace fit on a training dataset; needs at least one match."""
    if train.n < 1:
        raise DataError("cannot fit on an empty training set")
    return _laplace(_dataset_parts(train), hyper)


def log_marginal(post: LaplacePosterior) -> float:
    """Laplace evidence: log p(y|f_hat) - 0.5 f_hat' K^{-1} f_hat - 0.5 log|B|."""
    return post.evidence


def _latent_block(
    post: LaplacePosterior, plus: np.ndarray, minus: np.ndarray, homes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unclamped (mu, var) of one block of test matches (see predict_latent_many)."""
    kp = post.hyper.kernel
    z = post.parts.z
    p = z.shape[1]
    t = len(homes)
    # rows: the P players, the home feature, then one row that takes every
    # unseen player and is dropped
    x = np.zeros((p + 2, t))
    cols = np.arange(t)[:, None]
    x[np.where(plus < p, plus, p + 1), cols] = 1.0
    x[np.where(minus < p, minus, p + 1), cols] = -1.0
    x[p] = homes
    # chol is finite: load_model, like fit, factors it from a finite B (or C)
    if post.low_rank:
        x = x[: p + 1]
        mu = x.T @ post.weight_mean
        x *= np.sqrt(post.gram.s)[:, None]
        v = sla.solve_triangular(post.chol, x, lower=True, check_finite=False)
        # each player unseen in training adds its prior variance
        unseen = np.sum(plus >= p, axis=1) + np.sum(minus >= p, axis=1)
        return mu, np.einsum("ij,ij->j", v, v) + kp.sigma2 * unseen
    # in C order, like every Gram: the BLAS products below round by layout
    overlap = np.ascontiguousarray((z @ x[:p]).T)
    k_star = gram(overlap, homes, post.parts.homes, kp)
    mu = k_star @ post.grad
    v = sla.solve_triangular(
        post.chol, post.sqrt_w[:, None] * k_star.T, lower=True, check_finite=False
    )
    k_ss = SELF_OVERLAP * kp.sigma2 + kp.sigma2_home * homes.astype(np.float64) ** 2
    return mu, k_ss - np.einsum("ij,ij->j", v, v)


def _blocks(t: int) -> list[slice]:
    return [slice(lo, lo + _BLOCK) for lo in range(0, t, _BLOCK)]


def predict_latent_many(
    post: LaplacePosterior, plus: np.ndarray, minus: np.ndarray, homes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior latent means and variances of T test matches at once.

    ``plus`` and ``minus`` are (T, 11) registry indices of the two lineups and
    ``homes`` the T home signs.  An index at or past the training registry's
    size P is a player unseen in training, which adds its prior variance and
    nothing to the mean.  Scored in blocks of ``_BLOCK`` matches.
    """
    homes = np.asarray(homes, dtype=np.int64)
    plus = np.asarray(plus, dtype=np.int64).reshape(len(homes), PLAYERS_PER_SIDE)
    minus = np.asarray(minus, dtype=np.int64).reshape(plus.shape)
    mu = np.empty(len(homes))
    var = np.empty(len(homes))
    for rows in _blocks(len(homes)):
        mu[rows], var[rows] = _latent_block(post, plus[rows], minus[rows], homes[rows])
    bad = var < -1e-8
    if np.any(bad):
        logger.warning(
            "clamping %d negative predictive variance(s), most negative %g",
            int(np.sum(bad)),
            float(np.min(var)),
        )
    return mu, np.maximum(var, 0.0)


def predict_latent(post: LaplacePosterior, test: MatchVector) -> tuple[float, float]:
    """Posterior latent mean and variance for one match vector."""
    mu, var = predict_latent_many(post, test.plus_indices, test.minus_indices, [test.home])
    return float(mu[0]), float(var[0])


def _quadrature(mu: np.ndarray, var: np.ndarray, alpha: float) -> np.ndarray:
    """(T, 3) win/draw/loss probabilities under f* ~ Normal(mu, var), in blocks.

    Each of the three is integrated by 32-node Gauss-Hermite quadrature and
    the triple renormalized to sum to one; ``var = 0`` rows take the exact
    point evaluation, as :func:`outcome_probs`.
    """
    out = np.empty((len(mu), 3))
    for rows in _blocks(len(mu)):
        m, v = mu[rows], var[rows]
        x = m[:, None] + np.sqrt(2.0 * v)[:, None] * _gh_nodes
        bar = np.stack(_probs_arrays(x, alpha), axis=1) @ _gh_weights
        total = bar[:, 0] + bar[:, 1] + bar[:, 2]
        bar /= total[:, None]
        exact = v == 0.0
        if np.any(exact):
            p_w, p_d, p_l = _probs_arrays(m[exact], alpha)
            bar[exact] = np.stack([p_w, np.minimum(p_d, 1.0), p_l], axis=1)
        out[rows] = bar
    return out


def _distributions(probs: np.ndarray) -> list[PredictiveDistribution]:
    return [PredictiveDistribution(p_w=w, p_d=d, p_l=l) for w, d, l in probs.tolist()]


def quadrature_outcome_probs(mu: float, var: float, d: DrawParam) -> PredictiveDistribution:
    """Outcome probabilities under f* ~ Normal(mu, var), by 32-node quadrature.

    ``var = 0`` returns the exact point evaluation; otherwise the three
    components are integrated separately and renormalized to sum to one.
    """
    if var < 0.0:
        raise ValueError(f"variance must be >= 0, got {var!r}")
    (probs,) = _distributions(_quadrature(np.array([mu], float), np.array([var], float), d.alpha))
    return probs


def predict_outcomes(post: LaplacePosterior, test: MatchVector) -> PredictiveDistribution:
    """Posterior predictive win/draw/loss probabilities for one match."""
    mu, var = predict_latent(post, test)
    return quadrature_outcome_probs(mu, var, post.hyper.draw)


def _inverse_from_upper(upper: np.ndarray) -> np.ndarray:
    """A^{-1} from the upper Cholesky factor of A, by LAPACK dpotri."""
    inv, info = sla.lapack.dpotri(upper, lower=0)
    if info != 0:
        raise NumericalError(f"dpotri failed (info {info}) inverting a Cholesky factor")
    # dpotri fills the upper triangle only
    return np.triu(inv) + np.triu(inv, 1).T


def _posterior_traces(post: LaplacePosterior) -> tuple[np.ndarray, float, float]:
    """The parts of the evidence gradient that need the inverse of B (or of C).

    Returns diag(Sigma_f) with Sigma_f = (K^{-1} + W)^{-1}, then tr(R K_z) and
    tr(R K_h), where R = W^{1/2} B^{-1} W^{1/2} and K_z = sigma2 Z Z',
    K_h = sigma2_home h h' are the two scaled parts of the Gram.
    """
    inv = _inverse_from_upper(post.factor.upper)
    k = post.gram
    if post.low_rank:
        # with C^{-1} from L_C and T = S^{1/2} C^{-1} S^{1/2}: Sigma_f = X T X',
        #   X' R X = S^{-1/2} (I - C^{-1}) S^{-1/2}, so for dS = S on one block
        #   of weights and 0 elsewhere, tr(R X dS X') = sum of 1 - C^{-1}_jj
        #   over the block: the share of each prior variance the data removes
        rs = np.sqrt(k.s)
        t = inv * rs[:, None]
        t *= rs
        # x_i' T x_i for every training row from the pair products of its entries
        t_low = 2.0 * np.tril(t, -1)
        t_low[np.diag_indices_from(t_low)] = np.diagonal(t)
        explained = 1.0 - np.diagonal(inv)
        return k.pairs.T @ t_low.ravel(), float(np.sum(explained[:-1])), float(explained[-1])
    sw = post.sqrt_w
    r = inv * sw[:, None]
    r *= sw
    sigma_f = np.diagonal(k) - np.einsum("ij,ij->i", k @ r, k)
    kp, h = post.hyper.kernel, post.parts.homes.astype(np.float64)
    return (
        sigma_f,
        kp.sigma2 * float(np.sum(r * post.parts.overlap)),
        kp.sigma2_home * float(h @ r @ h),
    )


def _evidence_gradient(post: LaplacePosterior) -> np.ndarray:
    """d evidence / d(log sigma2, log sigma2_home, log alpha) at the posterior's mode.

    Rasmussen & Williams (2006), Algorithm 5.1.  For a kernel scale with
    dK = dK/d log(scale): the explicit term 0.5 d1' dK d1 - 0.5 tr(R dK), plus
    the implicit term through the mode s2'(b - K R b) with b = dK d1 and
    s2 = -0.5 diag(Sigma_f) * dW/df.  For alpha: the explicit term
    sum d log p/d alpha - 0.5 diag(Sigma_f)' dW/d alpha, and b = K d(d1)/d alpha.
    """
    hyper, parts = post.hyper, post.parts
    kp = hyper.kernel
    k, sw, d1 = post.gram, post.sqrt_w, post.grad
    sigma_f, tr_z, tr_h = _posterior_traces(post)
    dlp, dd1, dw_alpha, dw_f = loglik_alpha_derivs(parts.codes, post.mode, hyper.alpha)
    s2 = -0.5 * sigma_f * dw_f

    def implicit(b: np.ndarray) -> float:
        # s2' df_hat, with df_hat = (I + K W)^{-1} b = b - K R b
        return float(s2 @ (b - k @ (sw * post.factor.solve(sw * b))))

    zd = parts.z.T @ d1
    hd = float(parts.homes @ d1)
    g_sigma2 = 0.5 * kp.sigma2 * float(zd @ zd) - 0.5 * tr_z + implicit(kp.sigma2 * (parts.z @ zd))
    g_home = 0.5 * kp.sigma2_home * hd * hd - 0.5 * tr_h + implicit(kp.sigma2_home * hd * parts.homes)
    g_alpha = float(np.sum(dlp)) - 0.5 * float(sigma_f @ dw_alpha) + implicit(k @ dd1)
    return np.array([g_sigma2, g_home, hyper.alpha * g_alpha])


# the search box over (log sigma2, log sigma2_home, log alpha)
_LOG_SCALE_BOUNDS = (math.log(1e-12), 3.0)
_SEARCH_BOUNDS = (_LOG_SCALE_BOUNDS, _LOG_SCALE_BOUNDS, (-5.0, 2.0))
# L-BFGS-B's stopping tests, on the evidence per match: scipy's defaults
# (ftol 2.2e-9, gtol 1e-5) stop up to 2e-5 short of the optimum of a
# 600-match league
_SEARCH_OPTIONS = {"ftol": 1e-12, "gtol": 1e-8}


class _BudgetExhausted(Exception):
    pass


def optimize_hyperparams(
    train: Dataset,
    init: Hyperparams,
    budget: int = 200,
) -> Hyperparams:
    """Evidence maximization over (log sigma2, log sigma2_home, log alpha).

    One L-BFGS-B run on the analytic evidence gradient, in the box
    ``_SEARCH_BOUNDS``, from ``init`` clipped into it (sigma2_home = 0 starts
    at the lower bound).  ``budget`` caps the number of evidence evaluations,
    the init's included; L-BFGS-B may stop sooner on its own tests.  Each
    evaluation's Newton starts from the mode of the one before.  An evaluation
    that fails (NumericalError) ends the search.  Deterministic given inputs;
    the init is evaluated with the caller's exact object, and the best point
    evaluated is returned, so the result's evidence is never below the init's.
    One INFO log line reports the evaluations used, why the search stopped,
    and the evidence at the init and at the point found.
    """
    # only the search needs scipy.optimize, and predict never searches
    import scipy.optimize

    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget!r}")
    if train.n < 1:
        raise DataError("cannot optimize on an empty training set")
    parts = _dataset_parts(train)

    theta0 = np.array(
        [
            math.log(init.kernel.sigma2),
            math.log(max(init.kernel.sigma2_home, 1e-12)),
            init.draw.log_alpha,
        ]
    )

    def hyper_at(theta: np.ndarray) -> Hyperparams:
        return Hyperparams(
            kernel=KernelParams(sigma2=math.exp(theta[0]), sigma2_home=math.exp(theta[1])),
            draw=DrawParam(log_alpha=float(theta[2])),
        )

    used = 0
    init_ev = best_ev = -math.inf
    best = init
    warm: np.ndarray | None = None

    def evaluate(h: Hyperparams) -> LaplacePosterior:
        nonlocal used, init_ev, best_ev, best, warm
        used += 1
        post = _laplace(parts, h, warm)
        # the next evaluation's Newton starts from this mode
        warm = post.dual_coef
        if h is init:
            init_ev = post.evidence
        if post.evidence > best_ev:
            best_ev, best = post.evidence, h
        if used == budget:
            # a gradient here could only lead to an evaluation past the budget
            raise _BudgetExhausted
        return post

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        # round-tripping init through exp(log(.)) can slip an ulp, so its
        # point keeps the caller's exact object
        h = init if np.array_equal(theta, theta0) else hyper_at(theta)
        post = evaluate(h)
        # per match: L-BFGS-B's first trial step is the whole gradient, and
        # the gradient of the whole evidence grows with N; at N = 600 that
        # step reaches the box's corners, where Newton can fail
        return -post.evidence / train.n, -_evidence_gradient(post) / train.n

    x0 = np.clip(theta0, *np.array(_SEARCH_BOUNDS).T)
    try:
        if not np.array_equal(x0, theta0):
            # an init outside the box is still a candidate
            evaluate(init)
        stop = scipy.optimize.minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=_SEARCH_BOUNDS,
            options=_SEARCH_OPTIONS,
        ).message
    except _BudgetExhausted:
        stop = "evaluation budget used up"
    except NumericalError as exc:
        stop = f"an evaluation failed: {exc}"
    logger.info(
        "evidence search: %d of %d evaluations; stop: %s; evidence %.6f at init, %.6f found",
        used,
        budget,
        stop,
        init_ev,
        best_ev,
    )
    return best


@dataclass
class GPModel:
    """Fitted posterior plus the registry needed to score new records.

    A player unseen in training carries zero covariance with every training
    match, so scoring here matches scoring under the train/test union
    registry.
    """

    posterior: LaplacePosterior
    registry: dict[str, int]
    name: str = "gp"

    def vector_for(self, rec: MatchRecord) -> MatchVector:
        """The record's match vector; unseen players take indices from P up, in id order."""
        fresh = sorted(set(rec.players).difference(self.registry))
        extra = {pid: len(self.registry) + i for i, pid in enumerate(fresh)}
        return build_match_vector(rec, ChainMap(self.registry, extra))

    def _rows(self, records: Sequence[MatchRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(plus, minus, homes) of the records, an unseen player at index P."""
        get, p = self.registry.get, self.posterior.parts.z.shape[1]
        lineups = np.array(
            [get(pid, p) for rec in records for pid in rec.players], dtype=np.int64
        ).reshape(-1, SELF_OVERLAP)
        homes = np.array([rec.home.sign for rec in records], dtype=np.int64)
        return lineups[:, :PLAYERS_PER_SIDE], lineups[:, PLAYERS_PER_SIDE:], homes

    def predict_many(self, records: Sequence[MatchRecord]) -> list[PredictiveDistribution]:
        """One predictive distribution per record, scored in one batch."""
        mu, var = predict_latent_many(self.posterior, *self._rows(records))
        return _distributions(_quadrature(mu, var, self.posterior.hyper.alpha))

    def predict_latent(self, rec: MatchRecord) -> tuple[float, float]:
        mu, var = predict_latent_many(self.posterior, *self._rows([rec]))
        return float(mu[0]), float(var[0])

    def predict(self, rec: MatchRecord) -> PredictiveDistribution:
        return self.predict_many([rec])[0]


def train_model(
    train: Dataset,
    hyper: Hyperparams,
    *,
    optimize: bool = False,
    budget: int = 200,
) -> GPModel:
    """Fit (optionally after an evidence search) and wrap with the registry."""
    if optimize:
        hyper = optimize_hyperparams(train, hyper, budget=budget)
    post = fit(train, hyper)
    return GPModel(posterior=post, registry=dict(train.registry))


def _encode_array(arr: np.ndarray, dtype: str) -> dict:
    cast = np.ascontiguousarray(arr.astype(dtype))
    return {
        "dtype": dtype,
        "shape": list(cast.shape),
        "data": base64.b64encode(cast.tobytes()).decode("ascii"),
    }


def _field(obj: dict, key: str, kind: type | tuple[type, ...]):
    """``obj[key]``, checked to be present and of the JSON type ``kind``."""
    if key not in obj:
        raise DataError(f"model file lacks {key!r}")
    if not isinstance(obj[key], kind):
        raise DataError(f"model field {key!r} has the wrong type")
    return obj[key]


def _finite(obj: dict, key: str) -> float:
    value = _field(obj, key, (int, float))
    # false for NaN, for infinities and for integers past the float range
    if not abs(value) <= sys.float_info.max:
        raise DataError(f"model field {key!r} is not finite")
    return value


def _decode_array(payload: dict, key: str, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    """``payload[key]`` decoded and checked against ``dtype``, ``shape`` and finiteness."""
    obj = _field(payload, key, dict)
    if obj.get("dtype") != dtype or obj.get("shape") != list(shape):
        raise DataError(
            f"model array {key!r} is {obj.get('dtype')!r} of shape {obj.get('shape')!r}, "
            f"expected {dtype!r} of shape {list(shape)}"
        )
    try:
        raw = base64.b64decode(_field(obj, "data", str))
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise DataError(f"model array {key!r} is not base64: {exc}") from None
    need = np.dtype(dtype).itemsize * math.prod(shape)
    if len(raw) != need:
        raise DataError(f"model array {key!r} holds {len(raw)} bytes, its shape needs {need}")
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
        raise DataError(f"model array {key!r} has non-finite values")
    return arr


_TOKENS = {o.code: o.token for o in Outcome}
_CODES = {o.token: o.code for o in Outcome}


def save_model(model: GPModel, path: str | Path) -> None:
    """Versioned JSON of all a fit cannot derive; load_model rebuilds the rest bit for bit."""
    post = model.posterior
    ids = sorted(model.registry, key=model.registry.__getitem__)
    parts = post.parts
    z = parts.z
    payload = {
        "magic": MODEL_MAGIC,
        "version": MODEL_VERSION,
        "hyper": {
            "sigma2": post.hyper.kernel.sigma2,
            "sigma2_home": post.hyper.kernel.sigma2_home,
            "log_alpha": post.hyper.draw.log_alpha,
        },
        # no jitter is added to K; perfbench/run.py still reads this field,
        # and load_model ignores it
        "jitter_used": 0.0,
        "newton_iters": post.newton_iters,
        "registry": ids,
        "outcomes": "".join(_TOKENS[c] for c in parts.codes.tolist()),
        "homes": parts.homes.tolist(),
        # rows of Z hold their 22 entries sorted by column
        "plus": _encode_array(z.indices[z.data > 0].reshape(-1, PLAYERS_PER_SIDE), "<i4"),
        "minus": _encode_array(z.indices[z.data < 0].reshape(-1, PLAYERS_PER_SIDE), "<i4"),
        "mode": _encode_array(post.mode, "<f8"),
        "dual_coef": _encode_array(post.dual_coef, "<f8"),
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_model(path: str | Path) -> GPModel:
    """Read a model file and rebuild its posterior at the stored mode; defects raise DataError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from None
    if not isinstance(payload, dict) or payload.get("magic") != MODEL_MAGIC:
        raise DataError(f"{path} is not a lineupgp model file")
    if payload.get("version") != MODEL_VERSION:
        raise DataError(
            f"unsupported model version {payload.get('version')!r} "
            f"(this build reads version {MODEL_VERSION}; retrain the model)"
        )
    hyper_raw = _field(payload, "hyper", dict)
    try:
        hyper = Hyperparams(
            kernel=KernelParams(
                sigma2=_finite(hyper_raw, "sigma2"),
                sigma2_home=_finite(hyper_raw, "sigma2_home"),
            ),
            draw=DrawParam(log_alpha=_finite(hyper_raw, "log_alpha")),
        )
    except (ValueError, OverflowError) as exc:  # OverflowError: an integer past the float range
        raise DataError(f"model hyperparameters are invalid: {exc}") from None

    ids = _field(payload, "registry", list)
    if not all(isinstance(pid, str) for pid in ids) or len(set(ids)) != len(ids):
        raise DataError("model registry must list unique player ids")
    try:
        codes = np.array([_CODES[t] for t in _field(payload, "outcomes", str)], dtype=np.int64)
    except KeyError as exc:
        raise DataError(f"unknown outcome token {exc.args[0]!r} in the model file") from None
    n = len(codes)
    if n < 1:
        raise DataError("model file holds no training matches")
    homes = _field(payload, "homes", list)
    if len(homes) != n or any(type(h) is not int or h not in (-1, 0, 1) for h in homes):
        raise DataError(f"model 'homes' must hold {n} signs in {{-1, 0, 1}}")
    plus = _decode_array(payload, "plus", "<i4", (n, PLAYERS_PER_SIDE))
    minus = _decode_array(payload, "minus", "<i4", (n, PLAYERS_PER_SIDE))
    lineups = np.concatenate([plus, minus], axis=1)
    if np.any(lineups < 0) or np.any(lineups >= len(ids)):
        raise DataError("model lineups index players outside the registry")
    if np.any(np.diff(plus, axis=1) <= 0) or np.any(np.diff(minus, axis=1) <= 0):
        raise DataError("model lineups must be strictly increasing")
    if np.any(np.diff(np.sort(lineups, axis=1), axis=1) == 0):
        raise DataError("a model lineup puts a player on both sides")
    newton_iters = _field(payload, "newton_iters", int)
    if newton_iters < 0:
        raise DataError("model 'newton_iters' must be >= 0")
    mode, dual_coef = (_decode_array(payload, key, "<f8", (n,)) for key in ("mode", "dual_coef"))

    parts = _make_parts(plus, minus, np.array(homes, dtype=np.int64), codes, len(ids))
    k = parts.gram(hyper.kernel)
    try:
        post = _at_mode(parts, hyper, k, mode, dual_coef, newton_iters)
    except NumericalError as exc:
        raise DataError(f"the model's posterior cannot be rebuilt at its mode: {exc}") from None
    # a payload that parses yet holds no fit fails f = K grad log p(y|f) = K dual_coef
    if not all(_stationary(mode, k, v, _STATIONARITY_BOUND) for v in (post.grad, dual_coef)):
        raise DataError("model 'mode' is not the posterior mode of its training set")
    return GPModel(post, {pid: i for i, pid in enumerate(ids)})
