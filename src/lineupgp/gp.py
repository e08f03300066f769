"""Gaussian process outcome classifier fitted with Laplace's method.

The latent match quality ``f`` has a zero-mean GP prior with the sparse
lineup kernel; the ternary likelihood ties it to observed outcomes.  The
kernel is K = X S X' for the sparse features X = [Z | h] (23 nonzeros per
row) and S = diag(sigma2, ..., sigma2, sigma2_home): it is the prior of
f = X w for Gaussian weights w ~ N(0, S), one per player plus a home
weight (Rasmussen & Williams 2006, Section 2.1).  The fit runs in the
whitened weights u, with w = S^{1/2} u and f = X S^{1/2} u, whose prior is
N(0, I).  Damped Newton ascends

    Psi(u) = log p(y | f) - 0.5 |u|^2,

whose negated Hessian is the (P+1) x (P+1) matrix C = I + S^{1/2} X' W X S^{1/2}
(P players; W is the negated likelihood Hessian, nonnegative because the
likelihood is log-concave).  At the mode the weights have the Laplace
posterior mean m = S^{1/2} u and covariance S^{1/2} C^{-1} S^{1/2}, and the
evidence is Psi - 0.5 log|C|.  S is applied as a vector and no N x N array
is ever built.

C and its Cholesky factor are held in LAPACK's rectangular full packed
format (RFP; Gustavson, Wasniewski, Dongarra & Langou, ACM TOMS 37(2),
2010): the (P+1)(P+2)/2 entries of the lower triangle in one array, half the
dense square, which LAPACK factors (dpftrf), solves with (dpftrs, dtfsm) and
inverts (dpftri) by level-3 BLAS.  A map from match weights to the packed
triangle builds C directly, so no path builds a (P+1) x (P+1) array.

C is I plus a positive semidefinite matrix, so every eigenvalue is >= 1:
its Cholesky factor exists for any hyperparameters, even where K is
singular, as when two matches field the same lineups at the same venue or
N > P+1.  So K is exactly sigma2 Z Z' + sigma2_home h h', with no jitter on
its diagonal.

Every Newton step, whatever the training set's shape, solves with C by
conjugate gradients, C applied through two sparse products with X and
preconditioned by the latest factor of C at hand.  A step factors C only
where CG would cost more than that factor, and the factor then
preconditions the later steps; each evaluation of the evidence search
hands its factor at the mode to the next.  So a fit whose steps stay
within that break-even factors C once, at the mode.  The posterior is one
record, :class:`LaplacePosterior`, that one function builds for a fit,
each evaluation of the evidence search and load_model.

A test match x gets the latent mean x'm and variance |L_C^{-1} S^{1/2} x|^2.
Players unseen in training add their prior variance and nothing to the
mean.

Test matches are scored in batches: their lineups come in as registry-index
arrays, any index past the training registry standing for an unseen player,
and each block of up to ``_BLOCK`` matches costs one triangular solve with
a column per match (Rasmussen & Williams 2006, Algorithm 3.2, with a matrix
right-hand side) and one Gauss-Hermite quadrature over all its matches.
Every single-match entry point is a one-row call of that batch.

The hyperparameters (sigma2, sigma2_home, alpha) can be set by maximizing
the evidence: a projected BFGS over their logs, in a fixed box, written in
NumPy (three variables need no general solver, and importing scipy.optimize
would cost a search ~0.2 s and 15 MB), on the analytic gradient of the
Laplace evidence (Rasmussen & Williams 2006, Algorithm 5.1, with the implicit
term through the mode).  BFGS starts from the inverse of the Hessian at
the init, taken by forward differences of that gradient at one probe per log
(Nocedal & Wright 2006, Section 8.1), so a 600-match league takes 9-21
evaluations, against 14-43 from an identity start.  The gradient's traces
come from C^{-1}, packed and scaled in place, so a gradient builds no N x N
array.

A model file (version 6) stores the training set, hyperparameters and the
weight mean m; loading rebuilds the record from them through the function
a fit ends with, so under the same BLAS threads it is the fitted posterior
bit for bit.  The lineups are most of a file, so each registry index is
written in the narrowest little-endian unsigned type that holds P-1 (one
byte up to 256 players, two up to 65,536, else four), and the outcomes and
home signs as the CSV's tokens; the P+1 weights stay 8-byte floats.  The
same fit always writes the same bytes.
"""

from __future__ import annotations

import base64
import json
import logging
import math
import sys
from collections import ChainMap
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .data import _CODE_BY_TOKEN, _SIGN_BY_TOKEN, Dataset, MatchRecord
from .errors import DataError, NumericalError
from .kernel import (
    PLAYERS_PER_SIDE,
    SELF_OVERLAP,
    KernelParams,
    MatchVector,
    build_match_vector,
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
    "predict_latent_many",
    "quadrature_outcome_probs",
    "optimize_hyperparams",
    "train_model",
    "save_model",
    "load_model",
]

MODEL_MAGIC = "lineupgp/model"
MODEL_VERSION = 6

_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 100
# the posterior's published stationarity bound, and the tighter one Newton
# aims for while its steps still raise Psi
_STATIONARITY_BOUND = 1e-6
_STATIONARITY_TOL = 1e-8

_GH_POINTS = 32
_gh_nodes, _gh_weights = np.polynomial.hermite.hermgauss(_GH_POINTS)
_gh_weights = _gh_weights / math.sqrt(math.pi)

# how far the three integrated outcome probabilities of a match may sum from
# one; over means -30 to 30, variances 1e-6 to 1000 and alpha 1e-4 to 50
# they stay within 4.5e-15
_MASS_TOL = 1e-12

# test matches per batch solve: memory stays O(_BLOCK * P) for any test set
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


@contextmanager
def _finite_arithmetic(what: str) -> Iterator[None]:
    """Inside, a NumPy overflow or invalid operation raises NumericalError, not a warning."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalError(f"{what}: {exc}") from None


def _rfp_offsets(c: np.ndarray, n: int) -> np.ndarray:
    """Offsets that place the lower triangle of an n x n matrix in RFP (see _rfp_slots).

    Entry (i, j), i >= j, sits at slot i + O(j) if j < ceil(n/2) and at
    j + O(i) otherwise; this returns O(c) for each index c.
    """
    even = 1 - n % 2
    lda, n1 = n + even, (n + 1) // 2
    return np.where(c < n1, c * lda + even, (c - n1 + 1 - even) * lda - n1)


def _rfp_slots(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Where entries (i, j), i >= j, of an n x n lower triangle sit in RFP.

    LAPACK's rectangular full packed format with TRANSR = 'N', UPLO = 'L'
    holds the n(n+1)/2 entries as a column-major lda x ceil(n/2) array, with
    lda = n + 1 for even n and n for odd n (Gustavson, Wasniewski, Dongarra &
    Langou, ACM TOMS 37(2), 2010).  Columns j < ceil(n/2) stay in place, one
    row down if n is even; the trailing triangle, j >= ceil(n/2), sits
    transposed above them, one column right if n is odd.
    """
    return np.where(j < (n + 1) // 2, i + _rfp_offsets(j, n), j + _rfp_offsets(i, n))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# the slot maps below depend on the size alone; each is built once per size
@lru_cache(maxsize=16)
def _rfp_diagonal(n: int) -> np.ndarray:
    """The RFP slots of an n x n matrix's diagonal, in order."""
    return _read_only(_rfp_slots(np.arange(n), np.arange(n), n))


@lru_cache(maxsize=16)
def _rfp_last_row(n: int) -> np.ndarray:
    """The RFP slots of an n x n lower triangle's last row, in order."""
    return _read_only(_rfp_slots(np.full(n, n - 1), np.arange(n), n))


def _pair_slots(cols: np.ndarray, vals: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The RFP slot and the product of every pair of entries of each row of an n-column matrix.

    ``cols`` (R, m) holds each row's column indices in increasing order and
    ``vals`` their values.  Each row has m(m+1)/2 pairs, an entry paired
    with itself included, and a pair of columns j >= k is entry (j, k) of a
    lower triangle.  Returns two (R, m(m+1)/2) arrays, the pairs' slots and
    their products, in the same order for every row.
    """
    # reorder each row, its columns below ceil(n/2) ascending and the rest
    # descending: then every pair's slot is col_a + O(col_b), with b the
    # earlier position (see _rfp_offsets)
    m = np.arange(cols.shape[1])
    split = np.count_nonzero(cols < (n + 1) // 2, axis=1)[:, None]
    flat = np.where(m < split, m, m[-1] + split - m)
    flat += np.arange(0, cols.size, len(m))[:, None]
    cols, vals = cols.ravel()[flat], vals.ravel()[flat]
    hi, lo = np.tril_indices(len(m))
    # built in place: fewer transient (R, m(m+1)/2) arrays lower the peak
    # memory of a fit and of a load
    keys = cols[:, hi]
    keys += _rfp_offsets(cols, n)[:, lo]
    prods = vals[:, hi]
    prods *= vals[:, lo]
    return keys, prods


def _scale_rfp(packed: np.ndarray, s: np.ndarray) -> None:
    """A -> S^{1/2} A S^{1/2} in place, for A packed in RFP and S = diag(s).

    Every entry but the last row's takes the player variance s[0]; the last
    row, the home weight's, takes sqrt(s_home s_j).
    """
    home = _rfp_last_row(len(s))
    row = packed[home] * math.sqrt(s[-1])
    row *= np.sqrt(s)
    packed *= s[0]
    packed[home] = row


def _cholesky(n: int, packed: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor, in RFP, of the n x n matrix packed in RFP, factored in place.

    The caller checks finiteness: dpftrf reports success on a NaN or an
    inf, and either one in the lower triangle reaches the factor's
    diagonal.  Every matrix factored here is >= I, so a failure means an
    entry overflowed.
    """
    factor, info = sla.lapack.dpftrf(n, packed, transr="N", uplo="L", overwrite_a=1)
    if info != 0:
        raise NumericalError(f"dpftrf failed (info {info}) in the Cholesky factorization")
    return factor


@dataclass(frozen=True)
class _Factor:
    """C = I + S^{1/2} X' W X S^{1/2} factored: ``solve(v)`` is C^{-1} v.

    ``rfp`` is L_C, the lower Cholesky factor of the (P+1) x (P+1) matrix C,
    in rectangular full packed format (see _rfp_slots): (P+1)(P+2)/2
    doubles, half the dense square, which
    ``scipy.linalg.lapack.dtfttr(P+1, rfp, uplo="L")`` unpacks.
    ``half_logdet`` is 0.5 log|C|.
    """

    rfp: np.ndarray
    half_logdet: float

    def solve(self, v: np.ndarray) -> np.ndarray:
        t, _ = sla.lapack.dpftrs(len(v), self.rfp, v, transr="N", uplo="L")
        return t


@dataclass(frozen=True)
class _TrainParts:
    """The training set as arrays, plus the hyperparameter-free map that builds C.

    ``x`` is the sparse feature matrix X = [Z | h] (N x (P+1)) and ``xt`` its
    transpose, so K = X S X' is applied as X (s * X'v) and never held.
    ``pairs`` (sparse, (P+1)(P+2)/2 x N) maps one value c_i per match to the
    lower triangle of X' diag(c) X packed in RFP (see _rfp_slots), and so
    builds C.  The evidence gradient's transposes of Z and of ``pairs`` are
    built on first use, so a fit without a gradient and a load skip them.
    """

    z: sp.csr_matrix
    homes: np.ndarray
    codes: np.ndarray
    x: sp.csr_matrix
    xt: sp.csc_matrix
    pairs: sp.csc_matrix

    @cached_property
    def zt(self) -> sp.csr_matrix:
        return self.z.T.tocsr()

    @cached_property
    def pairs_t(self) -> sp.csr_matrix:
        return self.pairs.T

    def variances(self, kp: KernelParams) -> np.ndarray:
        """diag(S): the prior variances of the P player weights, then the home weight's."""
        s = np.full(self.x.shape[1], kp.sigma2)
        s[-1] = kp.sigma2_home
        return s

    def k_dot(self, s: np.ndarray, v: np.ndarray) -> np.ndarray:
        """K v = X S X' v for S = diag(s), by two sparse products."""
        return self.x @ (s * (self.xt @ v))


def _factor_c(parts: _TrainParts, kp: KernelParams, w: np.ndarray) -> _Factor:
    """C = I + S^{1/2} X' W X S^{1/2} for W = diag(w), built packed in RFP and factored."""
    if not np.all(np.isfinite(w)):
        raise NumericalError("non-finite likelihood curvature in the Laplace fit")
    s = parts.variances(kp)
    n = len(s)
    c = parts.pairs @ w
    _scale_rfp(c, s)
    diag = _rfp_diagonal(n)
    c[diag] += 1.0
    rfp = _cholesky(n, c)
    half_logdet = float(np.sum(np.log(rfp[diag])))
    # finite only if the whole diagonal is (see _cholesky)
    if not math.isfinite(half_logdet):
        raise NumericalError("non-finite entry in the Cholesky factor of C")
    return _Factor(rfp, half_logdet)


def _dataset_parts(train: Dataset) -> _TrainParts:
    arrays = train.arrays
    return _make_parts(*np.hsplit(arrays.lineups, 2), arrays.homes, arrays.codes, train.num_players)


def _make_parts(
    plus: np.ndarray, minus: np.ndarray, homes: np.ndarray, codes: np.ndarray, width: int
) -> _TrainParts:
    """Parts of N matches: (N, 11) lineup indices below ``width``, home signs, outcome codes."""
    z = incidence(plus, minus, width)
    n, p = z.shape
    # row i of X: its 22 players in increasing column order, then the home
    # column (kept when zero); narrow ints keep the pair arrays cheap, and
    # every RFP offset and slot lies within +-(P+1)^2
    idx = np.int32 if (p + 1) ** 2 <= np.iinfo(np.int32).max else np.int64
    cols = np.hstack([z.indices.reshape(n, SELF_OVERLAP), np.full((n, 1), p)]).astype(idx)
    vals = np.hstack([z.data.reshape(n, SELF_OVERLAP), homes[:, None]]).astype(np.int8)
    starts = np.arange(n + 1)
    x = sp.csr_matrix(
        (vals.astype(np.float64).ravel(), cols.ravel(), starts * cols.shape[1]), shape=(n, p + 1)
    )
    keys, prods = _pair_slots(cols, vals, p + 1)
    pairs = sp.csc_matrix(
        (prods.ravel().astype(np.float64), keys.ravel(), starts * keys.shape[1]),
        shape=((p + 1) * (p + 2) // 2, n),
    )
    # one transposed view for every product: building it per product costs more than the product
    return _TrainParts(z, homes, codes, x, x.T, pairs)


def _psi(codes: np.ndarray, f: np.ndarray, u: np.ndarray, alpha: float) -> float:
    return float(np.sum(loglik_vector(codes, f, alpha))) - 0.5 * float(u @ u)


def _whitened(weights: np.ndarray, s: np.ndarray) -> np.ndarray:
    """u = S^{-1/2} w for S = diag(s); a weight with no prior variance is 0 and whitens to 0."""
    return np.divide(weights, np.sqrt(s), out=np.zeros_like(weights), where=s > 0.0)


# the relative residual |rhs - C v| / |rhs| at which a CG solve stops.  A
# Newton step's right-hand side is Psi's gradient, and C >= I bounds the
# step's error by that residual, so the error shrinks with the gradient:
# the last step of a fit leaves the weights within ~1e-14 of the mode
_CG_RTOL = 1e-8


def _cg_limit(n: int, m: int, preconditioned: bool = False) -> int:
    """CG iterations a Newton step may take before it factors C, for N matches and C of size m = P+1.

    The break-even: as many iterations as cost one build and factor of the
    packed C, at most N + 1, where plain CG ends in exact arithmetic (C - I
    has rank at most N).  On one core an iteration, two sparse products with
    X and vector operations of length P+1, costs about 11 + 0.062 N us, and
    building and factoring C about 64 + 0.0036 m^2 + 9.5e-6 m^3 us (a
    relative least-squares fit to 36 shapes, N from 25 to 1600 and m from
    N+1 to 2.5 N, each the best of 4-9 runs).  A ``preconditioned``
    iteration adds one dpftrs against a factor of C, about 4.8e-4 m^2 us
    (20 us at m = 225, 72 us at 421, 0.88 ms at 1377, 12 ms at 4532).  At
    N = 150 and m = 225 that is 17 plain iterations and 7 preconditioned;
    on the three cup folds, (N, m) = (398, 850), (844, 1118) and
    (1290, 1377), it is 238, 281 and 348 plain, while their steps at
    sigma2 = 0.09, sigma2_home = 1, alpha = 0.45 take 23-33; on a league of
    N = 1230 and m = 421 it is 16 plain and 8 preconditioned.
    """
    factor_us = 64.0 + m * m * (3.6e-3 + 9.5e-6 * m)
    iteration_us = 11.0 + 0.062 * n + (4.8e-4 * m * m if preconditioned else 0.0)
    return min(n + 1, int(factor_us / iteration_us))


def _cg(
    matvec: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    limit: int,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray | None, int]:
    """Conjugate gradients on the positive definite system matvec(x) = rhs, from x = 0.

    ``precondition(r)``, if given, solves with an approximation of the
    system's matrix (Nocedal & Wright 2006, Algorithm 5.3).  Returns
    (x, iterations) once |rhs - matvec(x)| <= _CG_RTOL |rhs|, or
    (None, limit) if ``limit`` iterations do not get there.
    """
    tol2 = (_CG_RTOL * float(np.linalg.norm(rhs))) ** 2
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = r if precondition is None else precondition(r)
    rz = float(r @ z)
    rr = rz if precondition is None else float(r @ r)
    p = z.copy()
    iteration = 0
    while rr > tol2:
        if iteration == limit:
            return None, iteration
        iteration += 1
        q = matvec(p)
        step = rz / float(p @ q)
        x += step * p
        r -= step * q
        if precondition is not None:
            z = precondition(r)
        rz, rz_old = float(r @ z), rz
        rr = rz if precondition is None else float(r @ r)
        p *= rz / rz_old
        p += z
    return x, iteration


def _newton_mode(
    parts: _TrainParts,
    hyper: Hyperparams,
    w0: np.ndarray | None = None,
    factor: _Factor | None = None,
) -> tuple[np.ndarray, int]:
    """Damped Newton ascent on Psi(u); returns (the weight mean S^{1/2} u_hat, iterations).

    Starts from the weights ``w0`` if given and their Psi beats that of
    u = 0 (hence f = 0), else from u = 0.  Psi is strictly concave in u, so
    every start reaches the same mode.

    Psi's gradient in u is S^{1/2} X' grad log p(y|f) - u and its negated
    Hessian is C, so each step solves C step = gradient, the same as
    C u_new = S^{1/2} X' (W f + grad log p(y|f)); solving for the step
    makes its error shrink with the gradient.  Every step is Newton-CG
    (Nocedal & Wright 2006, Section 7.1): conjugate gradients with C applied
    as v + S^{1/2} X' W X S^{1/2} v through two sparse products,
    preconditioned by dpftrs against the latest factor of C at hand, which
    is ``factor`` (a factor of C at other weights or hyperparameters, as
    the search hands on) until the fit builds its own, and plain without
    one.  A step whose CG needs more iterations than ``_cg_limit`` allows
    factors C through ``_factor_c`` and solves with it; that factor
    preconditions the later steps.  So a cold fit whose steps stay within
    the limit factors C only at the mode, whatever its shape.  One DEBUG
    log line per step gives Psi, the step length and the solver's work.
    """
    codes, alpha, kp = parts.codes, hyper.alpha, hyper.kernel
    s = parts.variances(kp)
    d = np.sqrt(s)
    x, xt = parts.x, parts.xt
    k = partial(parts.k_dot, s)
    n, p = parts.z.shape
    u = np.zeros(p + 1)
    f = np.zeros(n)
    psi = _psi(codes, f, u, alpha)
    if w0 is not None:
        u_warm = _whitened(w0, s)
        f_warm = x @ (d * u_warm)
        psi_warm = _psi(codes, f_warm, u_warm, alpha)
        if psi_warm > psi:
            u, f, psi = u_warm, f_warm, psi_warm
    d1, d2 = loglik_derivs_vector(codes, f, alpha)
    last_delta = math.inf
    for iteration in range(1, _NEWTON_MAX_ITER + 1):
        w = -d2
        # the gradient of Psi in u
        grad_u = d * (xt @ d1) - u
        preconditioned = factor is not None
        step, cg_iters = _cg(
            lambda v: v + d * (xt @ (w * (x @ (d * v)))),
            grad_u,
            _cg_limit(n, p + 1, preconditioned),
            factor.solve if preconditioned else None,
        )
        factored = step is None
        if factored:
            factor = _factor_c(parts, kp, w)
            step = factor.solve(grad_u)
        f_step = x @ (d * step)

        # a full step whose Psi falls by no more than rounding noise is
        # taken; the stationarity test below then decides convergence
        floor = psi - _ROUNDING * max(1.0, abs(psi))
        t = 1.0
        while True:
            u_try = u + t * step
            f_try = f + t * f_step
            psi_try = _psi(codes, f_try, u_try, alpha)
            if psi_try > psi or (t == 1.0 and psi_try >= floor):
                break
            t *= 0.5
            if t < 1e-12:
                # ascent exhausted at floating-point resolution
                if _stationary(f, k(d1), _STATIONARITY_BOUND):
                    return d * u, iteration - 1
                raise NumericalError(
                    "Newton ascent stalled away from stationarity "
                    f"(|dPsi| floor reached after {iteration - 1} iterations)"
                )

        last_delta = psi_try - psi
        u, f, psi = u_try, f_try, psi_try
        logger.debug(
            "Newton step %d: psi %.12g, t %g, %d CG iterations%s%s",
            iteration,
            psi,
            t,
            cg_iters,
            ", preconditioned" if preconditioned else "",
            ", factored" if factored else "",
        )
        d1, d2 = loglik_derivs_vector(codes, f, alpha)
        if last_delta < _NEWTON_TOL and _stationary(f, k(d1), _STATIONARITY_TOL):
            return d * u, iteration
        # a full step taken under the rounding rule: Psi cannot rise further,
        # so the residual may stall between the two bounds
        if last_delta <= 0.0 and _stationary(f, k(d1), _STATIONARITY_BOUND):
            return d * u, iteration
    raise NumericalError(
        f"Laplace Newton did not converge after {_NEWTON_MAX_ITER} iterations "
        f"(final |dPsi| = {last_delta:.3e})"
    )


def _stationary(v: np.ndarray, fixed: np.ndarray, tol: float) -> bool:
    """v = fixed to ``tol`` relative to max(1, max |v|): the mode's f = K d1, or its m = S X' d1."""
    return float(np.max(np.abs(v - fixed))) <= tol * max(1.0, float(np.max(np.abs(v))))


@dataclass(frozen=True)
class LaplacePosterior:
    """Laplace approximation at the unique mode of Psi, and everything built there.

    ``parts`` is the training set (signed incidence ``parts.z``, N x P, home
    signs ``parts.homes``, outcome codes ``parts.codes``, features
    X = [Z | h]) and ``hyper`` gives S.  ``weights`` is the posterior mean m
    of the P player weights, then the home weight, and ``mode = X m`` the
    latent mode; no N x N Gram is held.  ``grad`` is the likelihood gradient
    at the mode, ``sqrt_w`` the square root of its negated Hessian and
    ``loglik`` log p(y|mode).  ``factor`` holds the (P+1) x (P+1) matrix
    C = I + S^{1/2} X' W X S^{1/2} factored, which is >= I, so it needs no
    jitter on K, however singular K is; the weights' posterior covariance is
    S^{1/2} C^{-1} S^{1/2}.  C's lower Cholesky factor is ``factor.rfp``,
    packed in rectangular full packed format; no dense (P+1) x (P+1) array
    is held.  ``_at_mode`` builds the record; a model file saves no field
    that it derives.
    """

    parts: _TrainParts
    hyper: Hyperparams
    weights: np.ndarray
    mode: np.ndarray
    grad: np.ndarray
    sqrt_w: np.ndarray
    factor: _Factor
    loglik: float
    newton_iters: int

    @property
    def n(self) -> int:
        return len(self.mode)

    @property
    def evidence(self) -> float:
        """Laplace evidence: log p(y|f_hat) - 0.5 |u_hat|^2 - 0.5 log|C|."""
        u = _whitened(self.weights, self.parts.variances(self.hyper.kernel))
        return self.loglik - 0.5 * float(u @ u) - self.factor.half_logdet


def _laplace(
    parts: _TrainParts,
    hyper: Hyperparams,
    w0: np.ndarray | None = None,
    factor: _Factor | None = None,
) -> LaplacePosterior:
    """Newton to the mode from weights ``w0``, then everything built there.

    ``factor`` preconditions Newton's CG until the fit factors C itself (see
    _newton_mode).
    """
    with _finite_arithmetic("the Laplace fit overflowed"):
        weights, iters = _newton_mode(parts, hyper, w0, factor)
        return _at_mode(parts, hyper, weights, iters)


def _at_mode(
    parts: _TrainParts, hyper: Hyperparams, weights: np.ndarray, iters: int
) -> LaplacePosterior:
    """The posterior at the weight mean m: f = X m, grad log p, W^{1/2}, log p(y|f) and C factored.

    Fit ends here and load_model rebuilds here, so the two agree bit for bit.
    """
    f = parts.x @ weights
    d1, d2 = loglik_derivs_vector(parts.codes, f, hyper.alpha)
    w = -d2
    loglik = float(np.sum(loglik_vector(parts.codes, f, hyper.alpha)))
    factor = _factor_c(parts, hyper.kernel, w)
    return LaplacePosterior(parts, hyper, weights, f, d1, np.sqrt(w), factor, loglik, iters)


def fit(train: Dataset, hyper: Hyperparams) -> LaplacePosterior:
    """Laplace fit on a training dataset; needs at least one match."""
    if train.n < 1:
        raise DataError("cannot fit on an empty training set")
    return _laplace(_dataset_parts(train), hyper)


def log_marginal(post: LaplacePosterior) -> float:
    """Laplace evidence: log p(y|f_hat) - 0.5 f_hat' K^{-1} f_hat - 0.5 log|C|."""
    return post.evidence


def _latent_block(
    post: LaplacePosterior, plus: np.ndarray, minus: np.ndarray, homes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(mu, var) of one block of test matches (see predict_latent_many)."""
    kp = post.hyper.kernel
    parts = post.parts
    p = parts.z.shape[1]
    t = len(homes)
    # row j: test match j's features, its seen players and the home sign;
    # their transpose is Fortran-ordered, so dtfsm solves it in place
    feats = np.zeros((t, p + 1))
    for lineup, sign in ((plus, 1.0), (minus, -1.0)):
        seen = lineup < p
        feats[np.nonzero(seen)[0], lineup[seen]] = sign
    feats[:, p] = homes
    mu = feats @ post.weights
    x = feats.T
    x *= np.sqrt(parts.variances(kp))[:, None]
    # the factor is finite: load_model, like fit, factors it from a finite C
    v = sla.lapack.dtfsm(1.0, post.factor.rfp, x, transr="N", side="L", uplo="L", overwrite_b=1)
    # each player unseen in training adds its prior variance
    unseen = np.sum(plus >= p, axis=1) + np.sum(minus >= p, axis=1)
    return mu, np.einsum("ij,ij->j", v, v) + kp.sigma2 * unseen


def _blocks(t: int) -> list[slice]:
    return [slice(lo, lo + _BLOCK) for lo in range(0, t, _BLOCK)]


def predict_latent_many(
    post: LaplacePosterior, plus: np.ndarray, minus: np.ndarray, homes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior latent means and variances of T test matches at once.

    ``plus`` and ``minus`` are (T, 11) registry indices of the two lineups and
    ``homes`` the T home signs.  An index at or past the training registry's
    size P is a player unseen in training, which adds its prior variance and
    nothing to the mean.  Scored in blocks of ``_BLOCK`` matches.  Each
    variance is a sum of squares, so none is negative.
    """
    homes = np.asarray(homes, dtype=np.int64)
    plus = np.asarray(plus, dtype=np.int64).reshape(len(homes), PLAYERS_PER_SIDE)
    minus = np.asarray(minus, dtype=np.int64).reshape(plus.shape)
    mu = np.empty(len(homes))
    var = np.empty(len(homes))
    for rows in _blocks(len(homes)):
        mu[rows], var[rows] = _latent_block(post, plus[rows], minus[rows], homes[rows])
    return mu, var


def _quadrature(mu: np.ndarray, var: np.ndarray, alpha: float) -> np.ndarray:
    """(T, 3) win/draw/loss probabilities under f* ~ Normal(mu, var), in blocks.

    Each of the three is integrated by 32-node Gauss-Hermite quadrature and
    the triple renormalized to sum to one; ``var = 0`` rows take the exact
    point evaluation, as :func:`outcome_probs`.  A triple whose integrals sum
    to more than ``_MASS_TOL`` away from one, or to NaN, raises
    NumericalError: renormalizing would hide the lost mass.
    """
    out = np.empty((len(mu), 3))
    for rows in _blocks(len(mu)):
        m, v = mu[rows], var[rows]
        x = m[:, None] + np.sqrt(2.0 * v)[:, None] * _gh_nodes
        bar = np.stack(_probs_arrays(x, alpha), axis=1) @ _gh_weights
        total = bar[:, 0] + bar[:, 1] + bar[:, 2]
        lost = ~(np.abs(total - 1.0) <= _MASS_TOL)
        if np.any(lost):
            i = int(np.argmax(lost))
            raise NumericalError(
                f"quadrature lost probability mass: the outcome probabilities of a match with "
                f"latent mean {m[i]:.6g} and variance {v[i]:.6g} sum to {total[i]!r}"
            )
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


def _inverse(n: int, rfp: np.ndarray) -> np.ndarray:
    """A^{-1} packed in RFP, from the lower Cholesky factor of the n x n matrix A in RFP.

    dpftri's output is the only array built; the factor is kept.
    """
    inv, info = sla.lapack.dpftri(n, rfp, transr="N", uplo="L")
    if info != 0:
        raise NumericalError(f"dpftri failed (info {info}) inverting a Cholesky factor")
    return inv


def _posterior_traces(post: LaplacePosterior) -> tuple[np.ndarray, float, float]:
    """The parts of the evidence gradient that need the inverse of C.

    Returns diag(Sigma_f) with Sigma_f = (K^{-1} + W)^{-1}, then tr(R K_z) and
    tr(R K_h), where R = (K + W^{-1})^{-1} = W - W X S^{1/2} C^{-1} S^{1/2} X' W
    and K_z = sigma2 Z Z', K_h = sigma2_home h h' are the two scaled parts of
    the Gram.
    """
    parts, kp = post.parts, post.hyper.kernel
    s = parts.variances(kp)
    inv = _inverse(len(s), post.factor.rfp)
    diag = _rfp_diagonal(len(s))
    # with C^{-1} from L_C and T = S^{1/2} C^{-1} S^{1/2}: Sigma_f = X T X',
    #   X' R X = S^{-1/2} (I - C^{-1}) S^{-1/2}, so for dS = S on one block
    #   of weights and 0 elsewhere, tr(R X dS X') = sum of 1 - C^{-1}_jj
    #   over the block: the share of each prior variance the data removes
    explained = 1.0 - inv[diag]
    # T in place; x_i' T x_i for every training row from the pair products
    # of its entries, which read only the lower triangle, off-diagonal doubled
    _scale_rfp(inv, s)
    inv *= 2.0
    inv[diag] *= 0.5
    return parts.pairs_t @ inv, float(np.sum(explained[:-1])), float(explained[-1])


def _evidence_gradient(post: LaplacePosterior) -> np.ndarray:
    """d evidence / d(log sigma2, log sigma2_home, log alpha) at the posterior's mode.

    Rasmussen & Williams (2006), Algorithm 5.1.  For a kernel scale with
    dK = dK/d log(scale): the explicit term 0.5 d1' dK d1 - 0.5 tr(R dK), plus
    the implicit term through the mode s2'(I + K W)^{-1} b with b = dK d1 and
    s2 = -0.5 diag(Sigma_f) * dW/df.  For alpha: the explicit term
    sum d log p/d alpha - 0.5 diag(Sigma_f)' dW/d alpha, and b = K d(d1)/d alpha.
    """
    hyper, parts = post.hyper, post.parts
    kp = hyper.kernel
    s, sw, d1 = parts.variances(kp), post.sqrt_w, post.grad
    d = np.sqrt(s)
    sigma_f, tr_z, tr_h = _posterior_traces(post)
    dlp, dd1, dw_alpha, dw_f = loglik_alpha_derivs(parts.codes, post.mode, hyper.alpha)
    s2 = -0.5 * sigma_f * dw_f

    def implicit(b: np.ndarray) -> float:
        # s2' df_hat, with df_hat = (I + K W)^{-1} b = b - X S^{1/2} C^{-1} S^{1/2} X' W b
        t = post.factor.solve(d * (parts.xt @ (sw * (sw * b))))
        return float(s2 @ (b - parts.x @ (d * t)))

    zd = parts.zt @ d1
    hd = float(parts.homes @ d1)
    g_sigma2 = 0.5 * kp.sigma2 * float(zd @ zd) - 0.5 * tr_z + implicit(kp.sigma2 * (parts.z @ zd))
    g_home = 0.5 * kp.sigma2_home * hd * hd - 0.5 * tr_h + implicit(kp.sigma2_home * hd * parts.homes)
    g_alpha = float(np.sum(dlp)) - 0.5 * float(sigma_f @ dw_alpha) + implicit(parts.k_dot(s, dd1))
    return np.array([g_sigma2, g_home, hyper.alpha * g_alpha])


# the search box over (log sigma2, log sigma2_home, log alpha)
_LOG_SCALE_BOUNDS = (math.log(1e-12), 3.0)
_SEARCH_BOUNDS = (_LOG_SCALE_BOUNDS, _LOG_SCALE_BOUNDS, (-5.0, 2.0))
# the search's stopping tests, on the evidence per match: a step's relative
# reduction, actual or predicted by the quadratic model (ftol), and the
# projected gradient's largest entry (gtol).  L-BFGS-B's defaults in scipy
# (ftol 2.2e-9, gtol 1e-5) stop up to 2e-5 short of the optimum of a
# 600-match league
_SEARCH_OPTIONS = {"ftol": 1e-12, "gtol": 1e-8}
# Armijo's sufficient-decrease constant, and the trial points a line search
# takes, halving its step each time, before it gives up
_ARMIJO = 1e-4
_LINE_SEARCH_TRIALS = 20
# the finite-difference step in each log of the start's Hessian, the floor on
# the magnitude of its eigenvalues, and the largest move in any log that one
# step may take: a step of the whole model can reach the box's corners, where
# Newton fails
_PROBE_STEP = 1e-3
_CURVATURE_FLOOR = 1e-8
_MAX_MOVE = 2.0


def optimize_hyperparams(
    train: Dataset,
    init: Hyperparams,
    budget: int = 200,
) -> Hyperparams:
    """Evidence maximization over (log sigma2, log sigma2_home, log alpha).

    Projected BFGS on the analytic evidence gradient, in the box
    ``_SEARCH_BOUNDS``, from ``init`` clipped into it (sigma2_home = 0 starts
    at the lower bound), with the inverse-Hessian estimate started from three
    probes near it (see _projected_bfgs).  ``budget`` caps the number of
    evidence evaluations, the init's and the probes' included, and the
    evaluation that spends it computes no gradient; the search may stop
    sooner on its own tests (``_SEARCH_OPTIONS``) or when a line search
    fails.  Each evaluation's Newton starts from the weights of the one before
    and its CG is preconditioned by that one's factor of C at the mode.
    An evaluation that fails (NumericalError) ends the search.  Deterministic
    given inputs; the init is evaluated with the caller's exact object, and
    the best point evaluated is returned, so the result's evidence is never
    below the init's.  Each evaluation logs one DEBUG line: its role (init,
    probe, trial or accepted), its point, its evidence and its Newton
    iterations.  One INFO line reports the evaluations used, why the search
    stopped, and the evidence at the init and at the point found.
    """
    return _search(_search_parts(train, budget), init, budget)


def _search_parts(train: Dataset, budget: int) -> _TrainParts:
    """The training set's parts, once the search's budget and training set are checked."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget!r}")
    if train.n < 1:
        raise DataError("cannot optimize on an empty training set")
    return _dataset_parts(train)


def _search(parts: _TrainParts, init: Hyperparams, budget: int) -> Hyperparams:
    """optimize_hyperparams on a training set already made parts."""
    n = len(parts.codes)
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
    last: LaplacePosterior | None = None

    def evaluate(h: Hyperparams) -> LaplacePosterior:
        nonlocal used, init_ev, best_ev, best, last
        used += 1
        post = _laplace(parts, h) if last is None else _laplace(parts, h, last.weights, last.factor)
        # the next evaluation's Newton starts from this posterior's weights,
        # preconditioned by its factor of C at the mode
        last = post
        if h is init:
            init_ev = post.evidence
        if post.evidence > best_ev:
            best_ev, best = post.evidence, h
        return post

    def value(theta: np.ndarray) -> tuple[float, LaplacePosterior]:
        # round-tripping init through exp(log(.)) can slip an ulp, so its
        # point keeps the caller's exact object
        post = evaluate(init if np.array_equal(theta, theta0) else hyper_at(theta))
        # per match, so that the stopping tests do not depend on N
        return -post.evidence / n, post

    def gradient(post: LaplacePosterior) -> np.ndarray:
        return -_evidence_gradient(post) / n

    lo, hi = np.array(_SEARCH_BOUNDS).T
    x0 = np.clip(theta0, lo, hi)
    try:
        if not np.array_equal(x0, theta0):
            # an init outside the box is still a candidate
            _log_evaluation("init", evaluate(init))
        if used < budget:
            stop = _projected_bfgs(value, gradient, x0, lo, hi, budget - used)
        else:
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


def _log_evaluation(role: str, post: LaplacePosterior) -> None:
    """One DEBUG line for a search evaluation: its role, point, evidence and Newton iterations."""
    logger.debug(
        "search evaluation (%s): sigma2 %.9g, sigma2_home %.9g, alpha %.9g; "
        "evidence %.9f; %d Newton iterations",
        role,
        post.hyper.kernel.sigma2,
        post.hyper.kernel.sigma2_home,
        post.hyper.alpha,
        post.evidence,
        post.newton_iters,
    )


def _projected_bfgs(
    value: Callable[[np.ndarray], tuple[float, LaplacePosterior]],
    gradient: Callable[[LaplacePosterior], np.ndarray],
    x: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    evaluations: int,
) -> str:
    """Minimize a smooth function over the box [lo, hi] from x; return why it stopped.

    ``value(x)`` gives f(x) and the posterior ``gradient`` takes to give f's
    gradient there.  A gradient is computed only at x, at the probes and at
    accepted points, and none after the ``evaluations``-th call of
    ``value``, which is the last.

    H, the inverse-Hessian estimate, starts as the inverse of the Hessian at
    x by forward differences of the gradient: one probe at x + h e_i for each
    coordinate (h = ``_PROBE_STEP``, stepping inward where x + h passes the
    upper bound), symmetrized, with each eigenvalue's magnitude floored at
    ``_CURVATURE_FLOOR``, so that H is positive definite even where f is not
    convex (Nocedal & Wright 2006, Sections 6.1 and 8.1).  Each step goes
    along d = -H g, with every component that sits on a bound that g pushes
    it past set to 0 (steepest descent on the other components if d is then
    no descent direction), scaled down to move at most ``_MAX_MOVE`` in any
    coordinate, and takes Armijo backtracking on the projected path
    clip(x + t d) from t = 1.  H takes the BFGS update for every accepted
    step s with gradient change y and s'y > 0.  The search stops when the
    projected gradient is within gtol, when the reduction the quadratic
    model predicts for a step, -g'd / 2, or the reduction a step made is
    within ftol of max(|f|, 1), or when a line search fails.
    """
    f, post = value(x)
    _log_evaluation("init", post)
    evaluations -= 1
    if evaluations == 0:
        return "evaluation budget used up"
    g = gradient(post)
    n = len(x)
    diffs = np.empty((n, n))
    for i in range(n):
        x_i = x.copy()
        step = _PROBE_STEP if x[i] + _PROBE_STEP <= hi[i] else -_PROBE_STEP
        x_i[i] += step
        _, post = value(x_i)
        _log_evaluation("probe", post)
        evaluations -= 1
        if evaluations == 0:
            return "evaluation budget used up"
        diffs[i] = (gradient(post) - g) / step
    curv, vecs = np.linalg.eigh(0.5 * (diffs + diffs.T))
    h = (vecs / np.maximum(np.abs(curv), _CURVATURE_FLOOR)) @ vecs.T
    eye = np.eye(n)
    while True:
        if np.max(np.abs(np.clip(x - g, lo, hi) - x)) <= _SEARCH_OPTIONS["gtol"]:
            return "projected gradient within gtol"
        blocked = ((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0))
        d = -(h @ g)
        d[blocked] = 0.0
        if g @ d >= 0.0:
            d = -g
            d[blocked] = 0.0
        d /= max(1.0, float(np.max(np.abs(d))) / _MAX_MOVE)
        if -0.5 * float(g @ d) <= _SEARCH_OPTIONS["ftol"] * max(abs(f), 1.0):
            return "predicted reduction within ftol"
        t = 1.0
        for _ in range(_LINE_SEARCH_TRIALS):
            x_t = np.clip(x + t * d, lo, hi)
            s = x_t - x
            if not s.any():
                return "line search failed: the step vanished"
            f_t, post = value(x_t)
            accepted = f_t <= f + _ARMIJO * float(g @ s)
            _log_evaluation("accepted" if accepted else "trial", post)
            evaluations -= 1
            if evaluations == 0:
                return "evaluation budget used up"
            if accepted:
                break
            t *= 0.5
        else:
            return f"line search failed: no sufficient decrease in {_LINE_SEARCH_TRIALS} trials"
        g_t = gradient(post)
        y = g_t - g
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y)):
            v = eye - np.outer(s, y) / sy
            h = v @ h @ v.T + np.outer(s, s) / sy
        reduction = (f - f_t) / max(abs(f), abs(f_t), 1.0)
        x, f, g = x_t, f_t, g_t
        if reduction <= _SEARCH_OPTIONS["ftol"]:
            return "relative reduction within ftol"


@dataclass
class GPModel:
    """Fitted posterior plus the registry needed to score new matches.

    ``predict_many`` scores a test :class:`Dataset` from its arrays, each of
    its players mapped to the model's index once.  A player unseen in
    training carries zero covariance with every training match, so scoring
    here matches scoring under the train/test union registry.
    """

    posterior: LaplacePosterior
    registry: dict[str, int]
    name: str = "gp"

    def vector_for(self, rec: MatchRecord) -> MatchVector:
        """The record's match vector; unseen players take indices from P up, in id order."""
        fresh = sorted(set(rec.players).difference(self.registry))
        extra = {pid: len(self.registry) + i for i, pid in enumerate(fresh)}
        return build_match_vector(rec, ChainMap(self.registry, extra))

    def _latent(self, test: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """(mu, var) of every test match, its players mapped to model indices, an unseen one at P."""
        p = self.posterior.parts.z.shape[1]
        get = self.registry.get
        index = np.empty(test.num_players, dtype=np.int64)
        index[list(test.registry.values())] = [get(pid, p) for pid in test.registry]
        lineups = index[test.arrays.lineups]
        return predict_latent_many(self.posterior, *np.hsplit(lineups, 2), test.arrays.homes)

    def predict_many(self, test: Dataset) -> list[PredictiveDistribution]:
        """One predictive distribution per test match, in dataset order, scored in one batch."""
        mu, var = self._latent(test)
        return _distributions(_quadrature(mu, var, self.posterior.hyper.alpha))

    def predict_latent(self, rec: MatchRecord) -> tuple[float, float]:
        mu, var = self._latent(Dataset.from_records([rec]))
        return float(mu[0]), float(var[0])

    def predict(self, rec: MatchRecord) -> PredictiveDistribution:
        return self.predict_many(Dataset.from_records([rec]))[0]


def train_model(
    train: Dataset,
    hyper: Hyperparams,
    *,
    optimize: bool = False,
    budget: int = 200,
) -> GPModel:
    """Fit (optionally after an evidence search) and wrap with the registry.

    The search and the fit share one set of training parts, which do not
    depend on the hyperparameters; the fit starts cold, as :func:`fit` does.
    """
    if optimize:
        parts = _search_parts(train, budget)
        post = _laplace(parts, _search(parts, hyper, budget))
    else:
        post = fit(train, hyper)
    return GPModel(posterior=post, registry=dict(train.registry))


def _encode_array(arr: np.ndarray, dtype: str) -> dict:
    cast = np.ascontiguousarray(arr.astype(dtype))
    return {
        "dtype": dtype,
        "shape": list(cast.shape),
        "data": base64.b64encode(cast.tobytes()).decode("ascii"),
    }


def _index_dtype(p: int) -> str:
    """The narrowest little-endian unsigned type that holds every index below ``p``."""
    return next((d for d in ("<u1", "<u2") if p <= np.iinfo(d).max + 1), "<u4")


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
    """``payload[key]`` checked against ``dtype``, ``shape`` and finiteness, as float64 or int64."""
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
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if arr.dtype.kind != "f":
        return arr.astype(np.int64)
    if not np.all(np.isfinite(arr)):
        raise DataError(f"model array {key!r} has non-finite values")
    return arr.astype(np.float64)


def _encode_tokens(values: np.ndarray, table: dict[str, int]) -> str:
    """The token of each value, under a table from tokens to values."""
    token = dict(zip(table.values(), table))
    return "".join(map(token.__getitem__, values.tolist()))


def _decode_tokens(payload: dict, key: str, table: dict[str, int], what: str) -> np.ndarray:
    """The values of the tokens in ``payload[key]``, under a table from tokens to values."""
    try:
        return np.array([table[t] for t in _field(payload, key, str)], dtype=np.int64)
    except KeyError as exc:
        raise DataError(f"unknown {what} token {exc.args[0]!r} in the model file") from None


def save_model(model: GPModel, path: str | Path) -> None:
    """Versioned JSON of all a fit cannot derive; load_model rebuilds the rest bit for bit."""
    post = model.posterior
    ids = sorted(model.registry, key=model.registry.__getitem__)
    parts = post.parts
    z = parts.z
    index = _index_dtype(len(ids))
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
        "outcomes": _encode_tokens(parts.codes, _CODE_BY_TOKEN),
        "homes": _encode_tokens(parts.homes, _SIGN_BY_TOKEN),
        # rows of Z hold their 22 entries sorted by column
        "plus": _encode_array(z.indices[z.data > 0].reshape(-1, PLAYERS_PER_SIDE), index),
        "minus": _encode_array(z.indices[z.data < 0].reshape(-1, PLAYERS_PER_SIDE), index),
        "weights": _encode_array(post.weights, "<f8"),
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_model(path: str | Path) -> GPModel:
    """Read a model file and rebuild its posterior at its weights; defects raise DataError."""
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
    codes = _decode_tokens(payload, "outcomes", _CODE_BY_TOKEN, "outcome")
    n = len(codes)
    if n < 1:
        raise DataError("model file holds no training matches")
    homes = _decode_tokens(payload, "homes", _SIGN_BY_TOKEN, "home")
    if len(homes) != n:
        raise DataError(f"model 'homes' holds {len(homes)} home tokens, expected {n}")
    index = _index_dtype(len(ids))
    plus = _decode_array(payload, "plus", index, (n, PLAYERS_PER_SIDE))
    minus = _decode_array(payload, "minus", index, (n, PLAYERS_PER_SIDE))
    lineups = np.concatenate([plus, minus], axis=1)
    if np.any(lineups >= len(ids)):
        raise DataError("model lineups index players outside the registry")
    if np.any(np.diff(plus, axis=1) <= 0) or np.any(np.diff(minus, axis=1) <= 0):
        raise DataError("model lineups must be strictly increasing")
    if np.any(np.diff(np.sort(lineups, axis=1), axis=1) == 0):
        raise DataError("a model lineup puts a player on both sides")
    newton_iters = _field(payload, "newton_iters", int)
    if newton_iters < 0:
        raise DataError("model 'newton_iters' must be >= 0")
    weights = _decode_array(payload, "weights", "<f8", (len(ids) + 1,))

    parts = _make_parts(plus, minus, homes, codes, len(ids))
    try:
        with _finite_arithmetic("the rebuild overflowed"):
            post = _at_mode(parts, hyper, weights, newton_iters)
            # a payload that parses yet holds no fit fails m = S X' grad log p(y | X m),
            # checked on m, not on f = X m, which misses any change in X's null space
            mean = parts.variances(hyper.kernel) * (parts.xt @ post.grad)
    except NumericalError as exc:
        raise DataError(f"the model's posterior cannot be rebuilt at its weights: {exc}") from None
    if not _stationary(weights, mean, _STATIONARITY_BOUND):
        raise DataError("model 'weights' are not the posterior mean of its training set")
    return GPModel(post, {pid: i for i, pid in enumerate(ids)})
