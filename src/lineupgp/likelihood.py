"""Ternary win/draw/loss likelihood with a draw-margin parameter.

With latent strength difference ``f`` (positive favours team1) and draw
margin ``alpha > 0``:

    p_win  = 1 / (1 + exp(alpha - f))
    p_loss = 1 / (1 + exp(alpha + f))
    p_draw = (exp(2*alpha) - 1) * p_win * p_loss

The three sum to one identically, ``alpha -> 0`` recovers the plain
logistic pairwise model, and the draw probability at ``f = 0`` is
``tanh(alpha/2)``.  Everything is computed through sigmoids/softplus so it
is stable for |f| far beyond any realistic strength difference, and the
expressions are arranged so negating ``f`` exchanges the win/loss roles
bit-for-bit.

A single latent goes through :func:`sigmoid`, which is ``math`` arithmetic
equal bit for bit to ``scipy.special.expit`` on a double, so ``simulate``,
Elo and every one-match probability need no SciPy.  The vector functions
keep ``scipy.special``: NumPy's own ``1 / (1 + np.exp(-x))`` differs from
it in the last bit on some inputs, as its SIMD ``exp`` does from libm's.
They import it when first called, so importing this module loads only
NumPy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .data import Outcome

__all__ = [
    "DrawParam",
    "PredictiveDistribution",
    "outcome_probs",
]


# the largest log(alpha) whose draw factor exp(2*alpha) - 1 is a finite double
_MAX_LOG_ALPHA = math.log(0.5 * math.log(sys.float_info.max))


@dataclass(frozen=True)
class DrawParam:
    """Draw margin, stored as log(alpha) so optimizers keep it positive.

    alpha is at most ~354.9, beyond which exp(2*alpha) overflows.
    """

    log_alpha: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.log_alpha):
            raise ValueError(f"log_alpha must be finite, got {self.log_alpha!r}")
        if self.log_alpha > _MAX_LOG_ALPHA:
            raise ValueError(
                f"alpha must be at most {math.exp(_MAX_LOG_ALPHA):.6g}, beyond which "
                f"exp(2*alpha) overflows; got log(alpha) = {self.log_alpha!r}"
            )

    @property
    def alpha(self) -> float:
        return math.exp(self.log_alpha)

    @classmethod
    def from_alpha(cls, alpha: float) -> "DrawParam":
        if not (alpha > 0.0) or not math.isfinite(alpha):
            raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
        return cls(log_alpha=math.log(alpha))


@dataclass(frozen=True)
class PredictiveDistribution:
    """Probability triple over (win, draw, loss) from team1's perspective."""

    p_w: float
    p_d: float
    p_l: float

    def __post_init__(self) -> None:
        for name, p in (("p_w", self.p_w), ("p_d", self.p_d), ("p_l", self.p_l)):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} = {p!r} outside [0, 1]")
        total = self.p_w + self.p_d + self.p_l
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, expected 1 within 1e-9")

    def prob(self, outcome: Outcome) -> float:
        if outcome is Outcome.TEAM1_WIN:
            return self.p_w
        if outcome is Outcome.DRAW:
            return self.p_d
        return self.p_l

    def as_array(self) -> np.ndarray:
        return np.array([self.p_w, self.p_d, self.p_l])


def _log_expm1(x: float) -> float:
    """log(exp(x) - 1) for x > 0 without overflow."""
    if x < 30.0:
        return math.log(math.expm1(x))
    return x + math.log1p(-math.exp(-x))


def sigmoid(x: float) -> float:
    """1 / (1 + exp(-x)), bit for bit ``scipy.special.expit`` on one double.

    Both evaluate the same expression with the C library's ``exp``; where
    that overflows, SciPy's ``1 / (1 + inf)`` is 0.0, and so is this.
    """
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def outcome_probs(f: float, d: DrawParam) -> PredictiveDistribution:
    """Exact outcome distribution at a known latent difference ``f``.

    The scalar twin of :func:`_probs_arrays`, with the same grouping.
    """
    alpha = d.alpha
    p_w = sigmoid(f - alpha)
    p_l = sigmoid(-f - alpha)
    p_d = math.expm1(2.0 * alpha) * (p_w * p_l)
    return PredictiveDistribution(p_w=p_w, p_d=min(p_d, 1.0), p_l=p_l)


def _probs_arrays(f: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (p_w, p_d, p_l) without constructing distribution objects."""
    from scipy.special import expit

    p_w = expit(f - alpha)
    p_l = expit(-f - alpha)
    # grouping (p_w * p_l) first keeps f -> -f an exact win/loss exchange
    p_d = math.expm1(2.0 * alpha) * (p_w * p_l)
    return p_w, p_d, p_l


def loglik_vector(codes: np.ndarray, f: np.ndarray, alpha: float) -> np.ndarray:
    """Per-match log-likelihood for outcome codes (+1 win, 0 draw, -1 loss)."""
    from scipy.special import log_expit

    lw = log_expit(f - alpha)
    ll = log_expit(-f - alpha)
    draw = _log_expm1(2.0 * alpha) + (lw + ll)
    out = np.where(codes > 0, lw, np.where(codes < 0, ll, draw))
    return out


def loglik_derivs_vector(
    codes: np.ndarray, f: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of the per-match log-likelihood in f.

    The second derivative is <= 0 everywhere (log-concave likelihood).
    """
    from scipy.special import expit

    p_w = expit(f - alpha)
    p_l = expit(-f - alpha)
    q_w = expit(alpha - f)  # 1 - p_w
    q_l = expit(alpha + f)  # 1 - p_l
    d1 = np.where(codes > 0, q_w, np.where(codes < 0, -q_l, q_w - q_l))
    d2 = np.where(
        codes > 0,
        -(p_w * q_w),
        np.where(codes < 0, -(p_l * q_l), -(p_w * q_w + p_l * q_l)),
    )
    return d1, d2


def loglik_alpha_derivs(
    codes: np.ndarray, f: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Derivatives the evidence gradient needs beyond :func:`loglik_derivs_vector`.

    Returns (d log p/d alpha, d^2 log p/(df d alpha), dW/d alpha, dW/df), with
    W = -d^2 log p/df^2.  With p = expit(f - alpha), q = 1 - p for a win,
    p = expit(-f - alpha), q = 1 - p for a loss, u = p q (q - p):

    * win:  -q_w, p_w q_w, -u_w, u_w;
    * loss: -q_l, -p_l q_l, -u_l, -u_l;
    * draw: 2 / (1 - exp(-2 alpha)) - q_w - q_l, p_w q_w - p_l q_l,
      -u_w - u_l, u_w - u_l.
    """
    from scipy.special import expit

    p_w = expit(f - alpha)
    p_l = expit(-f - alpha)
    q_w = expit(alpha - f)
    q_l = expit(alpha + f)
    g_w = p_w * q_w
    g_l = p_l * q_l
    u_w = g_w * (q_w - p_w)
    u_l = g_l * (q_l - p_l)
    win, loss = codes > 0, codes < 0
    dlp = np.where(win, -q_w, np.where(loss, -q_l, 2.0 / -math.expm1(-2.0 * alpha) - q_w - q_l))
    dd1 = np.where(win, g_w, np.where(loss, -g_l, g_w - g_l))
    dw_alpha = np.where(win, -u_w, np.where(loss, -u_l, -u_w - u_l))
    dw_f = np.where(win, u_w, np.where(loss, -u_l, u_w - u_l))
    return dlp, dd1, dw_alpha, dw_f


def loglik_alpha_slope_curvature(
    codes: np.ndarray, f: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """d log p/d alpha and d^2 log p/d alpha^2 per match, from one set of sigmoids.

    The slope is the first array of :func:`loglik_alpha_derivs`, term for
    term.  The curvature is -p_w q_w for a win, -p_l q_l for a loss, and
    -4 exp(-2 alpha) / (1 - exp(-2 alpha))^2 - p_w q_w - p_l q_l for a draw,
    with p and q as there.  Every curvature term is negative, so the
    log-likelihood is strictly concave in alpha; far from f = alpha a win's
    or a loss's term underflows to 0.
    """
    from scipy.special import expit

    p_w = expit(f - alpha)
    p_l = expit(-f - alpha)
    q_w = expit(alpha - f)
    q_l = expit(alpha + f)
    g_w = p_w * q_w
    g_l = p_l * q_l
    win, loss = codes > 0, codes < 0
    slope = np.where(win, -q_w, np.where(loss, -q_l, 2.0 / -math.expm1(-2.0 * alpha) - q_w - q_l))
    draw = -4.0 * math.exp(-2.0 * alpha) / math.expm1(-2.0 * alpha) ** 2
    return slope, np.where(win, -g_w, np.where(loss, -g_l, draw - g_w - g_l))
