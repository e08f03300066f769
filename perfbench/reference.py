"""Dense Laplace reference, written apart from lineupgp, to check its outputs.

It shares no code with the program under test: it reads the match CSV
with the standard library, builds its own signed player incidence, writes
the ternary likelihood and its derivatives from the formulas, runs its own
damped Newton loop and integrates the predictive distribution with a
trapezoid rule instead of Gauss-Hermite.  The fit runs in whichever space
is smaller:

* weight space, (P+1) x (P+1), when there are more matches than features.
  Weights are whitened, u = Lambda^{-1/2} w, so the Hessian is I + A'WA.
  Diagonal jitter on the match Gram has no weight-space counterpart and
  is left out; at the program's default of 1e-6 * sigma2 it moves
  probabilities by far less than the 1e-6 the checks allow.
* the dual, N x N, otherwise, with the model's jitter on the diagonal
  (Rasmussen & Williams, GPML, 2006, Alg. 3.1 and 3.2).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

_HOME_SIGN = {"1": 1.0, "2": -1.0, "0": 0.0}
_CODE = {"W": 1, "D": 0, "L": -1}
_MAX_ITER = 200
# trapezoid nodes on +-12 standard deviations for the predictive integral
_Z = np.linspace(-12.0, 12.0, 2401)
_PHI = np.exp(-0.5 * _Z**2)
_PHI[[0, -1]] *= 0.5
_PHI /= _PHI.sum()


@dataclass(frozen=True)
class Match:
    match_id: str
    lineup1: tuple[str, ...]
    lineup2: tuple[str, ...]
    home: float
    code: int


def read_matches(path: str | Path) -> list[Match]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [
        Match(
            r["match_id"],
            tuple(r["lineup1"].split(";")),
            tuple(r["lineup2"].split(";")),
            _HOME_SIGN[r["home"]],
            _CODE[r["outcome"]],
        )
        for r in rows
    ]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def loglik(codes: np.ndarray, f: np.ndarray, alpha: float) -> np.ndarray:
    """log p(y | f): -log(1+e^(a-f)) for a win, -log(1+e^(a+f)) for a loss,
    and their sum plus log(e^(2a) - 1) for a draw."""
    lw = -np.logaddexp(0.0, alpha - f)
    ll = -np.logaddexp(0.0, alpha + f)
    ld = math.log(math.expm1(2.0 * alpha)) + lw + ll
    return np.where(codes == 1, lw, np.where(codes == -1, ll, ld))


def loglik_d12(codes: np.ndarray, f: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """First and second f-derivatives of :func:`loglik`."""
    gw = _sigmoid(alpha - f)  # d/df log p_win
    gl = _sigmoid(alpha + f)  # -d/df log p_loss
    hw = gw * (1.0 - gw)
    hl = gl * (1.0 - gl)
    d1 = np.where(codes == 1, gw, np.where(codes == -1, -gl, gw - gl))
    d2 = np.where(codes == 1, -hw, np.where(codes == -1, -hl, -(hw + hl)))
    return d1, d2


def outcome_probs(mu: float, var: float, alpha: float) -> tuple[float, float, float]:
    """E[p_win], E[p_draw], E[p_loss] under f ~ Normal(mu, var)."""
    f = mu + math.sqrt(max(var, 0.0)) * _Z
    p_w = float(_PHI @ _sigmoid(f - alpha))
    p_l = float(_PHI @ _sigmoid(-f - alpha))
    return p_w, 1.0 - p_w - p_l, p_l


def _newton(obj, newton_step, x: np.ndarray) -> np.ndarray:
    """Damped Newton ascent on a strictly concave objective.

    ``newton_step(x)`` returns the Newton step and the Newton decrement
    g'H^{-1}g, twice the increase a full step promises.  Stops when that is
    at most 1e-18.  Below 1e-9 the promised increase is under the double
    precision resolution of an objective of a few hundred, so the full
    step is taken without a line search: that close to the mode Newton
    converges quadratically.
    """
    val = obj(x)
    for _ in range(_MAX_ITER):
        step, decrement = newton_step(x)
        if decrement <= 1e-18:
            return x
        if decrement < 1e-9:
            x = x + step
            val = obj(x)
            continue
        t = 1.0
        while t > 1e-12:
            x_try = x + t * step
            val_try = obj(x_try)
            if val_try > val:
                break
            t *= 0.5
        else:
            raise ArithmeticError(f"reference Newton stalled with decrement {decrement:.3e}")
        x, val = x_try, val_try
    raise ArithmeticError("reference Newton did not converge")


class LaplaceReference:
    """Laplace posterior of the player-kernel GP on one training file."""

    def __init__(
        self,
        train: list[Match],
        sigma2: float,
        sigma2_home: float,
        alpha: float,
        jitter: float = 0.0,
        dual: bool | None = None,
    ) -> None:
        """``dual=None`` picks the smaller space; tests force one or the other."""
        self.sigma2, self.sigma2_home, self.alpha = sigma2, sigma2_home, alpha
        ids = sorted({p for m in train for p in m.lineup1 + m.lineup2})
        self.index = {p: i for i, p in enumerate(ids)}
        self.z = self._incidence(train)
        self.h = np.array([m.home for m in train])
        self.codes = np.array([m.code for m in train])
        n, p = self.z.shape
        self.dual = n <= p + 1 if dual is None else dual
        if self.dual:
            self._fit_dual(jitter)
        else:
            self._fit_weights()

    def _incidence(self, matches: list[Match]) -> sp.csr_matrix:
        rows, cols, vals = [], [], []
        for i, m in enumerate(matches):
            for pid, sign in [(q, 1.0) for q in m.lineup1] + [(q, -1.0) for q in m.lineup2]:
                j = self.index.get(pid)
                if j is not None:
                    rows.append(i)
                    cols.append(j)
                    vals.append(sign)
        return sp.csr_matrix((vals, (rows, cols)), shape=(len(matches), len(self.index)))

    # weight space: f = A u with A = [sigma Z, sigma_h h], u ~ N(0, I)
    def _features(self, z: sp.csr_matrix, h: np.ndarray) -> np.ndarray:
        return np.hstack([math.sqrt(self.sigma2) * z.toarray(), math.sqrt(self.sigma2_home) * h[:, None]])

    def _fit_weights(self) -> None:
        a = self._features(self.z, self.h)
        codes, alpha = self.codes, self.alpha

        def obj(u):
            return float(np.sum(loglik(codes, a @ u, alpha))) - 0.5 * float(u @ u)

        def newton_step(u):
            d1, d2 = loglik_d12(codes, a @ u, alpha)
            g = a.T @ d1 - u
            step = sla.cho_solve(sla.cho_factor(np.eye(len(u)) + (a.T * -d2) @ a, lower=True), g)
            return step, float(g @ step)

        u = _newton(obj, newton_step, np.zeros(a.shape[1]))
        _, d2 = loglik_d12(codes, a @ u, alpha)
        self.chol = sla.cholesky(np.eye(len(u)) + (a.T * -d2) @ a, lower=True)
        self.u = u
        self.log_evidence = obj(u) - float(np.sum(np.log(np.diag(self.chol))))

    def _fit_dual(self, jitter: float) -> None:
        k = (self.sigma2 * (self.z @ self.z.T)).toarray() + self.sigma2_home * np.outer(self.h, self.h)
        k[np.diag_indices_from(k)] += jitter
        codes, alpha = self.codes, self.alpha
        n = len(codes)

        def obj(a):
            f = k @ a
            return float(np.sum(loglik(codes, f, alpha))) - 0.5 * float(a @ f)

        def newton_step(a):
            # the Newton step in f, carried to a (GPML Alg. 3.1); the gradient
            # in f is d1 - a and the step in f is K (a_new - a)
            f = k @ a
            d1, d2 = loglik_d12(codes, f, alpha)
            sw = np.sqrt(-d2)
            chol = sla.cholesky(np.eye(n) + sw[:, None] * k * sw[None, :], lower=True)
            b = -d2 * f + d1
            step = b - sw * sla.cho_solve((chol, True), sw * (k @ b)) - a
            return step, float((d1 - a) @ (k @ step))

        a = _newton(obj, newton_step, np.zeros(n))
        f = k @ a
        d1, d2 = loglik_d12(codes, f, alpha)
        self.sw = np.sqrt(-d2)
        self.chol = sla.cholesky(np.eye(n) + self.sw[:, None] * k * self.sw[None, :], lower=True)
        self.d1 = d1
        self.log_evidence = obj(a) - float(np.sum(np.log(np.diag(self.chol))))

    def latent(self, matches: list[Match]) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance of each match's latent; unseen players add prior variance."""
        z = self._incidence(matches)
        h = np.array([m.home for m in matches])
        prior = 22.0 * self.sigma2 + self.sigma2_home * h**2
        if self.dual:
            k_star = (self.sigma2 * (z @ self.z.T)).toarray() + self.sigma2_home * np.outer(h, self.h)
            v = sla.solve_triangular(self.chol, self.sw[:, None] * k_star.T, lower=True)
            return k_star @ self.d1, prior - np.sum(v * v, axis=0)
        a = self._features(z, h)
        v = sla.solve_triangular(self.chol, a.T, lower=True)
        # seen players' prior share is replaced by their posterior share
        return a @ self.u, prior - np.sum(a * a, axis=1) + np.sum(v * v, axis=0)

    def predict(self, matches: list[Match]) -> dict[str, tuple[float, float, float]]:
        """Win/draw/loss probabilities per match id."""
        mu, var = self.latent(matches)
        return {m.match_id: outcome_probs(float(mu[i]), float(var[i]), self.alpha) for i, m in enumerate(matches)}
