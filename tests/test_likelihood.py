"""Ternary likelihood values and derivatives against extended-precision oracles.

The oracle recomputes everything with mpmath at 50 significant digits from
the raw probability formulas, and differentiates by central finite
differences in that arithmetic, so float64 rounding in the oracle itself is
never the limiting factor.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import expit

from lineupgp.data import Outcome
from lineupgp.likelihood import (
    DrawParam,
    PredictiveDistribution,
    _log_expm1,
    _probs_arrays,
    loglik_alpha_derivs,
    loglik_alpha_slope_curvature,
    loglik_derivs_vector,
    loglik_vector,
    outcome_probs,
    sigmoid,
)
from oracles import log_likelihood, log_likelihood_derivs, loglik_alpha_curvature

OUTCOMES = (Outcome.TEAM1_WIN, Outcome.DRAW, Outcome.TEAM2_WIN)


def mp_probs(f, alpha):
    f, a = mp.mpf(f), mp.mpf(alpha)
    p_w = 1 / (1 + mp.exp(a - f))
    p_l = 1 / (1 + mp.exp(a + f))
    p_d = (mp.exp(2 * a) - 1) * p_w * p_l
    return p_w, p_d, p_l


def mp_loglik(code, f, alpha):
    p_w, p_d, p_l = mp_probs(f, alpha)
    return mp.log({1: p_w, 0: p_d, -1: p_l}[code])


def mp_fd_derivs(code, f, alpha, h="1e-10"):
    h = mp.mpf(h)
    lo, mid, hi = (mp_loglik(code, mp.mpf(f) + s * h, alpha) for s in (-1, 0, 1))
    d1 = (hi - lo) / (2 * h)
    d2 = (hi - 2 * mid + lo) / (h * h)
    return d1, d2


def mp_fd_alpha_derivs(code, f, alpha, h="1e-12"):
    """(d/d alpha, d^2/(df d alpha), dW/d alpha, dW/df) of log p, W = -d^2 log p/df^2.

    Central differences in f and alpha; call inside mp.workdps(50).
    """
    h = mp.mpf(h)
    f, alpha = mp.mpf(f), mp.mpf(alpha)
    steps = [(0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1), (1, 0), (-1, 0), (2, 0), (-2, 0)]
    c = {(i, j): mp_loglik(code, f + i * h, alpha + j * h) for i, j in steps}
    d_alpha = (c[0, 1] - c[0, -1]) / (2 * h)
    d_f_alpha = (c[1, 1] - c[1, -1] - c[-1, 1] + c[-1, -1]) / (4 * h * h)
    d_ff_alpha = (
        (c[1, 1] + c[-1, 1] - 2 * c[0, 1]) - (c[1, -1] + c[-1, -1] - 2 * c[0, -1])
    ) / (2 * h**3)
    d_fff = (c[2, 0] - 2 * c[1, 0] + 2 * c[-1, 0] - c[-2, 0]) / (2 * h**3)
    return d_alpha, d_f_alpha, -d_ff_alpha, -d_fff


class TestDrawParam:
    def test_round_trip(self):
        d = DrawParam.from_alpha(0.45)
        assert math.isclose(d.alpha, 0.45, rel_tol=1e-15)
        assert d.log_alpha == math.log(0.45)

    def test_rejects_bad_alpha(self):
        for bad in (0.0, -1.0, math.inf, math.nan, 400.0, 1e308):
            with pytest.raises(ValueError):
                DrawParam.from_alpha(bad)
        with pytest.raises(ValueError):
            DrawParam(log_alpha=math.inf)


class TestPredictiveDistribution:
    def test_prob_mapping(self):
        p = PredictiveDistribution(p_w=0.5, p_d=0.3, p_l=0.2)
        assert p.prob(Outcome.TEAM1_WIN) == 0.5
        assert p.prob(Outcome.DRAW) == 0.3
        assert p.prob(Outcome.TEAM2_WIN) == 0.2
        assert p.as_array().tolist() == [0.5, 0.3, 0.2]

    def test_rejects_bad_triples(self):
        with pytest.raises(ValueError, match="sum"):
            PredictiveDistribution(p_w=0.5, p_d=0.5, p_l=0.5)
        with pytest.raises(ValueError, match="outside"):
            PredictiveDistribution(p_w=-0.1, p_d=0.6, p_l=0.5)


class TestOutcomeProbs:
    def test_matches_mp_oracle(self):
        with mp.workdps(50):
            rng = np.random.default_rng(101)
            for _ in range(200):
                f = float(rng.uniform(-12, 12))
                alpha = float(rng.uniform(0.02, 4.0))
                got = outcome_probs(f, DrawParam.from_alpha(alpha))
                want = mp_probs(f, alpha)
                for g, w in zip(got.as_array(), want):
                    assert abs(g - float(w)) <= 1e-14

    def test_sums_to_one(self):
        rng = np.random.default_rng(102)
        for _ in range(500):
            f = float(rng.uniform(-20, 20))
            alpha = float(rng.uniform(1e-3, 5.0))
            p = outcome_probs(f, DrawParam.from_alpha(alpha))
            assert abs(p.p_w + p.p_d + p.p_l - 1.0) <= 1e-12

    def test_equal_thirds_at_log2(self):
        p = outcome_probs(0.0, DrawParam.from_alpha(math.log(2.0)))
        for v in p.as_array():
            assert abs(v - 1.0 / 3.0) <= 1e-15

    def test_draw_prob_at_zero_is_tanh(self):
        for alpha in (0.05, 0.45, 1.0, 3.0):
            p = outcome_probs(0.0, DrawParam.from_alpha(alpha))
            assert math.isclose(p.p_d, math.tanh(alpha / 2.0), rel_tol=1e-13)

    def test_tiny_alpha_recovers_logistic(self):
        rng = np.random.default_rng(103)
        d = DrawParam.from_alpha(1e-12)
        for _ in range(50):
            f = float(rng.uniform(-8, 8))
            p = outcome_probs(f, d)
            assert p.p_d <= 3e-12
            assert abs(p.p_w - 1.0 / (1.0 + math.exp(-f))) <= 1e-9

    def test_negating_f_swaps_win_loss_exactly(self):
        rng = np.random.default_rng(104)
        for _ in range(100):
            f = float(rng.uniform(-15, 15))
            d = DrawParam.from_alpha(float(rng.uniform(0.05, 3.0)))
            p = outcome_probs(f, d)
            q = outcome_probs(-f, d)
            assert p.p_w == q.p_l
            assert p.p_l == q.p_w
            assert p.p_d == q.p_d

    def test_win_monotone_in_f(self):
        d = DrawParam.from_alpha(0.45)
        grid = [outcome_probs(f, d).p_w for f in np.linspace(-6, 6, 41)]
        assert all(a < b for a, b in zip(grid, grid[1:]))


class TestScalarPath:
    def test_sigmoid_is_scipy_expit_bit_for_bit(self):
        rng = np.random.default_rng(106)
        n = 500_000
        magnitudes = 10.0 ** rng.uniform(-320.0, 3.0, n)
        edges = [0.0, 1e-300, 709.78, 745.0, 800.0, math.inf]
        x = np.concatenate(
            [
                rng.uniform(-700.0, 700.0, n),
                np.where(rng.random(n) < 0.5, -magnitudes, magnitudes),
                edges,
                [-v for v in edges],
            ]
        )
        got = np.array([sigmoid(v) for v in x.tolist()])
        want = expit(x)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert math.isnan(sigmoid(math.nan)) and math.isnan(float(expit(math.nan)))

    def test_outcome_probs_is_probs_arrays_bit_for_bit(self):
        f = np.concatenate([np.linspace(-40.0, 40.0, 1601), [-1e300, -1e-300, 0.0, 1e-300, 1e300]])
        for alpha in (1e-12, 0.02, 0.45, math.log(2.0), 3.0, 40.0, 354.0):
            d = DrawParam.from_alpha(alpha)
            arrays = _probs_arrays(f, d.alpha)
            got = [outcome_probs(v, d) for v in f.tolist()]
            assert [p.p_w for p in got] == arrays[0].tolist()
            assert [p.p_d for p in got] == np.minimum(arrays[1], 1.0).tolist()
            assert [p.p_l for p in got] == arrays[2].tolist()


class TestLogLikelihood:
    def test_matches_mp_oracle(self):
        with mp.workdps(50):
            rng = np.random.default_rng(111)
            for _ in range(150):
                f = float(rng.uniform(-12, 12))
                alpha = float(rng.uniform(0.02, 4.0))
                y = OUTCOMES[int(rng.integers(3))]
                got = log_likelihood(y, f, DrawParam.from_alpha(alpha))
                want = float(mp_loglik(y.code, f, alpha))
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_uniform_point(self):
        d = DrawParam.from_alpha(math.log(2.0))
        for y in OUTCOMES:
            assert abs(log_likelihood(y, 0.0, d) - math.log(1.0 / 3.0)) <= 1e-14

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(112)
        f = rng.uniform(-10, 10, size=30)
        codes = rng.integers(-1, 2, size=30)
        alpha = 0.7
        vec = loglik_vector(codes, f, alpha)
        for i in range(30):
            y = {1: Outcome.TEAM1_WIN, 0: Outcome.DRAW, -1: Outcome.TEAM2_WIN}[int(codes[i])]
            assert vec[i] == log_likelihood(y, float(f[i]), DrawParam.from_alpha(alpha))

    def test_stable_far_out(self):
        d = DrawParam.from_alpha(0.45)
        val = log_likelihood(Outcome.TEAM1_WIN, -500.0, d)
        assert math.isfinite(val) and val < -400


class TestDerivatives:
    def test_match_mp_finite_differences(self):
        with mp.workdps(50):
            rng = np.random.default_rng(121)
            for _ in range(120):
                f = float(rng.uniform(-10, 10))
                alpha = float(rng.uniform(0.05, 4.0))
                y = OUTCOMES[int(rng.integers(3))]
                d1, d2 = log_likelihood_derivs(y, f, DrawParam.from_alpha(alpha))
                fd1, fd2 = mp_fd_derivs(y.code, f, alpha)
                assert abs(d1 - float(fd1)) <= 1e-6 * abs(float(fd1)) + 1e-9
                assert abs(d2 - float(fd2)) <= 1e-6 * abs(float(fd2)) + 1e-9

    def test_closed_form_win_at_origin(self):
        # alpha -> 0 makes the win case plain logistic regression: d1 = 1/2,
        # d2 = -1/4 at f = 0
        d1, d2 = loglik_derivs_vector(np.array([1]), np.array([0.0]), 0.0)
        assert d1[0] == 0.5
        assert d2[0] == -0.25

    def test_draw_gradient_zero_at_origin(self):
        for alpha in (0.1, 0.45, 2.0):
            d1, _ = log_likelihood_derivs(Outcome.DRAW, 0.0, DrawParam.from_alpha(alpha))
            assert d1 == 0.0

    def test_log_concavity(self):
        rng = np.random.default_rng(122)
        f = rng.uniform(-25, 25, size=400)
        codes = rng.integers(-1, 2, size=400)
        for alpha in (0.05, 0.45, 1.5, 4.0):
            _, d2 = loglik_derivs_vector(codes, f, alpha)
            assert np.all(d2 <= 0.0)

    def test_side_swap_bit_exact(self):
        rng = np.random.default_rng(123)
        f = rng.uniform(-12, 12, size=200)
        alpha = 0.6
        w1, w2 = loglik_derivs_vector(np.ones(200, dtype=int), f, alpha)
        l1, l2 = loglik_derivs_vector(-np.ones(200, dtype=int), -f, alpha)
        assert np.array_equal(w1, -l1)
        assert np.array_equal(w2, l2)
        d1, d2 = loglik_derivs_vector(np.zeros(200, dtype=int), f, alpha)
        e1, e2 = loglik_derivs_vector(np.zeros(200, dtype=int), -f, alpha)
        assert np.array_equal(d1, -e1)
        assert np.array_equal(d2, e2)

    def test_win_gradient_bounds(self):
        rng = np.random.default_rng(124)
        f = rng.uniform(-20, 20, size=100)
        d1, _ = loglik_derivs_vector(np.ones(100, dtype=int), f, 0.45)
        assert np.all((d1 > 0.0) & (d1 < 1.0))


class TestAlphaDerivatives:
    def test_match_mp_on_criterion_2_grid(self):
        # 21 f values x 10 alphas x 3 outcomes = 630 points
        with mp.workdps(50):
            for alpha in np.linspace(0.5, 5.0, 10):
                for f in np.linspace(-10.0, 10.0, 21):
                    for y in OUTCOMES:
                        got = loglik_alpha_derivs(np.array([y.code]), np.array([f]), float(alpha))
                        want = mp_fd_alpha_derivs(y.code, float(f), float(alpha))
                        for g, w in zip(got, want):
                            assert abs(g[0] - float(w)) <= 1e-12 * max(1.0, abs(float(w)))

    def test_curvature_matches_mp_on_criterion_2_grid(self):
        # the same 630 points; central second differences in alpha
        with mp.workdps(50):
            h = mp.mpf("1e-12")
            for alpha in np.linspace(0.5, 5.0, 10):
                for f in np.linspace(-10.0, 10.0, 21):
                    for y in OUTCOMES:
                        _, (got,) = loglik_alpha_slope_curvature(
                            np.array([y.code]), np.array([f]), float(alpha)
                        )
                        a = mp.mpf(float(alpha))
                        c = [mp_loglik(y.code, float(f), a + s * h) for s in (-1, 0, 1)]
                        want = float((c[0] - 2 * c[1] + c[2]) / (h * h))
                        assert got < 0.0
                        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


    def test_slope_and_curvature_are_the_two_pass_values(self):
        # one set of sigmoids gives, term for term, the slope of
        # loglik_alpha_derivs and the curvature of four sigmoids of its own
        rng = np.random.default_rng(125)
        f = np.concatenate([rng.normal(0.0, 0.6, 600), rng.uniform(-40.0, 40.0, 60), [0.0, -0.0]])
        codes = rng.integers(-1, 2, size=f.size)
        for alpha in (1e-4, 0.05, 0.4, 2.0, 10.0):
            slope, curvature = loglik_alpha_slope_curvature(codes, f, alpha)
            assert slope.tobytes() == loglik_alpha_derivs(codes, f, alpha)[0].tobytes()
            assert curvature.tobytes() == loglik_alpha_curvature(codes, f, alpha).tobytes()


class TestLogExpm1:
    def test_matches_mp(self):
        with mp.workdps(50):
            for x in (1e-8, 1e-4, 0.1, 1.0, 5.0, 29.9, 30.1, 50.0, 700.0):
                want = float(mp.log(mp.expm1(mp.mpf(x))))
                assert abs(_log_expm1(x) - want) <= 1e-13 * max(1.0, abs(want))
