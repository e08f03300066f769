"""Acceptance gate: eight numbered criteria, each with a stated tolerance
and a wall-clock budget.

``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion; every test also prints its measured error and runtime.
"""

from __future__ import annotations

import datetime as dt
import math
import time

import mpmath as mp
import numpy as np
from scipy.special import expit

from conftest import (
    BASE_DATE,
    brute_force_evidence,
    dense_embedding,
    make_record,
    player_ids,
    random_dataset,
    random_record,
)
from lineupgp.baselines import (
    EloState,
    UniformModel,
    elo_expected,
    elo_rk_predict,
    elo_update,
)
from lineupgp.data import Dataset, HomeSide, Outcome, split_by_cutoff
from lineupgp.evaluation import evaluate, log_loss
from lineupgp.gp import (
    Hyperparams,
    fit,
    log_marginal,
    optimize_hyperparams,
    quadrature_outcome_probs,
    train_model,
)
from lineupgp.kernel import KernelParams, build_match_vector, kernel_matrix
from lineupgp.likelihood import DrawParam, outcome_probs
from lineupgp.simulate import SimConfig, bayes_log_loss, simulate_dataset
from oracles import (
    log_likelihood_derivs,
    predict_latent,
    predict_outcomes,
    primal_laplace_fit,
)

_LN3 = math.log(3.0)


def _finish(num: int, limit: float, t0: float, detail: str) -> None:
    elapsed = time.perf_counter() - t0
    print(f"criterion {num}: {detail} [{elapsed:.2f}s, limit {limit:.0f}s]")
    assert elapsed < limit, f"criterion {num} exceeded {limit}s: took {elapsed:.2f}s"


def test_criterion_1_uniform_baseline_is_ln3():
    t0 = time.perf_counter()
    ds = random_dataset(np.random.default_rng(1101), 50, 40)
    (report,) = evaluate([UniformModel()], ds)
    err = abs(report.avg_log_loss - _LN3)
    assert err <= 1e-9
    _finish(1, 1.0, t0, f"uniform log loss off ln 3 by {err:.2e} (tol 1e-9)")


def _mp_loglik(code: int, f, alpha):
    """Extended-precision ternary log-likelihood, independent arithmetic."""
    p_w = 1 / (1 + mp.e ** (-(f - alpha)))
    p_l = 1 / (1 + mp.e ** (-(-f - alpha)))
    if code == 1:
        return mp.log(p_w)
    if code == -1:
        return mp.log(p_l)
    return mp.log(mp.expm1(2 * alpha) * p_w * p_l)


def _mp_fd_derivs(code: int, f: float, alpha: float) -> tuple[float, float]:
    """Central finite differences at h = 1e-5 evaluated at 50 decimal digits."""
    with mp.workdps(50):
        h = mp.mpf("1e-5")
        fm, am = mp.mpf(f), mp.mpf(alpha)
        up = _mp_loglik(code, fm + h, am)
        mid = _mp_loglik(code, fm, am)
        dn = _mp_loglik(code, fm - h, am)
        return float((up - dn) / (2 * h)), float((up - 2 * mid + dn) / h**2)


def test_criterion_2_likelihood_grid_sums_and_derivatives():
    t0 = time.perf_counter()
    fs = np.linspace(-10.0, 10.0, 21)
    alphas = np.linspace(0.5, 5.0, 10)
    outcomes = (Outcome.TEAM1_WIN, Outcome.DRAW, Outcome.TEAM2_WIN)
    worst_sum = 0.0
    worst_ratio = 0.0
    for alpha in alphas:
        d = DrawParam.from_alpha(float(alpha))
        for f in fs:
            p = outcome_probs(float(f), d)
            worst_sum = max(worst_sum, abs(p.p_w + p.p_d + p.p_l - 1.0))
            for y in outcomes:
                a1, a2 = log_likelihood_derivs(y, float(f), d)
                e1, e2 = _mp_fd_derivs(y.code, float(f), float(alpha))
                for got, want in ((a1, e1), (a2, e2)):
                    ratio = abs(got - want) / (1e-9 + 1e-6 * abs(want))
                    worst_ratio = max(worst_ratio, ratio)
    assert worst_sum <= 1e-12
    assert worst_ratio <= 1.0
    _finish(
        2,
        5.0,
        t0,
        f"630 grid points: worst sum defect {worst_sum:.2e} (tol 1e-12), "
        f"worst derivative error {worst_ratio:.3f}x its rel-1e-6 bound",
    )


def test_criterion_3_sparse_gram_equals_dense_oracle():
    t0 = time.perf_counter()
    ds = random_dataset(np.random.default_rng(3303), 100, 300)
    assert ds.num_players >= 295  # near-full 300-player universe in play
    vectors = [build_match_vector(r, ds.registry) for r in ds.records]
    kp = KernelParams(sigma2=1.0, sigma2_home=1.0)
    k = kernel_matrix(vectors, vectors, kp)

    x = np.stack([dense_embedding(v, ds.num_players) for v in vectors])
    homes = np.array([float(v.home) for v in vectors])
    dense = x @ x.T + np.outer(homes, homes)

    assert np.array_equal(k, dense)
    assert np.array_equal(k, k.T)
    eigs = np.linalg.eigvalsh(k)
    assert eigs[0] >= -1e-8 * eigs[-1]
    _finish(
        3,
        10.0,
        t0,
        f"100x100 Gram over P={ds.num_players} matches the dense oracle exactly; "
        f"min eig {eigs[0]:.2e} vs floor {-1e-8 * eigs[-1]:.2e}",
    )


def test_criterion_4_dual_equals_primal_on_twenty_datasets():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4404)
    sigma2s = (0.25, 1.0, 0.5, 2.0)
    sigma2_homes = (0.0, 0.5, 1.0, 0.25)
    alphas = (0.3, 0.5, 1.0, 0.45)
    homes = (HomeSide.TEAM1, HomeSide.TEAM2, HomeSide.NEUTRAL)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(8, 101))
        universe = int(rng.integers(24, 51))
        ds = random_dataset(rng, n, universe)
        assert ds.n <= 100 and ds.num_players <= 50
        hyper = Hyperparams.create(
            sigma2=sigma2s[trial % 4],
            sigma2_home=sigma2_homes[trial % 4],
            alpha=alphas[trial % 4],
        )
        post = fit(ds, hyper)
        weights = primal_laplace_fit(ds, hyper)
        names = sorted(ds.registry, key=ds.registry.get)
        for j in range(5):
            picks = rng.permutation(len(names))[:22]
            rec = make_record(
                f"t{trial}x{j}",
                [names[i] for i in picks[:11]],
                [names[i] for i in picks[11:]],
                date=BASE_DATE + dt.timedelta(days=400 + j),
                home=homes[j % 3],
            )
            vec = build_match_vector(rec, ds.registry)
            mu_d, var_d = predict_latent(post, vec)
            mu_p, var_p = weights.predict_latent(vec)
            probs_d = predict_outcomes(post, vec)
            probs_p = weights.predict_outcomes(vec)
            worst = max(
                worst,
                abs(mu_d - mu_p),
                abs(var_d - var_p),
                abs(probs_d.p_w - probs_p.p_w),
                abs(probs_d.p_d - probs_p.p_d),
                abs(probs_d.p_l - probs_p.p_l),
            )
    assert worst <= 1e-6
    _finish(4, 60.0, t0, f"worst dual/primal gap {worst:.2e} over 20 datasets (tol 1e-6)")


# (mu, var, alpha) for the predictive integral; chosen to span centered,
# shifted, tight, wide, and heavy-draw regimes.
_QUAD_CONFIGS = (
    (0.0, 1.0, 0.5),
    (0.5, 0.25, 0.45),
    (-0.5, 0.25, 0.45),
    (1.2, 4.0, 0.6),
    (-2.0, 0.09, 0.3),
    (3.0, 1.0, 1.5),
    (0.1, 0.01, 0.05),
    (-1.0, 2.0, 2.0),
    (2.5, 0.5, 0.9),
    (0.0, 9.0, 0.45),
)


def test_criterion_5_quadrature_matches_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    half = rng.standard_normal(500_000)
    z = np.concatenate([half, -half])  # antithetic, 10^6 draws
    worst = 0.0
    for mu, var, alpha in _QUAD_CONFIGS:
        q = quadrature_outcome_probs(mu, var, DrawParam.from_alpha(alpha))
        f = mu + math.sqrt(var) * z
        p_w = expit(f - alpha)
        p_l = expit(-f - alpha)
        p_d = math.expm1(2.0 * alpha) * (p_w * p_l)
        worst = max(
            worst,
            abs(q.p_w - float(p_w.mean())),
            abs(q.p_d - float(p_d.mean())),
            abs(q.p_l - float(p_l.mean())),
        )
    assert worst <= 1e-3
    _finish(
        5,
        30.0,
        t0,
        f"worst |quadrature - MC| {worst:.2e} over 10 configs x 10^6 draws (tol 1e-3)",
    )


def test_criterion_6_simulation_fit_beats_uniform_and_recovers_truth():
    t0 = time.perf_counter()
    cfg = SimConfig(seed=0)
    result = simulate_dataset(cfg)
    ds = result.dataset
    dates = sorted({r.date for r in ds.records})
    train, test = split_by_cutoff(ds, dates[75])
    assert train.n == 600 and test.n == 200

    hyper = Hyperparams.create(
        sigma2=cfg.true_sigma2, sigma2_home=1.0, alpha=cfg.true_alpha
    )
    model = train_model(train, hyper)
    preds = [model.predict(rec) for rec in test.records]
    gp_loss = log_loss(preds, [rec.outcome for rec in test.records])
    bayes = bayes_log_loss(result, test)

    assert gp_loss < _LN3
    assert abs(gp_loss - bayes) <= 0.05
    assert _LN3 - bayes >= 0.1  # the flat baseline is genuinely beatable here

    recovery_cfg = SimConfig(seed=0, num_teams=12, matches_per_team=50, num_players=168)
    recovery = simulate_dataset(recovery_cfg)
    assert recovery.dataset.n == 300
    found = optimize_hyperparams(
        recovery.dataset,
        Hyperparams.create(sigma2=1.0, sigma2_home=1.0, alpha=0.5),
        budget=200,
    )
    err_sigma2 = abs(
        math.log(found.kernel.sigma2) - math.log(recovery_cfg.true_sigma2)
    )
    err_alpha = abs(found.draw.log_alpha - math.log(recovery_cfg.true_alpha))
    assert err_sigma2 <= 0.7
    assert err_alpha <= 0.7
    _finish(
        6,
        300.0,
        t0,
        f"GP {gp_loss:.4f} vs exact-latent {bayes:.4f} (gap {gp_loss - bayes:+.4f}, "
        f"tol 0.05) and ln 3 {_LN3:.4f}; recovery log-errors "
        f"sigma2 {err_sigma2:.3f}, alpha {err_alpha:.3f} (tol 0.7)",
    )


def test_criterion_7_evidence_matches_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7707)
    universe = player_ids(26)
    nodes_by_n = {1: 200, 2: 120, 3: 80}
    worst = 0.0
    for n in (1, 2, 3):
        for sigma2 in (0.005, 0.01):
            records = [
                random_record(
                    rng, universe, f"m{i:03d}", date=BASE_DATE + dt.timedelta(days=i)
                )
                for i in range(n)
            ]
            ds = Dataset.from_records(records)
            hyper = Hyperparams.create(sigma2=sigma2, sigma2_home=0.005, alpha=0.45)
            post = fit(ds, hyper)
            vectors = [build_match_vector(r, ds.registry) for r in ds.records]
            k = kernel_matrix(vectors, vectors, post.hyper.kernel)
            codes = np.array([r.outcome.code for r in ds.records])
            brute = brute_force_evidence(k, codes, 0.45, nodes=nodes_by_n[n])
            worst = max(worst, abs(log_marginal(post) - brute))
    assert worst <= 0.005
    _finish(
        7,
        30.0,
        t0,
        f"worst |laplace - tensor-grid| evidence gap {worst:.2e} over "
        f"N in (1,2,3) (tol 5e-3)",
    )


def test_criterion_8_elo_identities_and_mass_conservation():
    t0 = time.perf_counter()
    assert elo_expected(1500.0, 1500.0) == 0.5
    assert abs(elo_expected(1900.0, 1500.0) - 10.0 / 11.0) <= 1e-12
    assert abs(elo_expected(1100.0, 1500.0) - 1.0 / 11.0) <= 1e-12
    assert elo_expected(1500.0, 1500.0, HomeSide.TEAM1, 400.0) == elo_expected(
        1900.0, 1500.0
    )

    rng = np.random.default_rng(8808)
    teams = [f"club{i:02d}" for i in range(20)]
    ids = player_ids(22)
    lineup1, lineup2 = ids[:11], ids[11:]
    homes = (HomeSide.TEAM1, HomeSide.TEAM2, HomeSide.NEUTRAL)
    outs = (Outcome.TEAM1_WIN, Outcome.DRAW, Outcome.TEAM2_WIN)
    state = EloState(k_factor=32.0, home_advantage=100.0, initial_rating=1500.0)
    for i in range(10_000):
        a, b = rng.permutation(20)[:2]
        rec = make_record(
            f"u{i:05d}",
            lineup1,
            lineup2,
            team1=teams[a],
            team2=teams[b],
            home=homes[int(rng.integers(3))],
            outcome=outs[int(rng.integers(3))],
        )
        state = elo_update(state, rec)
    mass_drift = abs(
        sum(state.rating(t) for t in teams) - 20 * state.initial_rating
    )
    assert mass_drift <= 1e-9

    d = DrawParam.from_alpha(0.45)
    up = elo_rk_predict(1700.0, 1400.0, HomeSide.NEUTRAL, d)
    down = elo_rk_predict(1400.0, 1700.0, HomeSide.NEUTRAL, d)
    assert up.p_w == down.p_l and up.p_l == down.p_w and up.p_d == down.p_d
    at_home = elo_rk_predict(1600.0, 1500.0, HomeSide.TEAM1, d, home_advantage=80.0)
    away = elo_rk_predict(1500.0, 1600.0, HomeSide.TEAM2, d, home_advantage=80.0)
    assert at_home.p_w == away.p_l and at_home.p_l == away.p_w

    _finish(
        8,
        5.0,
        t0,
        f"mass drift {mass_drift:.2e} over 10^4 updates (tol 1e-9); "
        f"expected-score and side-swap identities exact",
    )
