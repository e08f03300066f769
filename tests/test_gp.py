"""Laplace fit, predictions, evidence, hyperparameter search, persistence.

Oracles used here:
  * a bisection root-finder for the single-match posterior mode,
  * the weight-space (primal) Laplace fit for the multi-match case,
  * a tensor-grid integrator for the evidence on tiny datasets,
  * the dense N x N Gram for the low-rank route's mode and evidence,
  * central differences of the evidence for its analytic gradient,
  * closed forms for fully disjoint test matches.
"""

from __future__ import annotations

import base64
import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    brute_force_evidence,
    make_record,
    player_ids,
    random_dataset,
    random_record,
    version_1_payload,
    version_2_payload,
    version_3_payload,
)
from lineupgp import gp
from lineupgp.baselines import primal_laplace_fit, primal_laplace_fit_vectors
from lineupgp.data import Dataset, HomeSide, MatchRecord, Outcome
from lineupgp.errors import DataError, NumericalError
from lineupgp.gp import (
    Hyperparams,
    _dataset_parts,
    _evidence_gradient,
    _laplace,
    _newton_mode,
    fit,
    load_model,
    log_marginal,
    optimize_hyperparams,
    predict_latent,
    predict_outcomes,
    quadrature_outcome_probs,
    save_model,
    train_model,
)
from lineupgp.kernel import (
    SELF_OVERLAP,
    build_match_vector,
    kernel_eval,
    kernel_matrix,
    match_incidence,
)
from lineupgp.likelihood import (
    DrawParam,
    _probs_arrays,
    log_likelihood_derivs,
    loglik_derivs_vector,
    loglik_vector,
    outcome_probs,
)
from lineupgp.simulate import SimConfig, simulate_dataset

IDS = player_ids(80)


def _single_match_dataset(outcome, home=HomeSide.NEUTRAL):
    rec = make_record("m1", IDS[:11], IDS[11:22], home=home, outcome=outcome)
    return Dataset.from_records([rec])


def _bisect_mode(k, outcome, alpha, lo=-60.0, hi=60.0):
    """Root of f - k * d1(f) = 0; the one-match stationarity condition."""
    d = DrawParam.from_alpha(alpha)

    def g(f):
        d1, _ = log_likelihood_derivs(outcome, f, d)
        return f - k * d1

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSingleMatchMode:
    @pytest.mark.parametrize(
        "outcome", [Outcome.TEAM1_WIN, Outcome.DRAW, Outcome.TEAM2_WIN]
    )
    def test_mode_matches_bisection(self, outcome):
        hyper = Hyperparams.create(sigma2=0.2, sigma2_home=0.0, alpha=0.45)
        post = fit(_single_match_dataset(outcome), hyper)
        k = SELF_OVERLAP * 0.2
        want = _bisect_mode(k, outcome, 0.45)
        assert abs(post.mode[0] - want) <= 1e-8

    def test_draw_mode_is_zero(self):
        hyper = Hyperparams.create(sigma2=0.5, sigma2_home=0.0, alpha=0.7)
        post = fit(_single_match_dataset(Outcome.DRAW), hyper)
        assert post.mode[0] == 0.0

    def test_win_pulls_mode_positive(self):
        hyper = Hyperparams.create(sigma2=0.3, sigma2_home=0.0, alpha=0.45)
        up = fit(_single_match_dataset(Outcome.TEAM1_WIN), hyper)
        down = fit(_single_match_dataset(Outcome.TEAM2_WIN), hyper)
        assert up.mode[0] > 0.0
        assert down.mode[0] == -up.mode[0]


class TestNewtonProperties:
    def test_stationarity_invariant(self):
        rng = np.random.default_rng(201)
        for _ in range(6):
            ds = random_dataset(rng, int(rng.integers(5, 40)), 40)
            hyper = Hyperparams.create(
                sigma2=float(rng.uniform(0.02, 0.6)),
                sigma2_home=float(rng.uniform(0.0, 1.0)),
                alpha=float(rng.uniform(0.2, 1.2)),
            )
            post = fit(ds, hyper)
            vecs = [build_match_vector(r, ds.registry) for r in ds.records]
            k = kernel_matrix(vecs, vecs, hyper.kernel)
            resid = np.max(np.abs(post.mode - k @ post.grad))
            assert resid <= 1e-6 * max(1.0, np.max(np.abs(post.mode)))
            # dual representation f = K a holds at the same resolution
            assert np.max(np.abs(post.mode - k @ post.dual_coef)) <= 1e-6

    def test_mode_independent_of_start(self):
        rng = np.random.default_rng(202)
        ds = random_dataset(rng, 25, 40)
        hyper = Hyperparams.create(sigma2=0.2, sigma2_home=0.5, alpha=0.5)
        vecs = [build_match_vector(r, ds.registry) for r in ds.records]
        k = kernel_matrix(vecs, vecs, hyper.kernel)
        codes = np.array([r.outcome.code for r in ds.records])
        f_zero, _, _ = _newton_mode(k, codes, hyper.alpha)
        f_noise, _, _ = _newton_mode(k, codes, hyper.alpha, a0=rng.standard_normal(ds.n))
        assert np.max(np.abs(f_zero - f_noise)) <= 1e-6

    def test_converges_within_budget(self):
        ds = random_dataset(np.random.default_rng(203), 60, 60)
        post = fit(ds, Hyperparams.create(sigma2=0.3, sigma2_home=0.8, alpha=0.45))
        assert post.newton_iters < 100

    def test_empty_training_set(self):
        with pytest.raises(DataError, match="empty"):
            fit(Dataset(records=(), registry={}), Hyperparams.create())


class TestDualPrimalEquivalence:
    def test_small_league(self):
        rng = np.random.default_rng(211)
        ds = random_dataset(rng, 30, 40)
        hyper = Hyperparams.create(sigma2=0.09, sigma2_home=0.6, alpha=0.45)
        post = fit(ds, hyper)
        wsp = primal_laplace_fit(ds, hyper)
        for _ in range(15):
            rec = random_record(rng, sorted(ds.registry), "t0000")
            vec = build_match_vector(rec, ds.registry)
            mu_d, var_d = predict_latent(post, vec)
            mu_p, var_p = wsp.predict_latent(vec)
            assert abs(mu_d - mu_p) <= 1e-6
            assert abs(var_d - var_p) <= 1e-6
            pd_ = predict_outcomes(post, vec).as_array()
            pp = wsp.predict_outcomes(vec).as_array()
            assert np.max(np.abs(pd_ - pp)) <= 1e-6

    def test_no_home_feature(self):
        rng = np.random.default_rng(212)
        ds = random_dataset(rng, 20, 35)
        hyper = Hyperparams.create(sigma2=0.15, sigma2_home=0.0, alpha=0.6)
        post = fit(ds, hyper)
        wsp = primal_laplace_fit(ds, hyper)
        vec = build_match_vector(ds.records[0], ds.registry)
        mu_d, var_d = predict_latent(post, vec)
        mu_p, var_p = wsp.predict_latent(vec)
        assert abs(mu_d - mu_p) <= 1e-6
        assert abs(var_d - var_p) <= 1e-6

    def test_partly_unseen_lineups(self):
        # lineups mixing training players with unseen ones: the unseen half
        # adds prior variance only, as under the train/test union registry;
        # 30 matches over 40 players serve from B, 60 over 30 from weight space
        rng = np.random.default_rng(213)
        for n_matches, n_players in ((30, 40), (60, 30)):
            ds = random_dataset(rng, n_matches, n_players)
            hyper = Hyperparams.create(sigma2=0.09, sigma2_home=0.6, alpha=0.45)
            model = train_model(ds, hyper)
            assert model.posterior.low_rank == (ds.n > ds.num_players + 1)
            seen = sorted(ds.registry)
            fresh = [f"q{i:03d}" for i in range(10)]
            union = dict(ds.registry)
            for pid in fresh:
                union[pid] = len(union)
            wsp = primal_laplace_fit_vectors(
                [build_match_vector(r, union) for r in ds.records],
                [r.outcome for r in ds.records],
                len(union),
                hyper,
            )
            for i in range(8):
                old = [seen[j] for j in rng.permutation(len(seen))[:14]]
                new = [fresh[j] for j in rng.permutation(len(fresh))[:8]]
                home = (HomeSide.TEAM1, HomeSide.TEAM2, HomeSide.NEUTRAL)[i % 3]
                rec = make_record(f"t{i:04d}", old[:7] + new[:4], old[7:] + new[4:], home=home)
                mu_d, var_d = model.predict_latent(rec)
                mu_p, var_p = wsp.predict_latent(build_match_vector(rec, union))
                assert abs(mu_d - mu_p) <= 1e-6
                assert abs(var_d - var_p) <= 1e-6


def _dense_evidence(ds, hyper):
    """Mode by Newton on the dense N x N Gram, evidence with log|B| from slogdet."""
    vecs = [build_match_vector(r, ds.registry) for r in ds.records]
    k = kernel_matrix(vecs, vecs, hyper.kernel)
    codes = np.array([r.outcome.code for r in ds.records])
    f, a, _ = _newton_mode(k, codes, hyper.alpha)
    _, d2 = loglik_derivs_vector(codes, f, hyper.alpha)
    sw = np.sqrt(-d2)
    sign, logdet = np.linalg.slogdet(np.eye(ds.n) + sw[:, None] * k * sw[None, :])
    assert sign == 1.0
    return f, float(np.sum(loglik_vector(codes, f, hyper.alpha)) - 0.5 * (f @ a) - 0.5 * logdet)


def _neutral(ds):
    return Dataset.from_records(
        [dataclasses.replace(rec, home=HomeSide.NEUTRAL) for rec in ds.records],
        registry=ds.registry,
    )


class TestLowRankRoute:
    """N > P+1: Newton steps through the (P+1) x (P+1) factor of B."""

    def _cases(self):
        rng = np.random.default_rng(271)
        wide = random_dataset(rng, 60, 40)
        edge = random_dataset(rng, 32, 30)
        assert wide.n > wide.num_players + 1 and edge.n == edge.num_players + 2
        return [
            (wide, Hyperparams.create(sigma2=0.09, sigma2_home=0.6, alpha=0.45)),
            (wide, Hyperparams.create(sigma2=0.5, sigma2_home=3.0, alpha=0.2)),
            (wide, Hyperparams.create(sigma2=0.2, sigma2_home=0.0, alpha=0.5)),
            (wide, Hyperparams.create(sigma2=0.2, sigma2_home=0.7, alpha=0.5)),
            (_neutral(wide), Hyperparams.create(sigma2=0.3, sigma2_home=1.0, alpha=0.6)),
            (edge, Hyperparams.create(sigma2=0.15, sigma2_home=0.4, alpha=0.45)),
        ]

    def test_route_follows_shape(self):
        rng = np.random.default_rng(272)
        dense = random_dataset(rng, 31, 30)
        assert dense.n == dense.num_players + 1
        assert _dataset_parts(dense).pairs is None
        assert not fit(dense, Hyperparams.create()).low_rank
        for ds, _ in self._cases():
            assert _dataset_parts(ds).pairs is not None
            assert fit(ds, Hyperparams.create()).low_rank

    def test_incidence_from_registry(self):
        # Z from registry lookups equals Z stacked from match vectors, on both
        # routes and with a registry wider than the training lineups
        rng = np.random.default_rng(273)
        league = random_dataset(rng, 60, 30)
        wide = Dataset.from_records(league.records, registry={**league.registry, "q000": 30})
        for ds in (random_dataset(rng, 20, 40), league, wide):
            want, homes = match_incidence(
                [build_match_vector(r, ds.registry) for r in ds.records], ds.num_players
            )
            parts = _dataset_parts(ds)
            for key in ("indices", "data", "indptr"):
                assert np.array_equal(getattr(parts.z, key), getattr(want, key)), key
            assert parts.z.shape == want.shape and np.array_equal(parts.homes, homes)
        ds = random_dataset(rng, 5, 30)
        partial = Dataset(records=ds.records, registry={pid: 0 for pid in ds.records[0].lineup1})
        with pytest.raises(DataError, match="not in the registry"):
            _dataset_parts(partial)

    def test_log_marginal_is_the_search_evidence(self):
        rng = np.random.default_rng(274)
        cases = [(random_dataset(rng, 30, 40), Hyperparams.create(sigma2=0.09, alpha=0.45))]
        cases += self._cases()
        for ds, hyper in cases:
            assert log_marginal(fit(ds, hyper)) == _laplace(_dataset_parts(ds), hyper).evidence

    def test_evidence_matches_dense(self):
        for ds, hyper in self._cases():
            low_rank = _laplace(_dataset_parts(ds), hyper).evidence
            f_dense, dense = _dense_evidence(ds, hyper)
            post = fit(ds, hyper)
            assert abs(low_rank - dense) <= 1e-9 * abs(dense)
            assert abs(low_rank - log_marginal(post)) <= 1e-9 * abs(dense)
            assert np.max(np.abs(post.mode - f_dense)) <= 1e-8


def _dense_dual_latent(post, train, vec):
    """mu = k*' grad and var = k** - |L_B^{-1} W^{1/2} k*|^2 from the dense Gram."""
    kp = post.hyper.kernel
    vecs = [build_match_vector(r, train.registry) for r in train.records]
    k = kernel_matrix(vecs, vecs, kp)
    sw = post.sqrt_w
    chol = np.linalg.cholesky(np.eye(train.n) + sw[:, None] * k * sw[None, :])
    k_star = kernel_matrix([vec], vecs, kp)[0]
    v = np.linalg.solve(chol, sw * k_star)
    return float(k_star @ post.grad), kernel_eval(vec, vec, kp) - float(v @ v)


class TestWeightSpaceServing:
    """N > P+1: predictions from L_C equal the dense dual formula."""

    def test_matches_dense_dual(self):
        league = simulate_dataset(SimConfig(seed=0)).dataset.records
        train = Dataset.from_records(league[:300])
        hyper = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        model = train_model(train, hyper)
        assert model.posterior.low_rank
        # four players per side unseen in training
        fresh = tuple(f"q{i:03d}" for i in range(8))
        mixed = tuple(
            dataclasses.replace(rec, lineup1=rec.lineup1[:7] + fresh[:4], lineup2=rec.lineup2[:7] + fresh[4:])
            for rec in league[340:345]
        )
        for rec in league[300:340] + mixed:
            # the union registry: a player unseen in training overlaps no training match
            vec = model.vector_for(rec)
            mu_w, var_w = model.predict_latent(rec)
            mu_d, var_d = _dense_dual_latent(model.posterior, train, vec)
            assert abs(mu_w - mu_d) <= 1e-12
            assert abs(var_w - var_d) <= 1e-12
            got = model.predict(rec).as_array()
            want = quadrature_outcome_probs(mu_d, var_d, hyper.draw).as_array()
            assert np.max(np.abs(got - want)) <= 1e-12


class TestBatchServing:
    """predict_many scores a test set in one batch, equal to its one-row calls."""

    def _models(self):
        # a low-rank league (60 matches over 30 players) and a dense one (20 over 44)
        rng = np.random.default_rng(291)
        hyper = Hyperparams.create(sigma2=0.09, sigma2_home=0.6, alpha=0.45)
        models = [train_model(random_dataset(rng, n, p), hyper) for n, p in ((60, 30), (20, 44))]
        assert [m.posterior.low_rank for m in models] == [True, False]
        return rng, models

    def _records(self, rng, model):
        seen = sorted(model.registry)
        fresh = [f"q{i:03d}" for i in range(30)]
        homes = (HomeSide.TEAM1, HomeSide.TEAM2, HomeSide.NEUTRAL)
        records = []
        for i in range(9):
            # 0, 4, ..., 16 unseen players per match, every venue
            k = (i % 5) * 4
            old = [seen[j] for j in rng.permutation(len(seen))[: 22 - k]]
            new = [fresh[j] for j in rng.permutation(len(fresh))[:k]]
            lineup = old + new
            records.append(make_record(f"t{i:04d}", lineup[::2], lineup[1::2], home=homes[i % 3]))
        records.append(make_record("t0009", fresh[:11], fresh[11:22], home=HomeSide.NEUTRAL))
        return records

    def _assert_matches_one_row(self, model, records):
        got = model.predict_many(records)
        assert len(got) == len(records)
        for rec, p in zip(records, got):
            q = model.predict(rec)
            assert np.max(np.abs(p.as_array() - q.as_array())) <= 1e-12
            mu, var = model.predict_latent(rec)
            mu_v, var_v = predict_latent(model.posterior, model.vector_for(rec))
            assert abs(mu - mu_v) <= 1e-12 and abs(var - var_v) <= 1e-12
            r = quadrature_outcome_probs(mu, var, model.posterior.hyper.draw)
            assert np.max(np.abs(p.as_array() - r.as_array())) <= 1e-12
        return got

    def test_equals_one_row_calls(self):
        rng, models = self._models()
        for model in models:
            records = self._records(rng, model)
            self._assert_matches_one_row(model, records)
            # all 22 unseen at a neutral venue: the prior, exactly, on either route
            mu, var = model.predict_latent(records[-1])
            assert mu == 0.0 and var == SELF_OVERLAP * 0.09

    def test_empty_test_set(self):
        _, models = self._models()
        for model in models:
            assert model.predict_many([]) == []
            empty = np.zeros((0, 11), dtype=np.int64)
            mu, var = gp.predict_latent_many(model.posterior, empty, empty, np.zeros(0))
            assert mu.shape == var.shape == (0,)

    def test_block_boundary(self, monkeypatch):
        rng, models = self._models()
        for model in models:
            records = self._records(rng, model)
            whole = model.predict_many(records)
            monkeypatch.setattr(gp, "_BLOCK", 3)
            blocked = self._assert_matches_one_row(model, records)
            monkeypatch.undo()
            for p, q in zip(whole, blocked):
                assert np.max(np.abs(p.as_array() - q.as_array())) <= 1e-12


@pytest.fixture(scope="module")
def default_league():
    """The first 600 matches of the default league (`lineupgp simulate --seed 0`)."""
    return Dataset.from_records(simulate_dataset(SimConfig(seed=0)).dataset.records[:600])


class TestDefaultLeague:
    def test_full_step_at_rounding_level(self, default_league):
        # three Newton steps leave a residual of ~2e-6; the full fourth step
        # changes Psi only by rounding and must still be taken
        hyper = Hyperparams.create(sigma2=0.0528, sigma2_home=0.9995, alpha=0.4274)
        post = fit(default_league, hyper)
        k = post.parts.z @ post.parts.z.T * hyper.kernel.sigma2
        k = k.toarray() + hyper.kernel.sigma2_home * np.outer(post.parts.homes, post.parts.homes)
        assert np.max(np.abs(post.mode - k @ post.grad)) <= 1e-8 * max(1.0, np.max(np.abs(post.mode)))

    def test_warm_start(self, default_league):
        hyper = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        parts = _dataset_parts(default_league)
        k = parts.gram(hyper.kernel)
        cold_f, cold_a, cold_iters = _newton_mode(k, parts.codes, hyper.alpha)
        # from the mode itself: at most one step
        _, _, iters = _newton_mode(k, parts.codes, hyper.alpha, a0=cold_a)
        assert iters <= 1
        # a start worse than a = 0 is ignored
        f, _, iters = _newton_mode(k, parts.codes, hyper.alpha, a0=-50.0 * cold_a)
        assert iters == cold_iters and np.array_equal(f, cold_f)

    def test_search_evaluations_all_succeed(self, default_league, monkeypatch):
        failures = []
        newton = gp._newton_mode

        def counted(*args, **kwargs):
            try:
                return newton(*args, **kwargs)
            except NumericalError as exc:
                failures.append(exc)
                raise

        monkeypatch.setattr(gp, "_newton_mode", counted)
        init = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        best = optimize_hyperparams(default_league, init, budget=200)
        assert failures == []
        assert log_marginal(fit(default_league, best)) >= -589.0505
        # the optimum, which Nelder-Mead left at -588.3111078
        assert log_marginal(fit(default_league, best)) >= -588.31111

    def test_weight_space_oracle_at_searched_point(self, default_league):
        hyper = Hyperparams.create(sigma2=0.0531, sigma2_home=0.9996, alpha=0.4288)
        post = fit(default_league, hyper)
        wsp = primal_laplace_fit(default_league, hyper)
        for rec in default_league.records[::15]:
            vec = build_match_vector(rec, default_league.registry)
            mu_d, var_d = predict_latent(post, vec)
            mu_p, var_p = wsp.predict_latent(vec)
            assert abs(mu_d - mu_p) <= 1e-6
            assert abs(var_d - var_p) <= 1e-6


def _evidence_at(ds, theta):
    """log_marginal(fit(...)) at (log sigma2, log sigma2_home, log alpha) = theta."""
    h = Hyperparams.create(
        sigma2=math.exp(theta[0]),
        sigma2_home=math.exp(theta[1]) if theta[1] is not None else 0.0,
        alpha=math.exp(theta[2]),
    )
    return log_marginal(fit(ds, h))


class TestEvidenceGradient:
    """The analytic gradient in log space against central differences at step 1e-4.

    The differences carry Newton's own tolerance noise, hence 1e-5 relative
    and not tighter; a missing or mis-signed implicit term is 0.5-72 % of a
    component.
    """

    STEP = 1e-4

    def _cases(self, ds):
        return [
            (ds, Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)),
            (ds, Hyperparams.create(sigma2=0.3, sigma2_home=0.2, alpha=1.2)),
            (_neutral(ds), Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)),
            # no log sigma2_home to step: only the sigma2 and alpha components
            (ds, Hyperparams.create(sigma2=0.05, sigma2_home=0.0, alpha=0.45)),
        ]

    def _check(self, ds, hyper):
        parts = _dataset_parts(ds)
        grad = _evidence_gradient(_laplace(parts, hyper))
        kp = hyper.kernel
        theta = [
            math.log(kp.sigma2),
            math.log(kp.sigma2_home) if kp.sigma2_home > 0.0 else None,
            hyper.draw.log_alpha,
        ]
        for i, t in enumerate(theta):
            if t is None:
                continue
            up, down = list(theta), list(theta)
            up[i] = t + self.STEP
            down[i] = t - self.STEP
            fd = (_evidence_at(ds, up) - _evidence_at(ds, down)) / (2 * self.STEP)
            assert abs(grad[i] - fd) <= 1e-5 * max(1.0, abs(fd)), (i, grad[i], fd)

    def test_low_rank_route(self, default_league):
        for ds, hyper in self._cases(default_league):
            assert _dataset_parts(ds).pairs is not None
            self._check(ds, hyper)

    def test_dense_route(self):
        league = random_dataset(np.random.default_rng(281), 20, 44)
        for ds, hyper in self._cases(league):
            assert _dataset_parts(ds).pairs is None
            self._check(ds, hyper)

    def test_routes_agree(self, default_league):
        # one training set through L_C and through a dense L_B, to rounding,
        # far below what central differences resolve
        for ds, hyper in self._cases(default_league):
            low = _dataset_parts(ds)
            dense = dataclasses.replace(
                low,
                x=None,
                pairs=None,
                overlap=(low.z @ low.z.T).toarray().astype(np.float64),
            )
            g_low = _evidence_gradient(_laplace(low, hyper))
            g_dense = _evidence_gradient(_laplace(dense, hyper))
            assert np.all(np.abs(g_low - g_dense) <= 1e-8 * np.maximum(1.0, np.abs(g_dense)))


class TestPrediction:
    def _fitted(self, seed=221, **kw):
        kw.setdefault("sigma2", 0.25)
        kw.setdefault("sigma2_home", 0.4)
        kw.setdefault("alpha", 0.45)
        ds = random_dataset(np.random.default_rng(seed), 20, 44)
        return ds, fit(ds, Hyperparams.create(**kw))

    def test_disjoint_match_gets_prior(self):
        ds, post = self._fitted()
        fresh = player_ids(200)[150:172]
        registry = dict(ds.registry)
        for pid in fresh:
            registry[pid] = len(registry)
        rec = make_record("t0001", fresh[:11], fresh[11:22])
        vec = build_match_vector(rec, registry)
        mu, var = predict_latent(post, vec)
        assert mu == 0.0
        assert var == SELF_OVERLAP * 0.25

    def test_disjoint_home_match_adds_home_variance(self):
        # neutral-only training keeps the home weight at its prior, so a
        # disjoint home match must see exactly the prior + home variance
        ds = random_dataset(np.random.default_rng(222), 20, 44)
        neutral = Dataset.from_records(
            [dataclasses.replace(rec, home=HomeSide.NEUTRAL) for rec in ds.records],
            registry=ds.registry,
        )
        post = fit(
            neutral, Hyperparams.create(sigma2=0.25, sigma2_home=0.4, alpha=0.45)
        )
        fresh = player_ids(200)[150:172]
        registry = dict(neutral.registry)
        for pid in fresh:
            registry[pid] = len(registry)
        rec = make_record("t0002", fresh[:11], fresh[11:22], home=HomeSide.TEAM1)
        vec = build_match_vector(rec, registry)
        mu, var = predict_latent(post, vec)
        assert mu == 0.0
        assert var == SELF_OVERLAP * 0.25 + 0.4

    def test_probability_triple_valid(self):
        rng = np.random.default_rng(223)
        ds, post = self._fitted(seed=223)
        for _ in range(20):
            rec = random_record(rng, sorted(ds.registry), "t0003")
            p = predict_outcomes(post, build_match_vector(rec, ds.registry))
            arr = p.as_array()
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
            assert abs(arr.sum() - 1.0) <= 1e-9

    def test_side_swap_invariance(self):
        rng = np.random.default_rng(224)
        ds = random_dataset(rng, 25, 40)
        mirrored = Dataset.from_records(
            [_mirror(rec) for rec in ds.records], registry=ds.registry
        )
        hyper = Hyperparams.create(sigma2=0.2, sigma2_home=0.5, alpha=0.5)
        post = fit(ds, hyper)
        post_m = fit(mirrored, hyper)
        for rec in ds.records[:10]:
            p = predict_outcomes(post, build_match_vector(rec, ds.registry))
            q = predict_outcomes(post_m, build_match_vector(_mirror(rec), ds.registry))
            assert abs(p.p_w - q.p_l) <= 1e-9
            assert abs(p.p_l - q.p_w) <= 1e-9
            assert abs(p.p_d - q.p_d) <= 1e-9


def _mirror(rec: MatchRecord) -> MatchRecord:
    flip_home = {
        HomeSide.TEAM1: HomeSide.TEAM2,
        HomeSide.TEAM2: HomeSide.TEAM1,
        HomeSide.NEUTRAL: HomeSide.NEUTRAL,
    }
    flip_outcome = {
        Outcome.TEAM1_WIN: Outcome.TEAM2_WIN,
        Outcome.TEAM2_WIN: Outcome.TEAM1_WIN,
        Outcome.DRAW: Outcome.DRAW,
    }
    return MatchRecord(
        match_id=rec.match_id,
        date=rec.date,
        competition=rec.competition,
        team1=rec.team2,
        team2=rec.team1,
        lineup1=rec.lineup2,
        lineup2=rec.lineup1,
        home=flip_home[rec.home],
        outcome=flip_outcome[rec.outcome],
    )


class TestQuadrature:
    def test_zero_variance_is_exact(self):
        d = DrawParam.from_alpha(0.45)
        for mu in (-2.0, 0.0, 1.3):
            got = quadrature_outcome_probs(mu, 0.0, d)
            want = outcome_probs(mu, d)
            assert got.as_array().tolist() == want.as_array().tolist()

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            quadrature_outcome_probs(0.0, -1e-3, DrawParam.from_alpha(0.5))

    def test_symmetry(self):
        d = DrawParam.from_alpha(0.7)
        p = quadrature_outcome_probs(0.0, 2.0, d)
        assert abs(p.p_w - p.p_l) <= 1e-15
        q = quadrature_outcome_probs(1.1, 0.8, d)
        r = quadrature_outcome_probs(-1.1, 0.8, d)
        assert abs(q.p_w - r.p_l) <= 1e-15
        assert abs(q.p_d - r.p_d) <= 1e-15

    def test_batch_matches_per_point_sums(self):
        # the per-point weighted sums the vectorized quadrature replaced
        d = DrawParam.from_alpha(0.45)
        mus = np.array([-3.0, -0.4, 0.0, 0.0, 1.3, 2.0, 5.0])
        vs = np.array([0.01, 2.0, 0.0, 9.0, 0.5, 0.0, 30.0])
        got = gp._quadrature(mus, vs, d.alpha)
        nodes, weights = np.polynomial.hermite.hermgauss(32)
        for row, mu, var in zip(got, mus, vs):
            if var == 0.0:
                assert row.tolist() == outcome_probs(mu, d).as_array().tolist()
                continue
            bars = [weights @ p for p in _probs_arrays(mu + math.sqrt(2.0 * var) * nodes, d.alpha)]
            assert np.max(np.abs(row - np.array(bars) / sum(bars))) <= 4e-16

    def test_spread_flattens_probabilities(self):
        d = DrawParam.from_alpha(0.45)
        sharp = quadrature_outcome_probs(2.0, 0.01, d)
        vague = quadrature_outcome_probs(2.0, 9.0, d)
        assert vague.p_w < sharp.p_w
        assert vague.p_l > sharp.p_l


class TestNoJitter:
    """K carries no jitter: B and C are >= I, so a fit needs none, even on a singular K."""

    def _leagues(self):
        rng = np.random.default_rng(285)
        dense = random_dataset(rng, 30, 70)
        copies = [dataclasses.replace(rec, match_id=rec.match_id + "b") for rec in dense.records]
        doubled = Dataset.from_records(dense.records + tuple(copies))
        low_rank = random_dataset(rng, 60, 30)
        assert doubled.n <= doubled.num_players + 1 and low_rank.n > low_rank.num_players + 1
        return dense, doubled, low_rank

    def test_fits_at_the_search_box_corners(self):
        dense, doubled, low_rank = self._leagues()
        # records sort by date, then id: each copy follows its original
        ids = [r.match_id for r in doubled.records]
        assert [i + "b" for i in ids[::2]] == ids[1::2]
        for ds in (dense, doubled, low_rank):
            for theta in itertools.product(*gp._SEARCH_BOUNDS):
                s2, home, alpha = np.exp(theta)
                hyper = Hyperparams.create(sigma2=s2, sigma2_home=home, alpha=alpha)
                post = fit(ds, hyper)
                assert post.low_rank == (ds is low_rank)
                if ds is doubled:
                    # every match twice: K has equal rows, so it is singular
                    assert np.array_equal(post.gram[::2], post.gram[1::2])
                assert gp._stationary(post.mode, post.gram, post.grad, gp._STATIONARITY_BOUND)
                assert np.all(np.diagonal(post.chol) >= 1.0), theta


class TestEvidence:
    def test_single_draw_closed_form(self):
        hyper = Hyperparams.create(sigma2=0.1, sigma2_home=0.0, alpha=0.6)
        post = fit(_single_match_dataset(Outcome.DRAW), hyper)
        k = SELF_OVERLAP * 0.1
        _, d2 = log_likelihood_derivs(Outcome.DRAW, 0.0, DrawParam.from_alpha(0.6))
        want = math.log(outcome_probs(0.0, DrawParam.from_alpha(0.6)).p_d)
        want -= 0.5 * math.log(1.0 + k * (-d2))
        assert abs(log_marginal(post) - want) <= 1e-10

    def test_close_to_brute_force_on_tiny_sets(self):
        rng = np.random.default_rng(231)
        for n in (1, 2):
            ds = random_dataset(rng, n, 30)
            hyper = Hyperparams.create(sigma2=0.01, sigma2_home=0.005, alpha=0.45)
            post = fit(ds, hyper)
            vecs = [build_match_vector(r, ds.registry) for r in ds.records]
            k = kernel_matrix(vecs, vecs, hyper.kernel)
            codes = np.array([r.outcome.code for r in ds.records])
            want = brute_force_evidence(k, codes, 0.45, nodes=120)
            assert abs(log_marginal(post) - want) <= 0.005


class TestOptimize:
    def test_budget_one_returns_init(self):
        ds = random_dataset(np.random.default_rng(241), 15, 35)
        init = Hyperparams.create(sigma2=0.3, sigma2_home=0.7, alpha=0.5)
        best = optimize_hyperparams(ds, init, budget=1)
        assert best.kernel.sigma2 == init.kernel.sigma2
        assert best.kernel.sigma2_home == init.kernel.sigma2_home
        assert best.draw.log_alpha == init.draw.log_alpha

    def test_never_worse_than_init(self):
        ds = random_dataset(np.random.default_rng(242), 20, 35)
        init = Hyperparams.create(sigma2=1.0, sigma2_home=1.0, alpha=0.5)
        best = optimize_hyperparams(ds, init, budget=40)
        assert log_marginal(fit(ds, best)) >= log_marginal(fit(ds, init)) - 1e-9

    def test_budget_must_be_positive(self):
        ds = random_dataset(np.random.default_rng(243), 5, 30)
        with pytest.raises(ValueError):
            optimize_hyperparams(ds, Hyperparams.create(), budget=0)

    def test_budget_caps_evaluations(self, default_league, monkeypatch):
        calls = []
        laplace = gp._laplace

        def counted(*args, **kwargs):
            calls.append(args[1])
            return laplace(*args, **kwargs)

        monkeypatch.setattr(gp, "_laplace", counted)
        init = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        for budget in (1, 5, 200):
            calls.clear()
            optimize_hyperparams(default_league, init, budget=budget)
            assert 1 <= len(calls) <= budget
            # the init, with the caller's exact object
            assert calls[0] is init

    def test_home_scale_towards_zero(self):
        # the first 600 matches of `simulate --seed 16`: the evidence keeps
        # rising as sigma2_home -> 0, where a lower bound of -8 on its log
        # stops at -569.1365
        league = Dataset.from_records(simulate_dataset(SimConfig(seed=16)).dataset.records[:600])
        init = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        best = optimize_hyperparams(league, init, budget=200)
        assert log_marginal(fit(league, best)) >= -569.12802

    def test_first_step_stays_in_reach(self):
        # the first 600 matches of `simulate --seed 65`: a first trial step of
        # the whole evidence gradient reached sigma2 = 11.5, alpha = e^2, where
        # Newton fails with one BLAS thread, and the search stopped at its
        # init (-490.7488); Nelder-Mead found -487.6286
        league = Dataset.from_records(simulate_dataset(SimConfig(seed=65)).dataset.records[:600])
        init = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        best = optimize_hyperparams(league, init, budget=200)
        assert log_marginal(fit(league, best)) >= -487.6286

    def test_zero_home_scale_init(self):
        ds = random_dataset(np.random.default_rng(244), 40, 30)
        init = Hyperparams.create(sigma2=0.3, sigma2_home=0.0, alpha=0.5)
        best = optimize_hyperparams(ds, init, budget=40)
        assert log_marginal(fit(ds, best)) >= log_marginal(fit(ds, init))

    def test_init_outside_the_box_is_a_candidate(self):
        ds = random_dataset(np.random.default_rng(245), 20, 35)
        init = Hyperparams.create(sigma2=0.3, sigma2_home=0.7, alpha=20.0)
        best = optimize_hyperparams(ds, init, budget=1)
        assert best is init
        best = optimize_hyperparams(ds, init, budget=40)
        assert log_marginal(fit(ds, best)) >= log_marginal(fit(ds, init))

    def test_failed_evaluation_ends_search(self, monkeypatch):
        ds = random_dataset(np.random.default_rng(247), 20, 35)
        init = Hyperparams.create(sigma2=1.0, sigma2_home=1.0, alpha=0.5)
        calls = []
        laplace = gp._laplace

        def failing(*args, **kwargs):
            calls.append(args[1])
            if len(calls) == 3:
                raise NumericalError("synthetic failure")
            return laplace(*args, **kwargs)

        monkeypatch.setattr(gp, "_laplace", failing)
        best = optimize_hyperparams(ds, init, budget=40)
        assert len(calls) == 3 and best in calls[:2]
        monkeypatch.undo()
        assert log_marginal(fit(ds, best)) >= log_marginal(fit(ds, init))

    def test_logs_one_line(self, caplog):
        ds = random_dataset(np.random.default_rng(246), 20, 35)
        with caplog.at_level("INFO", logger="lineupgp.gp"):
            optimize_hyperparams(ds, Hyperparams.create(sigma2=0.3, alpha=0.5), budget=3)
        (line,) = [r.getMessage() for r in caplog.records if "evidence search" in r.getMessage()]
        assert "3 of 3 evaluations" in line and "budget used up" in line


class TestModelPersistence:
    def _trained(self, seed=251):
        ds = random_dataset(np.random.default_rng(seed), 18, 40)
        model = train_model(ds, Hyperparams.create(sigma2=0.2, sigma2_home=0.5, alpha=0.5))
        return ds, model

    def test_round_trip_is_bit_identical(self, tmp_path):
        ds, model = self._trained()
        rng = np.random.default_rng(252)
        small = (model, [random_record(rng, sorted(ds.registry), "t0009") for _ in range(10)])
        # 100 matches: large enough for the triangular solve to round a
        # differently laid out factor of B differently
        league = simulate_dataset(SimConfig(seed=0)).dataset.records
        hyper = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        large = (train_model(Dataset.from_records(league[:100]), hyper), league[100:140])
        # 300 matches over 224 players: Newton on the low-rank route
        wide = (train_model(Dataset.from_records(league[:300]), hyper), league[300:340])
        for i, (fresh, records) in enumerate((small, large, wide)):
            path = tmp_path / f"model{i}.json"
            save_model(fresh, path)
            back = load_model(path)
            assert back.registry == fresh.registry
            for rec in records:
                p = fresh.predict(rec)
                q = back.predict(rec)
                assert (p.p_w, p.p_d, p.p_l) == (q.p_w, q.p_d, q.p_l)

    def test_rejects_wrong_magic_and_version(self, tmp_path):
        ds, model = self._trained(seed=253)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["magic"] = "something/else"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="not a lineupgp model"):
            load_model(bad)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        bad.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="version"):
            load_model(bad)
        bad.write_text(json.dumps(version_1_payload(json.loads(path.read_text()))))
        with pytest.raises(DataError, match="version 1"):
            load_model(bad)
        bad.write_text(json.dumps(version_2_payload(json.loads(path.read_text()))))
        with pytest.raises(DataError, match="version 2"):
            load_model(bad)
        # a version 3 file holds the mode of a model with jitter on K
        bad.write_text(json.dumps(version_3_payload(json.loads(path.read_text()))))
        with pytest.raises(DataError, match="version 3.*retrain"):
            load_model(bad)

    def test_rejects_corrupt_payloads(self, tmp_path):
        _, model = self._trained(seed=255)
        path = tmp_path / "model.json"
        save_model(model, path)
        good = json.loads(path.read_text())
        n = len(good["outcomes"])

        def decoded(key):
            obj = good[key]
            return np.frombuffer(base64.b64decode(obj["data"]), obj["dtype"]).reshape(obj["shape"])

        def with_array(key, arr):
            data = base64.b64encode(np.ascontiguousarray(arr).tobytes()).decode()
            return dict(good, **{key: dict(good[key], data=data)})

        def with_entry(key, index, value):
            arr = decoded(key).copy()
            arr[index] = value
            return with_array(key, arr)

        plus = decoded("plus")
        bad_payloads = [
            {k: v for k, v in good.items() if k != "mode"},
            {k: v for k, v in good.items() if k != "hyper"},
            dict(good, hyper=dict(good["hyper"], sigma2=-1.0)),
            # an integer past the float range
            dict(good, hyper=dict(good["hyper"], sigma2=10**400)),
            dict(good, mode=dict(good["mode"], shape=[n + 1])),
            dict(good, mode=dict(good["mode"], dtype="<f4")),
            with_array("mode", decoded("mode")[:-1]),
            dict(good, outcomes=good["outcomes"][:-1]),
            dict(good, outcomes="X" + good["outcomes"][1:]),
            dict(good, homes=good["homes"][:-1]),
            dict(good, homes=[2] + good["homes"][1:]),
            dict(good, registry=good["registry"][:-1] + good["registry"][:1]),
            with_entry("plus", (0, -1), len(good["registry"])),
            with_entry("plus", (0, 0), -1),
            with_array("plus", plus[:, ::-1]),
            with_entry("minus", 0, plus[0]),
            with_entry("mode", 0, np.nan),
            # finite and well formed, but not the stationary point of the fit
            with_array("mode", 1.01 * decoded("mode")),
            with_array("dual_coef", 1.01 * decoded("dual_coef")),
        ]
        for i, bad in enumerate(bad_payloads):
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(bad))
            with pytest.raises(DataError):
                load_model(path)

    def test_rejects_non_finite_mode(self, tmp_path):
        # the factor is rebuilt from the mode, and prediction skips its finiteness scan
        _, model = self._trained(seed=256)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        obj = payload["mode"]
        mode = np.frombuffer(base64.b64decode(obj["data"]), obj["dtype"]).copy()
        mode[1] = np.nan
        payload["mode"] = dict(obj, data=base64.b64encode(mode.tobytes()).decode())
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="non-finite"):
            load_model(path)

    @pytest.mark.parametrize("sigma2_home", [None, 0.0])
    def test_load_rebuilds_the_fitted_posterior(self, tmp_path, default_league, sigma2_home):
        # one league served from weight space (N > P+1) and one from L_B;
        # None keeps the default home scale, 0.0 switches the home feature off
        dense = random_dataset(np.random.default_rng(258), 20, 44)
        home = {} if sigma2_home is None else {"sigma2_home": sigma2_home}
        hyper = Hyperparams.create(sigma2=0.09, alpha=0.45, **home)
        for i, ds in enumerate((default_league, dense)):
            fresh = train_model(ds, hyper)
            assert fresh.posterior.low_rank == (i == 0)
            path = tmp_path / f"model{i}.json"
            save_model(fresh, path)
            back, post = load_model(path).posterior, fresh.posterior
            for field in ("mode", "grad", "sqrt_w", "chol", "dual_coef"):
                assert np.array_equal(getattr(back, field), getattr(post, field)), field
            for field in ("loglik", "newton_iters"):
                assert getattr(back, field) == getattr(post, field), field
            assert log_marginal(back) == log_marginal(post)

    def test_dense_load_peak_memory(self, tmp_path):
        # 400 matches over more players: the dense route, where load holds
        # the overlap, the Gram and B (3 N^2 doubles) plus the decoded file;
        # a fourth N x N array, such as h h', passes the bound
        ds = random_dataset(np.random.default_rng(400), 400, 600)
        model = train_model(ds, Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45))
        assert not model.posterior.low_rank
        path = tmp_path / "model.json"
        save_model(model, path)
        tracemalloc.start()
        try:
            load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.75 * 8 * ds.n**2, peak / (8 * ds.n**2)

    def test_unseen_players_get_prior_prediction(self):
        ds, model = self._trained(seed=254)
        fresh = [f"q{i:03d}" for i in range(22)]
        rec = make_record("t0010", fresh[:11], fresh[11:22])
        p = model.predict(rec)
        mu, var = model.predict_latent(rec)
        assert mu == 0.0
        assert var == SELF_OVERLAP * 0.2
        assert abs(p.as_array().sum() - 1.0) <= 1e-9


class TestTrainModel:
    def test_matches_plain_fit(self):
        ds = random_dataset(np.random.default_rng(261), 12, 35)
        hyper = Hyperparams.create(sigma2=0.3, sigma2_home=0.2, alpha=0.5)
        model = train_model(ds, hyper)
        direct = fit(ds, hyper)
        assert np.array_equal(model.posterior.mode, direct.mode)
        assert model.name == "gp"

    def test_optimize_path_smoke(self):
        ds = random_dataset(np.random.default_rng(262), 12, 35)
        model = train_model(ds, Hyperparams.create(), optimize=True, budget=5)
        assert model.posterior.newton_iters < 100
