"""Laplace fit, predictions, evidence, hyperparameter search, persistence.

Oracles used here:
  * a bisection root-finder for the single-match posterior mode,
  * the weight-space (primal) Laplace fit for the multi-match case,
  * a tensor-grid integrator for the evidence on tiny datasets,
  * the dense N x N Gram for the evidence (log|B| by slogdet) and for
    predictions (the dual formula), on both sides of N = P+1,
  * central differences of the evidence for its analytic gradient,
  * closed forms for fully disjoint test matches.
"""

from __future__ import annotations

import base64
import dataclasses
import datetime as dt
import itertools
import json
import logging
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import (
    brute_force_evidence,
    make_record,
    player_ids,
    random_dataset,
    random_record,
    version_1_payload,
    version_2_payload,
    version_3_payload,
    version_4_payload,
    version_5_payload,
)
from lineupgp import gp
from lineupgp.data import (
    Dataset,
    HomeSide,
    MatchRecord,
    Outcome,
    parse_dataset,
    serialize_dataset,
    split_by_cutoff,
)
from lineupgp.errors import DataError, NumericalError
from lineupgp.gp import (
    GPModel,
    Hyperparams,
    _dataset_parts,
    _evidence_gradient,
    _index_dtype,
    _laplace,
    _newton_mode,
    fit,
    load_model,
    log_marginal,
    optimize_hyperparams,
    quadrature_outcome_probs,
    save_model,
    train_model,
)
from lineupgp.kernel import (
    SELF_OVERLAP,
    build_match_vector,
    kernel_matrix,
    match_incidence,
)
from lineupgp.likelihood import (
    DrawParam,
    _probs_arrays,
    loglik_derivs_vector,
    loglik_vector,
    outcome_probs,
)
from lineupgp.simulate import SimConfig, simulate_dataset
from oracles import (
    dense_c,
    kernel_eval,
    log_likelihood_derivs,
    predict_latent,
    predict_outcomes,
    primal_laplace_fit,
    primal_laplace_fit_vectors,
)

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

    def test_stationarity_at_season_size(self):
        # season's training set: N = 1230 > P+1 = 421, where every Newton step
        # factors C; against the dense Gram, f = K grad log p(y|f) holds to
        # rounding, not merely to Newton's tolerance
        sim = SimConfig(seed=0, num_teams=30, num_players=420, matches_per_team=110)
        ds = Dataset.from_records(simulate_dataset(sim).dataset.records[:1230])
        assert ds.n == 1230 and ds.num_players == 420
        hyper = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        post = fit(ds, hyper)
        z, h = post.parts.z.toarray(), post.parts.homes
        k = hyper.kernel.sigma2 * (z @ z.T) + hyper.kernel.sigma2_home * np.outer(h, h)
        resid = np.max(np.abs(post.mode - k @ post.grad))
        assert resid <= 1e-11 * max(1.0, np.max(np.abs(post.mode))), resid

    def test_mode_independent_of_start(self):
        rng = np.random.default_rng(202)
        ds = random_dataset(rng, 25, 40)
        hyper = Hyperparams.create(sigma2=0.2, sigma2_home=0.5, alpha=0.5)
        parts = _dataset_parts(ds)
        m_zero, _ = _newton_mode(parts, hyper)
        m_noise, _ = _newton_mode(parts, hyper, w0=rng.standard_normal(ds.num_players + 1))
        assert np.max(np.abs(parts.x @ m_zero - parts.x @ m_noise)) <= 1e-6

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
        # 30 matches over 40 players (N <= P+1) and 60 over 30 (N > P+1)
        rng = np.random.default_rng(213)
        for n_matches, n_players in ((30, 40), (60, 30)):
            ds = random_dataset(rng, n_matches, n_players)
            hyper = Hyperparams.create(sigma2=0.09, sigma2_home=0.6, alpha=0.45)
            model = train_model(ds, hyper)
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


def _assert_same_arrays(got, want):
    """Two datasets' match arrays equal in dtype, shape and value."""
    for key in ("lineups", "homes", "codes"):
        x, y = getattr(got, key), getattr(want, key)
        assert x.dtype == y.dtype and np.array_equal(x, y), key


def _assert_same_parts(got, want):
    """Two sets of training parts equal array for array, in dtype and value."""
    for key in ("z", "x", "pairs"):
        a, b = getattr(got, key), getattr(want, key)
        assert a.shape == b.shape, key
        for attr in ("indices", "data", "indptr"):
            x, y = getattr(a, attr), getattr(b, attr)
            assert x.dtype == y.dtype and np.array_equal(x, y), (key, attr)
    for key in ("homes", "codes"):
        x, y = getattr(got, key), getattr(want, key)
        assert x.dtype == y.dtype and np.array_equal(x, y), key


def _dense_evidence(ds, hyper):
    """Mode by the package's Newton, evidence with log|B| from slogdet of the dense N x N B.

    At the mode f = K a with the dual coefficients a = grad log p(y|f), so
    f' K^{-1} f = f' a.
    """
    vecs = [build_match_vector(r, ds.registry) for r in ds.records]
    k = kernel_matrix(vecs, vecs, hyper.kernel)
    codes = np.array([r.outcome.code for r in ds.records])
    parts = _dataset_parts(ds)
    weights, _ = _newton_mode(parts, hyper)
    f = parts.x @ weights
    a, d2 = loglik_derivs_vector(codes, f, hyper.alpha)
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
    """Newton to the mode and the evidence through the (P+1) x (P+1) factor of C.

    The cases sit on both sides of N = P+1: past it every Newton step
    factors C, up to it the steps run conjugate gradients.
    """

    def _cases(self):
        rng = np.random.default_rng(271)
        wide = random_dataset(rng, 60, 40)
        edge = random_dataset(rng, 32, 30)
        assert wide.n > wide.num_players + 1 and edge.n == edge.num_players + 2
        # N = P+1 exactly, and N well below P
        square = random_dataset(rng, 31, 30)
        narrow = random_dataset(rng, 20, 44)
        assert square.n == square.num_players + 1 and narrow.n < narrow.num_players
        return [
            (wide, Hyperparams.create(sigma2=0.09, sigma2_home=0.6, alpha=0.45)),
            (wide, Hyperparams.create(sigma2=0.5, sigma2_home=3.0, alpha=0.2)),
            (wide, Hyperparams.create(sigma2=0.2, sigma2_home=0.0, alpha=0.5)),
            (wide, Hyperparams.create(sigma2=0.2, sigma2_home=0.7, alpha=0.5)),
            (_neutral(wide), Hyperparams.create(sigma2=0.3, sigma2_home=1.0, alpha=0.6)),
            (edge, Hyperparams.create(sigma2=0.15, sigma2_home=0.4, alpha=0.45)),
            (square, Hyperparams.create(sigma2=0.15, sigma2_home=0.4, alpha=0.45)),
            (narrow, Hyperparams.create(sigma2=0.09, sigma2_home=0.6, alpha=0.45)),
            (narrow, Hyperparams.create(sigma2=0.5, sigma2_home=3.0, alpha=0.2)),
            (_neutral(narrow), Hyperparams.create(sigma2=0.2, sigma2_home=0.0, alpha=0.5)),
        ]

    def test_incidence_from_registry(self):
        # Z from registry lookups equals Z stacked from match vectors, on both
        # sides of N = P+1 and with a registry wider than the training lineups
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
        partial = {pid: i for i, pid in enumerate(ds.records[0].lineup1)}
        with pytest.raises(DataError, match="not in the registry"):
            Dataset(records=ds.records, registry=partial)

    def test_parsed_parts_are_the_record_parts(self, tmp_path):
        # the arrays a parsed file carries make the parts that registry
        # lookups over its records make, array for array; the rows are
        # written out of order, so the parse sorts them
        rng = np.random.default_rng(275)
        for n, p in ((20, 40), (60, 30)):
            lines = serialize_dataset(random_dataset(rng, n, p)).splitlines(keepends=True)
            path = tmp_path / f"league{n}.csv"
            path.write_text("".join([lines[0], *rng.permutation(lines[1:])]), encoding="utf-8")
            parsed = parse_dataset(path)
            by_records = Dataset.from_records(parsed.records)
            _assert_same_arrays(parsed.arrays, by_records.arrays)
            _assert_same_parts(_dataset_parts(parse_dataset(path)), _dataset_parts(by_records))

    def test_split_halves_keep_their_arrays(self, tmp_path):
        # each half of a parsed file takes its rows of the file's arrays, and
        # they make the parts that registry lookups over its records make
        rng = np.random.default_rng(276)
        league = simulate_dataset(SimConfig(seed=0)).dataset
        lines = serialize_dataset(Dataset.from_records(league.records[:200])).splitlines(keepends=True)
        path = tmp_path / "league.csv"
        path.write_text("".join([lines[0], *rng.permutation(lines[1:])]), encoding="utf-8")
        ds = parse_dataset(path)
        dates = sorted({r.date for r in ds.records})
        for cutoff in (dates[0], dates[len(dates) // 2], dates[-1]):
            halves = split_by_cutoff(ds, cutoff)
            assert sum(half.n for half in halves) == ds.n and halves[0].n < ds.n
            for half in halves:
                assert half.registry is ds.registry
                by_records = Dataset.from_records(half.records, registry=ds.registry)
                _assert_same_arrays(half.arrays, by_records.arrays)
                if half.n:
                    _assert_same_parts(_dataset_parts(half), _dataset_parts(by_records))
        # so do the halves of a dataset built from records
        for half in split_by_cutoff(league, dates[1]):
            by_records = Dataset.from_records(half.records, registry=league.registry)
            _assert_same_arrays(half.arrays, by_records.arrays)

    def test_log_marginal_is_the_search_evidence(self):
        rng = np.random.default_rng(274)
        cases = [(random_dataset(rng, 30, 40), Hyperparams.create(sigma2=0.09, alpha=0.45))]
        cases += self._cases()
        for ds, hyper in cases:
            assert log_marginal(fit(ds, hyper)) == _laplace(_dataset_parts(ds), hyper).evidence

    def test_evidence_matches_dense(self):
        for ds, hyper in self._cases():
            served = _laplace(_dataset_parts(ds), hyper).evidence
            f_dense, dense = _dense_evidence(ds, hyper)
            post = fit(ds, hyper)
            assert abs(served - dense) <= 1e-9 * abs(dense)
            assert abs(served - log_marginal(post)) <= 1e-9 * abs(dense)
            assert np.max(np.abs(post.mode - f_dense)) <= 1e-8


def _dense_dual_latent(post, train, vec):
    """mu = k*' grad and var = k** - |L_B^{-1} W^{1/2} k*|^2 from the dense Gram and B."""
    kp = post.hyper.kernel
    vecs = [build_match_vector(r, train.registry) for r in train.records]
    k = kernel_matrix(vecs, vecs, kp)
    sw = post.sqrt_w
    chol = np.linalg.cholesky(np.eye(train.n) + sw[:, None] * k * sw[None, :])
    k_star = kernel_matrix([vec], vecs, kp)[0]
    v = np.linalg.solve(chol, sw * k_star)
    return float(k_star @ post.grad), kernel_eval(vec, vec, kp) - float(v @ v)


class TestWeightSpaceServing:
    """Predictions from L_C equal the dense dual formula, on both sides of N = P+1."""

    def test_matches_dense_dual(self):
        default = simulate_dataset(SimConfig(seed=0)).dataset.records
        cup_sized = simulate_dataset(
            SimConfig(seed=0, num_players=560, num_teams=40, matches_per_team=13)
        ).dataset.records
        hyper = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        # four players per side unseen in training
        fresh = tuple(f"q{i:03d}" for i in range(8))
        for league, cut in ((default, 300), (cup_sized, 200)):
            train = Dataset.from_records(league[:cut])
            assert (train.n > train.num_players + 1) == (league is default)
            model = train_model(train, hyper)
            mixed = tuple(
                dataclasses.replace(rec, lineup1=rec.lineup1[:7] + fresh[:4], lineup2=rec.lineup2[:7] + fresh[4:])
                for rec in league[cut + 40 : cut + 45]
            )
            for rec in league[cut : cut + 40] + mixed:
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
        # one league with N > P+1 (60 matches over 30 players), one with N <= P+1 (20 over 44)
        rng = np.random.default_rng(291)
        hyper = Hyperparams.create(sigma2=0.09, sigma2_home=0.6, alpha=0.45)
        leagues = [random_dataset(rng, n, p) for n, p in ((60, 30), (20, 44))]
        assert [ds.n > ds.num_players + 1 for ds in leagues] == [True, False]
        return rng, [train_model(ds, hyper) for ds in leagues]

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
        return Dataset.from_records(records)

    def _assert_matches_one_row(self, model, test):
        got = model.predict_many(test)
        assert len(got) == test.n
        for rec, p in zip(test.records, got):
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
            test = self._records(rng, model)
            self._assert_matches_one_row(model, test)
            # all 22 unseen at a neutral venue: the prior, exactly
            mu, var = model.predict_latent(test.records[-1])
            assert mu == 0.0 and var == SELF_OVERLAP * 0.09

    def test_empty_test_set(self):
        _, models = self._models()
        for model in models:
            assert model.predict_many(Dataset.from_records([])) == []
            empty = np.zeros((0, 11), dtype=np.int64)
            mu, var = gp.predict_latent_many(model.posterior, empty, empty, np.zeros(0))
            assert mu.shape == var.shape == (0,)

    @staticmethod
    def _assert_scored_by_lookup(model, test):
        # the batch maps the test registry to the model's once; a lookup of
        # every player of every record must give the same bits
        p = model.posterior.parts.z.shape[1]
        lineups = np.array([[model.registry.get(pid, p) for pid in rec.players] for rec in test.records])
        homes = np.array([rec.home.sign for rec in test.records])
        mu, var = gp.predict_latent_many(model.posterior, lineups[:, :11], lineups[:, 11:], homes)
        got_mu, got_var = model._latent(test)
        assert np.array_equal(got_mu, mu) and np.array_equal(got_var, var)
        want = gp._distributions(gp._quadrature(mu, var, model.posterior.hyper.alpha))
        assert model.predict_many(test) == want

    def test_registry_remap(self, tmp_path):
        rng, models = self._models()
        for model in models:
            # a hand-built test set with unseen players, its registry listing
            # players in an order apart from their shuffled indices
            records = self._records(rng, model).records
            ids = sorted(Dataset.from_records(records).registry)
            shuffled = rng.permutation(len(ids)).tolist()
            registry = {pid: shuffled[i] for i, pid in reversed(list(enumerate(ids)))}
            assert list(registry.values()) != sorted(registry.values())
            self._assert_scored_by_lookup(model, Dataset(records=records, registry=registry))
        # the test half of a parsed file: its registry is the file's union,
        # wider than its own lineups, and some of its players are unseen
        early = random_dataset(rng, 40, 30).records
        cutoff = early[-1].date + dt.timedelta(days=1)
        later = [
            random_record(rng, player_ids(60)[10:], f"n{i:04d}", date=cutoff + dt.timedelta(days=i))
            for i in range(20)
        ]
        path = tmp_path / "league.csv"
        path.write_text(serialize_dataset(Dataset.from_records(early + tuple(later))), encoding="utf-8")
        train, test = split_by_cutoff(parse_dataset(path), cutoff)
        model = train_model(Dataset.from_records(train.records), Hyperparams.create(sigma2=0.09, alpha=0.45))
        fielded = set().union(*(rec.players for rec in test.records))
        assert fielded < set(test.registry) and fielded - set(model.registry)
        self._assert_scored_by_lookup(model, test)

    def test_block_boundary(self, monkeypatch):
        rng, models = self._models()
        for model in models:
            test = self._records(rng, model)
            whole = model.predict_many(test)
            monkeypatch.setattr(gp, "_BLOCK", 3)
            blocked = self._assert_matches_one_row(model, test)
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
        cold_m, cold_iters = _newton_mode(parts, hyper)
        # from the mode itself: at most one step
        _, iters = _newton_mode(parts, hyper, w0=cold_m)
        assert iters <= 1
        # a start worse than u = 0 is ignored
        m, iters = _newton_mode(parts, hyper, w0=-50.0 * cold_m)
        assert iters == cold_iters and np.array_equal(m, cold_m)

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
            assert ds.n > ds.num_players + 1
            self._check(ds, hyper)

    def test_dense_route(self):
        league = random_dataset(np.random.default_rng(281), 20, 44)
        for ds, hyper in self._cases(league):
            assert ds.n <= ds.num_players + 1
            self._check(ds, hyper)

    def test_low_rank_peak_memory(self):
        # season's training set (`simulate --seed 0 --teams 30 --players 420
        # --matches-per-team 110`, its first 3/4 of dates): N = 1230 > P+1 = 421.
        # dpftri's packed output, half of (P+1)^2 doubles, is the largest array
        # a gradient builds
        sim = SimConfig(seed=0, num_teams=30, num_players=420, matches_per_team=110)
        records = simulate_dataset(sim).dataset.records
        dates = sorted({r.date for r in records})
        train = Dataset.from_records([r for r in records if r.date < dates[len(dates) * 3 // 4]])
        post = fit(train, Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45))
        assert train.n == 1230 and train.num_players == 420
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _evidence_gradient(post)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        unit = 8 * (train.num_players + 1) ** 2
        assert peak - base <= 2 * unit, (peak - base) / unit

    def test_low_rank_traces_equal_the_loop_reference(self, default_league):
        # the traces from the packed C^{-1} against the dense inverse of the
        # dense C and a row-by-row x_i' T x_i, within rounding of the doubles
        for ds, hyper in self._cases(default_league):
            post = _laplace(_dataset_parts(ds), hyper)
            inv = np.linalg.inv(dense_c(post))
            explained = 1.0 - np.diagonal(inv)
            rs = np.sqrt(post.parts.variances(hyper.kernel))
            t = inv * rs[:, None] * rs
            x = post.parts.x.toarray()
            want = np.array([row @ t @ row for row in x])
            sigma_f, tr_z, tr_h = gp._posterior_traces(post)
            assert np.max(np.abs(sigma_f - want)) <= 1e-13 * np.max(np.abs(want))
            assert abs(tr_z - float(np.sum(explained[:-1]))) <= 1e-13 * abs(tr_z)
            assert abs(tr_h - float(explained[-1])) <= 1e-13 * abs(tr_h)


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

    def test_lost_mass_is_a_numerical_error(self, monkeypatch):
        d = DrawParam.from_alpha(0.45)

        def leaking(scale, nan=False):
            def probs(x, alpha):
                p_w, p_d, p_l = _probs_arrays(x, alpha)
                return p_w, p_d * scale, np.where(x > 1.0, np.nan, p_l) if nan else p_l

            return probs

        # a loss within _MASS_TOL is renormalized away
        monkeypatch.setattr(gp, "_probs_arrays", leaking(1.0 - 1e-14))
        got = quadrature_outcome_probs(0.3, 1.0, d).as_array()
        assert abs(got.sum() - 1.0) <= 1e-15
        for probs in (leaking(1.0 - 1e-9), leaking(1.0, nan=True)):
            monkeypatch.setattr(gp, "_probs_arrays", probs)
            with pytest.raises(NumericalError, match="^quadrature lost probability mass"):
                gp._quadrature(np.array([-0.5, 0.3]), np.array([0.2, 1.0]), d.alpha)

    def test_spread_flattens_probabilities(self):
        d = DrawParam.from_alpha(0.45)
        sharp = quadrature_outcome_probs(2.0, 0.01, d)
        vague = quadrature_outcome_probs(2.0, 9.0, d)
        assert vague.p_w < sharp.p_w
        assert vague.p_l > sharp.p_l


def _no_jitter_leagues():
    """A league with N <= P+1, the same league with every match twice, and one with N > P+1."""
    rng = np.random.default_rng(285)
    dense = random_dataset(rng, 30, 70)
    copies = [dataclasses.replace(rec, match_id=rec.match_id + "b") for rec in dense.records]
    doubled = Dataset.from_records(dense.records + tuple(copies))
    low_rank = random_dataset(rng, 60, 30)
    assert doubled.n <= doubled.num_players + 1 and low_rank.n > low_rank.num_players + 1
    return dense, doubled, low_rank


class TestNoJitter:
    """K carries no jitter: C is >= I, so a fit needs none, even on a singular K."""

    def test_fits_at_the_search_box_corners(self):
        dense, doubled, low_rank = _no_jitter_leagues()
        # records sort by date, then id: each copy follows its original
        ids = [r.match_id for r in doubled.records]
        assert [i + "b" for i in ids[::2]] == ids[1::2]
        for ds in (dense, doubled, low_rank):
            for theta in itertools.product(*gp._SEARCH_BOUNDS):
                s2, home, alpha = np.exp(theta)
                hyper = Hyperparams.create(sigma2=s2, sigma2_home=home, alpha=alpha)
                post = fit(ds, hyper)
                if ds is doubled:
                    # every match twice: K has equal rows, so it is singular
                    vecs = [build_match_vector(r, ds.registry) for r in ds.records]
                    k = kernel_matrix(vecs, vecs, hyper.kernel)
                    assert np.array_equal(k[::2], k[1::2])
                k_grad = post.parts.k_dot(post.parts.variances(hyper.kernel), post.grad)
                assert gp._stationary(post.mode, k_grad, gp._STATIONARITY_BOUND)
                n = ds.num_players + 1
                assert np.all(post.factor.rfp[gp._rfp_diagonal(n)] >= 1.0), theta


class TestPackedFactor:
    """C and its factor are held in rectangular full packed format (TRANSR = 'N', UPLO = 'L')."""

    @pytest.mark.parametrize("n", [*range(1, 10), 225, 226, 421, 850])
    def test_slots_match_dtrttf(self, n):
        # every entry distinct
        a = np.arange(n * n, dtype=float).reshape(n, n)
        rfp, info = sla.lapack.dtrttf(np.asfortranarray(a), transr="N", uplo="L")
        assert info == 0 and len(rfp) == n * (n + 1) // 2
        i, j = np.tril_indices(n)
        assert np.array_equal(rfp[gp._rfp_slots(i, j, n)], a[i, j])
        assert np.array_equal(rfp[gp._rfp_diagonal(n)], np.diagonal(a))
        # the pair map's int32 keys, on a row that holds every column: each
        # pair's slot holds the product of its two entries
        cols = np.arange(n, dtype=np.int32)[None, :]
        vals = np.where(np.arange(n) % 3 == 0, -1, 1).astype(np.int8)[None, :]
        keys, prods = gp._pair_slots(cols, vals, n)
        assert keys.dtype == np.int32
        outer = np.outer(vals[0], vals[0])
        assert np.array_equal(np.sort(keys[0]), np.arange(len(rfp)))
        signs, _ = sla.lapack.dtrttf(np.asfortranarray(outer, dtype=float), transr="N", uplo="L")
        assert np.array_equal(prods[0], signs[keys[0]])

    def test_factor_unpacks_to_the_dense_cholesky(self, default_league):
        # one league with N <= P+1 and one with N > P+1, of both parities of
        # P+1; the packed C is built from the pair map, the dense one from X
        narrow = random_dataset(np.random.default_rng(289), 150, 301)
        hyper = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        assert (narrow.num_players + default_league.num_players) % 2 == 1
        for ds in (narrow, default_league):
            post = fit(ds, hyper)
            n = ds.num_players + 1
            assert (ds.n > n) == (ds is default_league)
            x = post.parts.x.toarray()
            m, info = sla.lapack.dtrttf((x.T * post.sqrt_w**2) @ x, transr="N", uplo="L")
            assert info == 0
            err = np.max(np.abs(post.parts.pairs @ post.sqrt_w**2 - m))
            assert err <= 1e-14 * np.max(np.abs(m))
            lower, info = sla.lapack.dtfttr(n, post.factor.rfp, transr="N", uplo="L")
            want = np.linalg.cholesky(dense_c(post))
            assert info == 0
            assert np.max(np.abs(np.tril(lower) - want)) <= 1e-13 * np.max(np.abs(want))
            diagonal = post.factor.rfp[gp._rfp_diagonal(n)]
            assert post.factor.half_logdet == float(np.sum(np.log(diagonal)))

    def test_failures_raise_numerical_error(self):
        # dpftrf on a matrix that is not positive definite, in the leading
        # and in the trailing block of the packed array, and dpftri on a
        # singular factor
        n = 6
        diag = gp._rfp_diagonal(n)
        for k in (1, 4):
            packed = np.zeros(n * (n + 1) // 2)
            packed[diag] = 1.0
            packed[diag[k]] = -1.0
            with pytest.raises(NumericalError, match=rf"^dpftrf failed \(info {k + 1}\)"):
                gp._cholesky(n, packed)
        factor = np.zeros(n * (n + 1) // 2)
        factor[diag] = 1.0
        factor[diag[2]] = 0.0
        with pytest.raises(NumericalError, match=r"^dpftri failed \(info 3\)"):
            gp._inverse(n, factor)

    def test_non_finite_entries_raise_numerical_error(self):
        # dpftrf reports success on these: a 6 x 6 identity C with a NaN or
        # an inf on the diagonal or below it, built by a one-match pair map
        n = 6
        diag = gp._rfp_diagonal(n)
        below = gp._rfp_slots(np.array([4]), np.array([1]), n)[0]
        for slot in (diag[2], below):
            for bad in (np.nan, np.inf):
                pairs = np.zeros((n * (n + 1) // 2, 1))
                pairs[slot] = bad
                parts = SimpleNamespace(pairs=pairs, variances=lambda kp: np.ones(n))
                with pytest.raises(NumericalError, match="^non-finite entry in the Cholesky factor of C$"):
                    gp._factor_c(parts, None, np.ones(1))


def _counting_cholesky(monkeypatch):
    """Count the calls to gp._cholesky from here on; returns the one-element counter."""
    calls = [0]
    chol = gp._cholesky

    def counted(n, packed):
        calls[0] += 1
        return chol(n, packed)

    monkeypatch.setattr(gp, "_cholesky", counted)
    return calls


def _never_converging_cg(matvec, rhs, rtol, limit, precondition=None):
    """A CG that never converges: every Newton step falls back to the factor of C."""
    return None, limit


def _newton_steps(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if "Newton step" in r.getMessage()]


def _assert_same_fit(post, exact, hyper):
    """``post`` within 1e-9 of ``exact``'s mode (relative to max(1, max |mode|)) and 1e-10 of its evidence."""
    scale = max(1.0, float(np.max(np.abs(exact.mode))))
    assert np.max(np.abs(post.mode - exact.mode)) <= 1e-9 * scale, hyper
    assert abs(post.evidence - exact.evidence) <= 1e-10 * abs(exact.evidence), hyper


class TestNewtonCG:
    """Every Newton step runs CG, preconditioned by the latest factor of C at hand.

    A step whose CG runs past _cg_limit factors C, and that factor
    preconditions the later steps; C is factored again at the mode.
    """

    def test_dense_fit_factors_once(self, monkeypatch, caplog):
        # a cold fit with N <= P+1 at the init: plain CG at every step, one
        # factor of C, at the mode
        hyper = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        calls = _counting_cholesky(monkeypatch)
        ds = random_dataset(np.random.default_rng(286), 150, 300)
        with caplog.at_level(logging.DEBUG, logger=gp.__name__):
            post = fit(ds, hyper)
        steps = _newton_steps(caplog)
        assert ds.n <= ds.num_players + 1 and len(steps) == post.newton_iters >= 2
        assert calls[0] == 1
        assert all(m.endswith(" CG iterations") for m in steps)

    def test_agrees_with_the_factored_step(self, monkeypatch, caplog):
        cup_sized = simulate_dataset(
            SimConfig(seed=0, num_players=1400, num_teams=100, matches_per_team=26)
        ).dataset
        assert 1200 <= cup_sized.n <= cup_sized.num_players + 1
        cases = [(cup_sized, Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45))]
        dense = _no_jitter_leagues()[0]
        for theta in itertools.product(*gp._SEARCH_BOUNDS):
            s2, home, alpha = np.exp(theta)
            cases.append((dense, Hyperparams.create(sigma2=s2, sigma2_home=home, alpha=alpha)))
        cg_posts = [fit(ds, hyper) for ds, hyper in cases]
        monkeypatch.setattr(gp, "_cg", _never_converging_cg)
        calls = _counting_cholesky(monkeypatch)
        for (ds, hyper), post in zip(cases, cg_posts):
            calls[0] = 0
            with caplog.at_level(logging.DEBUG, logger=gp.__name__):
                caplog.clear()
                exact = fit(ds, hyper)
            assert calls[0] == exact.newton_iters + 1
            steps = _newton_steps(caplog)
            assert len(steps) == exact.newton_iters
            # the first step has no factor to precondition with; each later
            # one has the step before's
            assert steps[0].endswith(" CG iterations, factored")
            assert all(m.endswith(" CG iterations, preconditioned, factored") for m in steps[1:])
            k_grad = exact.parts.k_dot(exact.parts.variances(hyper.kernel), exact.grad)
            assert gp._stationary(exact.mode, k_grad, gp._STATIONARITY_BOUND)
            _assert_same_fit(post, exact, hyper)

    def test_past_its_limit_the_fit_factors(self, monkeypatch, caplog):
        # at the search box's large-sigma2 corner C is ill-conditioned: a
        # step whose plain CG runs past _cg_limit factors C, and each later
        # step's CG is preconditioned by the latest factor built
        ds = random_dataset(np.random.default_rng(287), 150, 300)
        hyper = Hyperparams.create(sigma2=np.exp(3.0), sigma2_home=np.exp(3.0), alpha=np.exp(2.0))
        calls = _counting_cholesky(monkeypatch)
        built, used = [], []
        factor_c, cg = gp._factor_c, gp._cg

        def recording_factor_c(*args):
            built.append(factor_c(*args))
            return built[-1]

        def recording_cg(matvec, rhs, rtol, limit, precondition=None):
            used.append(None if precondition is None else precondition.__self__)
            return cg(matvec, rhs, rtol, limit, precondition)

        monkeypatch.setattr(gp, "_factor_c", recording_factor_c)
        monkeypatch.setattr(gp, "_cg", recording_cg)
        with caplog.at_level(logging.DEBUG, logger=gp.__name__):
            post = fit(ds, hyper)
        steps = _newton_steps(caplog)
        assert ds.n <= ds.num_players + 1 and len(steps) == post.newton_iters == len(used)
        factored = [i for i, m in enumerate(steps) if m.endswith(", factored")]
        first = factored[0]
        assert 1 <= first < len(steps) - 1
        assert steps[first].endswith(f", {gp._cg_limit(ds.n, ds.num_players + 1)} CG iterations, factored")
        assert used[: first + 1] == [None] * (first + 1)
        for i in range(first + 1, len(steps)):
            assert ", preconditioned" in steps[i]
            assert used[i] is built[sum(j < i for j in factored) - 1]
        # the factors of the steps, then the one at the mode
        assert calls[0] == len(built) == len(factored) + 1
        assert post.factor is built[-1]
        k_grad = post.parts.k_dot(post.parts.variances(hyper.kernel), post.grad)
        assert gp._stationary(post.mode, k_grad, gp._STATIONARITY_BOUND)

    def test_cg_gives_way_where_the_factor_is_cheaper(self, monkeypatch, caplog):
        # season's training set at the init (N = 1230, P+1 = 421, a plain limit
        # of 16): the cold first step, far from the mode, is solved loosely and
        # ends within that limit; a later step, solved tightly, runs past it and
        # factors C, and that factor preconditions the steps after it.  Solved
        # to _CG_RTOL, the first step would run its whole limit and factor
        sim = SimConfig(seed=0, num_teams=30, num_players=420, matches_per_team=110)
        ds = Dataset.from_records(simulate_dataset(sim).dataset.records[:1230])
        hyper = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        limit = gp._cg_limit(ds.n, ds.num_players + 1)
        calls = _counting_cholesky(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger=gp.__name__):
            post = fit(ds, hyper)
            forced_factors = calls[0]
            steps = _newton_steps(caplog)
            caplog.clear()
            monkeypatch.setattr(gp, "_FORCING_CAP", gp._CG_RTOL)
            calls[0] = 0
            tight = fit(ds, hyper)
            tight_steps = _newton_steps(caplog)
        assert (ds.n, ds.num_players) == (1230, 420)
        assert len(steps) == post.newton_iters >= 2
        first = re.search(r", (\d+) CG iterations$", steps[0])
        assert first is not None and int(first.group(1)) < limit
        factored = [i for i, m in enumerate(steps) if m.endswith(f", {limit} CG iterations, factored")]
        assert factored and all(", preconditioned" in m for m in steps[factored[0] + 1 :])
        assert len(tight_steps) == tight.newton_iters
        assert tight_steps[0].endswith(f", {limit} CG iterations, factored")
        assert forced_factors < calls[0]
        monkeypatch.setattr(gp, "_cg", _never_converging_cg)
        _assert_same_fit(post, fit(ds, hyper), hyper)

    def test_league_past_p_plus_one_needs_no_factor_before_the_mode(self, monkeypatch, caplog):
        # N > P+1, yet each step's plain CG stays within the limit: the shape
        # of the training set picks no solver
        ds = random_dataset(np.random.default_rng(288), 500, 400)
        hyper = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        calls = _counting_cholesky(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger=gp.__name__):
            post = fit(ds, hyper)
        steps = _newton_steps(caplog)
        assert ds.n > ds.num_players + 1 and len(steps) == post.newton_iters >= 2
        assert calls[0] == 1
        assert all(m.endswith(" CG iterations") for m in steps)
        monkeypatch.setattr(gp, "_cg", _never_converging_cg)
        calls[0] = 0
        exact = fit(ds, hyper)
        assert calls[0] == exact.newton_iters + 1
        _assert_same_fit(post, exact, hyper)

    def test_search_factors_fewer_than_twice_per_evaluation(self, monkeypatch):
        # the ledger's searched league: each evaluation's Newton starts from
        # the weights before and is preconditioned by the factor at their mode
        from test_ledger import INIT, LEDGER, THETA_RTOL

        ds = Dataset.from_records(simulate_dataset(SimConfig(seed=0)).dataset.records[:600])
        calls = _counting_cholesky(monkeypatch)
        evaluations = [0]
        laplace = gp._laplace

        def counted(*args):
            evaluations[0] += 1
            return laplace(*args)

        monkeypatch.setattr(gp, "_laplace", counted)
        found = optimize_hyperparams(ds, INIT, budget=200)
        assert 0 < calls[0] < 2 * evaluations[0]
        theta = [found.kernel.sigma2, found.kernel.sigma2_home, found.alpha]
        pinned = json.loads(LEDGER.read_text(encoding="utf-8"))["searched"]["theta"]
        assert np.allclose(theta, pinned, rtol=THETA_RTOL, atol=0.0)


def _fit_counting_cg(monkeypatch, train, tests, hyper):
    """Train on ``train`` and score ``tests``: (posterior, W/D/L rows, CG iterations in all)."""
    iterations = [0]
    cg = gp._cg

    def counted(*args):
        step, done = cg(*args)
        iterations[0] += done
        return step, done

    with monkeypatch.context() as patch:
        patch.setattr(gp, "_cg", counted)
        model = train_model(train, hyper)
    probs = np.array([p.as_array() for p in model.predict_many(Dataset.from_records(tests))])
    return model.posterior, probs, iterations[0]


def _forcing_cases() -> dict[str, tuple[Dataset, list, Hyperparams]]:
    """The ledger's league and cup folds at the init, and a cup-shaped fold at a large-sigma2 corner.

    The corner, sigma2 = sigma2_home = e^3 and alpha = e^2, is where an
    all-tight fit of the cup-sized fold spends the most: ~200 plain CG
    iterations in each of ~20 steps, none of which factors.
    """
    from test_ledger import INIT, _cup_fold

    league = simulate_dataset(SimConfig(seed=0)).dataset.records
    cup_sized = simulate_dataset(
        SimConfig(seed=0, num_players=1400, num_teams=100, matches_per_team=26)
    ).dataset.records
    neutral = [dataclasses.replace(rec, home=HomeSide.NEUTRAL) for rec in cup_sized[-40:]]
    corner = Hyperparams.create(sigma2=math.exp(3.0), sigma2_home=math.exp(3.0), alpha=math.exp(2.0))
    return {
        "league": (Dataset.from_records(league[:300]), league[300:340], INIT),
        "cup": (*_cup_fold(), INIT),
        "corner": (Dataset.from_records(cup_sized[:-40]), neutral, corner),
    }


class TestForcing:
    """Each Newton step's CG stops at |r| <= eta_k |grad Psi(u_k)|.

    eta_k = max(_CG_RTOL, min(_FORCING_CAP, |grad Psi(u_k)|^2)): loose far
    from the mode, _CG_RTOL near it (Dembo, Eisenstat & Steihaug 1982).
    Patching _FORCING_CAP to _CG_RTOL gives the all-tight fit.
    """

    @pytest.fixture(scope="class")
    def forced_and_tight(self):
        with pytest.MonkeyPatch.context() as monkeypatch:
            cases = _forcing_cases()
            forced = {name: _fit_counting_cg(monkeypatch, *case) for name, case in cases.items()}
            monkeypatch.setattr(gp, "_FORCING_CAP", gp._CG_RTOL)
            tight = {name: _fit_counting_cg(monkeypatch, *case) for name, case in cases.items()}
        return forced, tight

    @pytest.mark.parametrize("name", ["league", "cup", "corner"])
    def test_agrees_with_the_all_tight_fit(self, forced_and_tight, name):
        (post, probs, _), (exact, exact_probs, _) = (fits[name] for fits in forced_and_tight)
        assert np.max(np.abs(post.weights - exact.weights)) <= 1e-12 * np.max(np.abs(exact.weights))
        assert abs(post.evidence - exact.evidence) <= 1e-12 * abs(exact.evidence)
        assert np.all(np.abs(probs - exact_probs) <= 1e-12 * exact_probs)

    def test_halves_cg_at_a_large_sigma2_corner(self, forced_and_tight):
        (_, _, forced), (_, _, tight) = (fits["corner"] for fits in forced_and_tight)
        assert 0 < 2 * forced <= tight, (forced, tight)

    def test_step_lines_give_the_gradient_and_its_forcing(self, caplog):
        from test_ledger import INIT, _cup_fold

        with caplog.at_level(logging.DEBUG, logger=gp.__name__):
            post = fit(_cup_fold()[0], INIT)
        steps = [re.search(r"\|grad\| (\S+), eta (\S+), ", m) for m in _newton_steps(caplog)]
        assert len(steps) == post.newton_iters >= 2 and all(steps)
        grads, etas = ([float(m.group(i)) for m in steps] for i in (1, 2))
        assert etas[0] == gp._FORCING_CAP and etas[-1] == gp._CG_RTOL
        want = [max(gp._CG_RTOL, min(gp._FORCING_CAP, g * g)) for g in grads]
        assert np.allclose(etas, want, rtol=1e-2, atol=0.0)


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

    def test_gradient_only_below_the_budget(self, default_league, monkeypatch):
        # the evaluation that spends the budget computes no gradient: it could
        # only lead to an evaluation past the budget
        calls = []
        gradient = gp._evidence_gradient

        def counted(post):
            calls.append(post)
            return gradient(post)

        monkeypatch.setattr(gp, "_evidence_gradient", counted)
        init = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        for budget in (1, 2, 5, 10):
            calls.clear()
            optimize_hyperparams(default_league, init, budget=budget)
            assert len(calls) <= max(budget - 1, 0)

    @pytest.mark.parametrize(
        "seed, optimum",
        [
            (1, -608.6819039),
            (2, -612.8024534),
            (3, -533.4239904),
            (4, -540.1746917),
            (5, -488.0097772),
        ],
    )
    def test_reaches_the_pinned_optima(self, seed, optimum):
        # the first 600 matches of `simulate --seed`: the evidence L-BFGS-B
        # (scipy 1.17) found from the usual init, rounded down at the 7th decimal
        league = Dataset.from_records(simulate_dataset(SimConfig(seed=seed)).dataset.records[:600])
        init = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        best = optimize_hyperparams(league, init, budget=200)
        assert log_marginal(fit(league, best)) >= optimum

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

    @pytest.mark.parametrize(
        "init",
        [
            Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45),
            # outside the box: the init and the point it clips to are both evaluated
            Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=20.0),
        ],
    )
    def test_logs_each_evaluation(self, default_league, caplog, init):
        with caplog.at_level(logging.DEBUG, logger=gp.__name__):
            optimize_hyperparams(default_league, init, budget=200)
        records = [r for r in caplog.records if r.getMessage().startswith("search evaluation")]
        assert {r.levelno for r in records} == {logging.DEBUG}
        used, stop = _search_summary(caplog)
        assert len(records) == used
        roles = [r.getMessage().split("(")[1].split(")")[0] for r in records]
        starts = 2 if init.draw.log_alpha > gp._SEARCH_BOUNDS[2][1] else 1
        assert roles[: starts + 3] == ["init"] * starts + ["probe"] * 3
        assert set(roles[starts + 3 :]) <= {"trial", "accepted"}
        assert "accepted" in roles and _converged(stop)

    def test_default_league_in_few_evaluations(self, default_league, caplog):
        # the identity-started BFGS took 19 evaluations here
        init = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        with caplog.at_level(logging.INFO, logger=gp.__name__):
            optimize_hyperparams(default_league, init, budget=200)
        used, stop = _search_summary(caplog)
        assert used <= 14 and _converged(stop), (used, stop)

    def test_dense_route_converges(self, caplog):
        league = simulate_dataset(
            SimConfig(seed=0, num_players=560, num_teams=40, matches_per_team=28)
        ).dataset
        assert league.n <= league.num_players + 1
        init = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        with caplog.at_level(logging.INFO, logger=gp.__name__):
            best = optimize_hyperparams(league, init, budget=200)
        used, stop = _search_summary(caplog)
        assert _converged(stop) and "line search failed" not in stop, stop
        assert log_marginal(fit(league, best)) > log_marginal(fit(league, init))

    def test_init_on_the_bounds_evaluates_inside_the_box(self, default_league, monkeypatch):
        # log sigma2_home and log alpha start on their lower and upper bounds:
        # the probe of log alpha steps inward, and no point leaves the box
        hypers = []
        laplace = gp._laplace

        def recorded(*args, **kwargs):
            hypers.append(args[1])
            return laplace(*args, **kwargs)

        monkeypatch.setattr(gp, "_laplace", recorded)
        init = Hyperparams.create(sigma2=0.09, sigma2_home=0.0, alpha=math.exp(2.0))
        optimize_hyperparams(default_league, init, budget=200)
        assert hypers[0] is init and len(hypers) > 4
        (scale_lo, scale_hi), _, (alpha_lo, alpha_hi) = gp._SEARCH_BOUNDS
        for h in hypers[1:]:
            for scale in (h.kernel.sigma2, h.kernel.sigma2_home):
                assert math.exp(scale_lo) <= scale <= math.exp(scale_hi), h
            assert alpha_lo <= h.draw.log_alpha <= alpha_hi, h
        assert hypers[3].draw.log_alpha == 2.0 - gp._PROBE_STEP

    @pytest.mark.parametrize("budget", [2, 3, 4])
    def test_budget_spent_in_the_probes(self, default_league, monkeypatch, budget):
        posts, gradients = [], []
        laplace, gradient = gp._laplace, gp._evidence_gradient

        def fitted(*args, **kwargs):
            posts.append(laplace(*args, **kwargs))
            return posts[-1]

        def differentiated(post):
            gradients.append(post)
            return gradient(post)

        monkeypatch.setattr(gp, "_laplace", fitted)
        monkeypatch.setattr(gp, "_evidence_gradient", differentiated)
        init = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        best = optimize_hyperparams(default_league, init, budget=budget)
        assert len(posts) == budget and len(gradients) == budget - 1
        assert all(p is not posts[-1] for p in gradients)
        monkeypatch.undo()
        assert log_marginal(fit(default_league, best)) >= log_marginal(fit(default_league, init))


def _search_summary(caplog) -> tuple[int, str]:
    """The evaluations used and the stop reason, from the search's one INFO line."""
    (line,) = [
        r.getMessage()
        for r in caplog.records
        if r.levelno == logging.INFO and r.getMessage().startswith("evidence search")
    ]
    used = int(line.split("evidence search: ")[1].split(" of ")[0])
    return used, line.split("; stop: ")[1].split(";")[0]


def _converged(stop: str) -> bool:
    return stop in (
        "projected gradient within gtol",
        "predicted reduction within ftol",
        "relative reduction within ftol",
    )


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
        # differently laid out factor of C differently
        league = simulate_dataset(SimConfig(seed=0)).dataset.records
        hyper = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        large = (train_model(Dataset.from_records(league[:100]), hyper), league[100:140])
        # 300 matches over 224 players: Newton factors C at every step
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
            # save -> load -> save writes the same bytes
            again = tmp_path / f"again{i}.json"
            save_model(back, again)
            assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        ("players", "dtype"), [(1, "<u1"), (256, "<u1"), (257, "<u2"), (65536, "<u2"), (65537, "<u4")]
    )
    def test_index_width_rule(self, players, dtype):
        assert _index_dtype(players) == dtype

    @pytest.mark.parametrize(("players", "dtype"), [(256, "<u1"), (257, "<u2")])
    def test_lineups_in_the_narrowest_width(self, tmp_path, players, dtype):
        # 40 players on the pitch take the registry's top indices, up to P-1,
        # behind ids that play no match
        ds = random_dataset(np.random.default_rng(257), 12, 40)
        bench = [f"b{i:03d}" for i in range(players - ds.num_players)]
        registry = {pid: i for i, pid in enumerate(bench)}
        registry.update((pid, len(bench) + i) for pid, i in ds.registry.items())
        wide = Dataset.from_records(ds.records, registry)
        hyper = Hyperparams.create(sigma2=0.2, sigma2_home=0.5, alpha=0.5)
        fresh = train_model(wide, hyper)
        path = tmp_path / "model.json"
        save_model(fresh, path)
        payload = json.loads(path.read_text())
        assert payload["version"] == 6
        lineups = [
            np.frombuffer(base64.b64decode(payload[key]["data"]), payload[key]["dtype"])
            for key in ("plus", "minus")
        ]
        assert [payload[key]["dtype"] for key in ("plus", "minus")] == [dtype, dtype]
        assert max(int(arr.max()) for arr in lineups) == players - 1
        back = load_model(path)
        assert back.registry == fresh.registry
        for field in ("weights", "mode"):
            assert np.array_equal(getattr(back.posterior, field), getattr(fresh.posterior, field))
        assert np.array_equal(back.posterior.factor.rfp, fresh.posterior.factor.rfp)
        # any width but the registry's is a data error
        other = {"<u1": "<u2", "<u2": "<u1"}[dtype]
        for key in ("plus", "minus"):
            bad = dict(payload, **{key: dict(payload[key], dtype=other)})
            path.write_text(json.dumps(bad))
            with pytest.raises(DataError, match=f"model array '{key}' is '{other}'"):
                load_model(path)

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
        # a version 4 file holds 4-byte lineups and home signs as a list
        bad.write_text(json.dumps(version_4_payload(json.loads(path.read_text()))))
        with pytest.raises(DataError, match="version 4.*retrain"):
            load_model(bad)
        # a version 5 file holds the mode and dual coefficients in place of the weights
        bad.write_text(json.dumps(version_5_payload(json.loads(path.read_text()))))
        with pytest.raises(DataError, match="version 5.*retrain"):
            load_model(bad)

    def test_rejects_corrupt_payloads(self, tmp_path):
        _, model = self._trained(seed=255)
        path = tmp_path / "model.json"
        save_model(model, path)
        good = json.loads(path.read_text())
        width = len(good["registry"]) + 1
        # 18 matches over 40 players: X has a null space, along which the
        # weights move and the mode does not
        null = sla.null_space(model.posterior.parts.x.toarray())[:, 0]

        def decoded(key):
            obj = good[key]
            return np.frombuffer(base64.b64decode(obj["data"]), obj["dtype"]).reshape(obj["shape"])

        def with_array(key, arr, dtype=None):
            data = base64.b64encode(np.ascontiguousarray(arr).tobytes()).decode()
            return dict(good, **{key: dict(good[key], dtype=dtype or good[key]["dtype"], data=data)})

        def with_entry(key, index, value):
            arr = decoded(key).copy()
            arr[index] = value
            return with_array(key, arr)

        plus = decoded("plus")
        assert good["plus"]["dtype"] == "<u1"
        # lineups are unsigned: the largest index their width holds stands
        # for a negative one, outside the registry either way
        top = np.iinfo(plus.dtype).max
        bad_payloads = [
            {k: v for k, v in good.items() if k != "weights"},
            {k: v for k, v in good.items() if k != "hyper"},
            dict(good, hyper=dict(good["hyper"], sigma2=-1.0)),
            # an integer past the float range
            dict(good, hyper=dict(good["hyper"], sigma2=10**400)),
            dict(good, weights=dict(good["weights"], shape=[width + 1])),
            dict(good, weights=dict(good["weights"], dtype="<f4")),
            with_array("weights", decoded("weights")[:-1]),
            dict(good, outcomes=good["outcomes"][:-1]),
            dict(good, outcomes="X" + good["outcomes"][1:]),
            dict(good, homes=good["homes"][:-1]),
            dict(good, homes="3" + good["homes"][1:]),
            dict(good, homes="-" + good["homes"][1:]),
            # version 4's home signs
            dict(good, homes=[{"1": 1, "2": -1, "0": 0}[t] for t in good["homes"]]),
            dict(good, registry=good["registry"][:-1] + good["registry"][:1]),
            with_entry("plus", (0, -1), len(good["registry"])),
            with_entry("plus", (0, 0), top),
            with_array("plus", plus[:, ::-1]),
            # a valid lineup in the wrong width, version 4's among them
            with_array("plus", plus.astype("<u2"), "<u2"),
            with_array("plus", plus.astype("<i4"), "<i4"),
            with_entry("minus", 0, plus[0]),
            with_entry("weights", 0, np.nan),
            # finite and well formed, but not the stationary point of the fit
            with_array("weights", 1.01 * decoded("weights")),
            with_array("weights", decoded("weights") + 0.1 * null),
        ]
        for i, bad in enumerate(bad_payloads):
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(bad))
            with pytest.raises(DataError):
                load_model(path)

    def test_rejects_non_finite_mode(self, tmp_path):
        # the mode and the factor are rebuilt from the weights, and prediction
        # skips their finiteness scan
        _, model = self._trained(seed=256)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        obj = payload["weights"]
        weights = np.frombuffer(base64.b64decode(obj["data"]), obj["dtype"]).copy()
        weights[1] = np.nan
        payload["weights"] = dict(obj, data=base64.b64encode(weights.tobytes()).decode())
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="non-finite"):
            load_model(path)

    @pytest.mark.parametrize("sigma2_home", [None, 0.0])
    def test_load_rebuilds_the_fitted_posterior(self, tmp_path, default_league, sigma2_home):
        # one league with N > P+1 and one with N <= P+1; None keeps the
        # default home scale, 0.0 switches the home feature off
        dense = random_dataset(np.random.default_rng(258), 20, 44)
        home = {} if sigma2_home is None else {"sigma2_home": sigma2_home}
        hyper = Hyperparams.create(sigma2=0.09, alpha=0.45, **home)
        for i, ds in enumerate((default_league, dense)):
            assert (ds.n > ds.num_players + 1) == (i == 0)
            fresh = train_model(ds, hyper)
            path = tmp_path / f"model{i}.json"
            save_model(fresh, path)
            back, post = load_model(path).posterior, fresh.posterior
            for field in ("weights", "mode", "grad", "sqrt_w"):
                assert np.array_equal(getattr(back, field), getattr(post, field)), field
            assert np.array_equal(back.factor.rfp, post.factor.rfp)
            for field in ("loglik", "newton_iters"):
                assert getattr(back, field) == getattr(post, field), field
            assert log_marginal(back) == log_marginal(post)

    def test_dense_load_peak_memory(self, tmp_path):
        # 400 matches over about 600 players (N <= P+1), in units of (P+1)^2
        # doubles: load peaks at the packed factor of C (~0.50 unit), the pair
        # map that builds C (~0.46 unit) and the decoded file, ~1.13 units; a
        # second packed copy of C, or one N x N array (~0.44 unit), fails the bound
        ds = random_dataset(np.random.default_rng(400), 400, 600)
        assert ds.n <= ds.num_players + 1
        model = train_model(ds, Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45))
        path = tmp_path / "model.json"
        save_model(model, path)
        unit = 8 * (ds.num_players + 1) ** 2
        tracemalloc.start()
        try:
            load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * unit, peak / unit

    def test_dense_posterior_holds_no_gram(self, tmp_path):
        # the league of test_dense_load_peak_memory: a loaded model holds the
        # packed factor of C (~0.50 of the unit, (P+1)^2 doubles) and the pair
        # map (~0.46 unit), and a fit builds one packed C, at the mode, ~1.07
        # units each; a second packed copy, or an N x N Gram or B (~0.44
        # unit), held beside them fails both bounds
        ds = random_dataset(np.random.default_rng(400), 400, 600)
        hyper = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        unit = 8 * (ds.num_players + 1) ** 2
        tracemalloc.start()
        try:
            post = fit(ds, hyper)
            fit_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        path = tmp_path / "model.json"
        save_model(GPModel(post, dict(ds.registry)), path)
        del post
        tracemalloc.start()
        try:
            model = load_model(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 1.2 * unit, held / unit
        assert fit_peak <= 1.2 * unit, fit_peak / unit

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

    def test_search_and_fit_share_the_parts(self, default_league, monkeypatch):
        # the bits of a search then a cold fit, from one build of the training arrays
        init = Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45)
        want = fit(default_league, optimize_hyperparams(default_league, init, budget=8))
        builds = []
        real = gp._dataset_parts
        monkeypatch.setattr(gp, "_dataset_parts", lambda train: builds.append(1) or real(train))
        got = train_model(default_league, init, optimize=True, budget=8).posterior
        assert len(builds) == 1
        assert got.hyper == want.hyper
        for field in ("weights", "mode"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        assert np.array_equal(got.factor.rfp, want.factor.rfp)
        assert got.newton_iters == want.newton_iters
