"""Elo baseline, odds and uniform predictors, and the weight-space oracle."""

from __future__ import annotations

import io
import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from conftest import ARRAY_ROUTES, array_route_case, make_record, player_ids, random_dataset
from lineupgp import baselines
from lineupgp.baselines import (
    ELO_LATENT_SCALE,
    EloModel,
    EloState,
    OddsModel,
    UniformModel,
    elo_expected,
    elo_rk_predict,
    elo_update,
    fit_elo_alpha,
    load_odds_csv,
    odds_to_probs,
    rating_delta_to_latent,
    uniform_probs,
)
from lineupgp.data import Dataset, HomeSide, Outcome
from lineupgp.errors import DataError, NumericalError
from lineupgp.gp import Hyperparams
from lineupgp.kernel import SELF_OVERLAP, MatchVector
from lineupgp.likelihood import DrawParam, loglik_alpha_derivs, loglik_vector, outcome_probs
from oracles import (
    elo_fold_records,
    loglik_alpha_curvature,
    primal_laplace_fit,
    primal_laplace_fit_vectors,
)
from lineupgp.simulate import SimConfig, simulate_dataset

P = player_ids(60)


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


def _golden_alpha(latents, codes, lo=1e-4, hi=10.0) -> float:
    """The draw margin by 100 golden-section steps on log(alpha) over [log lo, log hi]."""

    def neg_loglik(log_alpha: float) -> float:
        return -float(np.sum(loglik_vector(codes, latents, math.exp(log_alpha))))

    return math.exp(_golden_min(neg_loglik, math.log(lo), math.log(hi)))


def _elo_latents(ds):
    """(pre-match latents, outcome codes) of an Elo fold over ``ds`` at the default constants."""
    state, latents, codes = EloState(), [], []
    for rec in ds.records:
        delta = state.rating(rec.team1) - state.rating(rec.team2) + state.home_advantage * rec.home.sign
        latents.append(rating_delta_to_latent(delta))
        codes.append(rec.outcome.code)
        state = elo_update(state, rec)
    return np.array(latents), np.array(codes)


class TestEloExpected:
    def test_closed_forms(self):
        assert elo_expected(1500.0, 1500.0) == 0.5
        assert abs(elo_expected(1900.0, 1500.0) - 10.0 / 11.0) <= 1e-15
        assert abs(elo_expected(1100.0, 1500.0) - 1.0 / 11.0) <= 1e-15

    def test_home_advantage_is_a_rating_shift(self):
        with_home = elo_expected(1500.0, 1500.0, HomeSide.TEAM1, home_advantage=100.0)
        assert with_home == elo_expected(1600.0, 1500.0)
        away = elo_expected(1500.0, 1500.0, HomeSide.TEAM2, home_advantage=100.0)
        assert away == elo_expected(1400.0, 1500.0)

    def test_consistent_with_latent_scale(self):
        rng = np.random.default_rng(301)
        for _ in range(50):
            delta = float(rng.uniform(-800, 800))
            want = float(expit(rating_delta_to_latent(delta)))
            assert abs(elo_expected(1500.0 + delta, 1500.0) - want) <= 1e-12

    def test_any_finite_gap(self):
        # the logistic form neither overflows nor leaves [0, 1] at extreme gaps
        assert elo_expected(0.0, 1e308) == 0.0
        assert elo_expected(1e308, -1e308) == 1.0
        assert elo_expected(1500.0, 1500.0, HomeSide.TEAM2, home_advantage=1e308) == 0.0

    def test_latent_scale_value(self):
        assert rating_delta_to_latent(400.0) == math.log(10.0)
        assert ELO_LATENT_SCALE == math.log(10.0) / 400.0


class TestEloUpdate:
    def _rec(self, outcome, home=HomeSide.NEUTRAL, team1="a", team2="b"):
        return make_record(
            "m1", P[:11], P[11:22], outcome=outcome, home=home, team1=team1, team2=team2
        )

    def test_winner_gains_what_loser_drops(self):
        state = EloState(ratings={"a": 1500.0, "b": 1600.0})
        after = elo_update(state, self._rec(Outcome.TEAM1_WIN))
        assert after.ratings["a"] > 1500.0
        assert after.ratings["a"] - 1500.0 == 1600.0 - after.ratings["b"]

    def test_draw_moves_toward_underdog(self):
        state = EloState(ratings={"a": 1700.0, "b": 1500.0})
        after = elo_update(state, self._rec(Outcome.DRAW))
        assert after.ratings["a"] < 1700.0
        assert after.ratings["b"] > 1500.0

    def test_unseen_teams_start_at_initial(self):
        state = EloState(initial_rating=1500.0)
        after = elo_update(state, self._rec(Outcome.TEAM1_WIN))
        assert after.ratings["a"] + after.ratings["b"] == pytest.approx(3000.0, abs=1e-12)

    def test_mass_conserved_over_many_updates(self):
        rng = np.random.default_rng(302)
        teams = [f"t{i:02d}" for i in range(12)]
        state = EloState(home_advantage=80.0)
        outcomes = (Outcome.TEAM1_WIN, Outcome.DRAW, Outcome.TEAM2_WIN)
        homes = (HomeSide.TEAM1, HomeSide.TEAM2, HomeSide.NEUTRAL)
        for i in range(2000):
            t1, t2 = rng.choice(12, size=2, replace=False)
            rec = self._rec(
                outcomes[int(rng.integers(3))],
                home=homes[int(rng.integers(3))],
                team1=teams[t1],
                team2=teams[t2],
            )
            state = elo_update(state, rec)
        drift = sum(state.ratings.values()) - 1500.0 * len(state.ratings)
        assert abs(drift) <= 1e-9


class TestEloRkPredict:
    def test_exchange_under_delta_negation(self):
        d = DrawParam.from_alpha(0.45)
        p = elo_rk_predict(1650.0, 1500.0, HomeSide.NEUTRAL, d)
        q = elo_rk_predict(1500.0, 1650.0, HomeSide.NEUTRAL, d)
        assert p.p_w == q.p_l
        assert p.p_l == q.p_w
        assert p.p_d == q.p_d

    def test_equal_ratings_give_symmetric_triple(self):
        d = DrawParam.from_alpha(0.45)
        p = elo_rk_predict(1500.0, 1500.0, HomeSide.NEUTRAL, d)
        assert p.p_w == p.p_l
        assert abs(p.p_d - math.tanh(0.225)) <= 1e-13


class TestFitEloAlpha:
    def test_recovers_draw_rate_at_zero_delta(self):
        rng = np.random.default_rng(303)
        probs = outcome_probs(0.0, DrawParam.from_alpha(0.45)).as_array()
        codes = rng.choice(np.array([1, 0, -1]), size=4000, p=probs)
        fitted = fit_elo_alpha(np.zeros(4000), codes)
        draw_rate = float(np.mean(codes == 0))
        assert abs(math.tanh(fitted.alpha / 2.0) - draw_rate) <= 1e-6

    def test_recovers_known_alpha_with_spread_latents(self):
        rng = np.random.default_rng(304)
        n = 20000
        latents = rng.normal(0.0, 0.5, size=n)
        true = 0.45
        # inverse-cdf sampling written out directly, independent of the
        # library's own outcome sampler
        p_w = expit(latents - true)
        p_l = expit(-latents - true)
        u = rng.random(n)
        codes = np.where(u < p_w, 1, np.where(u < 1.0 - p_l, 0, -1))
        fitted = fit_elo_alpha(latents, codes)
        assert abs(math.log(fitted.alpha) - math.log(true)) <= 0.1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_elo_alpha(np.zeros(3), np.zeros(2, dtype=int))

    def test_matches_the_golden_section_oracle(self):
        # the inputs of the tests above, and Elo's latents on seeded leagues
        rng = np.random.default_rng(303)
        probs = outcome_probs(0.0, DrawParam.from_alpha(0.45)).as_array()
        cases = [(np.zeros(4000), rng.choice(np.array([1, 0, -1]), size=4000, p=probs))]
        rng = np.random.default_rng(304)
        latents = rng.normal(0.0, 0.5, size=20000)
        u = rng.random(20000)
        p_w, p_l = expit(latents - 0.45), expit(-latents - 0.45)
        cases.append((latents, np.where(u < p_w, 1, np.where(u < 1.0 - p_l, 0, -1))))
        for seed in range(6):
            cases.append(_elo_latents(simulate_dataset(SimConfig(seed=seed)).dataset))
        for latents, codes in cases:
            got = fit_elo_alpha(latents, codes).alpha
            want = _golden_alpha(latents, codes)
            assert abs(got - want) <= 1e-7 * want
            loglik = float(np.sum(loglik_vector(codes, latents, got)))
            golden = float(np.sum(loglik_vector(codes, latents, want)))
            assert loglik >= golden - 1e-12 * abs(golden)

    def test_no_draws_or_only_draws_take_an_end(self):
        latents = np.random.default_rng(306).normal(0.0, 0.5, size=300)
        no_draws = np.where(latents > 0.0, 1, -1)
        assert fit_elo_alpha(latents, no_draws).alpha == pytest.approx(1e-4, rel=1e-15)
        assert fit_elo_alpha(latents, np.zeros(300, dtype=int)).alpha == pytest.approx(10.0, rel=1e-15)
        # the oracle agrees
        assert _golden_alpha(latents, no_draws) <= 1.0001e-4
        assert _golden_alpha(latents, np.zeros(300, dtype=int)) >= 9.999


class TestEloModel:
    def test_fit_and_predict_on_simulated_league(self):
        ds = simulate_dataset(SimConfig(seed=3, num_teams=6, matches_per_team=20, num_players=84)).dataset
        model = EloModel().fit(ds)
        assert model.state is not None and model.draw is not None
        p = model.predict(ds.records[0])
        assert abs(p.as_array().sum() - 1.0) <= 1e-9

    def test_fit_folds_the_ratings_of_elo_update(self):
        # the fit folds one dict in place; the public update it mirrors is the oracle
        ds = random_dataset(np.random.default_rng(305), 400, 60)
        constants = {"k_factor": 24.0, "home_advantage": 70.0, "initial_rating": 1400.0}
        model = EloModel(**constants).fit(ds)
        state = EloState(**constants)
        latents, codes = [], []
        for rec in ds.records:
            delta = state.rating(rec.team1) - state.rating(rec.team2) + 70.0 * rec.home.sign
            latents.append(rating_delta_to_latent(delta))
            codes.append(rec.outcome.code)
            state = elo_update(state, rec)
        assert {h.sign for h in (r.home for r in ds.records)} == {-1, 0, 1}
        assert list(model.state.ratings.items()) == list(state.ratings.items())
        assert model.state == state
        assert model.draw == fit_elo_alpha(np.array(latents), np.array(codes))

    def test_rejects_bad_constants(self):
        for bad in (
            {"k_factor": math.nan},
            {"k_factor": -1.0},
            {"home_advantage": math.inf},
            {"initial_rating": -math.inf},
        ):
            with pytest.raises(ValueError, match="Elo"):
                EloModel(**bad)
        assert EloModel(k_factor=0.0).k_factor == 0.0

    def test_overflowing_ratings_raise(self):
        ds = simulate_dataset(SimConfig(seed=4, num_teams=4, matches_per_team=6, num_players=56))
        with pytest.raises(NumericalError, match="overflowed"):
            EloModel(k_factor=1.7e308).fit(ds.dataset)

    def test_predict_before_fit_raises(self):
        rec = make_record("m1", P[:11], P[11:22])
        with pytest.raises(NumericalError, match="before fit"):
            EloModel().predict(rec)

    def test_unseen_teams_predicted_from_initial_rating(self):
        ds = simulate_dataset(SimConfig(seed=4, num_teams=4, matches_per_team=6, num_players=56)).dataset
        model = EloModel(home_advantage=60.0).fit(ds)
        rec = make_record(
            "x1", P[:11], P[11:22], team1="nowhere1", team2="nowhere2", home=HomeSide.TEAM1
        )
        got = model.predict(rec)
        want = elo_rk_predict(
            model.initial_rating,
            model.initial_rating,
            HomeSide.TEAM1,
            model.draw,
            home_advantage=60.0,
        )
        assert got.as_array().tolist() == want.as_array().tolist()


def _bits(preds) -> list[tuple[str, str, str] | None]:
    return [None if p is None else (p.p_w.hex(), p.p_d.hex(), p.p_l.hex()) for p in preds]


class TestArrayPath:
    """The baselines read Dataset.arrays and agree bit for bit with the record-walking oracles."""

    CONSTANTS = {"k_factor": 24.0, "home_advantage": 70.0, "initial_rating": 1400.0}

    @pytest.mark.parametrize("route", ARRAY_ROUTES)
    def test_fit_matches_the_record_fold(self, route, monkeypatch):
        train, _ = array_route_case(route)
        seen = []

        def recording(latents, codes):
            seen.append((latents, codes))
            return fit_elo_alpha(latents, codes)

        monkeypatch.setattr(baselines, "fit_elo_alpha", recording)
        model = EloModel(**self.CONSTANTS).fit(train)
        assert "records" not in vars(train)
        ratings, latents, codes = elo_fold_records(train, *self.CONSTANTS.values())
        ((got_latents, got_codes),) = seen
        assert list(model.state.ratings.items()) == list(ratings.items())
        assert [x.hex() for x in got_latents.tolist()] == [x.hex() for x in latents.tolist()]
        assert got_codes.tolist() == codes.tolist()
        assert model.draw == fit_elo_alpha(latents, codes)
        # and from a slope and a curvature that each compute their own sigmoids
        monkeypatch.setattr(
            baselines,
            "loglik_alpha_slope_curvature",
            lambda c, f, a: (loglik_alpha_derivs(c, f, a)[0], loglik_alpha_curvature(c, f, a)),
        )
        assert model.draw == fit_elo_alpha(latents, codes)

    @pytest.mark.parametrize("route", ARRAY_ROUTES)
    def test_predict_many_matches_predict(self, route):
        train, test = array_route_case(route)
        built = "records" in vars(test)
        models = [EloModel(**self.CONSTANTS).fit(train), UniformModel()]
        models.append(OddsModel({match_id: (2.0, 3.0, 4.5) for match_id in test.arrays.match_ids[1::2]}))
        got = [_bits(model.predict_many(test)) for model in models]
        assert ("records" in vars(test)) == built
        assert got == [_bits(map(model.predict, test.records)) for model in models]
        if route == "neutral":
            assert {"newcomer"} <= set(test.arrays.teams.ravel()) - set(models[0].state.ratings)

    def test_an_overflowing_rating_gap_warns_of_nothing(self):
        # the gap is inf in the batch as in predict's float arithmetic, with no NumPy warning
        ds = Dataset.from_records(
            [make_record(f"m{i}", P[:11], P[11:22], team1=t1, team2=t2) for i, (t1, t2) in enumerate(["ab", "ba"])]
        )
        state = EloState(ratings={"a": 1e308, "b": -1e308})
        model = EloModel(state=state, draw=DrawParam.from_alpha(0.4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model.predict_many(ds)
        assert _bits(got) == _bits(map(model.predict, ds.records))
        assert [p.p_w for p in got] == [1.0, 0.0]

    def test_predict_many_before_fit_raises(self):
        with pytest.raises(NumericalError, match="before fit"):
            EloModel().predict_many(random_dataset(np.random.default_rng(408), 3, 30))


class TestOdds:
    def test_normalizes_inverse_quotes(self):
        p = odds_to_probs(2.0, 3.0, 4.0)
        assert abs(p.p_w - 6.0 / 13.0) <= 1e-15
        assert abs(p.p_d - 4.0 / 13.0) <= 1e-15
        assert abs(p.p_l - 3.0 / 13.0) <= 1e-15

    def test_rejects_bad_quotes(self):
        for bad in ((1.0, 3.0, 4.0), (2.0, 0.9, 4.0), (2.0, 3.0, math.inf), (-2.0, 3.0, 4.0)):
            with pytest.raises(DataError, match="odds"):
                odds_to_probs(*bad)

    def test_load_round_trip(self):
        text = "match_id,odds_w,odds_d,odds_l\nm1,2.1,3.3,3.9\nm2,1.5,4.0,7.5\n"
        table = load_odds_csv(io.StringIO(text))
        assert table == {"m1": (2.1, 3.3, 3.9), "m2": (1.5, 4.0, 7.5)}

    def test_load_errors_name_lines(self):
        with pytest.raises(DataError, match="line 1"):
            load_odds_csv(io.StringIO("nope\n"))
        with pytest.raises(DataError, match="line 3"):
            load_odds_csv(
                io.StringIO("match_id,odds_w,odds_d,odds_l\nm1,2,3,4\nm1,2,3,4\n")
            )
        with pytest.raises(DataError, match="line 2.*non-numeric"):
            load_odds_csv(io.StringIO("match_id,odds_w,odds_d,odds_l\nm1,x,3,4\n"))
        with pytest.raises(DataError, match="line 2"):
            load_odds_csv(io.StringIO("match_id,odds_w,odds_d,odds_l\nm1,0.5,3,4\n"))
        with pytest.raises(DataError, match="empty"):
            load_odds_csv(io.StringIO(""))

    def test_model_returns_none_without_quote(self):
        model = OddsModel({"m1": (2.0, 3.0, 4.0)})
        rec_known = make_record("m1", P[:11], P[11:22])
        rec_unknown = make_record("m2", P[:11], P[11:22])
        assert model.predict(rec_known) is not None
        assert model.predict(rec_unknown) is None


class TestUniform:
    def test_exact_thirds(self):
        p = uniform_probs()
        assert p.p_w == p.p_d == p.p_l == 1.0 / 3.0
        assert p.p_w + p.p_d + p.p_l == 1.0

    def test_model_name_is_random(self):
        rec = make_record("m1", P[:11], P[11:22])
        model = UniformModel()
        assert model.name == "random"
        assert model.predict(rec).p_w == 1.0 / 3.0


class TestWeightSpaceOracle:
    def test_empty_training_set_returns_prior(self):
        hyper = Hyperparams.create(sigma2=0.25, sigma2_home=0.5, alpha=0.45)
        wsp = primal_laplace_fit_vectors([], [], num_players=30, hyper=hyper)
        assert np.array_equal(wsp.mean, np.zeros(31))
        assert np.array_equal(wsp.cov, np.diag([0.25] * 30 + [0.5]))
        vec = MatchVector(
            plus_indices=np.arange(11, dtype=np.int32),
            minus_indices=np.arange(11, 22, dtype=np.int32),
            home=1,
        )
        mu, var = wsp.predict_latent(vec)
        assert mu == 0.0
        assert var == SELF_OVERLAP * 0.25 + 0.5

    def test_zero_home_variance_drops_the_feature(self):
        hyper = Hyperparams.create(sigma2=0.2, sigma2_home=0.0, alpha=0.45)
        wsp = primal_laplace_fit_vectors([], [], num_players=25, hyper=hyper)
        assert wsp.mean.shape == (25,)
        vec = MatchVector(
            plus_indices=np.arange(11, dtype=np.int32),
            minus_indices=np.arange(11, 22, dtype=np.int32),
            home=1,
        )
        _, var = wsp.predict_latent(vec)
        assert var == pytest.approx(SELF_OVERLAP * 0.2, rel=1e-12)

    def test_posterior_tightens_with_data(self):
        ds = random_dataset(np.random.default_rng(305), 25, 30)
        hyper = Hyperparams.create(sigma2=0.3, sigma2_home=0.4, alpha=0.5)
        wsp = primal_laplace_fit(ds, hyper)
        prior_var = np.diag(np.concatenate([np.full(ds.num_players, 0.3), [0.4]]))
        assert np.all(np.diag(wsp.cov) <= np.diag(prior_var) + 1e-12)
