"""Synthetic league generator: determinism, ground truth, schedule shape."""

from __future__ import annotations

import datetime as dt
import math
from collections import Counter

import pytest

from lineupgp.data import HomeSide, MatchRecord, Outcome, serialize_dataset
from lineupgp.likelihood import DrawParam, outcome_probs
from lineupgp.simulate import SimConfig, SimResult, bayes_log_loss, simulate_dataset

_SMALL = SimConfig(seed=11, num_teams=4, matches_per_team=6, num_players=56)


def _team_index(name: str) -> int:
    assert name.startswith("team")
    return int(name[4:])


class TestConfigValidation:
    def test_infeasible_roster(self):
        with pytest.raises(ValueError, match="cannot field"):
            SimConfig(num_players=100, num_teams=10)

    def test_other_knobs(self):
        with pytest.raises(ValueError):
            SimConfig(num_teams=1)
        with pytest.raises(ValueError):
            SimConfig(matches_per_team=0)
        with pytest.raises(ValueError):
            SimConfig(skill_scale=0.0)
        with pytest.raises(ValueError):
            SimConfig(true_alpha=0.0)
        with pytest.raises(ValueError):
            SimConfig(true_home=math.inf)

    def test_derived_fields(self):
        cfg = SimConfig(seed=0)
        assert cfg.pool_size == 14
        assert cfg.true_sigma2 == pytest.approx(0.09, rel=1e-15)
        tight = SimConfig(num_players=50, num_teams=4)
        assert tight.pool_size == 12


class TestDeterminism:
    def test_same_seed_bytes_identical(self):
        a = simulate_dataset(_SMALL)
        b = simulate_dataset(_SMALL)
        assert serialize_dataset(a.dataset) == serialize_dataset(b.dataset)
        assert a.skills == b.skills
        assert a.latents == b.latents

    def test_different_seed_differs(self):
        a = simulate_dataset(_SMALL)
        b = simulate_dataset(SimConfig(seed=12, num_teams=4, matches_per_team=6, num_players=56))
        assert serialize_dataset(a.dataset) != serialize_dataset(b.dataset)


class TestGroundTruth:
    def test_latents_match_skill_sums(self):
        result = simulate_dataset(_SMALL)
        cfg = result.config
        for rec in result.dataset.records:
            f = (
                sum(result.skills[p] for p in rec.lineup1)
                - sum(result.skills[p] for p in rec.lineup2)
                + cfg.true_home * rec.home.sign
            )
            assert result.latents[rec.match_id] == pytest.approx(f, abs=1e-12)

    def test_result_shape(self):
        result = simulate_dataset(_SMALL)
        assert isinstance(result, SimResult)
        assert set(result.latents) == {r.match_id for r in result.dataset.records}
        assert len(result.skills) == 4 * 14
        assert result.dataset.num_players <= 4 * 14
        assert all(rec.competition == "league" for rec in result.dataset.records)

    def test_outcome_frequencies_near_flat_truth(self):
        # skills ~ 1e-6 and no home effect pin every latent essentially at 0,
        # so outcome frequencies over 10^4 matches must sit within ~3 standard
        # errors (<= 0.015) of the closed-form ternary probabilities at f=0.
        cfg = SimConfig(
            seed=7,
            num_teams=20,
            matches_per_team=1000,
            num_players=280,
            skill_scale=1e-6,
            true_home=0.0,
            true_alpha=0.45,
        )
        result = simulate_dataset(cfg)
        assert result.dataset.n == 10_000
        counts = Counter(rec.outcome for rec in result.dataset.records)
        want = outcome_probs(0.0, DrawParam.from_alpha(0.45))
        for outcome, p in [
            (Outcome.TEAM1_WIN, want.p_w),
            (Outcome.DRAW, want.p_d),
            (Outcome.TEAM2_WIN, want.p_l),
        ]:
            assert abs(counts[outcome] / 10_000 - p) <= 0.015

    def test_vanishing_alpha_kills_draws(self):
        cfg = SimConfig(
            seed=3, num_teams=16, matches_per_team=25, num_players=176, true_alpha=1e-9
        )
        result = simulate_dataset(cfg)
        assert result.dataset.n == 200
        assert all(rec.outcome is not Outcome.DRAW for rec in result.dataset.records)


class TestLineups:
    def test_pools_are_disjoint_team_slices(self):
        result = simulate_dataset(_SMALL)
        pool_size = result.config.pool_size
        player_ids = [f"p{i:04d}" for i in range(4 * pool_size)]
        pools = [
            set(player_ids[t * pool_size : (t + 1) * pool_size]) for t in range(4)
        ]
        for rec in result.dataset.records:
            assert set(rec.lineup1) <= pools[_team_index(rec.team1)]
            assert set(rec.lineup2) <= pools[_team_index(rec.team2)]

    def test_at_most_three_swaps_from_first_eleven(self):
        result = simulate_dataset(_SMALL)
        pool_size = result.config.pool_size
        player_ids = [f"p{i:04d}" for i in range(4 * pool_size)]
        firsts = [
            set(player_ids[t * pool_size : t * pool_size + 11]) for t in range(4)
        ]
        for rec in result.dataset.records:
            assert len(set(rec.lineup1) - firsts[_team_index(rec.team1)]) <= 3
            assert len(set(rec.lineup2) - firsts[_team_index(rec.team2)]) <= 3

    def test_no_bench_means_fixed_eleven(self):
        cfg = SimConfig(seed=2, num_teams=4, matches_per_team=4, num_players=44)
        result = simulate_dataset(cfg)
        assert result.config.pool_size == 11
        lineups = {rec.lineup1 for rec in result.dataset.records}
        lineups |= {rec.lineup2 for rec in result.dataset.records}
        assert len(lineups) == 4


class TestRecordsAreValid:
    """simulate builds its records unchecked: each must pass the checks MatchRecord runs."""

    @pytest.mark.parametrize(
        "cfg",
        [
            SimConfig(seed=0),
            SimConfig(seed=0, num_teams=30, num_players=420, matches_per_team=110),
            SimConfig(seed=9, num_teams=5, matches_per_team=4, num_players=55),
        ],
        ids=["default", "season", "odd-teams"],
    )
    def test_every_record_passes_the_per_field_checks(self, cfg):
        records = simulate_dataset(cfg).dataset.records
        assert len(records) == cfg.num_teams * cfg.matches_per_team // 2
        for rec in records:
            rec._check_fields()
            # lineups sorted: the record the checked constructor makes of it
            assert MatchRecord(**vars(rec)) == rec


class TestSchedule:
    def test_double_round_robin(self):
        result = simulate_dataset(_SMALL)
        ds = result.dataset
        assert ds.n == 4 * 6 // 2

        appearances = Counter()
        meetings = Counter()
        for rec in ds.records:
            appearances[rec.team1] += 1
            appearances[rec.team2] += 1
            meetings[frozenset((rec.team1, rec.team2))] += 1
        assert all(v == 6 for v in appearances.values())
        assert len(meetings) == 6 and all(v == 2 for v in meetings.values())

        # first cycle is played at team1's ground, the rematch at team2's
        by_pair: dict[frozenset, list] = {}
        for rec in ds.records:
            by_pair.setdefault(frozenset((rec.team1, rec.team2)), []).append(rec)
        for first, second in by_pair.values():
            assert first.date < second.date
            assert first.home is HomeSide.TEAM1
            assert second.home is HomeSide.TEAM2

    def test_weekly_rounds_from_base_date(self):
        result = simulate_dataset(_SMALL)
        dates = sorted({rec.date for rec in result.dataset.records})
        assert dates[0] == dt.date(2021, 8, 1)
        assert dates == [dt.date(2021, 8, 1) + dt.timedelta(days=7 * i) for i in range(6)]
        per_round = Counter(rec.date for rec in result.dataset.records)
        assert all(v == 2 for v in per_round.values())

    def test_odd_team_count_byes(self):
        cfg = SimConfig(seed=9, num_teams=5, matches_per_team=4, num_players=55)
        result = simulate_dataset(cfg)
        ds = result.dataset
        assert ds.n == 5 * 4 // 2
        appearances = Counter()
        for rec in ds.records:
            assert rec.team1 != rec.team2
            appearances[rec.team1] += 1
            appearances[rec.team2] += 1
        assert all(v == 4 for v in appearances.values())


class TestBayesLogLoss:
    def test_matches_manual_recompute(self):
        result = simulate_dataset(_SMALL)
        draw = DrawParam.from_alpha(result.config.true_alpha)
        want = sum(
            -math.log(outcome_probs(result.latents[rec.match_id], draw).prob(rec.outcome))
            for rec in result.dataset.records
        ) / result.dataset.n
        assert bayes_log_loss(result, result.dataset) == pytest.approx(want, abs=1e-15)

    def test_accepts_record_iterable(self):
        result = simulate_dataset(_SMALL)
        subset = result.dataset.records[:5]
        got = bayes_log_loss(result, subset)
        assert math.isfinite(got) and got > 0.0

    def test_beats_uniform_on_informative_league(self):
        result = simulate_dataset(SimConfig(seed=4, num_teams=8, matches_per_team=20, num_players=112, skill_scale=0.6))
        assert bayes_log_loss(result, result.dataset) < math.log(3.0)

    def test_empty_raises(self):
        result = simulate_dataset(_SMALL)
        with pytest.raises(ValueError, match="at least one match"):
            bayes_log_loss(result, ())
