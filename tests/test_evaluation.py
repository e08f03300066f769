"""Log-loss scoring, report tables, and CSV writers."""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import pytest

from conftest import ARRAY_ROUTES, array_route_case, random_dataset
from lineupgp.baselines import EloModel, OddsModel, UniformModel
from lineupgp.data import Dataset, Outcome
from lineupgp.errors import NumericalError
from lineupgp.gp import Hyperparams, train_model
from lineupgp.evaluation import (
    CLIP_FLOOR,
    EvalReport,
    MatchScore,
    evaluate,
    format_summary_table,
    log_loss,
    write_per_match_csv,
    write_summary_csv,
)
from lineupgp.likelihood import PredictiveDistribution
from oracles import score_records


def _p(w, d, l):
    return PredictiveDistribution(p_w=w, p_d=d, p_l=l)


class TestLogLoss:
    def test_uniform_is_ln3(self):
        preds = [_p(1 / 3, 1 / 3, 1 / 3)] * 7
        outs = [Outcome.TEAM1_WIN, Outcome.DRAW, Outcome.TEAM2_WIN] * 2 + [Outcome.DRAW]
        assert abs(log_loss(preds, outs) - math.log(3.0)) <= 1e-12

    def test_known_value(self):
        assert log_loss([_p(0.5, 0.3, 0.2)], [Outcome.TEAM1_WIN]) == -math.log(0.5)
        got = log_loss([_p(0.5, 0.3, 0.2), _p(0.25, 0.25, 0.5)], [Outcome.DRAW, Outcome.TEAM2_WIN])
        want = 0.5 * (-math.log(0.3) - math.log(0.5))
        assert abs(got - want) <= 1e-15

    def test_permutation_invariant(self):
        rng = np.random.default_rng(401)
        triples = rng.dirichlet(np.ones(3), size=12)
        outs = [
            (Outcome.TEAM1_WIN, Outcome.DRAW, Outcome.TEAM2_WIN)[i]
            for i in rng.integers(3, size=12)
        ]
        preds = [_p(*t) for t in triples]
        base = log_loss(preds, outs)
        order = rng.permutation(12)
        shuffled = log_loss([preds[i] for i in order], [outs[i] for i in order])
        assert abs(base - shuffled) <= 1e-12

    def test_zero_probability_raises(self):
        with pytest.raises(NumericalError, match="zero probability.*prediction 0"):
            log_loss([_p(0.0, 0.6, 0.4)], [Outcome.TEAM1_WIN])

    def test_clip_floors_instead(self, caplog):
        with caplog.at_level("WARNING"):
            got = log_loss([_p(0.0, 0.6, 0.4)], [Outcome.TEAM1_WIN], clip=True)
        assert got == -math.log(CLIP_FLOOR)
        assert any("flooring" in r.message for r in caplog.records)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            log_loss([_p(0.5, 0.3, 0.2)], [])
        with pytest.raises(ValueError):
            log_loss([], [])


class _EveryOther:
    """Predicts uniform on even-indexed match ids, skips the rest."""

    name = "half"

    def predict(self, rec):
        if int(rec.match_id[1:]) % 2 == 0:
            return _p(1 / 3, 1 / 3, 1 / 3)
        return None

    def predict_many(self, test):
        return [self.predict(rec) for rec in test.records]


class TestEvaluate:
    def test_uniform_report(self):
        ds = random_dataset(np.random.default_rng(402), 9, 30)
        (report,) = evaluate([UniformModel()], ds)
        assert report.model == "random"
        assert report.t == 9
        assert report.skipped == 0
        assert abs(report.avg_log_loss - math.log(3.0)) <= 1e-9
        assert all(isinstance(r, MatchScore) for r in report.rows)

    def test_skipped_matches_counted(self):
        ds = random_dataset(np.random.default_rng(403), 10, 30)
        (report,) = evaluate([_EveryOther()], ds)
        assert report.t + report.skipped == 10
        assert report.skipped == 5

    def test_empty_test_set(self):
        (report,) = evaluate([UniformModel()], Dataset(records=(), registry={}))
        assert report.t == 0
        assert math.isnan(report.avg_log_loss)

    def test_zero_probability_names_match_and_model(self):
        ds = random_dataset(np.random.default_rng(404), 3, 30)
        target = ds.records[1]
        probs = {o: 0.5 for o in Outcome}
        probs[target.outcome] = 0.0

        class Spiky:
            name = "spiky"

            def predict(self, rec):
                if rec.match_id == target.match_id:
                    return _p(
                        probs[Outcome.TEAM1_WIN], probs[Outcome.DRAW], probs[Outcome.TEAM2_WIN]
                    )
                return _p(1 / 3, 1 / 3, 1 / 3)

            def predict_many(self, test):
                return [self.predict(rec) for rec in test.records]

        with pytest.raises(NumericalError, match=f"{target.match_id}.*spiky"):
            evaluate([Spiky()], ds)

    def test_clip_floors_and_names_match_and_model(self, caplog):
        ds = random_dataset(np.random.default_rng(404), 3, 30)
        target = ds.records[1]
        probs = {o: 0.5 for o in Outcome}
        probs[target.outcome] = 0.0
        spiky = _p(probs[Outcome.TEAM1_WIN], probs[Outcome.DRAW], probs[Outcome.TEAM2_WIN])
        preds = [_p(1 / 3, 1 / 3, 1 / 3), spiky, _p(1 / 3, 1 / 3, 1 / 3)]

        class Spiky:
            name = "spiky"

            def predict_many(self, test):
                return preds

        with caplog.at_level("WARNING"):
            (report,) = evaluate([Spiky()], ds, clip=True)
        assert report == score_records("spiky", ds, preds, clip_floor=CLIP_FLOOR)
        assert report.rows[1].loss == -math.log(CLIP_FLOOR)
        (warning,) = [r.getMessage() for r in caplog.records]
        assert f"match {target.match_id!r} under model 'spiky'" in warning

    def test_odds_model_integration(self):
        ds = random_dataset(np.random.default_rng(405), 4, 30)
        table = {ds.records[0].match_id: (2.0, 3.0, 4.0)}
        (report,) = evaluate([OddsModel(table)], ds)
        assert report.t == 1
        assert report.skipped == 3

    def test_one_batch_per_model_skips_odds_less_matches(self):
        ds = random_dataset(np.random.default_rng(407), 6, 30)
        gp_model = train_model(ds, Hyperparams.create(sigma2=0.2, sigma2_home=0.5, alpha=0.5))
        quoted = ds.records[2].match_id
        gp_report, odds_report = evaluate([gp_model, OddsModel({quoted: (2.0, 3.0, 4.0)})], ds)
        assert (gp_report.t, gp_report.skipped) == (6, 0)
        assert [row.probs for row in gp_report.rows] == gp_model.predict_many(ds)
        assert (odds_report.t, odds_report.skipped) == (1, 5)
        assert odds_report.rows[0].match_id == quoted


class TestArrayPath:
    """evaluate reads the test set's arrays and agrees bit for bit with the record-walking scorer."""

    @pytest.mark.parametrize("route", ARRAY_ROUTES)
    def test_reports_match_the_record_scorer(self, route):
        train, test = array_route_case(route)
        built = "records" in vars(test)
        elo = EloModel().fit(train)
        gp_model = train_model(train, Hyperparams.create(sigma2=0.09, sigma2_home=1.0, alpha=0.45))
        odds = OddsModel({match_id: (2.0, 3.0, 4.5) for match_id in test.arrays.match_ids[::3]})
        reports = evaluate([gp_model, elo, UniformModel(), odds], test)
        assert ("records" in vars(test)) == built
        # the GP's one-record predict agrees with its batch only to rounding
        preds = [gp_model.predict_many(test)]
        preds += [list(map(model.predict, test.records)) for model in (elo, UniformModel(), odds)]
        want = [score_records(rep.model, test, p) for rep, p in zip(reports, preds)]
        assert reports == want
        losses = [[row.loss.hex() for row in rep.rows] for rep in reports]
        assert losses == [[row.loss.hex() for row in rep.rows] for rep in want]
        assert [rep.avg_log_loss.hex() for rep in reports] == [rep.avg_log_loss.hex() for rep in want]
        assert (reports[3].t, reports[3].skipped) == (len(odds.table), test.n - len(odds.table))


class TestReports:
    def _reports(self):
        ds = random_dataset(np.random.default_rng(406), 5, 30)
        return evaluate([UniformModel()], ds)

    def test_table_layout(self):
        table = format_summary_table(self._reports(), train_n=100, num_players=300)
        lines = table.strip().split("\n")
        assert lines[0].split() == ["model", "N", "P", "T", "avg_log_loss"]
        assert "random" in lines[1]
        assert "1.099" in lines[1]
        assert "100" in lines[1] and "300" in lines[1]

    def test_summary_csv(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv(self._reports(), 42, 77, path)
        rows = list(csv.reader(path.read_text().strip().split("\n")))
        assert rows[0] == ["model", "N", "P", "T", "avg_log_loss"]
        assert rows[1][:4] == ["random", "42", "77", "5"]
        assert float(rows[1][4]) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_per_match_csv(self, tmp_path):
        reports = self._reports()
        path = tmp_path / "per_match.csv"
        write_per_match_csv(reports, path)
        rows = list(csv.reader(path.read_text().strip().split("\n")))
        assert rows[0] == ["model", "match_id", "p_w", "p_d", "p_l", "outcome", "loss"]
        assert len(rows) == 1 + 5
        for row in rows[1:]:
            assert row[0] == "random"
            assert row[5] in {"W", "D", "L"}
            assert float(row[6]) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_stream_sinks(self):
        buf = io.StringIO()
        write_summary_csv(self._reports(), 1, 2, buf)
        assert buf.getvalue().startswith("model,N,P,T,avg_log_loss")

    def test_report_is_frozen_dataclass(self):
        (report,) = self._reports()
        assert isinstance(report, EvalReport)
        with pytest.raises(AttributeError):
            report.t = 3
