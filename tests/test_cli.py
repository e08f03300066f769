"""End-to-end CLI runs through ``run()`` with the documented exit codes."""

from __future__ import annotations

import argparse
import base64
import dataclasses
import hashlib
import importlib
import json
import logging
import math
import os
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (
    deflated,
    inflated,
    version_1_payload,
    version_2_payload,
    version_3_payload,
    version_4_payload,
    version_5_payload,
    version_6_payload,
    version_7_payload,
)
import lineupgp
from lineupgp import __version__, cli, gp
from lineupgp.data import Dataset, parse_dataset, serialize_dataset
from lineupgp.errors import DataError, NumericalError
from lineupgp.gp import load_model
from lineupgp.likelihood import _probs_arrays

_SIM_COMMON = ["--teams", "4", "--matches-per-team", "10", "--players", "56"]


def _run_fresh(argv, **env):
    """``lineupgp`` in a fresh interpreter, with ``env`` added to the environment."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "lineupgp.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
        check=False,
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """module-shared train/test CSVs plus a trained model file."""
    root = tmp_path_factory.mktemp("cliws")
    train = root / "train.csv"
    test = root / "test.csv"
    model = root / "model.json"
    assert cli.run(["simulate", "--seed", "0", *_SIM_COMMON, "--out", str(train)]) == 0
    assert cli.run(["simulate", "--seed", "1", *_SIM_COMMON, "--out", str(test)]) == 0
    assert (
        cli.run(
            [
                "train",
                "--train",
                str(train),
                "--model-out",
                str(model),
                "--alpha",
                "0.45",
            ]
        )
        == 0
    )
    return {"root": root, "train": train, "test": test, "model": model}


class TestSimulate:
    def test_writes_parseable_csv_and_truth(self, tmp_path):
        out = tmp_path / "league.csv"
        truth = tmp_path / "truth.json"
        rc = cli.run(
            [
                "simulate",
                "--seed",
                "5",
                *_SIM_COMMON,
                "--out",
                str(out),
                "--truth-out",
                str(truth),
            ]
        )
        assert rc == 0
        ds = parse_dataset(out)
        assert ds.n == 4 * 10 // 2
        payload = json.loads(truth.read_text())
        assert set(payload) == {"config", "skills", "latents"}
        assert payload["config"]["seed"] == 5
        assert len(payload["latents"]) == ds.n

    def test_same_seed_same_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert cli.run(["simulate", "--seed", "3", *_SIM_COMMON, "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_default(self, capsys):
        rc = cli.run(["simulate", "--seed", "0", *_SIM_COMMON])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("match_id,")

    def test_default_league_bytes_are_pinned(self, capsys):
        # the digests of the default league drawn through scipy.special.expit
        # (the scalar sigmoid must draw exactly the same outcomes) and of the
        # season benchmark's league, whose records simulate builds unchecked
        pinned = {
            (): "5222e84bc6abc2932539cb7468cb61a9aea2370b547ca31ffb09605b2fe2b759",
            ("--teams", "30", "--players", "420", "--matches-per-team", "110"): (
                "c7ad890939c83618ef65e00f7b0322dd399e494d2cbfb248d28f5668a28fe997"
            ),
        }
        for flags, want in pinned.items():
            assert cli.run(["simulate", "--seed", "0", *flags]) == 0
            digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
            assert digest == want, flags

    def test_infeasible_config_is_usage_error(self, capsys):
        rc = cli.run(["simulate", "--players", "100", "--teams", "10"])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err


class TestTrainPredict:
    def test_model_file_shape(self, workspace):
        payload = json.loads(workspace["model"].read_text())
        assert payload["magic"] == "lineupgp/model"
        assert payload["version"] == 8
        assert payload["hyper"]["sigma2"] == 1.0
        # 56 players: one byte per lineup index; one signed byte per outcome and per home
        assert payload["plus"]["dtype"] == payload["minus"]["dtype"] == "<u1"
        for key in ("outcomes", "homes"):
            assert payload[key]["dtype"] == "<i1" and payload[key]["shape"] == [payload["matches"]]
            assert set(inflated(payload[key]).tolist()) <= {-1, 0, 1}
        registry = zlib.decompress(base64.b64decode(payload["registry"]["data"]))
        assert len(registry) == payload["registry_bytes"] and len(json.loads(registry)) == 56

    def test_predict_to_file(self, workspace, tmp_path):
        out = tmp_path / "preds.csv"
        rc = cli.run(
            ["predict", "--model", str(workspace["model"]), "--test", str(workspace["test"]), "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "match_id,p_w,p_d,p_l"
        assert len(lines) == 1 + 20
        for line in lines[1:]:
            _, w, d, l = line.split(",")
            triple = [float(w), float(d), float(l)]
            assert all(0.0 < p < 1.0 for p in triple)
            assert sum(triple) == pytest.approx(1.0, abs=1e-12)

    def test_predict_stdout_matches_file(self, workspace, tmp_path, capsys):
        out = tmp_path / "preds.csv"
        args = ["predict", "--model", str(workspace["model"]), "--test", str(workspace["test"])]
        assert cli.run([*args, "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.run(args) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_predict_builds_no_records(self, workspace, tmp_path, monkeypatch, caplog):
        # the match ids, the scores and the unseen-player line all come from
        # the test file's arrays and registry
        parsed = []

        def recording(source):
            parsed.append(parse_dataset(source))
            return parsed[-1]

        monkeypatch.setattr(cli, "parse_dataset", recording)
        out = tmp_path / "preds.csv"
        with caplog.at_level(logging.INFO):
            argv = ["predict", "--model", str(workspace["model"]), "--test", str(workspace["test"]), "--out", str(out)]
            assert cli.run(argv) == 0
        (ds,) = parsed
        assert "records" not in vars(ds)
        ids = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert ids == [rec.match_id for rec in ds.records]
        assert any(r.getMessage().endswith("such players in all") for r in caplog.records)

    def test_train_optimize_smoke(self, workspace, tmp_path):
        out = tmp_path / "opt.json"
        rc = cli.run(
            [
                "train",
                "--train",
                str(workspace["train"]),
                "--model-out",
                str(out),
                "--optimize",
                "--budget",
                "3",
            ]
        )
        assert rc == 0 and out.exists()

    def test_train_where_last_newton_step_is_rounding_level(self, tmp_path):
        # the default league's first 600 matches, at a point its evidence
        # search visits: the last full Newton step changes Psi by rounding only
        league = tmp_path / "league.csv"
        assert cli.run(["simulate", "--seed", "0", "--out", str(league)]) == 0
        train = tmp_path / "train.csv"
        train.write_text("".join(league.read_text().splitlines(keepends=True)[:601]))
        out = tmp_path / "model.json"
        hyper = ["--sigma2", "0.0528", "--sigma2-home", "0.9995", "--alpha", "0.4274"]
        assert cli.run(["train", "--train", str(train), "--model-out", str(out), *hyper]) == 0
        assert json.loads(out.read_text())["matches"] == 600

    def test_train_where_newton_residual_stalls(self, tmp_path):
        # seed 65's first 600 matches at extreme hyperparameters: Psi stops
        # rising while the stationarity residual stays between 1e-8 and 1e-6
        league = tmp_path / "league.csv"
        assert cli.run(["simulate", "--seed", "65", "--out", str(league)]) == 0
        train = tmp_path / "train.csv"
        train.write_text("".join(league.read_text().splitlines(keepends=True)[:601]))
        out = tmp_path / "model.json"
        hyper = ["--sigma2", "11.469", "--sigma2-home", "0.6126", "--alpha", "7.38905609893065"]
        # the stall shows with one BLAS thread
        one = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        proc = _run_fresh(["train", "--train", str(train), "--model-out", str(out), *hyper], **one)
        assert proc.returncode == 0, proc.stderr
        post = load_model(out).posterior
        kp, z, h, g = post.hyper.kernel, post.parts.z, post.parts.homes, post.grad
        k_grad = kp.sigma2 * (z @ (z.T @ g)) + kp.sigma2_home * h * float(h @ g)
        assert np.max(np.abs(post.mode - k_grad)) <= 1e-6 * max(1.0, np.max(np.abs(post.mode)))

    @pytest.mark.parametrize("matches_per_team", [10, 40])
    def test_predict_equals_evaluate_bit_for_bit(self, tmp_path, matches_per_team):
        # 20 matches over 56 players (N <= P+1, Newton-CG) and 80 (N > P+1)
        sim = ["--teams", "4", "--matches-per-team", str(matches_per_team), "--players", "56"]
        paths = {name: str(tmp_path / name) for name in ("train", "test", "model", "preds", "rows")}
        assert cli.run(["simulate", "--seed", "0", *sim, "--out", paths["train"]]) == 0
        assert cli.run(["simulate", "--seed", "1", *sim, "--out", paths["test"]]) == 0
        data = ["--train", paths["train"], "--alpha", "0.45"]
        assert cli.run(["train", *data, "--model-out", paths["model"]]) == 0
        post = load_model(paths["model"]).posterior
        assert (post.n > post.parts.z.shape[1] + 1) == (matches_per_team == 40)
        assert cli.run(["predict", "--model", paths["model"], "--test", paths["test"], "--out", paths["preds"]]) == 0
        assert cli.run(["evaluate", *data, "--test", paths["test"], "--models", "gp", "--per-match-out", paths["rows"]]) == 0
        predicted = Path(paths["preds"]).read_text().strip().split("\n")[1:]
        evaluated = [
            ",".join(row.split(",")[1:5]) for row in Path(paths["rows"]).read_text().strip().split("\n")[1:]
        ]
        assert len(predicted) == 2 * matches_per_team and predicted == evaluated


class TestEvaluate:
    def test_table_and_csvs(self, workspace, tmp_path, capsys):
        summary = tmp_path / "summary.csv"
        per_match = tmp_path / "per_match.csv"
        rc = cli.run(
            [
                "evaluate",
                "--train",
                str(workspace["train"]),
                "--test",
                str(workspace["test"]),
                "--models",
                "gp,elo,random",
                "--summary-out",
                str(summary),
                "--per-match-out",
                str(per_match),
            ]
        )
        assert rc == 0
        table = capsys.readouterr().out
        head = table.strip().split("\n")[0].split()
        assert head == ["model", "N", "P", "T", "avg_log_loss"]
        assert "gp" in table and "elo" in table and "random" in table
        assert "1.099" in table  # the uniform row pins ln 3

        srows = summary.read_text().strip().split("\n")
        assert srows[0] == "model,N,P,T,avg_log_loss"
        assert len(srows) == 1 + 3
        prows = per_match.read_text().strip().split("\n")
        assert prows[0] == "model,match_id,p_w,p_d,p_l,outcome,loss"
        assert len(prows) == 1 + 3 * 20

    def test_odds_model(self, workspace, tmp_path, capsys):
        test_ids = [r.match_id for r in parse_dataset(workspace["test"]).records]
        odds = tmp_path / "odds.csv"
        odds.write_text(
            "match_id,odds_w,odds_d,odds_l\n"
            + f"{test_ids[0]},2.0,3.0,4.0\n"
            + f"{test_ids[1]},1.5,4.0,6.0\n"
        )
        rc = cli.run(
            [
                "evaluate",
                "--train",
                str(workspace["train"]),
                "--test",
                str(workspace["test"]),
                "--models",
                "odds,random",
                "--odds",
                str(odds),
            ]
        )
        assert rc == 0
        table = capsys.readouterr().out
        odds_row = next(line for line in table.split("\n") if line.startswith("odds"))
        assert odds_row.split()[3] == "2"  # scored only the quoted matches

    @pytest.mark.parametrize("odds", [False, True], ids=["gp,elo,random", "odds"])
    def test_evaluate_builds_no_records(self, workspace, tmp_path, monkeypatch, capsys, odds):
        # the models, the scorer and the unseen-player line all read the arrays
        parsed = []

        def recording(source):
            parsed.append(parse_dataset(source))
            return parsed[-1]

        monkeypatch.setattr(cli, "parse_dataset", recording)
        argv = ["evaluate", "--train", str(workspace["train"]), "--test", str(workspace["test"])]
        if odds:
            # a sidecar that quotes every test match but the first
            ids = parse_dataset(workspace["test"]).arrays.match_ids[1:]
            sidecar = tmp_path / "odds.csv"
            sidecar.write_text("match_id,odds_w,odds_d,odds_l\n" + "".join(f"{i},2.0,3.0,4.0\n" for i in ids))
            argv += ["--models", "gp,elo,random,odds", "--odds", str(sidecar)]
        assert cli.run(argv) == 0
        assert len(parsed) == 2
        assert all("records" not in vars(ds) for ds in parsed)
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(row[0], row[3]) for row in rows][3:] == ([("odds", "19")] if odds else [])

    def test_odds_without_file_is_usage_error(self, workspace):
        rc = cli.run(
            [
                "evaluate",
                "--train",
                str(workspace["train"]),
                "--test",
                str(workspace["test"]),
                "--models",
                "odds",
            ]
        )
        assert rc == 1


class TestUnseenPlayersLog:
    """predict and evaluate report how much of the test set involves unseen players."""

    LINE = "2 of 20 test matches field a player unseen in training; 4 such players in all"

    def _test_file(self, workspace, tmp_path):
        records = list(parse_dataset(workspace["test"]).records)
        # x001 plays in both changed matches
        records[0] = dataclasses.replace(records[0], lineup1=("x000", "x001") + records[0].lineup1[2:])
        records[1] = dataclasses.replace(records[1], lineup2=("x001", "x002", "x003") + records[1].lineup2[3:])
        path = tmp_path / "unseen.csv"
        path.write_text(serialize_dataset(Dataset.from_records(records)))
        return path

    def test_predict_stderr(self, workspace, tmp_path):
        test = self._test_file(workspace, tmp_path)
        proc = _run_fresh(["predict", "--model", str(workspace["model"]), "--test", str(test)])
        assert proc.returncode == 0, proc.stderr
        assert f"INFO {self.LINE}" in proc.stderr.splitlines()

    def test_evaluate_log(self, workspace, tmp_path, caplog):
        test = self._test_file(workspace, tmp_path)
        with caplog.at_level(logging.INFO):
            argv = ["evaluate", "--train", str(workspace["train"]), "--test", str(test), "--models", "random"]
            assert cli.run(argv) == 0
        assert [r.getMessage() for r in caplog.records].count(self.LINE) == 1


class TestHeatmap:
    def test_grid_and_default_blocks_path(self, workspace, tmp_path):
        out = tmp_path / "grid.csv"
        rc = cli.run(["heatmap", "--data", str(workspace["train"]), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 20
        assert lines[0].startswith("match_id,")
        blocks = tmp_path / "grid.blocks.csv"
        assert blocks.exists()
        brows = blocks.read_text().strip().split("\n")
        assert brows[0] == "competition,start_row,end_row"
        assert brows[1] == "league,0,20"

    def test_explicit_blocks_path(self, workspace, tmp_path):
        out = tmp_path / "g.csv"
        side = tmp_path / "side.csv"
        rc = cli.run(
            [
                "heatmap",
                "--data",
                str(workspace["train"]),
                "--out",
                str(out),
                "--blocks-out",
                str(side),
            ]
        )
        assert rc == 0 and side.exists()


class TestEloFit:
    def test_stdout_and_ratings_csv(self, workspace, tmp_path, capsys):
        ratings = tmp_path / "ratings.csv"
        rc = cli.run(
            ["elo-fit", "--train", str(workspace["train"]), "--ratings-out", str(ratings)]
        )
        assert rc == 0
        out_lines = capsys.readouterr().out.strip().split("\n")
        assert out_lines[0].startswith("alpha ")
        assert float(out_lines[0].split()[1]) > 0.0
        assert len(out_lines) == 1 + 4  # one ranked row per team

        rows = ratings.read_text().strip().split("\n")
        assert rows[0] == "team,rating"
        assert len(rows) == 1 + 4
        values = [float(r.split(",")[1]) for r in rows[1:]]
        assert values == sorted(values, reverse=True)
        assert sum(values) == pytest.approx(4 * 1500.0, abs=1e-6)

    def test_builds_no_records(self, workspace, monkeypatch, capsys):
        parsed = []

        def recording(source):
            parsed.append(parse_dataset(source))
            return parsed[-1]

        monkeypatch.setattr(cli, "parse_dataset", recording)
        assert cli.run(["elo-fit", "--train", str(workspace["train"])]) == 0
        (ds,) = parsed
        assert "records" not in vars(ds)
        assert len(capsys.readouterr().out.splitlines()) == 1 + 4


class TestConfigFile:
    def test_config_sets_defaults(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma2": 0.25, "sigma2_home": 0.5}))
        out = tmp_path / "m.json"
        rc = cli.run(
            [
                "train",
                "--train",
                str(workspace["train"]),
                "--model-out",
                str(out),
                "--config",
                str(cfg),
            ]
        )
        assert rc == 0
        hyper = json.loads(out.read_text())["hyper"]
        assert hyper["sigma2"] == 0.25
        assert hyper["sigma2_home"] == 0.5

    def test_explicit_flag_beats_config(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma2": 0.25}))
        out = tmp_path / "m.json"
        rc = cli.run(
            [
                "train",
                "--train",
                str(workspace["train"]),
                "--model-out",
                str(out),
                f"--config={cfg}",
                "--sigma2",
                "0.5",
            ]
        )
        assert rc == 0
        assert json.loads(out.read_text())["hyper"]["sigma2"] == 0.5

    def test_unknown_key(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma_sq": 0.25}))
        rc = cli.run(
            ["train", "--train", str(workspace["train"]), "--model-out", "x", "--config", str(cfg)]
        )
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_json(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        rc = cli.run(
            ["train", "--train", str(workspace["train"]), "--model-out", "x", "--config", str(cfg)]
        )
        assert rc == 1

    def test_non_object_json(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert (
            cli.run(
                ["train", "--train", str(workspace["train"]), "--model-out", "x", "--config", str(cfg)]
            )
            == 1
        )

    def test_missing_config_file(self, workspace, tmp_path):
        assert (
            cli.run(
                [
                    "train",
                    "--train",
                    str(workspace["train"]),
                    "--model-out",
                    "x",
                    "--config",
                    str(tmp_path / "absent.json"),
                ]
            )
            == 1
        )

    def test_dangling_config_flag(self):
        assert cli.run(["train", "--config"]) == 1

    @pytest.mark.parametrize(
        "command, config",
        [
            ("evaluate", {"models": 5}),
            ("train", {"sigma2": None}),
            ("simulate", {"seed": 2.5}),
            ("simulate", {"teams": 4.0}),
            ("train", {"optimize": "no"}),
            ("evaluate", {"clip": "yes"}),
            ("train", {"budget": 2.5, "optimize": True}),
            ("simulate", {"seed": True}),
        ],
    )
    def test_wrongly_typed_value_is_a_usage_error(
        self, workspace, tmp_path, capsys, command, config
    ):
        # a switch takes only a JSON boolean; any other flag a string or a
        # number, which the flag's own type then checks
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        data = {
            "train": ["--train", str(workspace["train"]), "--model-out", str(tmp_path / "m.json")],
            "evaluate": ["--train", str(workspace["train"]), "--test", str(workspace["test"])],
            "simulate": ["--out", str(tmp_path / "s.csv")],
        }[command]
        rc = cli.run([command, *data, "--config", str(cfg)])
        lines = capsys.readouterr().err.strip().split("\n")
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith("usage error:"), lines

    @pytest.mark.parametrize(
        "command, config, keys",
        [
            ("train", {"clip": True, "seed": 7}, "clip, seed"),
            ("train", {"sigma2": 0.5, "models": "gp"}, "models"),
            ("simulate", {"sigma2": 0.5}, "sigma2"),
            ("elo-fit", {"alpha": 0.5, "optimize": True}, "alpha, optimize"),
            ("evaluate", {"command": "train"}, "command"),
        ],
    )
    def test_key_the_command_does_not_take(
        self, workspace, tmp_path, capsys, command, config, keys
    ):
        # each key is some command's flag (or the command itself), but not
        # one this command takes
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        data = {
            "train": ["--train", str(workspace["train"]), "--model-out", str(tmp_path / "m.json")],
            "evaluate": ["--train", str(workspace["train"]), "--test", str(workspace["test"])],
            "simulate": ["--out", str(tmp_path / "s.csv")],
            "elo-fit": ["--train", str(workspace["train"])],
        }[command]
        rc = cli.run([command, *data, "--config", str(cfg)])
        lines = capsys.readouterr().err.strip().split("\n")
        assert rc == 1
        assert lines == [f"usage error: unknown config key(s) for {command}: {keys}"]
        assert not (tmp_path / "m.json").exists() and not (tmp_path / "s.csv").exists()


_ARRAYS = ("registry", "outcomes", "homes", "plus", "minus", "weights")
_PATHS = [
    *[(key,) for key in ("magic", "version", "hyper", "jitter_used", "newton_iters")],
    *[(key,) for key in ("matches", "registry_bytes", *_ARRAYS)],
    *[("hyper", key) for key in ("sigma2", "sigma2_home", "log_alpha")],
    *[(key, part) for key in _ARRAYS for part in ("dtype", "shape", "data")],
]
# one edit of a model payload: drop a field, give it a value of another
# type, or xor one byte of an array with a mask, either of its values
# ("flip", deflated again) or of its zlib stream ("garble")
_EDIT = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(_PATHS), st.none()),
    st.tuples(
        st.just("swap"),
        st.sampled_from(_PATHS),
        st.sampled_from([None, True, -1, 0, 2.5, float("nan"), 10**400, "x", [], [1], {}]),
    ),
    st.tuples(
        st.sampled_from(["flip", "garble"]),
        st.sampled_from([(key, "data") for key in _ARRAYS]),
        st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
    ),
)


# values for the numeric flags: the edges of the float range, then any float
_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0, -1.0, 1e-300]),
    st.floats(),
)
_GP_FLAGS = ("--sigma2", "--sigma2-home", "--alpha")
_ELO_FLAGS = ("--elo-k", "--elo-home-advantage", "--elo-initial")


@st.composite
def _numeric_flags(draw) -> tuple[str, list[str]]:
    """A subcommand and a draw of its numeric flags, each given as ``--flag=value``."""
    name = draw(st.sampled_from(["train", "evaluate", "elo-fit"]))
    names = {"train": _GP_FLAGS, "evaluate": _GP_FLAGS + _ELO_FLAGS, "elo-fit": _ELO_FLAGS}[name]
    values = [draw(st.none() | _NUMBERS) for _ in names]
    flags = [f"{flag}={value!r}" for flag, value in zip(names, values) if value is not None]
    if name != "elo-fit" and draw(st.booleans()):
        budget = draw(st.integers(-1, 3).map(str) | _NUMBERS.map(repr))
        flags += ["--optimize", f"--budget={budget}"]
    return name, flags


def _inflates(stream: bytes) -> bool:
    try:
        zlib.decompress(stream)
    except zlib.error:
        return False
    return True


def _damaged(payload: dict, edits: list) -> dict:
    for kind, path, arg in edits:
        parent = payload
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        # an earlier edit may have dropped or swapped the field's parent
        if not isinstance(parent, dict) or path[-1] not in parent:
            continue
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "swap":
            parent[path[-1]] = arg
        elif isinstance(parent[path[-1]], str) and parent[path[-1]] != "x":  # not swapped in
            stream = base64.b64decode(parent[path[-1]])
            flip = kind == "flip" and _inflates(stream)  # an earlier garble may leave no stream
            raw = bytearray(zlib.decompress(stream) if flip else stream)
            raw[arg[0] % len(raw)] ^= arg[1]
            parent[path[-1]] = deflated(raw) if flip else base64.b64encode(raw).decode()
    return payload


class TestExitCodes:
    def test_version_and_help(self, capsys):
        assert cli.run(["--version"]) == 0
        assert __version__ in capsys.readouterr().out
        for command in ("train", "predict", "evaluate", "simulate", "heatmap", "elo-fit"):
            assert cli.run([command, "--help"]) == 0
            assert "usage" in capsys.readouterr().out

    # cli_wording.json: the exit code, stdout and stderr of each argv, as the
    # parser that added every command's flags on each run printed them under
    # Python 3.11 at 80 columns; "{config}" stands for a config file that
    # sets a flag only evaluate takes
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's wording differs across Python versions")
    def test_help_and_usage_errors_read_as_when_every_command_was_built(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"clip": True}))
        cases = json.loads((Path(__file__).parent / "cli_wording.json").read_text(encoding="utf-8"))
        for case in cases:
            argv = [str(config) if tok == "{config}" else tok for tok in case["argv"]]
            assert cli.run(argv) == case["code"], argv
            assert capsys.readouterr() == (case["stdout"], case["stderr"]), argv

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's wording differs across Python versions")
    def test_help_before_a_command_names_every_command(self, monkeypatch, capsys):
        # the top level's help, as --help prints it, though a command follows
        monkeypatch.setenv("COLUMNS", "80")
        cases = json.loads((Path(__file__).parent / "cli_wording.json").read_text(encoding="utf-8"))
        (top,) = [case for case in cases if case["argv"] == ["--help"]]
        for argv in (["-h", "train"], ["--help", "elo-fit", "--train", "a.csv"]):
            assert cli.run(argv) == 0, argv
            assert capsys.readouterr() == (top["stdout"], top["stderr"]), argv

    def test_parser_adds_only_the_flags_of_the_command_run(self):
        for command in (None, "frobnicate", *cli._COMMANDS):
            for first in (False, True):
                parser, sub = cli._build_parser(command, first)
                (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
                alone = first and command in cli._COMMANDS
                assert list(commands.choices) == ([command] if alone else list(cli._COMMANDS))
                assert sub is commands.choices.get(command)
                for name, p in commands.choices.items():
                    assert (len(p._actions) > 1) == (name == command), (command, name)

    def test_a_command_given_first_builds_two_parsers(self, monkeypatch, capsys):
        # the top level and the command's own; a token before the command
        # may print the top level's help, which names every command
        built = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        for argv, parsers in (
            (["train", "--help"], 2),
            (["elo-fit", "--train"], 2),
            (["-h", "train"], 1 + len(cli._COMMANDS)),
            (["--version"], 1 + len(cli._COMMANDS)),
            (["frobnicate"], 1 + len(cli._COMMANDS)),
        ):
            built.clear()
            cli.run(argv)
            assert len(built) == parsers, (argv, built)
        capsys.readouterr()

    def test_usage_errors_exit_1(self, workspace, tmp_path):
        train = str(workspace["train"])
        jitter_cfg = tmp_path / "jitter.json"
        jitter_cfg.write_text(json.dumps({"jitter": 0}))
        cases = [
            [],  # missing subcommand
            ["frobnicate"],  # unknown subcommand
            ["train", "--train", train],  # missing required --model-out
            ["train", "--train", train, "--model-out", "x", "--budget", "5"],
            ["train", "--train", train, "--model-out", "x", "--sigma2", "-1.0"],
            ["train", "--train", train, "--model-out", "x", "--optimize", "--budget", "0"],
            ["train", "--train", train, "--model-out", "x", "--threads", "0"],
            # K carries no jitter, so there is none to set
            ["train", "--train", train, "--model-out", "x", "--jitter", "1"],
            ["train", "--train", train, "--model-out", "x", "--config", str(jitter_cfg)],
            # Elo constants must be finite, and the step >= 0
            ["evaluate", "--train", train, "--test", train, "--models", "gp,elo", "--elo-k", "nan"],
            ["evaluate", "--train", train, "--test", train, "--elo-home-advantage=-inf"],
            ["elo-fit", "--train", train, "--elo-k", "nan"],
            ["elo-fit", "--train", train, "--elo-k=-1"],
            ["elo-fit", "--train", train, "--elo-initial", "inf"],
            # exp(2 alpha) overflows
            ["train", "--train", train, "--model-out", "x", "--alpha", "400"],
            ["evaluate", "--train", train, "--test", train, "--alpha", "400"],
            ["simulate", "--alpha", "400"],
            ["evaluate", "--train", train, "--test", train, "--models", "gp,psychic"],
            ["evaluate", "--train", train, "--test", train, "--models", ""],
            ["evaluate", "--train", train, "--test", train, "--models", "gp,gp"],
        ]
        for argv in cases:
            assert cli.run(argv) == 1, argv

    def test_data_errors_exit_2(self, workspace, tmp_path, capsys):
        missing = str(tmp_path / "absent.csv")
        malformed = tmp_path / "bad.csv"
        malformed.write_text("not,a,match,header\n")
        not_model = tmp_path / "notmodel.json"
        not_model.write_text('{"magic": "something-else"}')
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{broken")
        # model files that are not UTF-8, or nest deeper than the JSON decoder recurses
        not_utf8 = tmp_path / "binary.json"
        not_utf8.write_bytes(b"\xff\xfe{")
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        test = str(workspace["test"])
        cases = [
            ["train", "--train", missing, "--model-out", str(tmp_path / "m.json")],
            ["train", "--train", str(malformed), "--model-out", str(tmp_path / "m.json")],
            ["predict", "--model", str(not_model), "--test", test],
            ["predict", "--model", str(garbage), "--test", test],
            ["predict", "--model", str(not_utf8), "--test", test],
            ["predict", "--model", str(deep), "--test", test],
            ["predict", "--model", str(workspace["model"]), "--test", missing],
            ["elo-fit", "--train", str(malformed)],
        ]
        for argv in cases:
            assert cli.run(argv) == 2, argv
            err = capsys.readouterr().err.strip().split("\n")
            assert len(err) == 1 and err[0].startswith("data error:"), (argv, err)

    def test_undecodable_or_overlong_input_exits_2(self, workspace, tmp_path, capsys):
        lines = workspace["train"].read_bytes().split(b"\n")
        not_utf8, overlong = list(lines), list(lines)
        not_utf8[2] = not_utf8[2].replace(b",league,", b",lea\xffgue,")
        fields = overlong[2].split(b",")
        fields[2] = b'"' + b"x" * 200_000 + b'"'
        overlong[2] = b",".join(fields)
        for edited, message in (
            (not_utf8, "data error: line 3: byte 0xff is not UTF-8 (invalid start byte)"),
            (overlong, "data error: line 3: field larger than field limit"),
        ):
            bad = tmp_path / "bad.csv"
            bad.write_bytes(b"\n".join(edited))
            for argv in (
                ["train", "--train", str(bad), "--model-out", str(tmp_path / "m.json")],
                ["predict", "--model", str(workspace["model"]), "--test", str(bad)],
            ):
                assert cli.run(argv) == 2, argv
                err = capsys.readouterr().err.strip().split("\n")
                assert len(err) == 1 and err[0].startswith(message), err

    def test_corrupt_model_exits_2(self, workspace, tmp_path, capsys):
        payload = json.loads(workspace["model"].read_text())
        no_mode = {k: v for k, v in payload.items() if k != "weights"}
        n = payload["weights"]["shape"][0]
        misshaped = dict(payload, weights=dict(payload["weights"], shape=[n + 1]))
        huge_alpha = dict(payload, hyper=dict(payload["hyper"], log_alpha=math.log(400.0)))
        wrong_width = dict(payload, plus=dict(payload["plus"], dtype="<u2"))
        homes = inflated(payload["homes"]).copy()
        homes[0] = 2
        bad_homes = dict(payload, homes=dict(payload["homes"], data=deflated(homes)))
        no_count = {k: v for k, v in payload.items() if k != "matches"}
        old = (
            version_1_payload(payload),
            version_2_payload(payload),
            version_3_payload(payload),
            version_4_payload(payload),
            version_5_payload(payload),
            version_6_payload(payload),
            version_7_payload(payload),
        )
        # zlib streams that are not one, end early, run on, inflate short or
        # inflate past the shape, in each of the file's streams
        bad_streams = []
        for key in _ARRAYS:
            raw = zlib.decompress(base64.b64decode(payload[key]["data"]))
            stream = zlib.compress(raw)
            for s in (raw, stream[:-5], stream + b"x", zlib.compress(raw[:-1]), zlib.compress(2 * raw)):
                bad_streams.append(dict(payload, **{key: dict(payload[key], data=base64.b64encode(s).decode())}))
        cases = (no_mode, misshaped, *old, *bad_streams, huge_alpha, wrong_width, bad_homes, no_count)
        for i, bad in enumerate(cases):
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(bad))
            assert cli.run(["predict", "--model", str(path), "--test", str(workspace["test"])]) == 2
            err = capsys.readouterr().err.strip().split("\n")
            assert len(err) == 1 and err[0].startswith("data error:"), err

    @settings(
        max_examples=50,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(edits=st.lists(_EDIT, min_size=1, max_size=3))
    def test_damaged_model_loads_or_exits_2(self, workspace, tmp_path, capsys, edits):
        # a damaged file either still holds a fit or is a data error, never a traceback
        path = tmp_path / "damaged.json"
        path.write_text(json.dumps(_damaged(json.loads(workspace["model"].read_text()), edits)))
        try:
            load_model(path)
            loads = True
        except DataError:
            loads = False
        argv = ["--model", str(path), "--test", str(workspace["test"]), "--out", str(tmp_path / "p.csv")]
        rc = cli.run(["predict", *argv])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert rc == (0 if loads else 2), err
        if not loads:
            assert len(err.strip().split("\n")) == 1 and err.startswith("data error:"), err

    def test_numerical_errors_exit_3(self, workspace, monkeypatch, capsys):
        # a finite Elo step: the expected score cannot overflow, but ratings can,
        # and ratings that do not may still put zero probability on an outcome
        train = str(workspace["train"])
        evaluate = ["evaluate", "--train", train, "--test", str(workspace["test"])]
        evaluate += ["--models", "elo"]
        cases = [
            (evaluate, "1e308", "numerical error: zero probability"),
            (["elo-fit", "--train", train], "1.7e308", "numerical error: Elo ratings overflowed"),
            (evaluate, "1.7e308", "numerical error: Elo ratings overflowed"),
        ]
        for argv, step, message in cases:
            assert cli.run([*argv, "--elo-k", step]) == 3, (argv, step)
            err = capsys.readouterr().err.strip().split("\n")
            assert len(err) == 1 and err[0].startswith(message), err

        def boom(args):
            raise NumericalError("synthetic failure")

        monkeypatch.setitem(cli._DISPATCH, "elo-fit", boom)
        assert cli.run(["elo-fit", "--train", "whatever"]) == 3
        assert "numerical error" in capsys.readouterr().err

    def test_lost_quadrature_mass_exits_3(self, workspace, monkeypatch, capsys):
        def leaking(x, alpha):
            p_w, p_d, p_l = _probs_arrays(x, alpha)
            return p_w, 0.5 * p_d, p_l

        monkeypatch.setattr(gp, "_probs_arrays", leaking)
        argv = ["--train", str(workspace["train"]), "--test", str(workspace["test"]), "--models", "gp"]
        assert cli.run(["evaluate", *argv]) == 3
        err = capsys.readouterr().err.strip().split("\n")
        message = "numerical error: quadrature lost probability mass"
        assert len(err) == 1 and err[0].startswith(message), err

    @settings(
        max_examples=80,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(command=_numeric_flags())
    @example(command=("train", ["--sigma2=1e+308"]))
    @example(command=("elo-fit", ["--elo-home-advantage=1e+308"]))
    def test_numeric_flags_exit_cleanly(self, workspace, tmp_path, capsys, command):
        # any value of a numeric flag ends in a documented exit code and, on
        # failure, one diagnostic line; a RuntimeWarning would be a second line
        name, flags = command
        data = {
            "train": ["--train", str(workspace["train"]), "--model-out", str(tmp_path / "m.json")],
            "evaluate": ["--train", str(workspace["train"]), "--test", str(workspace["test"])],
            "elo-fit": ["--train", str(workspace["train"])],
        }[name]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.run([name, *data, *flags])
        out = capsys.readouterr()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [
            str(w.message) for w in caught
        ]
        assert "Traceback" not in out.err
        assert rc in (0, 1, 2, 3)
        if rc:
            lines = out.err.strip().split("\n")
            assert len(lines) == 1, lines
            assert lines[0].startswith(("usage error:", "data error:", "numerical error:")), lines

    def test_overflow_exits_3_with_one_line(self, workspace, tmp_path):
        # a fresh interpreter prints NumPy's RuntimeWarnings to stderr, where
        # an in-process run's are captured; 600 matches give the Elo
        # log-likelihood enough home defeats at 1e308 points for its sum to overflow
        league = tmp_path / "league.csv"
        assert cli.run(["simulate", "--seed", "0", "--out", str(league)]) == 0
        train = ["--train", str(workspace["train"]), "--model-out", str(tmp_path / "m.json")]
        cases = [
            (
                ["train", *train, "--sigma2", "1e308"],
                "numerical error: the Laplace fit overflowed",
            ),
            (
                ["elo-fit", "--train", str(league), "--elo-home-advantage", "1e308"],
                "numerical error: the Elo log-likelihood is -inf",
            ),
        ]
        for argv, message in cases:
            proc = _run_fresh(argv)
            assert proc.returncode == 3, (argv, proc.returncode, proc.stderr)
            lines = proc.stderr.strip().split("\n")
            assert len(lines) == 1 and lines[0].startswith(message), lines

    def test_clip_flag_passes_through(self, workspace):
        rc = cli.run(
            [
                "evaluate",
                "--train",
                str(workspace["train"]),
                "--test",
                str(workspace["test"]),
                "--models",
                "random",
                "--clip",
            ]
        )
        assert rc == 0


def test_uniform_loss_is_ln3_everywhere(workspace, capsys):
    rc = cli.run(
        [
            "evaluate",
            "--train",
            str(workspace["train"]),
            "--test",
            str(workspace["test"]),
            "--models",
            "random",
        ]
    )
    assert rc == 0
    table = capsys.readouterr().out
    row = next(line for line in table.strip().split("\n") if line.startswith("random"))
    assert row.split()[-1] == f"{math.log(3.0):.3f}"


def test_cold_import_loads_no_solver_package():
    # Newton's conjugate gradients and the evidence search are written in
    # NumPy: scipy.sparse.linalg would add ~14 ms to every start of the CLI,
    # and scipy.optimize ~0.2 s to every search
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, lineupgp.cli; "
        "print([m for m in ('scipy.sparse.linalg', 'scipy.optimize') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "command, absent",
    [
        (["train", "--optimize", "--budget", "5"], ["scipy.optimize"]),
        (["elo-fit"], ["lineupgp.gp", "lineupgp.kernel", "scipy.linalg", "scipy.sparse"]),
        (
            ["evaluate", "--models", "elo,random"],
            ["lineupgp.gp", "lineupgp.kernel", "scipy.linalg", "scipy.sparse"],
        ),
    ],
    ids=["search", "elo-fit", "evaluate-elo-random"],
)
def test_command_loads_only_what_it_runs(workspace, tmp_path, command, absent):
    # an evidence search needs no scipy.optimize, and Elo and the uniform
    # model none of the GP stack
    argv = [*command, "--train", str(workspace["train"])]
    if command[0] == "train":
        argv += ["--model-out", str(tmp_path / "m.json")]
    if command[0] == "evaluate":
        argv += ["--test", str(workspace["test"])]
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        f"import sys; from lineupgp import cli; rc = cli.run({argv!r}); "
        f"print(rc, [m for m in {absent!r} if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    assert out.stdout.strip().split("\n")[-1] == "0 []"


@pytest.mark.parametrize(
    "command",
    [
        "pass",
        "cli.run(['--version'])",
        "cli.run(['simulate', '--seed', '0', '--teams', '4', '--out', os.devnull])",
    ],
)
def test_cold_start_loads_no_scipy(command):
    # a fresh interpreter pays for every module it imports: only the
    # commands that fit, score or draw a heat map need SciPy
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        f"import os, sys; from lineupgp import cli; {command}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    assert out.stdout.strip().split("\n")[-1] == "[]"


@pytest.mark.parametrize("command", ["pass", "cli.run(['--version'])"])
def test_cold_start_loads_no_numpy(command):
    # the CSV layer imports NumPy inside a parse, so loading the CLI and
    # printing its version load none
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = f"import sys; from lineupgp import cli; {command}; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    assert out.stdout.strip().split("\n")[-1] == "False"


def test_every_public_name_resolves_to_its_module_object():
    # the package resolves names on first access; each must be the object
    # its defining module holds
    names = [name for name in lineupgp.__all__ if name != "__version__"]
    assert len(names) == len(set(names)) == 45
    for name in names:
        obj = getattr(lineupgp, name)
        assert obj.__module__.startswith("lineupgp."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    namespace: dict = {}
    exec("from lineupgp import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(lineupgp.__all__)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        lineupgp.nope  # noqa: B018
    # in a fresh interpreter, each submodule is an attribute of the package
    # before anything imports it by name
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    modules = sorted(lineupgp._MODULES)
    probe = (
        "import lineupgp, sys; "
        f"print([getattr(lineupgp, m).__name__ for m in {modules!r}], "
        "lineupgp.gp.fit is sys.modules['lineupgp.gp'].fit)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    assert out.stdout.strip() == f"{[f'lineupgp.{m}' for m in modules]} True"
