"""End-to-end CLI runs through ``run()`` with the documented exit codes."""

from __future__ import annotations

import base64
import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import version_1_payload, version_2_payload, version_3_payload
from lineupgp import __version__, cli
from lineupgp.data import Dataset, parse_dataset, serialize_dataset
from lineupgp.errors import DataError, NumericalError
from lineupgp.gp import load_model

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

    def test_infeasible_config_is_usage_error(self, capsys):
        rc = cli.run(["simulate", "--players", "100", "--teams", "10"])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err


class TestTrainPredict:
    def test_model_file_shape(self, workspace):
        payload = json.loads(workspace["model"].read_text())
        assert payload["magic"] == "lineupgp/model"
        assert payload["hyper"]["sigma2"] == 1.0

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
        assert len(json.loads(out.read_text())["outcomes"]) == 600

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
        # 20 matches over 56 players serve from L_B, 80 from weight space
        sim = ["--teams", "4", "--matches-per-team", str(matches_per_team), "--players", "56"]
        paths = {name: str(tmp_path / name) for name in ("train", "test", "model", "preds", "rows")}
        assert cli.run(["simulate", "--seed", "0", *sim, "--out", paths["train"]]) == 0
        assert cli.run(["simulate", "--seed", "1", *sim, "--out", paths["test"]]) == 0
        data = ["--train", paths["train"], "--alpha", "0.45"]
        assert cli.run(["train", *data, "--model-out", paths["model"]]) == 0
        assert load_model(paths["model"]).posterior.low_rank == (matches_per_team == 40)
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


_ARRAYS = ("plus", "minus", "mode", "dual_coef")
_PATHS = [
    *[(key,) for key in ("magic", "version", "hyper", "jitter_used", "newton_iters")],
    *[(key,) for key in ("registry", "outcomes", "homes", *_ARRAYS)],
    *[("hyper", key) for key in ("sigma2", "sigma2_home", "log_alpha")],
    *[(key, part) for key in _ARRAYS for part in ("dtype", "shape", "data")],
]
# one edit of a model payload: drop a field, give it a value of another
# type, or xor one byte of an array's data with a mask
_EDIT = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(_PATHS), st.none()),
    st.tuples(
        st.just("swap"),
        st.sampled_from(_PATHS),
        st.sampled_from([None, True, -1, 0, 2.5, float("nan"), 10**400, "x", [], [1], {}]),
    ),
    st.tuples(
        st.just("flip"),
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
            raw = bytearray(base64.b64decode(parent[path[-1]]))
            raw[arg[0] % len(raw)] ^= arg[1]
            parent[path[-1]] = base64.b64encode(bytes(raw)).decode()
    return payload


class TestExitCodes:
    def test_version_and_help(self, capsys):
        assert cli.run(["--version"]) == 0
        assert __version__ in capsys.readouterr().out
        for command in ("train", "predict", "evaluate", "simulate", "heatmap", "elo-fit"):
            assert cli.run([command, "--help"]) == 0
            assert "usage" in capsys.readouterr().out

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
        test = str(workspace["test"])
        cases = [
            ["train", "--train", missing, "--model-out", str(tmp_path / "m.json")],
            ["train", "--train", str(malformed), "--model-out", str(tmp_path / "m.json")],
            ["predict", "--model", str(not_model), "--test", test],
            ["predict", "--model", str(garbage), "--test", test],
            ["predict", "--model", str(workspace["model"]), "--test", missing],
            ["elo-fit", "--train", str(malformed)],
        ]
        for argv in cases:
            assert cli.run(argv) == 2, argv
            assert "data error" in capsys.readouterr().err

    def test_corrupt_model_exits_2(self, workspace, tmp_path, capsys):
        payload = json.loads(workspace["model"].read_text())
        no_mode = {k: v for k, v in payload.items() if k != "mode"}
        n = payload["mode"]["shape"][0]
        misshaped = dict(payload, mode=dict(payload["mode"], shape=[n + 1]))
        huge_alpha = dict(payload, hyper=dict(payload["hyper"], log_alpha=math.log(400.0)))
        old = (version_1_payload(payload), version_2_payload(payload), version_3_payload(payload))
        for i, bad in enumerate((no_mode, misshaped, *old, huge_alpha)):
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

    @settings(
        max_examples=80,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(command=_numeric_flags())
    def test_numeric_flags_exit_cleanly(self, workspace, tmp_path, capsys, command):
        # any value of a numeric flag ends in a documented exit code and, on
        # failure, one diagnostic line
        name, flags = command
        data = {
            "train": ["--train", str(workspace["train"]), "--model-out", str(tmp_path / "m.json")],
            "evaluate": ["--train", str(workspace["train"]), "--test", str(workspace["test"])],
            "elo-fit": ["--train", str(workspace["train"])],
        }[name]
        rc = cli.run([name, *data, *flags])
        out = capsys.readouterr()
        assert "Traceback" not in out.err
        assert rc in (0, 1, 2, 3)
        if rc:
            lines = out.err.strip().split("\n")
            assert len(lines) == 1, lines
            assert lines[0].startswith(("usage error:", "data error:", "numerical error:")), lines

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
