"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Diagnostics go to stderr; requested data goes to stdout or ``--out`` files.
A JSON ``--config`` file may mirror any flag by its underscored name
(e.g. ``{"sigma2_home": 0.5}``); explicit flags win over the config.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .baselines import EloModel, OddsModel, UniformModel, load_odds_csv
from .data import MatchRecord, parse_dataset, serialize_dataset
from .errors import DataError, NumericalError, UsageError
from .evaluation import (
    evaluate,
    format_summary_table,
    write_per_match_csv,
    write_summary_csv,
)
from .gp import Hyperparams, load_model, log_marginal, save_model, train_model
from .kernel import KernelParams, export_heatmap
from .simulate import SimConfig, simulate_dataset

logger = logging.getLogger("lineupgp")

_MODEL_NAMES = ("gp", "elo", "odds", "random")
_DEFAULT_BUDGET = 200


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; we reserve 2 for data errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _add_gp_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("gp model")
    group.add_argument("--sigma2", type=float, default=1.0, help="player kernel scale (default 1.0)")
    group.add_argument(
        "--sigma2-home", type=float, default=1.0, help="home feature scale (default 1.0)"
    )
    group.add_argument("--alpha", type=float, default=0.5, help="draw margin (default 0.5)")
    group.add_argument(
        "--optimize", action="store_true", help="run the evidence search before fitting"
    )
    group.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"evidence evaluations for --optimize (default {_DEFAULT_BUDGET})",
    )


def _add_elo_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("elo baseline")
    group.add_argument("--elo-k", type=float, default=32.0, help="update step (default 32)")
    group.add_argument(
        "--elo-home-advantage",
        type=float,
        default=100.0,
        help="home bonus in rating points (default 100)",
    )
    group.add_argument(
        "--elo-initial", type=float, default=1500.0, help="rating for unseen teams (default 1500)"
    )


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="lineupgp",
        description="Win/draw/loss match prediction with a Gaussian process over lineups.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)
    sub.required = True

    p_train = sub.add_parser("train", help="fit a model and save it")
    p_train.add_argument("--train", required=True, help="training match CSV")
    p_train.add_argument("--model-out", required=True, help="where to write the model file")
    _add_gp_flags(p_train)

    p_predict = sub.add_parser(
        "predict", help="score matches with a saved model"
    )
    p_predict.add_argument("--model", required=True, help="model file from `train`")
    p_predict.add_argument("--test", required=True, help="match CSV to score")
    p_predict.add_argument("--out", default=None, help="output CSV (default stdout)")

    p_eval = sub.add_parser(
        "evaluate", help="compare models by test log loss"
    )
    p_eval.add_argument("--train", required=True, help="training match CSV")
    p_eval.add_argument("--test", required=True, help="held-out match CSV")
    p_eval.add_argument(
        "--models",
        default="gp,elo,random",
        help=f"comma list from {{{','.join(_MODEL_NAMES)}}} (default gp,elo,random)",
    )
    p_eval.add_argument("--odds", default=None, help="odds CSV for the odds model")
    p_eval.add_argument(
        "--clip",
        action="store_true",
        help="floor zero probabilities instead of failing",
    )
    p_eval.add_argument("--summary-out", default=None, help="machine-readable summary CSV")
    p_eval.add_argument("--per-match-out", default=None, help="per-match loss CSV")
    _add_gp_flags(p_eval)
    _add_elo_flags(p_eval)

    p_sim = sub.add_parser(
        "simulate", help="generate a synthetic league"
    )
    p_sim.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p_sim.add_argument("--out", default=None, help="output match CSV (default stdout)")
    p_sim.add_argument(
        "--truth-out", default=None, help="JSON with true skills and latents"
    )
    p_sim.add_argument("--players", type=int, default=224, help="player budget (default 224)")
    p_sim.add_argument("--teams", type=int, default=16, help="number of teams (default 16)")
    p_sim.add_argument(
        "--matches-per-team", type=int, default=100, help="matches per team (default 100)"
    )
    p_sim.add_argument("--alpha", type=float, default=0.45, help="true draw margin (default 0.45)")
    p_sim.add_argument(
        "--home-effect", type=float, default=0.25, help="true home effect (default 0.25)"
    )
    p_sim.add_argument(
        "--skill-scale", type=float, default=0.3, help="player skill stdev (default 0.3)"
    )

    p_heat = sub.add_parser(
        "heatmap", help="export |K| as a CSV grid"
    )
    p_heat.add_argument("--data", required=True, help="match CSV")
    p_heat.add_argument("--out", required=True, help="grid CSV path")
    p_heat.add_argument(
        "--blocks-out",
        default=None,
        help="competition block sidecar (default: <out>.blocks.csv)",
    )
    p_heat.add_argument("--sigma2", type=float, default=1.0, help="player kernel scale")
    p_heat.add_argument("--sigma2-home", type=float, default=1.0, help="home feature scale")

    p_elo = sub.add_parser(
        "elo-fit", help="fold Elo ratings and fit the draw margin"
    )
    p_elo.add_argument("--train", required=True, help="training match CSV")
    p_elo.add_argument("--ratings-out", default=None, help="ratings CSV (team,rating)")
    _add_elo_flags(p_elo)

    return parser


def _collect_dests(parser: _Parser) -> set[str]:
    dests = {a.dest for a in parser._actions if a.dest != "help"}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sp in action.choices.values():
                dests |= {a.dest for a in sp._actions if a.dest != "help"}
    return dests


def _extract_config(argv: list[str]) -> tuple[dict, list[str]]:
    out: list[str] = []
    path: str | None = None
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a file path")
            path = argv[i + 1]
            i += 2
            continue
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            i += 1
            continue
        out.append(tok)
        i += 1
    if path is None:
        return {}, out
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object of flag values")
    return cfg, out


def _apply_config(parser: _Parser, config: dict) -> None:
    if not config:
        return
    known = _collect_dests(parser)
    unknown = sorted(set(config) - known)
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    parser.set_defaults(**config)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sp in action.choices.values():
                sp.set_defaults(**{k: v for k, v in config.items() if k in _collect_dests(sp)})


def _hyper_from_args(args: argparse.Namespace) -> Hyperparams:
    try:
        return Hyperparams.create(
            sigma2=args.sigma2,
            sigma2_home=args.sigma2_home,
            alpha=args.alpha,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _elo_from_args(args: argparse.Namespace) -> EloModel:
    try:
        return EloModel(
            k_factor=args.elo_k,
            home_advantage=args.elo_home_advantage,
            initial_rating=args.elo_initial,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _budget_from_args(args: argparse.Namespace) -> int:
    if args.budget is not None and not args.optimize:
        raise UsageError("--budget only makes sense together with --optimize")
    budget = _DEFAULT_BUDGET if args.budget is None else args.budget
    if budget < 1:
        raise UsageError(f"--budget must be >= 1, got {budget}")
    return budget


def _emit(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_train(args: argparse.Namespace) -> int:
    hyper = _hyper_from_args(args)
    budget = _budget_from_args(args)
    ds = parse_dataset(args.train)
    model = train_model(ds, hyper, optimize=args.optimize, budget=budget)
    save_model(model, args.model_out)
    kp = model.posterior.hyper.kernel
    logger.info(
        "trained on N=%d matches, P=%d players; sigma2=%.6g sigma2_home=%.6g alpha=%.6g; "
        "evidence=%.6f; model -> %s",
        ds.n,
        ds.num_players,
        kp.sigma2,
        kp.sigma2_home,
        model.posterior.hyper.alpha,
        log_marginal(model.posterior),
        args.model_out,
    )
    return 0


def _log_unseen(registry: Mapping[str, int], records: Sequence[MatchRecord]) -> None:
    """One INFO line: how many test matches field players unseen in training, and how many."""
    unseen = [set(rec.players).difference(registry) for rec in records]
    logger.info(
        "%d of %d test matches field a player unseen in training; %d such players in all",
        sum(1 for players in unseen if players),
        len(records),
        len(set().union(*unseen)),
    )


def _cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    ds = parse_dataset(args.test)
    lines = ["match_id,p_w,p_d,p_l"]
    for rec, p in zip(ds.records, model.predict_many(ds.records)):
        lines.append(f"{rec.match_id},{p.p_w!r},{p.p_d!r},{p.p_l!r}")
    _emit(args.out, "\n".join(lines) + "\n")
    logger.info("scored %d matches", ds.n)
    _log_unseen(model.registry, ds.records)
    return 0


def _parse_model_names(raw: str) -> list[str]:
    names = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not names:
        raise UsageError("--models must name at least one model")
    for name in names:
        if name not in _MODEL_NAMES:
            raise UsageError(
                f"unknown model {name!r}; choose from {', '.join(_MODEL_NAMES)}"
            )
    if len(set(names)) != len(names):
        raise UsageError("duplicate names in --models")
    return names


def _cmd_evaluate(args: argparse.Namespace) -> int:
    names = _parse_model_names(args.models)
    if "odds" in names and not args.odds:
        raise UsageError("the odds model needs --odds FILE")
    budget = _budget_from_args(args)
    # flag values are checked before any data is read or model trained
    hyper = _hyper_from_args(args) if "gp" in names else None
    elo = _elo_from_args(args) if "elo" in names else None
    train = parse_dataset(args.train)
    test = parse_dataset(args.test)
    models = []
    for name in names:
        if name == "gp":
            models.append(train_model(train, hyper, optimize=args.optimize, budget=budget))
        elif name == "elo":
            models.append(elo.fit(train))
        elif name == "odds":
            models.append(OddsModel(load_odds_csv(args.odds)))
        else:
            models.append(UniformModel())
    reports = evaluate(models, test, clip=args.clip)
    _log_unseen(train.registry, test.records)
    players = set(train.registry)
    for rec in test.records:
        players.update(rec.players)
    sys.stdout.write(format_summary_table(reports, train.n, len(players)))
    for rep in reports:
        if rep.skipped:
            logger.info("model %s skipped %d matches without data", rep.model, rep.skipped)
    if args.summary_out:
        write_summary_csv(reports, train.n, len(players), args.summary_out)
    if args.per_match_out:
        write_per_match_csv(reports, args.per_match_out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        cfg = SimConfig(
            seed=args.seed,
            num_players=args.players,
            num_teams=args.teams,
            matches_per_team=args.matches_per_team,
            true_alpha=args.alpha,
            true_home=args.home_effect,
            skill_scale=args.skill_scale,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    result = simulate_dataset(cfg)
    _emit(args.out, serialize_dataset(result.dataset))
    if args.truth_out:
        payload = {
            "config": dataclasses.asdict(cfg),
            "skills": result.skills,
            "latents": result.latents,
        }
        Path(args.truth_out).write_text(json.dumps(payload, indent=1), encoding="utf-8")
    logger.info(
        "simulated %d matches, %d players, %d teams (seed %d)",
        result.dataset.n,
        result.dataset.num_players,
        cfg.num_teams,
        cfg.seed,
    )
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    try:
        params = KernelParams(sigma2=args.sigma2, sigma2_home=args.sigma2_home)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    ds = parse_dataset(args.data)
    out = Path(args.out)
    blocks = (
        Path(args.blocks_out)
        if args.blocks_out
        else out.with_name(out.stem + ".blocks" + (out.suffix or ".csv"))
    )
    export_heatmap(ds, params, out, blocks)
    logger.info("wrote %dx%d grid -> %s (blocks -> %s)", ds.n, ds.n, out, blocks)
    return 0


def _cmd_elo_fit(args: argparse.Namespace) -> int:
    model = _elo_from_args(args).fit(parse_dataset(args.train))
    assert model.state is not None and model.draw is not None
    lines = [f"alpha {model.draw.alpha!r}"]
    ranked = sorted(model.state.ratings.items(), key=lambda kv: (-kv[1], kv[0]))
    width = max((len(t) for t, _ in ranked), default=4)
    for team, rating in ranked:
        lines.append(f"{team.ljust(width)}  {rating:10.2f}")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.ratings_out:
        rows = ["team,rating"] + [f"{t},{r!r}" for t, r in ranked]
        Path(args.ratings_out).write_text("\n".join(rows) + "\n", encoding="utf-8")
    return 0


_DISPATCH = {
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "heatmap": _cmd_heatmap,
    "elo-fit": _cmd_elo_fit,
}


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and execute; returns the process exit code."""
    if not logging.getLogger().handlers:
        logging.basicConfig(
            stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
        )
    raw = list(sys.argv[1:] if argv is None else argv)
    try:
        config, rest = _extract_config(raw)
        parser = _build_parser()
        _apply_config(parser, config)
        try:
            args = parser.parse_args(rest)
        except SystemExit as exc:  # --help / --version exit 0 inside argparse
            code = exc.code
            return int(code) if isinstance(code, int) else 0
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
