"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Diagnostics go to stderr; requested data goes to stdout or ``--out`` files.
A JSON ``--config`` file may mirror any flag of the command it runs with by
its underscored name (e.g. ``{"sigma2_home": 0.5}``); explicit flags win
over the config, and a key that the command takes no flag for is a usage
error.

Every command starts a fresh interpreter, and importing NumPy and SciPy
costs more than many commands do.  So this module imports only the error
types and the CSV layer at load, and each command imports the modules it
runs: ``--help`` and ``--version`` load neither, ``simulate`` loads only
NumPy, and SciPy loads with the first command that fits, scores or draws a
heat map.  Likewise the parser adds the flags of only the command it runs,
and names the other commands only where its help or errors could list them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from . import __version__
from .data import Dataset, parse_dataset, serialize_dataset
from .errors import DataError, NumericalError, UsageError

if TYPE_CHECKING:
    from .baselines import EloModel
    from .gp import Hyperparams

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


def _train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train", required=True, help="training match CSV")
    p.add_argument("--model-out", required=True, help="where to write the model file")
    _add_gp_flags(p)


def _predict_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model file from `train`")
    p.add_argument("--test", required=True, help="match CSV to score")
    p.add_argument("--out", default=None, help="output CSV (default stdout)")


def _evaluate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train", required=True, help="training match CSV")
    p.add_argument("--test", required=True, help="held-out match CSV")
    p.add_argument(
        "--models",
        default="gp,elo,random",
        help=f"comma list from {{{','.join(_MODEL_NAMES)}}} (default gp,elo,random)",
    )
    p.add_argument("--odds", default=None, help="odds CSV for the odds model")
    p.add_argument(
        "--clip",
        action="store_true",
        help="floor zero probabilities instead of failing",
    )
    p.add_argument("--summary-out", default=None, help="machine-readable summary CSV")
    p.add_argument("--per-match-out", default=None, help="per-match loss CSV")
    _add_gp_flags(p)
    _add_elo_flags(p)


def _simulate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.add_argument("--out", default=None, help="output match CSV (default stdout)")
    p.add_argument("--truth-out", default=None, help="JSON with true skills and latents")
    p.add_argument("--players", type=int, default=224, help="player budget (default 224)")
    p.add_argument("--teams", type=int, default=16, help="number of teams (default 16)")
    p.add_argument(
        "--matches-per-team", type=int, default=100, help="matches per team (default 100)"
    )
    p.add_argument("--alpha", type=float, default=0.45, help="true draw margin (default 0.45)")
    p.add_argument(
        "--home-effect", type=float, default=0.25, help="true home effect (default 0.25)"
    )
    p.add_argument(
        "--skill-scale", type=float, default=0.3, help="player skill stdev (default 0.3)"
    )


def _heatmap_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="match CSV")
    p.add_argument("--out", required=True, help="grid CSV path")
    p.add_argument(
        "--blocks-out",
        default=None,
        help="competition block sidecar (default: <out>.blocks.csv)",
    )
    p.add_argument("--sigma2", type=float, default=1.0, help="player kernel scale")
    p.add_argument("--sigma2-home", type=float, default=1.0, help="home feature scale")


def _elo_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train", required=True, help="training match CSV")
    p.add_argument("--ratings-out", default=None, help="ratings CSV (team,rating)")
    _add_elo_flags(p)


# each command's help line and the function that adds its flags
_COMMANDS = {
    "train": ("fit a model and save it", _train_flags),
    "predict": ("score matches with a saved model", _predict_flags),
    "evaluate": ("compare models by test log loss", _evaluate_flags),
    "simulate": ("generate a synthetic league", _simulate_flags),
    "heatmap": ("export |K| as a CSV grid", _heatmap_flags),
    "elo-fit": ("fold Elo ratings and fit the draw margin", _elo_fit_flags),
}


def _build_parser(
    command: str | None, first: bool = False
) -> tuple[_Parser, argparse.ArgumentParser | None]:
    """The parser and its subparser for ``command``, the only one given flags.

    argparse reads no subparser but the one of the command it runs, so help
    and errors read the same without the other commands' flags.  The
    top-level parser names the commands only in its own help and errors,
    and those come only from tokens before the command: with a known
    command ``first`` in the arguments, it adds no other command.
    """
    parser = _Parser(
        prog="lineupgp",
        description="Win/draw/loss match prediction with a Gaussian process over lineups.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)
    sub.required = True
    chosen = None
    alone = first and command in _COMMANDS
    for name, (help_text, add_flags) in _COMMANDS.items():
        if alone and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        if name == command:
            add_flags(p)
            chosen = p
    return parser, chosen


def _actions(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    return [a for a in parser._actions if a.dest != "help"]


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


def _config_value(key: str, value: object, switches: set[str]) -> object:
    """A config value as its flag would receive it.

    A switch takes a JSON boolean.  Any other flag takes a string or a
    number, passed on as its text so that argparse converts and checks it
    with the flag's own type, as it does a default given as a string.
    """
    if key in switches:
        if not isinstance(value, bool):
            raise UsageError(f"config key {key} must be true or false, got {json.dumps(value)}")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise UsageError(f"config key {key} must be a string or a number, got {json.dumps(value)}")
    return str(value)


def _apply_config(sub: argparse.ArgumentParser | None, command: str | None, config: dict) -> None:
    """Make the config's values the defaults of ``command``, whose parser is ``sub``.

    Without a known command (``sub`` is None), argparse reports the missing
    or unknown one.  A key that no flag of the command takes is a usage
    error.
    """
    if not config or sub is None:
        return
    actions = _actions(sub)
    unknown = sorted(set(config) - {a.dest for a in actions})
    if unknown:
        raise UsageError(f"unknown config key(s) for {command}: {', '.join(unknown)}")
    switches = {a.dest for a in actions if isinstance(a, argparse._StoreTrueAction)}
    sub.set_defaults(**{key: _config_value(key, value, switches) for key, value in config.items()})


def _hyper_from_args(args: argparse.Namespace) -> Hyperparams:
    from .gp import Hyperparams

    try:
        return Hyperparams.create(
            sigma2=args.sigma2,
            sigma2_home=args.sigma2_home,
            alpha=args.alpha,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _elo_from_args(args: argparse.Namespace) -> EloModel:
    from .baselines import EloModel

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
    from .gp import log_marginal, save_model, train_model

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


def _log_unseen(registry: Mapping[str, int], test: Dataset) -> None:
    """One INFO line: how many test matches field players unseen in training, and how many."""
    import numpy as np

    unseen = np.zeros(test.num_players, dtype=bool)
    unseen[list(test.registry.values())] = [pid not in registry for pid in test.registry]
    lineups = test.arrays.lineups
    hit = unseen[lineups]
    logger.info(
        "%d of %d test matches field a player unseen in training; %d such players in all",
        np.count_nonzero(hit.any(axis=1)),
        test.n,
        len(np.unique(lineups[hit])),
    )


def _cmd_predict(args: argparse.Namespace) -> int:
    from .gp import load_model

    model = load_model(args.model)
    ds = parse_dataset(args.test)
    lines = ["match_id,p_w,p_d,p_l"]
    for match_id, p in zip(ds.arrays.match_ids, model.predict_many(ds)):
        lines.append(f"{match_id},{p.p_w!r},{p.p_d!r},{p.p_l!r}")
    _emit(args.out, "\n".join(lines) + "\n")
    logger.info("scored %d matches", ds.n)
    _log_unseen(model.registry, ds)
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
    from .baselines import OddsModel, UniformModel, load_odds_csv
    from .evaluation import (
        evaluate,
        format_summary_table,
        write_per_match_csv,
        write_summary_csv,
    )

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
            from .gp import train_model

            models.append(train_model(train, hyper, optimize=args.optimize, budget=budget))
        elif name == "elo":
            models.append(elo.fit(train))
        elif name == "odds":
            models.append(OddsModel(load_odds_csv(args.odds)))
        else:
            models.append(UniformModel())
    reports = evaluate(models, test, clip=args.clip)
    _log_unseen(train.registry, test)
    # each registry covers exactly its file's lineups
    players = len(train.registry.keys() | test.registry.keys())
    sys.stdout.write(format_summary_table(reports, train.n, players))
    for rep in reports:
        if rep.skipped:
            logger.info("model %s skipped %d matches without data", rep.model, rep.skipped)
    if args.summary_out:
        write_summary_csv(reports, train.n, players, args.summary_out)
    if args.per_match_out:
        write_per_match_csv(reports, args.per_match_out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simulate import SimConfig, simulate_dataset

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
    from .kernel import KernelParams, export_heatmap

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
        # the command is the first token that is not an option, as the
        # top-level parser takes no option with a value
        command = next((tok for tok in rest if not tok.startswith("-")), None)
        parser, sub = _build_parser(command, first=rest[:1] == [command])
        _apply_config(sub, command, config)
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
