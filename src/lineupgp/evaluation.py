"""Log-loss scoring and side-by-side model reports."""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Protocol, Sequence

from .data import Dataset, Outcome
from .errors import NumericalError
from .likelihood import PredictiveDistribution

logger = logging.getLogger(__name__)

__all__ = [
    "CLIP_FLOOR",
    "Predictor",
    "MatchScore",
    "EvalReport",
    "log_loss",
    "evaluate",
    "format_summary_table",
    "write_summary_csv",
    "write_per_match_csv",
]

CLIP_FLOOR = 1e-15

_OUTCOME_BY_CODE = {o.code: o for o in Outcome}


class Predictor(Protocol):
    """Anything that can score a test dataset in one batch.

    ``predict_many`` returns one entry per match, in dataset order; ``None``
    means skip that match (the odds model has no quote for it).  Every
    model here reads the dataset's arrays, and so does :func:`evaluate`.
    """

    name: str

    def predict_many(self, test: Dataset) -> list[PredictiveDistribution | None]: ...


@dataclass(frozen=True)
class MatchScore:
    match_id: str
    probs: PredictiveDistribution
    outcome: Outcome
    loss: float


@dataclass(frozen=True)
class EvalReport:
    model: str
    t: int
    avg_log_loss: float
    rows: tuple[MatchScore, ...]
    skipped: int = 0


def _one_loss(p: float, label: str, clip: bool) -> float:
    if clip:
        if p < CLIP_FLOOR:
            logger.warning("flooring probability %g for %s at %g", p, label, CLIP_FLOOR)
            p = CLIP_FLOOR
    elif p <= 0.0:
        raise NumericalError(
            f"zero probability on the realized outcome for {label}; "
            "enable clipping to floor probabilities instead"
        )
    return -math.log(p)


def log_loss(
    preds: Sequence[PredictiveDistribution],
    outcomes: Sequence[Outcome],
    *,
    clip: bool = False,
) -> float:
    """Average negative log probability of the realized outcomes (natural log)."""
    if len(preds) != len(outcomes):
        raise ValueError("predictions and outcomes must have equal length")
    if not preds:
        raise ValueError("log_loss needs at least one prediction")
    total = 0.0
    for i, (pred, outcome) in enumerate(zip(preds, outcomes)):
        total += _one_loss(pred.prob(outcome), f"prediction {i}", clip)
    return total / len(preds)


def evaluate(
    models: Sequence[Predictor],
    test: Dataset,
    *,
    clip: bool = False,
) -> list[EvalReport]:
    """Score every model on every test match it can predict, one batch per model."""
    match_ids = test.arrays.match_ids.tolist()
    outcomes = list(map(_OUTCOME_BY_CODE.__getitem__, test.arrays.codes.tolist()))
    reports: list[EvalReport] = []
    for model in models:
        rows: list[MatchScore] = []
        skipped = 0
        for match_id, outcome, probs in zip(match_ids, outcomes, model.predict_many(test), strict=True):
            if probs is None:
                skipped += 1
                continue
            p = probs.prob(outcome)
            # the label is worded only for a probability that is floored or fails
            if p >= CLIP_FLOOR:
                loss = -math.log(p)
            else:
                loss = _one_loss(p, f"match {match_id!r} under model {model.name!r}", clip)
            rows.append(MatchScore(match_id, probs, outcome, loss))
        avg = sum(r.loss for r in rows) / len(rows) if rows else math.nan
        reports.append(
            EvalReport(
                model=model.name,
                t=len(rows),
                avg_log_loss=avg,
                rows=tuple(rows),
                skipped=skipped,
            )
        )
    return reports


def format_summary_table(
    reports: Sequence[EvalReport], train_n: int, num_players: int
) -> str:
    """Human-readable comparison: model, N, P, T, average log loss."""
    header = ("model", "N", "P", "T", "avg_log_loss")
    body = [
        (r.model, str(train_n), str(num_players), str(r.t), f"{r.avg_log_loss:.3f}")
        for r in reports
    ]
    widths = [max(len(row[i]) for row in [header, *body]) for i in range(len(header))]
    lines = []
    for row in [header, *body]:
        cells = [row[0].ljust(widths[0])] + [
            cell.rjust(widths[i]) for i, cell in enumerate(row) if i > 0
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def _open_sink(sink: str | Path | IO[str]):
    if isinstance(sink, (str, Path)):
        return open(sink, "w", encoding="utf-8", newline=""), True
    return sink, False


def write_summary_csv(
    reports: Sequence[EvalReport],
    train_n: int,
    num_players: int,
    sink: str | Path | IO[str],
) -> None:
    fh, owned = _open_sink(sink)
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("model", "N", "P", "T", "avg_log_loss"))
        for r in reports:
            writer.writerow((r.model, train_n, num_players, r.t, repr(r.avg_log_loss)))
    finally:
        if owned:
            fh.close()


def write_per_match_csv(reports: Sequence[EvalReport], sink: str | Path | IO[str]) -> None:
    fh, owned = _open_sink(sink)
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("model", "match_id", "p_w", "p_d", "p_l", "outcome", "loss"))
        for r in reports:
            for row in r.rows:
                writer.writerow(
                    (
                        r.model,
                        row.match_id,
                        repr(row.probs.p_w),
                        repr(row.probs.p_d),
                        repr(row.probs.p_l),
                        row.outcome.token,
                        repr(row.loss),
                    )
                )
    finally:
        if owned:
            fh.close()
