"""Output checks that do not trust the program under test.

Each check returns ``None`` when it passes and a one-line reason when it
fails.  Probabilities travel as ``{match_id: (p_w, p_d, p_l)}``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

LN3 = math.log(3.0)
SUM_TOL = 1e-12
REFERENCE_TOL = 1e-6
# predict and evaluate differ in the last bit (see the round-trip probe)
ROUND_TRIP_TOL = 1e-12
RECOVERY_TOL = 0.7

Probs = dict[str, tuple[float, float, float]]


def read_predictions(path: str | Path) -> Probs:
    """``predict`` output: match_id,p_w,p_d,p_l."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {r["match_id"]: (float(r["p_w"]), float(r["p_d"]), float(r["p_l"])) for r in csv.DictReader(fh)}


def read_per_match(path: str | Path) -> dict[str, Probs]:
    """``evaluate --per-match-out`` output, split by model name."""
    out: dict[str, Probs] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            out.setdefault(r["model"], {})[r["match_id"]] = (float(r["p_w"]), float(r["p_d"]), float(r["p_l"]))
    return out


def triples(name: str, probs: Probs) -> str | None:
    """Every triple is finite, inside [0, 1] and sums to 1 within 1e-12."""
    for mid, p in probs.items():
        if not all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in p):
            return f"{name}: {mid} has a probability outside [0, 1]: {p}"
        if abs(math.fsum(p) - 1.0) > SUM_TOL:
            return f"{name}: {mid} sums to {math.fsum(p)!r}"
    return None


def round_trip(predicted: Probs, evaluated: Probs, tol: float = 0.0) -> str | None:
    """``predict`` with the saved model matches ``evaluate``'s gp rows.

    ``tol=0`` asks for the bit-for-bit equality README promises.
    """
    if predicted.keys() != evaluated.keys():
        return "predict and evaluate scored different matches"
    for mid, p in predicted.items():
        if not all(abs(a - b) <= tol for a, b in zip(p, evaluated[mid])):
            return f"round trip: {mid} predict {p} != evaluate {evaluated[mid]}"
    return None


def against_reference(predicted: Probs, reference: Probs) -> str | None:
    """Every reference-scored match agrees within 1e-6 in each probability."""
    worst = max(abs(a - b) for mid, ref in reference.items() for a, b in zip(predicted[mid], ref))
    if not worst <= REFERENCE_TOL:
        return f"reference: worst probability gap {worst:.3e} > {REFERENCE_TOL:g}"
    return None


def below_ln3(log_loss: float) -> str | None:
    if not log_loss < LN3:
        return f"gp log loss {log_loss!r} is not below ln 3"
    return None


def search_result(ev_found: float, ev_init: float, log_alpha: float, true_alpha: float) -> str | None:
    """The search never loses evidence and recovers the draw margin within 0.7 in log."""
    if not ev_found >= ev_init:
        return f"search: evidence {ev_found!r} at the found point < {ev_init!r} at the start"
    if not abs(log_alpha - math.log(true_alpha)) <= RECOVERY_TOL:
        return f"search: log alpha {log_alpha!r} is not within {RECOVERY_TOL} of log {true_alpha}"
    return None
