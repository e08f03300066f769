"""Shared test helpers: hand-built records, random datasets, slow oracles.

The oracles here are deliberately written against different math than the
library (dense dot products, extended-precision arithmetic, tensor-grid
integration) so agreement is evidence, not tautology.
"""

from __future__ import annotations

import base64
import dataclasses
import datetime as dt
import io
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from lineupgp.data import (
    Dataset,
    HomeSide,
    MatchRecord,
    Outcome,
    parse_dataset,
    serialize_dataset,
    split_by_cutoff,
)
from lineupgp.kernel import MatchVector
from lineupgp.likelihood import loglik_vector
from lineupgp.simulate import SimConfig, simulate_dataset

BASE_DATE = dt.date(2022, 1, 1)

_HOMES = (HomeSide.TEAM1, HomeSide.TEAM2, HomeSide.NEUTRAL)
_OUTCOMES = (Outcome.TEAM1_WIN, Outcome.DRAW, Outcome.TEAM2_WIN)


def make_record(
    match_id: str,
    lineup1: Sequence[str],
    lineup2: Sequence[str],
    *,
    date: dt.date | None = None,
    home: HomeSide = HomeSide.NEUTRAL,
    outcome: Outcome = Outcome.DRAW,
    team1: str = "alpha",
    team2: str = "beta",
    competition: str = "cup",
) -> MatchRecord:
    return MatchRecord(
        match_id=match_id,
        date=date if date is not None else BASE_DATE,
        competition=competition,
        team1=team1,
        team2=team2,
        lineup1=tuple(lineup1),
        lineup2=tuple(lineup2),
        home=home,
        outcome=outcome,
    )


def player_ids(count: int) -> list[str]:
    return [f"p{i:03d}" for i in range(count)]


def random_record(
    rng: np.random.Generator,
    universe: Sequence[str],
    match_id: str,
    *,
    date: dt.date | None = None,
    num_teams: int = 8,
) -> MatchRecord:
    picks = rng.permutation(len(universe))[:22]
    lineup1 = [universe[i] for i in picks[:11]]
    lineup2 = [universe[i] for i in picks[11:]]
    t1, t2 = rng.permutation(num_teams)[:2]
    return make_record(
        match_id,
        lineup1,
        lineup2,
        date=date,
        home=_HOMES[int(rng.integers(3))],
        outcome=_OUTCOMES[int(rng.integers(3))],
        team1=f"team{t1:02d}",
        team2=f"team{t2:02d}",
    )


def random_dataset(
    rng: np.random.Generator,
    n_matches: int,
    num_players: int,
    *,
    num_teams: int = 8,
) -> Dataset:
    """Valid random dataset over a ``num_players``-id universe, 1 match/day."""
    if num_players < 22:
        raise ValueError("need at least 22 players for one match")
    universe = player_ids(num_players)
    records = [
        random_record(
            rng,
            universe,
            f"m{i:04d}",
            date=BASE_DATE + dt.timedelta(days=i),
            num_teams=num_teams,
        )
        for i in range(n_matches)
    ]
    return Dataset.from_records(records)


ARRAY_ROUTES = ("parsed", "split", "neutral")


def array_route_case(route: str) -> tuple[Dataset, Dataset]:
    """A (train, test) pair whose arrays were built by one route of ``ARRAY_ROUTES``.

    ``parsed``: each half of a league parsed from its own CSV (the column
    path).  ``split``: the halves of :func:`split_by_cutoff` of the parsed
    league, which share its registry.  ``neutral``: a random training set
    (``from_records``) and a test set on neutral ground built as
    ``Dataset(records, registry)``, where one team plays that training never
    saw, once on each side.
    """
    if route == "neutral":
        rng = np.random.default_rng(409)
        train = random_dataset(rng, 150, 60)
        universe = player_ids(60)
        start = BASE_DATE + dt.timedelta(days=150)
        records = []
        for i in range(24):
            rec = random_record(rng, universe, f"n{i:03d}", date=start + dt.timedelta(days=i))
            teams = {0: {"team1": "newcomer"}, 1: {"team2": "newcomer"}}.get(i, {})
            records.append(dataclasses.replace(rec, home=HomeSide.NEUTRAL, **teams))
        return train, Dataset(tuple(records), {pid: i for i, pid in enumerate(universe)})
    league = simulate_dataset(SimConfig(seed=2, num_teams=8, matches_per_team=30, num_players=112)).dataset
    records = league.records
    cut = 3 * len(records) // 4
    if route == "split":
        return split_by_cutoff(parse_dataset(io.StringIO(serialize_dataset(league))), records[cut].date)
    halves = (records[:cut], records[cut:])
    return tuple(parse_dataset(io.StringIO(serialize_dataset(Dataset.from_records(h)))) for h in halves)


def dense_embedding(vec: MatchVector, num_players: int) -> np.ndarray:
    """The explicit +1/-1 player-incidence vector the kernel factorizes."""
    z = np.zeros(num_players)
    z[vec.plus_indices] = 1.0
    z[vec.minus_indices] = -1.0
    return z


def dense_kernel(a: MatchVector, b: MatchVector, sigma2: float, sigma2_home: float, num_players: int) -> float:
    za = dense_embedding(a, num_players)
    zb = dense_embedding(b, num_players)
    return sigma2 * float(za @ zb) + sigma2_home * float(a.home * b.home)


def brute_force_evidence(
    k: np.ndarray, codes: np.ndarray, alpha: float, nodes: int = 80
) -> float:
    """log of integral N(f; 0, K) * prod_i p(y_i | f_i) df by tensor quadrature.

    Exact change of variables f = L u with K = L L^T and u standard normal,
    then a full Gauss-Hermite tensor grid per dimension.  Exponential in the
    number of matches, so only usable for tiny datasets; that is the point,
    it shares no code path with the Laplace approximation under test.
    """
    n = len(codes)
    chol = np.linalg.cholesky(k)
    x, w = np.polynomial.hermite.hermgauss(nodes)
    u_axes = np.meshgrid(*([np.sqrt(2.0) * x] * n), indexing="ij")
    u = np.stack([axis.ravel() for axis in u_axes], axis=1)
    f = u @ chol.T
    total = np.zeros(len(u))
    for i in range(n):
        total += loglik_vector(np.full(len(u), codes[i]), f[:, i], alpha)
    log_w = np.log(w / np.sqrt(np.pi))
    w_axes = np.meshgrid(*([log_w] * n), indexing="ij")
    log_weights = np.stack([axis.ravel() for axis in w_axes], axis=1).sum(axis=1)
    return float(logsumexp(total + log_weights))


def version_1_payload(payload: dict) -> dict:
    """A model payload laid out as version 1 wrote it: the full N x N factor of B."""
    n = len(payload["outcomes"])
    eye = base64.b64encode(np.eye(n).tobytes()).decode()
    v1 = {k: v for k, v in payload.items() if k != "chol"}
    return dict(v1, version=1, chol_b={"dtype": "<f8", "shape": [n, n], "data": eye})


def version_2_payload(payload: dict) -> dict:
    """A model payload laid out as version 2 wrote it: derived arrays and one packed factor."""
    n = len(payload["outcomes"])

    def array(values: np.ndarray) -> dict:
        data = base64.b64encode(values.tobytes()).decode()
        return {"dtype": "<f8", "shape": list(values.shape), "data": data}

    packed = np.eye(n)[np.tri(n, dtype=bool)]
    derived = {"grad": array(np.zeros(n)), "sqrt_w": array(np.ones(n)), "loglik": 0.0}
    return dict(payload, version=2, chol=array(packed), **derived)


def version_3_payload(payload: dict) -> dict:
    """A model payload laid out as version 3 wrote it: with the jitter its fit added to K."""
    jitter = 1e-6 * payload["hyper"]["sigma2"]
    return dict(payload, version=3, hyper=dict(payload["hyper"], jitter=None), jitter_used=jitter)


def version_4_payload(payload: dict) -> dict:
    """A model payload laid out as version 4 wrote it: 4-byte lineups and home signs as a list."""
    signs = {"1": 1, "2": -1, "0": 0}

    def wide(obj: dict) -> dict:
        arr = np.frombuffer(base64.b64decode(obj["data"]), obj["dtype"]).astype("<i4")
        return dict(obj, dtype="<i4", data=base64.b64encode(arr.tobytes()).decode())

    v4 = {"version": 4, "homes": [signs[t] for t in payload["homes"]]}
    return dict(payload, **v4, plus=wide(payload["plus"]), minus=wide(payload["minus"]))


def version_5_payload(payload: dict) -> dict:
    """A model payload laid out as version 5 wrote it: the mode and dual coefficients, not weights."""
    n = len(payload["outcomes"])
    zeros = {"dtype": "<f8", "shape": [n], "data": base64.b64encode(np.zeros(n).tobytes()).decode()}
    v5 = {k: v for k, v in payload.items() if k != "weights"}
    return dict(v5, version=5, mode=zeros, dual_coef=zeros)
