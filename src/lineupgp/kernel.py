"""Sparse lineup kernel: covariance between matches via shared players.

A match is a signed incidence vector over the player registry (+1 for
team1's eleven, -1 for team2's) plus one home feature.  The kernel is

    k(a, b) = sigma2 * <z_a, z_b> + sigma2_home * h_a * h_b

where the player inner product reduces to signed overlap counts between
two 22-sparse vectors, so it never touches the P-dimensional space.
Pairwise evaluation intersects the sorted index lists directly.  A set of
matches is otherwise held as its sparse signed incidence Z, and every Gram
is assembled by :func:`gram` from the integer products Z_r Z_c'.

No jitter is ever added to a Gram: the fit never factors K itself, only
B = I + W^{1/2} K W^{1/2} or its low-rank counterpart C, and both have every
eigenvalue >= 1 for any positive semidefinite K, singular ones included.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .data import Dataset, MatchRecord
from .errors import DataError

__all__ = [
    "KernelParams",
    "MatchVector",
    "build_match_vector",
    "signed_overlap",
    "kernel_eval",
    "kernel_matrix",
    "export_heatmap",
]

PLAYERS_PER_SIDE = 11
# squared norm of the player part of any match vector
SELF_OVERLAP = 2 * PLAYERS_PER_SIDE


@dataclass(frozen=True)
class KernelParams:
    """Kernel scales: sigma2 per player, sigma2_home for the home feature."""

    sigma2: float = 1.0
    sigma2_home: float = 1.0

    def __post_init__(self) -> None:
        if not (self.sigma2 > 0.0 and math.isfinite(self.sigma2)):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2!r}")
        if not (self.sigma2_home >= 0.0 and math.isfinite(self.sigma2_home)):
            raise ValueError(f"sigma2_home must be >= 0 and finite, got {self.sigma2_home!r}")


@dataclass(frozen=True)
class MatchVector:
    """Signed sparse incidence of one match over the player registry."""

    plus_indices: np.ndarray
    minus_indices: np.ndarray
    home: int

    def __post_init__(self) -> None:
        plus = np.asarray(self.plus_indices, dtype=np.int32)
        minus = np.asarray(self.minus_indices, dtype=np.int32)
        for name, idx in (("plus_indices", plus), ("minus_indices", minus)):
            if idx.shape != (PLAYERS_PER_SIDE,):
                raise ValueError(f"{name} must hold exactly {PLAYERS_PER_SIDE} indices")
            if np.any(idx < 0):
                raise ValueError(f"{name} contains a negative index")
            if np.any(np.diff(idx) <= 0):
                raise ValueError(f"{name} must be strictly increasing")
        if np.intersect1d(plus, minus, assume_unique=True).size:
            raise ValueError("plus_indices and minus_indices overlap")
        if self.home not in (-1, 0, 1):
            raise ValueError(f"home must be -1, 0 or +1, got {self.home!r}")
        plus.setflags(write=False)
        minus.setflags(write=False)
        object.__setattr__(self, "plus_indices", plus)
        object.__setattr__(self, "minus_indices", minus)
        object.__setattr__(self, "home", int(self.home))


def build_match_vector(rec: MatchRecord, registry: Mapping[str, int]) -> MatchVector:
    """Map a record's lineups through the registry; errors on unknown ids."""
    try:
        plus = sorted(registry[p] for p in rec.lineup1)
        minus = sorted(registry[p] for p in rec.lineup2)
    except KeyError as exc:
        raise DataError(
            f"match {rec.match_id!r}: player {exc.args[0]!r} is not in the registry"
        ) from None
    return MatchVector(
        plus_indices=np.array(plus, dtype=np.int32),
        minus_indices=np.array(minus, dtype=np.int32),
        home=rec.home.sign,
    )


def _n_common(x: np.ndarray, y: np.ndarray) -> int:
    """|x ∩ y| for sorted unique index arrays (two-pointer merge)."""
    i = j = n = 0
    nx, ny = len(x), len(y)
    while i < nx and j < ny:
        xi, yj = x[i], y[j]
        if xi == yj:
            n += 1
            i += 1
            j += 1
        elif xi < yj:
            i += 1
        else:
            j += 1
    return n


def signed_overlap(a: MatchVector, b: MatchVector) -> int:
    """<z_a, z_b> over the player part alone; an integer in [-22, 22]."""
    return (
        _n_common(a.plus_indices, b.plus_indices)
        + _n_common(a.minus_indices, b.minus_indices)
        - _n_common(a.plus_indices, b.minus_indices)
        - _n_common(a.minus_indices, b.plus_indices)
    )


def kernel_eval(a: MatchVector, b: MatchVector, p: KernelParams) -> float:
    """k(a, b) by intersecting the index lists."""
    return p.sigma2 * float(signed_overlap(a, b)) + p.sigma2_home * float(a.home * b.home)


def incidence(plus: np.ndarray, minus: np.ndarray, width: int) -> sp.csr_matrix:
    """Signed incidence Z of stacked lineups, shape (n, width), indices sorted per row.

    Row i holds +1 at ``plus[i]`` and -1 at ``minus[i]`` (both (n, 11)
    index arrays).  Columns at or past ``width`` are dropped: a player
    outside the other side's registry overlaps none of its matches.
    """
    cols = np.concatenate([plus, minus], axis=1)
    signs = np.repeat(np.array([1, -1], dtype=np.int64), PLAYERS_PER_SIDE)
    keep = cols < width
    indptr = np.zeros(len(cols) + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    z = sp.csr_matrix(
        (np.broadcast_to(signs, cols.shape)[keep], cols[keep], indptr), shape=(len(cols), width)
    )
    z.sort_indices()
    return z


def match_incidence(
    vectors: Sequence[MatchVector], width: int | None = None
) -> tuple[sp.csr_matrix, np.ndarray]:
    """(Z, home signs) of match vectors; ``width`` defaults to the largest index + 1."""
    plus = np.array([v.plus_indices for v in vectors], dtype=np.int64).reshape(-1, PLAYERS_PER_SIDE)
    minus = np.array([v.minus_indices for v in vectors], dtype=np.int64).reshape(plus.shape)
    if width is None:
        width = 1 + int(max(plus.max(initial=-1), minus.max(initial=-1)))
    return incidence(plus, minus, width), np.array([v.home for v in vectors], dtype=np.int64)


def gram(
    overlap: np.ndarray, homes_r: np.ndarray, homes_c: np.ndarray, p: KernelParams
) -> np.ndarray:
    """sigma2 * overlap + sigma2_home * h_r h_c', with nothing added to the diagonal.

    For match sets r and c, ``overlap`` = Z_r Z_c' holds their signed overlap
    counts and ``homes_r``, ``homes_c`` their home signs.  The rank-one home
    term is added in place, row by sign, so the only N x N array built is
    the result; every sign is in {-1, 0, 1}, so this rounds as the sum of
    the two scaled matrices.  A square Gram may be singular (two matches
    with the same lineups and venue); the fit never factors it (see the
    module docstring).
    """
    k = p.sigma2 * overlap
    for sign in (1, -1):
        np.add(k, (sign * p.sigma2_home) * homes_c, out=k, where=(homes_r == sign)[:, None])
    return k


def _cross(
    rows: Sequence[MatchVector], cols: Sequence[MatchVector]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Z_r Z_c', h_r, h_c) of two match lists, all integer."""
    z_c, homes_c = match_incidence(cols)
    z_r, homes_r = match_incidence(rows, z_c.shape[1])
    return (z_r @ z_c.T).toarray(), homes_r, homes_c


def overlap_matrix(rows: Sequence[MatchVector], cols: Sequence[MatchVector]) -> np.ndarray:
    """Integer signed-overlap counts, shape (len(rows), len(cols))."""
    return _cross(rows, cols)[0]


def kernel_matrix(
    rows: Sequence[MatchVector], cols: Sequence[MatchVector], p: KernelParams
) -> np.ndarray:
    """Gram matrix K[i, j] = kernel_eval(rows[i], cols[j], p), bit-exactly."""
    return gram(*_cross(rows, cols), p)


def export_heatmap(
    ds: Dataset,
    p: KernelParams,
    grid: str | Path | IO[str],
    blocks: str | Path | IO[str] | None = None,
) -> None:
    """Write |K| over the dataset as a labeled CSV grid plus a sidecar.

    Rows/columns are ordered by (competition, date, match_id); the sidecar
    lists one ``competition,start_row,end_row`` line per contiguous
    competition block (start inclusive, end exclusive, 0-based data rows).
    Values carry 6 significant digits.
    """
    order = sorted(ds.records, key=lambda r: (r.competition, r.date, r.match_id))
    vectors = [build_match_vector(r, ds.registry) for r in order]
    if vectors:
        k = np.abs(kernel_matrix(vectors, vectors, p))
    else:
        k = np.zeros((0, 0))

    grid_buf = io.StringIO()
    writer = csv.writer(grid_buf, lineterminator="\n")
    writer.writerow(["match_id"] + [r.match_id for r in order])
    for rec, row in zip(order, k):
        writer.writerow([rec.match_id] + [f"{v:.6g}" for v in row])

    blocks_buf = io.StringIO()
    bwriter = csv.writer(blocks_buf, lineterminator="\n")
    bwriter.writerow(["competition", "start_row", "end_row"])
    start = 0
    for i in range(1, len(order) + 1):
        if i == len(order) or order[i].competition != order[start].competition:
            bwriter.writerow([order[start].competition, start, i])
            start = i

    _write_text(grid, grid_buf.getvalue())
    if blocks is not None:
        _write_text(blocks, blocks_buf.getvalue())


def _write_text(sink: str | Path | IO[str], text: str) -> None:
    if isinstance(sink, (str, Path)):
        Path(sink).write_text(text, encoding="utf-8")
    else:
        sink.write(text)
