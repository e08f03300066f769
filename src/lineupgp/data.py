"""Match records, CSV parsing, player registries, and chronological splits.

A dataset is a chronologically sorted list of match records plus a registry
that maps every player id appearing in any lineup to a dense index
``0..P-1``.  The registry is a pure function of the dataset's content:
records are walked in (date, match_id) order and each record's players are
registered in sorted order, lineup1 before lineup2.  Re-parsing a
serialized dataset therefore reproduces the exact same indices.

Each rule on a match lives in two places: the columns accept a file, and
``MatchRecord``'s per-field checks word the error for one that fails.
``parse_dataset`` reads all rows with ``csv.reader`` and checks them once,
as columns: field counts, date tokens (one ``date.fromisoformat`` per
distinct token, which ``isoformat`` must write back unchanged), venue and
outcome tokens, one join of every id in the file (scanned for separators,
forbidden characters, empty ids and whitespace), ten ``;`` per lineup,
team1 != team2, unique match ids and 22 distinct players per row.  When
all pass, the same step orders the rows, sorts each lineup, and builds
the registry and the arrays that every model reads (``Dataset.arrays``);
the ``MatchRecord``s are made from the same columns, without rerunning
their checks, when a caller first reads ``Dataset.records``.  A dataset built
any other way looks its records' players up in its registry once, when it
is made, so every dataset carries its arrays.  On any failure
the same text is parsed again row by row, where each ``MatchRecord`` runs
its per-field checks (``_check_fields``), which raise the first rule
broken.  So every error names its line and reads as it would from the row
path alone.  A record built by hand runs the same checks; only the column
path and ``simulate``, whose fields hold by construction, skip them.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import io
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, repeat
from operator import itemgetter
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .errors import DataError

if TYPE_CHECKING:
    import numpy as np

CSV_HEADER = (
    "match_id",
    "date",
    "competition",
    "team1",
    "team2",
    "home",
    "lineup1",
    "lineup2",
    "outcome",
)

LINEUP_SIZE = 11

_LINEUP_SEP = ";"
# ids travel through comma-separated rows and semicolon-joined lineups
_FORBIDDEN_IN_ID = (",", ";", "\n", "\r")


class Outcome(enum.Enum):
    """Match result from team1's perspective."""

    TEAM1_WIN = "W"
    DRAW = "D"
    TEAM2_WIN = "L"

    @property
    def token(self) -> str:
        return self.value

    @property
    def code(self) -> int:
        """Sign convention: +1 win, 0 draw, -1 loss (team1's view)."""
        return _CODE_BY_OUTCOME[self]

    @classmethod
    def from_token(cls, token: str) -> "Outcome":
        try:
            return cls(token)
        except ValueError:
            raise DataError(f"unknown outcome token {token!r} (expected W, D or L)") from None


class HomeSide(enum.Enum):
    """Which side plays at home; 0 is neutral ground."""

    TEAM1 = "1"
    TEAM2 = "2"
    NEUTRAL = "0"

    @property
    def token(self) -> str:
        return self.value

    @property
    def sign(self) -> int:
        """+1 when team1 is at home, -1 when team2 is, 0 when neutral."""
        return _SIGN_BY_HOME[self]

    @classmethod
    def from_token(cls, token: str) -> "HomeSide":
        try:
            return cls(token)
        except ValueError:
            raise DataError(f"unknown home token {token!r} (expected 1, 2 or 0)") from None


# looked up once per match by Elo, the GP's training parts and its scoring
_CODE_BY_OUTCOME = {Outcome.TEAM1_WIN: 1, Outcome.DRAW: 0, Outcome.TEAM2_WIN: -1}
_SIGN_BY_HOME = {HomeSide.TEAM1: 1, HomeSide.TEAM2: -1, HomeSide.NEUTRAL: 0}
# the column path's token tables; the row path's from_token words a miss
_HOME_BY_TOKEN = {h.token: h for h in HomeSide}
_OUTCOME_BY_TOKEN = {o.token: o for o in Outcome}
_SIGN_BY_TOKEN = {h.token: h.sign for h in HomeSide}
_CODE_BY_TOKEN = {o.token: o.code for o in Outcome}


def _check_name(name: str, what: str) -> None:
    if not name:
        raise DataError(f"empty {what}")
    if name != name.strip():
        raise DataError(f"{what} {name!r} has surrounding whitespace")
    for ch in _FORBIDDEN_IN_ID:
        if ch in name:
            raise DataError(f"{what} {name!r} contains forbidden character {ch!r}")


@dataclass(frozen=True)
class MatchRecord:
    """One match: two lineups of 11, venue side, and the observed outcome.

    Lineups are stored as sorted tuples; they are sets semantically.  The
    constructor runs ``_check_fields``, which raises a DataError naming the
    first rule broken: among others, a duplicate within or across the two
    lineups.
    """

    match_id: str
    date: dt.date
    competition: str
    team1: str
    team2: str
    lineup1: tuple[str, ...]
    lineup2: tuple[str, ...]
    home: HomeSide
    outcome: Outcome

    def __post_init__(self) -> None:
        self._check_fields()
        object.__setattr__(self, "lineup1", tuple(sorted(self.lineup1)))
        object.__setattr__(self, "lineup2", tuple(sorted(self.lineup2)))

    def _check_fields(self) -> None:
        """Each field's rule in turn; raises DataError naming the first that fails."""
        _check_name(self.match_id, "match_id")
        _check_name(self.competition, "competition")
        _check_name(self.team1, "team name")
        _check_name(self.team2, "team name")
        if self.team1 == self.team2:
            raise DataError(f"match {self.match_id!r}: team1 and team2 are both {self.team1!r}")
        if not isinstance(self.date, dt.date) or isinstance(self.date, dt.datetime):
            raise DataError(f"match {self.match_id!r}: date must be a datetime.date")
        if not isinstance(self.home, HomeSide):
            raise DataError(f"match {self.match_id!r}: home must be a HomeSide")
        if not isinstance(self.outcome, Outcome):
            raise DataError(f"match {self.match_id!r}: outcome must be an Outcome")
        for side, lineup in (("lineup1", self.lineup1), ("lineup2", self.lineup2)):
            if len(lineup) != LINEUP_SIZE:
                raise DataError(
                    f"match {self.match_id!r}: {side} has {len(lineup)} players, expected {LINEUP_SIZE}"
                )
            for pid in lineup:
                _check_name(pid, "player id")
            if len(set(lineup)) != LINEUP_SIZE:
                raise DataError(f"match {self.match_id!r}: duplicate player in {side}")
        overlap = set(self.lineup1) & set(self.lineup2)
        if overlap:
            raise DataError(
                f"match {self.match_id!r}: player(s) {sorted(overlap)} appear in both lineups"
            )

    @property
    def players(self) -> tuple[str, ...]:
        return self.lineup1 + self.lineup2


def _unchecked_record(
    match_id: str,
    date: dt.date,
    competition: str,
    team1: str,
    team2: str,
    lineup1: tuple[str, ...],
    lineup2: tuple[str, ...],
    home: HomeSide,
    outcome: Outcome,
) -> MatchRecord:
    """A MatchRecord of fields that break no rule, lineups sorted; runs no check."""
    rec = object.__new__(MatchRecord)
    rec.__dict__.update(
        match_id=match_id,
        date=date,
        competition=competition,
        team1=team1,
        team2=team2,
        lineup1=lineup1,
        lineup2=lineup2,
        home=home,
        outcome=outcome,
    )
    return rec


@dataclass(frozen=True, eq=False)
class MatchArrays:
    """A dataset's matches as arrays, one row per record in dataset order.

    ``lineups`` (N, 22) holds the registry indices of each record's
    ``players``; ``homes`` the home signs, ``codes`` the outcome codes,
    ``match_ids`` the match ids (an object array of str) and ``teams`` (N, 2)
    each record's ``team1`` and ``team2`` (an object array of str).
    """

    lineups: np.ndarray
    homes: np.ndarray
    codes: np.ndarray
    match_ids: np.ndarray
    teams: np.ndarray

    def __getitem__(self, rows: np.ndarray) -> "MatchArrays":
        """The arrays of the rows that a boolean mask or an index array picks."""
        return MatchArrays(
            self.lineups[rows], self.homes[rows], self.codes[rows], self.match_ids[rows], self.teams[rows]
        )


def _team_array(team1s: Sequence[str], team2s: Sequence[str]) -> np.ndarray:
    """The (N, 2) object array of each match's two team ids."""
    import numpy as np

    teams = np.empty((len(team1s), 2), object)
    teams[:, 0] = team1s
    teams[:, 1] = team2s
    return teams


def _record_arrays(records: Sequence[MatchRecord], index: Iterable[int]) -> MatchArrays:
    """The records' arrays, with ``index`` the registry index of every entry of their ``players``."""
    import numpy as np

    n = len(records)
    return MatchArrays(
        np.fromiter(index, np.int64, 2 * LINEUP_SIZE * n).reshape(n, 2 * LINEUP_SIZE),
        np.fromiter((rec.home.sign for rec in records), np.int64, n),
        np.fromiter((rec.outcome.code for rec in records), np.int64, n),
        np.fromiter((rec.match_id for rec in records), object, n),
        _team_array([rec.team1 for rec in records], [rec.team2 for rec in records]),
    )


def match_arrays(records: Sequence[MatchRecord], registry: Mapping[str, int]) -> MatchArrays:
    """The records' arrays under ``registry``; a player not in it is a DataError."""
    players = chain.from_iterable(rec.players for rec in records)
    try:
        return _record_arrays(records, map(registry.__getitem__, players))
    except KeyError as exc:
        pid = exc.args[0]
        rec = next(r for r in records if pid in r.players)
        raise DataError(f"match {rec.match_id!r}: player {pid!r} is not in the registry") from None


@dataclass(frozen=True)
class Dataset:
    """Sorted match records plus the player registry covering them.

    ``registry`` maps player id -> dense index 0..P-1.  For datasets built
    by :func:`parse_dataset` or :meth:`from_records` it covers exactly the
    players appearing in ``records``; the halves returned by
    :func:`split_by_cutoff` share their parent's union registry, which may
    be a strict superset of their own lineups.

    Every dataset holds its matches as ``arrays``, which the GP, the
    baselines and the scorer read.  A dataset built from records checks its
    registry's indices and looks its players up when it is made;
    :meth:`from_records` without a registry builds the registry in the same
    walk.  One from :func:`parse_dataset` gets its arrays from the column
    check and builds ``records`` when they are first read, so no command
    that trains, predicts or scores builds them; the halves
    :func:`split_by_cutoff` makes hold their rows of the parent's arrays.
    ``arrays`` takes no part in equality.
    """

    records: tuple[MatchRecord, ...]
    registry: Mapping[str, int] = field(repr=False)
    arrays: MatchArrays = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_indices(self.registry)
        object.__setattr__(self, "arrays", match_arrays(self.records, self.registry))

    @classmethod
    def _parsed(
        cls, registry: Mapping[str, int], arrays: MatchArrays, build: Callable[[], tuple[MatchRecord, ...]]
    ) -> "Dataset":
        """A dataset whose ``records`` field is left unset until ``build`` makes it (see __getattr__)."""
        ds = object.__new__(cls)
        ds.__dict__.update(registry=registry, arrays=arrays, _build_records=build)
        return ds

    def __getattr__(self, name: str):
        # reached only for an attribute that the instance lacks: a parsed
        # dataset's records, until their first read
        build = self.__dict__.pop("_build_records", None) if name == "records" else None
        if build is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        records = self.__dict__["records"] = build()
        return records

    @property
    def n(self) -> int:
        """Number of matches."""
        return len(self.arrays.homes)

    @property
    def num_players(self) -> int:
        """Number of registered players (P)."""
        return len(self.registry)

    @classmethod
    def from_records(
        cls,
        records: Iterable[MatchRecord],
        registry: Mapping[str, int] | None = None,
    ) -> "Dataset":
        recs = sorted(records, key=lambda r: (r.date, r.match_id))
        seen: set[str] = set()
        for rec in recs:
            if rec.match_id in seen:
                raise DataError(f"duplicate match_id {rec.match_id!r}")
            seen.add(rec.match_id)
        if registry is None:
            # dense first-appearance indices, and every player's index, in
            # one walk over the players
            registry = {}
            get = registry.get
            index: list[int] = []
            for rec in recs:
                for pid in rec.players:
                    i = get(pid)
                    if i is None:
                        i = registry[pid] = len(registry)
                    index.append(i)
            return cls._parsed(registry, _record_arrays(recs, index), partial(tuple, recs))
        _validate_registry(registry, recs)
        return cls(records=tuple(recs), registry=dict(registry))


def _check_indices(registry: Mapping[str, int]) -> None:
    if sorted(registry.values()) != list(range(len(registry))):
        raise DataError("registry indices must be exactly 0..P-1 with no gaps or repeats")


def _validate_registry(registry: Mapping[str, int], records: Sequence[MatchRecord]) -> None:
    _check_indices(registry)
    missing = {pid for rec in records for pid in rec.players if pid not in registry}
    if missing:
        raise DataError(f"registry is missing player(s) {sorted(missing)[:5]}")


def _iso_date(token: str) -> dt.date | None:
    """The date that ``token`` writes in ISO form, or None: the column path's date rule.

    A date is exactly what isoformat() writes, so this accepts what
    ``_parse_date`` accepts.
    """
    try:
        date = dt.date.fromisoformat(token)
    except ValueError:
        return None
    return date if date.isoformat() == token else None


def _parse_date(token: str) -> dt.date:
    try:
        date = dt.datetime.strptime(token, "%Y-%m-%d").date()
    except ValueError:
        raise DataError(f"bad date {token!r} (expected YYYY-MM-DD)") from None
    if date.isoformat() != token:
        raise DataError(f"bad date {token!r} (expected zero-padded YYYY-MM-DD)")
    return date


def _parse_lineup(token: str) -> tuple[str, ...]:
    return tuple(token.split(_LINEUP_SEP))


def parse_dataset(source: str | Path | IO[str] | IO[bytes]) -> Dataset:
    """Parse the match CSV schema into a Dataset.

    ``source`` may be a path or an open text/byte stream.  Raises
    :class:`DataError` naming the offending line for malformed rows,
    duplicate match ids, wrong lineup sizes, duplicated players, unknown
    outcome/home tokens, bytes that are not UTF-8 (or that a text stream's
    decoder rejects) and fields longer than ``csv.field_size_limit()``.
    """
    newline = ""
    if isinstance(source, (str, Path)):
        text: str | bytes = Path(source).read_bytes()
    elif isinstance(source, io.TextIOBase) or hasattr(source, "encoding"):
        text, newline = _read_text(source)  # type: ignore[arg-type]
    else:
        text = source.read()
    # bytes are decoded whole before parsing, so a byte that is not UTF-8 is
    # reported on its own line whatever its offset and whatever rows precede it
    if isinstance(text, bytes):
        text = _decode(text)
    try:
        rows = list(csv.reader(io.StringIO(text, newline=newline)))
    except csv.Error:
        rows = []
    ds = _parse_columns(rows)
    # the row path words the first error, as it would have alone
    return _parse_stream(io.StringIO(text, newline=newline)) if ds is None else ds


def _decode(raw: bytes) -> str:
    """UTF-8 text, or a DataError naming the line of the first byte that is not UTF-8."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _undecodable(exc) from None


def _read_text(fh: IO[str]) -> tuple[str, str]:
    """A text stream's rest, read whole, and the ``newline`` that splits it as iterating the stream does.

    A stream in universal newline mode ends lines at LF, CR and CR LF, any
    other at LF.  A byte that the stream's decoder rejects is a DataError
    naming its line, counted from the stream's start if nothing read it
    before.
    """
    try:
        # the decoder gets the stream's remaining bytes in one piece
        text = fh.read()
    except UnicodeDecodeError as exc:
        raise _undecodable(exc) from None
    return text, "" if getattr(fh, "newlines", None) else "\n"


def _undecodable(exc: UnicodeDecodeError) -> DataError:
    """A DataError naming the line of the byte that ``exc`` could not decode."""
    head = exc.object[: exc.start].decode(exc.encoding, "replace")
    # lines end at LF, CR or CR LF, as the csv reader counts them
    line = 1 + head.replace("\r\n", "\n").replace("\r", "\n").count("\n")
    byte = exc.object[exc.start]
    return DataError(f"line {line}: byte 0x{byte:02x} is not {exc.encoding.upper()} ({exc.reason})")


def _parse_columns(rows: list[list[str]]) -> Dataset | None:
    """The dataset of a file's rows, checked once as columns; None if any row breaks a rule.

    Every rule of the row path is tested on the whole file at once, so a
    None only sends the text through that path, which words the error.
    """
    body = list(filter(None, rows[1:]))  # a blank line reads as []
    n = len(body)
    if not n or rows[0] != list(CSV_HEADER) or set(map(len, body)) != {len(CSV_HEADER)}:
        return None
    # dataset order: a date token that passes the round trip sorts as its date
    body.sort(key=itemgetter(1, 0))
    columns = tuple(zip(*body))
    match_ids, date_toks, competitions, team1s, team2s, home_toks, lineup1s, lineup2s, outcome_toks = columns
    lineups = list(chain.from_iterable(zip(lineup1s, lineup2s)))
    players = _LINEUP_SEP.join(lineups)
    # every id in the file between separators: with 26 a row and ten ';' in
    # each lineup, the count rules out a ';' in any other id, and an empty
    # id leaves two separators side by side
    framed = _LINEUP_SEP.join(("", *match_ids, *competitions, *team1s, *team2s, players, ""))
    dates = {tok: _iso_date(tok) for tok in set(date_toks)}
    if not (
        set(map(str.count, lineups, repeat(_LINEUP_SEP))) == {LINEUP_SIZE - 1}
        and framed.count(_LINEUP_SEP) == (4 + 2 * LINEUP_SIZE) * n + 1
        and "," not in framed
        and "\n" not in framed
        and "\r" not in framed
        and _LINEUP_SEP * 2 not in framed
        and not _edge_whitespace(framed)
        and None not in dates.values()
        and set(home_toks) <= _HOME_BY_TOKEN.keys()
        and set(outcome_toks) <= _OUTCOME_BY_TOKEN.keys()
        and not any(map(str.__eq__, team1s, team2s))
        and len(set(match_ids)) == n
    ):
        return None

    import numpy as np

    # ranks in id order: sorting a side's ranks sorts its ids
    flat = players.split(_LINEUP_SEP)
    ids = sorted(set(flat))
    rank = dict(zip(ids, range(len(ids))))
    ranks = np.fromiter(map(rank.__getitem__, flat), np.int64, len(flat))
    sides = np.sort(ranks.reshape(2 * n, LINEUP_SIZE), axis=1)
    both = np.sort(sides.reshape(n, 2 * LINEUP_SIZE), axis=1)
    if (both[:, 1:] == both[:, :-1]).any():  # a player twice in one match
        return None
    # the registry: players by first appearance, each side in id order
    first = np.full(len(ids), sides.size)
    np.minimum.at(first, sides.ravel(), np.arange(sides.size))
    by_first = np.argsort(first)
    index = np.empty_like(by_first)
    index[by_first] = np.arange(len(ids))
    arrays = MatchArrays(
        index[sides].reshape(n, 2 * LINEUP_SIZE),
        np.fromiter(map(_SIGN_BY_TOKEN.__getitem__, home_toks), np.int64, n),
        np.fromiter(map(_CODE_BY_TOKEN.__getitem__, outcome_toks), np.int64, n),
        np.fromiter(match_ids, object, n),
        _team_array(team1s, team2s),
    )
    registry = dict(zip(map(ids.__getitem__, by_first.tolist()), range(len(ids))))
    return Dataset._parsed(registry, arrays, partial(_column_records, columns, dates, ids, sides))


def _column_records(
    columns: tuple[tuple[str, ...], ...], dates: Mapping[str, dt.date], ids: list[str], sides: np.ndarray
) -> tuple[MatchRecord, ...]:
    """The records of a file's checked columns, in dataset order.

    Each row of ``sides`` holds one lineup's ranks in ``ids``, sorted.
    """
    match_ids, date_toks, competitions, team1s, team2s, home_toks, _, _, outcome_toks = columns
    names = iter(map(ids.__getitem__, sides.ravel().tolist()))
    lineups = list(zip(*[names] * LINEUP_SIZE))
    return tuple(
        map(
            _unchecked_record,
            match_ids,
            map(dates.__getitem__, date_toks),
            competitions,
            team1s,
            team2s,
            lineups[0::2],
            lineups[1::2],
            map(_HOME_BY_TOKEN.__getitem__, home_toks),
            map(_OUTCOME_BY_TOKEN.__getitem__, outcome_toks),
        )
    )


def _edge_whitespace(framed: str) -> bool:
    """Whether an id in ``framed`` (ids between ';', with one before and after) has whitespace around it.

    ``str.split`` and ``str.strip`` agree on what whitespace is.  With each
    run of it marked by one LF (absent from ``framed``), an id begins or
    ends with whitespace exactly where a mark meets a separator.
    """
    pieces = framed.split()
    if len(pieces) == 1:
        return False
    marked = "\n".join(pieces)
    return _LINEUP_SEP + "\n" in marked or "\n" + _LINEUP_SEP in marked


def _parse_stream(lines: Iterable[str]) -> Dataset:
    reader = csv.reader(lines)
    try:
        return _parse_rows(reader)
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        raise DataError(f"line {reader.line_num}: {exc}") from None


def _parse_rows(reader: csv._reader) -> Dataset:
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty input: missing CSV header") from None
    if tuple(header) != CSV_HEADER:
        raise DataError(
            f"line 1: bad header {header!r}, expected {','.join(CSV_HEADER)}"
        )
    records: list[MatchRecord] = []
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise DataError(f"line {line}: expected {len(CSV_HEADER)} fields, got {len(row)}")
        (match_id, date_tok, competition, team1, team2, home_tok, lineup1_tok, lineup2_tok, outcome_tok) = row
        try:
            rec = MatchRecord(
                match_id=match_id,
                date=_parse_date(date_tok),
                competition=competition,
                team1=team1,
                team2=team2,
                lineup1=_parse_lineup(lineup1_tok),
                lineup2=_parse_lineup(lineup2_tok),
                home=HomeSide.from_token(home_tok),
                outcome=Outcome.from_token(outcome_tok),
            )
        except DataError as exc:
            raise DataError(f"line {line}: {exc}") from None
        records.append(rec)
    try:
        return Dataset.from_records(records)
    except DataError as exc:
        raise DataError(str(exc)) from None


def serialize_dataset(ds: Dataset) -> str:
    """Inverse of :func:`parse_dataset`; parsing the output reproduces ``ds``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in ds.records:
        writer.writerow(
            (
                rec.match_id,
                rec.date.isoformat(),
                rec.competition,
                rec.team1,
                rec.team2,
                rec.home.token,
                _LINEUP_SEP.join(rec.lineup1),
                _LINEUP_SEP.join(rec.lineup2),
                rec.outcome.token,
            )
        )
    return buf.getvalue()


def write_dataset(ds: Dataset, path: str | Path) -> None:
    Path(path).write_text(serialize_dataset(ds), encoding="utf-8")


def split_by_cutoff(ds: Dataset, cutoff: dt.date) -> tuple[Dataset, Dataset]:
    """Chronological split: train strictly before ``cutoff``, test on/after.

    Both halves share the parent's registry, so a player's dense index does
    not depend on the cutoff and test-only players keep valid indices.
    Each half holds its rows of the parent's arrays and builds its records
    when they are first read.
    """
    import numpy as np

    before = np.fromiter((rec.date < cutoff for rec in ds.records), bool, ds.n)
    return tuple(
        Dataset._parsed(ds.registry, ds.arrays[rows], partial(tuple, compress(ds.records, rows)))
        for rows in (before, ~before)
    )
