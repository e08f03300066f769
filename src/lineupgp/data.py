"""Match records, CSV parsing, player registries, and chronological splits.

A dataset is a chronologically sorted list of match records plus a registry
that maps every player id appearing in any lineup to a dense index
``0..P-1``.  The registry is a pure function of the dataset's content:
records are walked in (date, match_id) order and each record's players are
registered in sorted order, lineup1 before lineup2.  Re-parsing a
serialized dataset therefore reproduces the exact same indices.

A valid CSV row costs a few C-level operations.  ``MatchRecord`` first runs
one combined test over all its fields (``_plainly_valid``): the 26 names
joined once and scanned for separators, forbidden characters and
whitespace, one set of the 22 players, and exact types for the date, venue
and outcome.  Only a record that fails it goes through the per-field
checks (``_check_fields``), which raise the first rule broken, so a bad
record gets the same message either way.  The parser memoizes each date
token per call, accepting a token that ``date.fromisoformat`` reads and
``isoformat`` writes back unchanged (strptime only words the error), and
maps venue and outcome tokens through dicts.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .errors import DataError

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
# the parser's token tables; a miss goes to from_token, which words the error
_HOME_BY_TOKEN = {h.token: h for h in HomeSide}
_OUTCOME_BY_TOKEN = {o.token: o for o in Outcome}


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

    Lineups are stored as sorted tuples; they are sets semantically and the
    constructor rejects duplicates within or across the two lineups.
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
        if not self._plainly_valid():
            self._check_fields()
        object.__setattr__(self, "lineup1", tuple(sorted(self.lineup1)))
        object.__setattr__(self, "lineup2", tuple(sorted(self.lineup2)))

    def _plainly_valid(self) -> bool:
        """One combined test that passes only when ``_check_fields`` raises nothing.

        The 26 names are joined once with ``;``: exactly 25 separators and
        no ``,``, LF or CR rule out every forbidden character.  A join that
        ``str.split()`` leaves whole holds no whitespace at all (split and
        strip agree on what whitespace is); only one that it splits, as
        inner spaces in ``"Real Madrid"`` do, has each name compared with
        its strip.  One set of the 22 players covers duplicates and
        overlap.  A False only sends the record through ``_check_fields``,
        which words the error, or accepts a date whose type is a subclass
        of ``date``.
        """
        lineup1, lineup2 = self.lineup1, self.lineup2
        try:
            if (
                type(self.date) is not dt.date
                or type(self.home) is not HomeSide
                or type(self.outcome) is not Outcome
                or len(lineup1) != LINEUP_SIZE
                or len(lineup2) != LINEUP_SIZE
                or self.team1 == self.team2
            ):
                return False
            names = (self.match_id, self.competition, self.team1, self.team2, *lineup1, *lineup2)
            joined = _LINEUP_SEP.join(names)
        except TypeError:
            return False
        return (
            joined.count(_LINEUP_SEP) == len(names) - 1
            and "," not in joined
            and "\n" not in joined
            and "\r" not in joined
            and all(names)
            and (joined.split() == [joined] or all(n == n.strip() for n in names))
            and len({*lineup1, *lineup2}) == 2 * LINEUP_SIZE
        )

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


def build_registry(records: Sequence[MatchRecord]) -> dict[str, int]:
    """Dense first-appearance indices over records already in dataset order."""
    registry: dict[str, int] = {}
    for rec in records:
        for pid in rec.players:
            if pid not in registry:
                registry[pid] = len(registry)
    return registry


@dataclass(frozen=True)
class Dataset:
    """Sorted match records plus the player registry covering them.

    ``registry`` maps player id -> dense index 0..P-1.  For datasets built
    by :func:`parse_dataset` or :meth:`from_records` it covers exactly the
    players appearing in ``records``; the halves returned by
    :func:`split_by_cutoff` share their parent's union registry, which may
    be a strict superset of their own lineups.
    """

    records: tuple[MatchRecord, ...]
    registry: Mapping[str, int] = field(repr=False)

    @property
    def n(self) -> int:
        """Number of matches."""
        return len(self.records)

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
            registry = build_registry(recs)
        else:
            _validate_registry(registry, recs)
        return cls(records=tuple(recs), registry=dict(registry))


def _validate_registry(registry: Mapping[str, int], records: Sequence[MatchRecord]) -> None:
    indices = sorted(registry.values())
    if indices != list(range(len(registry))):
        raise DataError("registry indices must be exactly 0..P-1 with no gaps or repeats")
    missing = {pid for rec in records for pid in rec.players if pid not in registry}
    if missing:
        raise DataError(f"registry is missing player(s) {sorted(missing)[:5]}")


def _parse_date(token: str) -> dt.date:
    # a date is exactly what isoformat() writes, so that round trip accepts
    # it; strptime only words the error for what it rejects
    try:
        date = dt.date.fromisoformat(token)
        if date.isoformat() == token:
            return date
    except ValueError:
        pass
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
    if isinstance(source, (str, Path)):
        text: str | bytes = Path(source).read_bytes()
    elif isinstance(source, io.TextIOBase) or hasattr(source, "encoding"):
        return _parse_stream(_text_lines(source))  # type: ignore[arg-type]
    else:
        text = source.read()
    # bytes are decoded whole before parsing, so a byte that is not UTF-8 is
    # reported on its own line whatever its offset and whatever rows precede it
    if isinstance(text, bytes):
        text = _decode(text)
    return _parse_stream(io.StringIO(text, newline=""))


def _decode(raw: bytes) -> str:
    """UTF-8 text, or a DataError naming the line of the first byte that is not UTF-8."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _undecodable(exc) from None


def _text_lines(fh: IO[str]) -> io.StringIO:
    """A text stream's rest, read whole, split into lines as iterating the stream splits them.

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
    return io.StringIO(text, newline="" if getattr(fh, "newlines", None) else "\n")


def _undecodable(exc: UnicodeDecodeError) -> DataError:
    """A DataError naming the line of the byte that ``exc`` could not decode."""
    head = exc.object[: exc.start].decode(exc.encoding, "replace")
    # lines end at LF, CR or CR LF, as the csv reader counts them
    line = 1 + head.replace("\r\n", "\n").replace("\r", "\n").count("\n")
    byte = exc.object[exc.start]
    return DataError(f"line {line}: byte 0x{byte:02x} is not {exc.encoding.upper()} ({exc.reason})")


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
    # per parse: a season shares a few hundred dates between its matches
    dates: dict[str, dt.date] = {}
    records: list[MatchRecord] = []
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise DataError(f"line {line}: expected {len(CSV_HEADER)} fields, got {len(row)}")
        (match_id, date_tok, competition, team1, team2, home_tok, lineup1_tok, lineup2_tok, outcome_tok) = row
        try:
            date = dates.get(date_tok)
            if date is None:
                date = dates[date_tok] = _parse_date(date_tok)
            home = _HOME_BY_TOKEN.get(home_tok)
            outcome = _OUTCOME_BY_TOKEN.get(outcome_tok)
            rec = MatchRecord(
                match_id=match_id,
                date=date,
                competition=competition,
                team1=team1,
                team2=team2,
                lineup1=_parse_lineup(lineup1_tok),
                lineup2=_parse_lineup(lineup2_tok),
                home=HomeSide.from_token(home_tok) if home is None else home,
                outcome=Outcome.from_token(outcome_tok) if outcome is None else outcome,
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
    """
    train = tuple(r for r in ds.records if r.date < cutoff)
    test = tuple(r for r in ds.records if r.date >= cutoff)
    return (
        Dataset(records=train, registry=ds.registry),
        Dataset(records=test, registry=ds.registry),
    )
