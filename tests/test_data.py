"""Match record validation, CSV round trips, registries, and splits."""

from __future__ import annotations

import _strptime
import csv
import datetime as dt
import io
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BASE_DATE, make_record, player_ids, random_dataset
from lineupgp import data
from lineupgp.data import (
    CSV_HEADER,
    LINEUP_SIZE,
    Dataset,
    HomeSide,
    MatchRecord,
    Outcome,
    parse_dataset,
    serialize_dataset,
    split_by_cutoff,
    write_dataset,
)
from lineupgp.errors import DataError

HEADER_LINE = ",".join(CSV_HEADER)
P = player_ids(60)


def _row(
    match_id="m1",
    date="2022-01-01",
    competition="cup",
    team1="alpha",
    team2="beta",
    home="0",
    lineup1=None,
    lineup2=None,
    outcome="W",
):
    l1 = ";".join(lineup1 if lineup1 is not None else P[:11])
    l2 = ";".join(lineup2 if lineup2 is not None else P[11:22])
    return f"{match_id},{date},{competition},{team1},{team2},{home},{l1},{l2},{outcome}"


def _csv(*rows):
    return "\n".join([HEADER_LINE, *rows]) + "\n"


class TestEnums:
    def test_outcome_tokens_and_codes(self):
        assert Outcome.TEAM1_WIN.token == "W" and Outcome.TEAM1_WIN.code == 1
        assert Outcome.DRAW.token == "D" and Outcome.DRAW.code == 0
        assert Outcome.TEAM2_WIN.token == "L" and Outcome.TEAM2_WIN.code == -1
        for o in Outcome:
            assert Outcome.from_token(o.token) is o

    def test_outcome_bad_token(self):
        with pytest.raises(DataError, match="unknown outcome token"):
            Outcome.from_token("X")

    def test_home_signs(self):
        assert HomeSide.TEAM1.sign == 1
        assert HomeSide.TEAM2.sign == -1
        assert HomeSide.NEUTRAL.sign == 0
        for h in HomeSide:
            assert HomeSide.from_token(h.token) is h

    def test_home_bad_token(self):
        with pytest.raises(DataError, match="unknown home token"):
            HomeSide.from_token("3")


class TestMatchRecord:
    def test_lineups_stored_sorted(self):
        rec = make_record("m1", reversed(P[:11]), reversed(P[11:22]))
        assert rec.lineup1 == tuple(P[:11])
        assert rec.lineup2 == tuple(P[11:22])
        assert rec.players == tuple(P[:22])

    def test_wrong_lineup_size(self):
        with pytest.raises(DataError, match="10 players"):
            make_record("m1", P[:10], P[11:22])

    def test_duplicate_within_lineup(self):
        with pytest.raises(DataError, match="duplicate player"):
            make_record("m1", [P[0]] + P[1:10] + [P[0]], P[11:22])

    def test_player_on_both_sides(self):
        with pytest.raises(DataError, match="both lineups"):
            make_record("m1", P[:11], [P[0]] + P[12:22])

    def test_same_team_twice(self):
        with pytest.raises(DataError, match="team1 and team2"):
            make_record("m1", P[:11], P[11:22], team1="alpha", team2="alpha")

    def test_bad_ids(self):
        with pytest.raises(DataError, match="whitespace"):
            make_record(" m1", P[:11], P[11:22])
        with pytest.raises(DataError, match="empty"):
            make_record("", P[:11], P[11:22])
        with pytest.raises(DataError, match="forbidden character"):
            make_record("m1", ["a;b"] + P[1:11], P[11:22])
        with pytest.raises(DataError, match="forbidden character"):
            make_record("m1", P[:11], P[11:22], team1="al,pha")

    def test_date_must_be_date(self):
        with pytest.raises(DataError, match="datetime.date"):
            make_record("m1", P[:11], P[11:22], date=dt.datetime(2022, 1, 1))


class TestRegistry:
    def test_first_appearance_order(self):
        r1 = make_record("m1", P[22:33], P[33:44], date=BASE_DATE)
        r2 = make_record("m2", P[:11], P[11:22], date=BASE_DATE + dt.timedelta(days=1))
        reg = Dataset.from_records([r1, r2]).registry
        # r1's players come first; within a record lineup1 before lineup2,
        # each sorted
        assert [pid for pid, _ in sorted(reg.items(), key=lambda kv: kv[1])] == (
            P[22:44] + P[:22]
        )

    def test_registry_is_content_function(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 12, 40)
        shuffled = list(ds.records)
        rng.shuffle(shuffled)
        again = Dataset.from_records(shuffled)
        assert again.registry == ds.registry
        assert again.records == ds.records

    def test_dense_indices(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, 8, 30)
        assert sorted(ds.registry.values()) == list(range(ds.num_players))


class TestDataset:
    def test_sorted_by_date_then_id(self):
        r_late = make_record("m1", P[:11], P[11:22], date=BASE_DATE + dt.timedelta(days=5))
        r_b = make_record("mB", P[:11], P[11:22], date=BASE_DATE)
        r_a = make_record("mA", P[:11], P[11:22], date=BASE_DATE)
        ds = Dataset.from_records([r_late, r_b, r_a])
        assert [r.match_id for r in ds.records] == ["mA", "mB", "m1"]

    def test_duplicate_match_id(self):
        r1 = make_record("m1", P[:11], P[11:22])
        r2 = make_record("m1", P[22:33], P[33:44])
        with pytest.raises(DataError, match="duplicate match_id"):
            Dataset.from_records([r1, r2])

    def test_explicit_registry_validated(self):
        rec = make_record("m1", P[:11], P[11:22])
        with pytest.raises(DataError, match="missing player"):
            Dataset.from_records([rec], registry={P[0]: 0})
        gappy = {pid: 2 * i for i, pid in enumerate(P[:22])}
        with pytest.raises(DataError, match="0..P-1"):
            Dataset.from_records([rec], registry=gappy)

    def test_hand_built_registry_checked(self):
        # a registry with an index past P (so a gap), or with two players on
        # one index, fails when the dataset is made, not in a later fit
        ds = random_dataset(np.random.default_rng(11), 12, 40)
        ids = sorted(ds.registry, key=ds.registry.__getitem__)
        past_p = {**ds.registry, ids[-1]: ds.num_players}
        shared = {**ds.registry, ids[-1]: 0}
        for registry in (past_p, shared):
            with pytest.raises(DataError) as err:
                Dataset(records=ds.records, registry=registry)
            assert str(err.value) == "registry indices must be exactly 0..P-1 with no gaps or repeats"
        # a registry in any order of its keys, indices 0..P-1, is valid
        reordered = dict(reversed(ds.registry.items()))
        again = Dataset(records=ds.records, registry=reordered)
        assert np.array_equal(again.arrays.lineups, ds.arrays.lineups)

    def test_team_column_whichever_way_built(self):
        # team1 and team2 of every record, in dataset order, on each route to the arrays
        ds = random_dataset(np.random.default_rng(12), 40, 50, num_teams=12)
        union = dict(reversed(ds.registry.items()))
        parsed = parse_dataset(io.StringIO(serialize_dataset(ds)))
        built = [
            parsed,
            ds,
            Dataset.from_records(reversed(ds.records), registry=union),
            Dataset(records=ds.records, registry=union),
            Dataset(records=(), registry={}),
            *split_by_cutoff(parsed, ds.records[15].date),
            *split_by_cutoff(ds, ds.records[15].date),
        ]
        for each in built:
            teams = each.arrays.teams
            assert teams.dtype == object and teams.shape == (each.n, 2)
            assert teams.tolist() == [[rec.team1, rec.team2] for rec in each.records]
            assert all(type(team) is str for team in teams.ravel())
        assert parsed.arrays.teams.tolist() == ds.arrays.teams.tolist()

    def test_explicit_superset_registry_allowed(self):
        rec = make_record("m1", P[:11], P[11:22])
        reg = {pid: i for i, pid in enumerate(P[:30])}
        ds = Dataset.from_records([rec], registry=reg)
        assert ds.num_players == 30


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            ds = random_dataset(rng, int(rng.integers(1, 15)), 40)
            text = serialize_dataset(ds)
            back = parse_dataset(io.StringIO(text))
            assert back.records == ds.records
            assert back.registry == ds.registry
            assert serialize_dataset(back) == text

    def test_file_round_trip(self, tmp_path):
        ds = random_dataset(np.random.default_rng(12), 6, 30)
        path = tmp_path / "matches.csv"
        write_dataset(ds, path)
        assert parse_dataset(path).records == ds.records

    def test_bytes_stream(self):
        ds = random_dataset(np.random.default_rng(13), 3, 25)
        raw = io.BytesIO(serialize_dataset(ds).encode("utf-8"))
        assert parse_dataset(raw).records == ds.records

    def test_header_and_line_endings(self):
        ds = random_dataset(np.random.default_rng(14), 2, 25)
        text = serialize_dataset(ds)
        assert text.startswith(HEADER_LINE + "\n")
        assert "\r" not in text


class TestParseErrors:
    def test_empty_input(self):
        with pytest.raises(DataError, match="missing CSV header"):
            parse_dataset(io.StringIO(""))

    def test_bad_header(self):
        with pytest.raises(DataError, match="line 1"):
            parse_dataset(io.StringIO("id,date\nx,y\n"))

    def test_wrong_field_count_names_line(self):
        text = _csv(_row(), "m2,2022-01-02,cup,alpha,beta,0,only,eight")
        with pytest.raises(DataError, match="line 3"):
            parse_dataset(io.StringIO(text))

    def test_bad_date(self):
        with pytest.raises(DataError, match="line 2.*bad date"):
            parse_dataset(io.StringIO(_csv(_row(date="2022-1-01"))))
        with pytest.raises(DataError, match="bad date"):
            parse_dataset(io.StringIO(_csv(_row(date="20220101"))))

    def test_bad_outcome_and_home(self):
        with pytest.raises(DataError, match="unknown outcome"):
            parse_dataset(io.StringIO(_csv(_row(outcome="V"))))
        with pytest.raises(DataError, match="unknown home"):
            parse_dataset(io.StringIO(_csv(_row(home="H"))))

    def test_short_lineup(self):
        with pytest.raises(DataError, match="line 2.*10 players"):
            parse_dataset(io.StringIO(_csv(_row(lineup1=P[:10]))))

    def test_duplicate_player_across_sides(self):
        with pytest.raises(DataError, match="both lineups"):
            parse_dataset(io.StringIO(_csv(_row(lineup2=[P[0]] + P[12:22]))))

    def test_duplicate_match_id(self):
        text = _csv(_row(match_id="m1"), _row(match_id="m1", date="2022-01-02"))
        with pytest.raises(DataError, match="duplicate match_id"):
            parse_dataset(io.StringIO(text))

    def test_blank_lines_skipped(self):
        text = _csv(_row()) + "\n\n"
        assert parse_dataset(io.StringIO(text)).n == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            parse_dataset(tmp_path / "nope.csv")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("bad_line", [3, 250])
    def test_bytes_not_utf8_name_their_line(self, tmp_path, newline, bad_line):
        # 299 rows of ~170 bytes: line 250 lies past the decoder's first
        # read-ahead block, line 3 inside it
        rows = [_row(match_id=f"m{i:03d}") for i in range(299)]
        lines = [HEADER_LINE.encode(), *(row.encode() for row in rows)]
        lines[bad_line - 1] = lines[bad_line - 1].replace(b",cup,", b",c\xffp,")
        raw = newline.encode().join(lines) + newline.encode()
        path = tmp_path / "bad.csv"
        path.write_bytes(raw)
        message = f"^line {bad_line}: byte 0xff is not UTF-8 \\(invalid start byte\\)$"
        for source in (path, io.BytesIO(raw), io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")):
            with pytest.raises(DataError, match=message):
                parse_dataset(source)

    def test_text_stream_not_utf8_names_its_line(self):
        # a text stream's own decoder meets the byte
        stream = io.TextIOWrapper(io.BytesIO(b"match_id\n\xff\n"), encoding="utf-8")
        with pytest.raises(DataError, match="^line 2: byte 0xff is not UTF-8 \\(invalid start byte\\)$"):
            parse_dataset(stream)

    @pytest.mark.parametrize("newline", ["\n", "\r"])
    def test_bad_byte_beats_an_earlier_bad_row(self, tmp_path, newline):
        # bytes are decoded whole before any row is read, so the byte on
        # line 250, past the first 8 KB, is reported rather than the short
        # lineup on line 2, from a path, a byte stream or a text stream
        rows = [_row(match_id=f"m{i:03d}") for i in range(299)]
        rows[0] = _row(match_id="m000", lineup1=P[:10])
        lines = [HEADER_LINE.encode(), *(row.encode() for row in rows)]
        lines[249] = lines[249].replace(b",cup,", b",c\xffp,")
        raw = newline.encode().join(lines) + newline.encode()
        assert raw.index(b"\xff") > 8192
        path = tmp_path / "bad.csv"
        path.write_bytes(raw)
        for source in (path, io.BytesIO(raw), io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")):
            with pytest.raises(DataError, match="^line 250: byte 0xff is not UTF-8"):
                parse_dataset(source)
        good = newline.join([HEADER_LINE, _row(), ""]).encode("utf-8")
        path.write_bytes(good)
        assert parse_dataset(io.BytesIO(good)) == parse_dataset(path)

    def test_overlong_field_names_its_line(self, tmp_path):
        text = _csv(_row(), _row(match_id="m2", competition='"' + "x" * 200_000 + '"'))
        path = tmp_path / "long.csv"
        path.write_text(text, encoding="utf-8")
        message = f"^line 3: field larger than field limit \\({csv.field_size_limit()}\\)$"
        for source in (path, io.StringIO(text)):
            with pytest.raises(DataError, match=message):
                parse_dataset(source)


class TestSplit:
    def test_matches_brute_filter(self):
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, 30, 50)
        cutoff = BASE_DATE + dt.timedelta(days=10)
        train, test = split_by_cutoff(ds, cutoff)
        assert [r.match_id for r in train.records] == [
            r.match_id for r in ds.records if r.date < cutoff
        ]
        assert [r.match_id for r in test.records] == [
            r.match_id for r in ds.records if r.date >= cutoff
        ]
        assert train.n + test.n == ds.n

    def test_cutoff_date_goes_to_test(self):
        ds = random_dataset(np.random.default_rng(22), 5, 30)
        cutoff = ds.records[2].date
        train, test = split_by_cutoff(ds, cutoff)
        assert test.records[0].date == cutoff
        assert all(r.date < cutoff for r in train.records)

    def test_halves_share_parent_registry(self):
        ds = random_dataset(np.random.default_rng(23), 20, 60)
        train, test = split_by_cutoff(ds, BASE_DATE + dt.timedelta(days=7))
        assert train.registry == ds.registry
        assert test.registry == ds.registry
        # the shared registry may cover players a half never fields
        train_players = {p for r in train.records for p in r.players}
        assert train_players <= set(train.registry)


def _strptime_date(token: str) -> dt.date:
    """The date rule, by strptime alone."""
    try:
        date = dt.datetime.strptime(token, "%Y-%m-%d").date()
    except ValueError:
        raise DataError(f"bad date {token!r} (expected YYYY-MM-DD)") from None
    if date.isoformat() != token:
        raise DataError(f"bad date {token!r} (expected zero-padded YYYY-MM-DD)")
    return date


def _per_field_parse(text: str, newline: str = "\n") -> Dataset:
    """Parse ``text`` row by row with strptime dates, enum lookups and only the per-field checks.

    ``newline`` splits the lines as ``io.StringIO`` does: ``""`` as a path
    or byte source is read, ``"\n"`` as a plain text stream is.
    """
    reader = csv.reader(io.StringIO(text, newline=newline))
    next(reader)
    records = []
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise DataError(f"line {line}: expected {len(CSV_HEADER)} fields, got {len(row)}")
        match_id, date, competition, team1, team2, home, lineup1, lineup2, outcome = row
        try:
            records.append(
                MatchRecord(
                    match_id=match_id,
                    date=_strptime_date(date),
                    competition=competition,
                    team1=team1,
                    team2=team2,
                    lineup1=tuple(lineup1.split(";")),
                    lineup2=tuple(lineup2.split(";")),
                    home=HomeSide.from_token(home),
                    outcome=Outcome.from_token(outcome),
                )
            )
        except DataError as exc:
            raise DataError(f"line {line}: {exc}") from None
    return Dataset.from_records(records)


_POOL = [f"p{i:02d}" for i in range(26)]
_VALID_ROW = ["m1", "2022-01-01", "cup", "alpha", "beta", "0"]
_VALID_ROW += [";".join(_POOL[:11]), ";".join(_POOL[11:22]), "W"]
# ids that break one rule, and some that break none: inner whitespace, and
# p00, which may repeat a player already in the lineups
_ODD_IDS = [
    "", " p", "p ", "p\xa0", "\u2003p", "p\x1c", "\x1cp", "p\tq", "Real Madrid",
    "p\xa0q", "a;b", "a,b", "a\nb", "a\rb", "p00", ";", ",",
]
_DATES = ["2022-01-01", "2022-03-15", "2021-12-31", "0999-01-01"]
_ODD_DATES = [
    "2022-1-01", "20220101", "2022-W01-1", "2022-01-01T00:00", "2022-02-30",
    " 2022-01-01", "2022-01-01 ", "", "999-01-01",
]
_ODD_HOMES = ["3", "H", "", " 1", "01"]
_ODD_OUTCOMES = ["V", "w", "", "W "]


def _mostly(valid: list[str], odd: list[str]):
    """A valid token seven times in eight, else one that breaks a rule (or nearly)."""
    return st.integers(1, 8).flatmap(lambda i: st.sampled_from(odd if i == 8 else valid))


@st.composite
def _lineups(draw) -> tuple[list[str], list[str]]:
    players = draw(st.permutations(_POOL))
    sides = [players[:11], players[11:22]]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        side = sides[draw(st.integers(0, 1))]
        kind = draw(st.sampled_from(["odd", "drop", "add", "within", "across"]))
        if kind == "odd":
            side[draw(st.integers(0, len(side) - 1))] = draw(st.sampled_from(_ODD_IDS))
        elif kind == "drop":
            side.pop()
        elif kind == "add":
            side.append(draw(st.sampled_from(players[22:])))
        elif kind == "within":
            side[0] = side[-1]
        else:
            side[0] = sides[1][0] if side is sides[0] else sides[0][0]
    return sides[0], sides[1]


@st.composite
def _rows(draw) -> list[str]:
    lineup1, lineup2 = draw(_lineups())
    row = [
        draw(_mostly(["m1", "m2", "m3"], _ODD_IDS)),
        draw(_mostly(_DATES, _ODD_DATES)),
        draw(_mostly(["league", "cup"], _ODD_IDS)),
        draw(_mostly(["alpha", "beta"], _ODD_IDS)),
        draw(_mostly(["beta", "gamma"], _ODD_IDS)),
        draw(_mostly(["0", "1", "2"], _ODD_HOMES)),
        ";".join(lineup1),
        ";".join(lineup2),
        draw(_mostly(["W", "D", "L"], _ODD_OUTCOMES)),
    ]
    if draw(st.integers(0, 19)) == 0:
        row = row[:-1] if draw(st.booleans()) else row + ["x"]
    return row


_TEAMS = ["alpha", "beta", "Real Madrid", "Inter Milan"]


@st.composite
def _valid_row(draw, i: int) -> list[str]:
    """A row that breaks no rule, with match id ``r{i}``; team names may hold inner spaces."""
    players = draw(st.permutations(_POOL))
    teams = draw(st.permutations(_TEAMS))
    return [
        f"r{i}",
        draw(st.sampled_from(_DATES)),
        draw(st.sampled_from(["league", "cup"])),
        teams[0],
        teams[1],
        draw(st.sampled_from(["0", "1", "2"])),
        ";".join(players[:11]),
        ";".join(players[11:22]),
        draw(st.sampled_from(["W", "D", "L"])),
    ]


def _single_faults(row: list[str]) -> list[list[str]]:
    """Each copy of a valid ``row`` with one fault.

    The fault is an id, date, token or lineup that breaks (or nearly
    breaks) a rule, or a field too few or too many.
    """
    faults = []

    def put(changes: dict[int, str]) -> None:
        faults.append([changes.get(col, field) for col, field in enumerate(row)])

    odd_by_col = {1: _ODD_DATES, 5: _ODD_HOMES, 8: _ODD_OUTCOMES}
    odd_by_col.update(dict.fromkeys((0, 2, 3, 4), _ODD_IDS))
    for col, odds in odd_by_col.items():
        for odd in odds:
            put({col: odd})
    put({4: row[3]})
    for col in (6, 7):
        side, other = row[col].split(";"), row[13 - col].split(";")
        spare = min(set(_POOL) - {*side, *other})
        lineups = [[odd, *side[1:]] for odd in _ODD_IDS] + [[*side[:-1], odd] for odd in _ODD_IDS]
        lineups += [side[:-1], [*side, spare], [side[-1], *side[1:]], [other[0], *side[1:]]]
        for lineup in lineups:
            put({col: ";".join(lineup)})
        # ten players and twelve: the file's count of ids stays right
        put({col: ";".join(side[:-1]), 13 - col: ";".join([*other, side[-1]])})
    return faults + [row[:-1], [*row, "x"]]


@st.composite
def _files(draw) -> list[list[str]]:
    """Up to 8 rows sharing players: maybe a match id twice, one bad row at any position, blank lines.

    The bad row breaks one rule of a valid row, or comes from _rows(),
    which may break several or none.
    """
    n = draw(st.integers(1, 8))
    rows = [draw(_valid_row(i)) for i in range(n)]
    if n > 1 and draw(st.integers(0, 7)) == 0:
        i, j = draw(st.permutations(range(n)))[:2]
        rows[i][0] = rows[j][0]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        rows[i] = draw(st.one_of(st.sampled_from(_single_faults(rows[i])), _rows()))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        rows.insert(draw(st.integers(0, len(rows))), [])
    return rows


def _verdict(parse, *args) -> Dataset | str:
    """What ``parse(*args)`` returns, or the message of the DataError it raises."""
    try:
        return parse(*args)
    except DataError as exc:
        return str(exc)


def _assert_alike(got: Dataset | str, want: Dataset | str) -> None:
    """The same message, or a dataset from the file-level check with the same records and registry order."""
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert got.records == want.records
        for name in ("lineups", "homes", "codes", "match_ids", "teams"):
            assert getattr(got.arrays, name).tolist() == getattr(want.arrays, name).tolist()
        assert list(got.registry.items()) == list(want.registry.items())


@contextmanager
def _sources(text: str, path: Path):
    """Each kind of source parse_dataset reads ``text`` from, with the ``newline`` that splits its lines."""
    raw = text.encode("utf-8")
    path.write_bytes(raw)
    with path.open("rb") as binary, path.open(encoding="utf-8", newline="") as textual:
        yield [
            (path, ""),
            (str(path), ""),
            (io.BytesIO(raw), ""),
            (binary, ""),
            (io.StringIO(text), "\n"),
            (textual, ""),
        ]


def _write_rows(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    # the default CRLF terminator makes the writer quote fields holding CR
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    return buf.getvalue()


class TestCombinedCheck:
    """parse_dataset's check of a file as columns changes no verdict or message."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rows=_files())
    @example(rows=[_VALID_ROW])
    def test_parse_matches_the_per_field_path(self, rows, tmp_path_factory):
        text = _write_rows(rows)
        wants: dict[str, Dataset | str] = {}
        with _sources(text, tmp_path_factory.getbasetemp() / "fuzz.csv") as sources:
            for source, newline in sources:
                if newline not in wants:
                    wants[newline] = _verdict(_per_field_parse, text, newline)
                _assert_alike(_verdict(parse_dataset, source), wants[newline])

    def test_each_single_fault_in_each_row(self):
        # five valid rows, out of date order, sharing players
        rows = []
        for i in range(5):
            players = _POOL[i:] + _POOL[:i]
            teams = [_TEAMS[i % 4], _TEAMS[(i + 1) % 4]]
            lineups = [";".join(players[:11]), ";".join(players[11:22])]
            rows.append([f"r{i}", _DATES[i % 4], "league", *teams, "1", *lineups, "D"])
        for i, row in enumerate(rows):
            for bad in _single_faults(row):
                text = _write_rows([*rows[:i], bad, *rows[i + 1 :]])
                _assert_alike(_verdict(parse_dataset, io.StringIO(text)), _verdict(_per_field_parse, text))

    def test_each_forbidden_character_in_each_kind_of_id(self):
        for ch in data._FORBIDDEN_IN_ID:
            # match id, competition, team name, first player id
            for col in (0, 2, 3, 6):
                row = list(_VALID_ROW)
                row[col] = row[col][:1] + ch + row[col][1:]
                text = _write_rows([row])
                with pytest.raises(DataError) as want:
                    _per_field_parse(text)
                with pytest.raises(DataError) as got:
                    parse_dataset(io.StringIO(text))
                assert str(got.value) == str(want.value)

    def test_split_and_strip_agree_on_whitespace(self):
        # _edge_whitespace takes the runs that str.split() cuts out of the
        # file's joined ids to be the whitespace that str.strip() removes
        for code in range(sys.maxunicode + 1):
            ch = chr(code)
            assert (ch.strip() == "") == (ch.split() == []), hex(code)


class TestParseFastPath:
    """A valid file is checked as columns only; any other goes through the row path."""

    @staticmethod
    def _counted(monkeypatch):
        calls = dict.fromkeys(("strptime", "check_name", "check_fields"), 0)

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)

            return counted

        # datetime.strptime looks up _strptime._strptime_datetime on every call
        strptime = _strptime._strptime_datetime
        monkeypatch.setattr(_strptime, "_strptime_datetime", counting("strptime", strptime))
        monkeypatch.setattr(data, "_check_name", counting("check_name", data._check_name))
        monkeypatch.setattr(MatchRecord, "_check_fields", counting("check_fields", MatchRecord._check_fields))
        return calls

    def test_valid_file_takes_no_slow_path(self, monkeypatch, tmp_path):
        ds = random_dataset(np.random.default_rng(31), 200, 60)
        text = serialize_dataset(ds)
        calls = self._counted(monkeypatch)
        with _sources(text, tmp_path / "valid.csv") as sources:
            for source, _ in sources:
                got = parse_dataset(source)
                assert got.n == 200 and got.records == ds.records
        assert calls == dict.fromkeys(calls, 0)

    def test_the_counters_see_the_slow_path(self, monkeypatch):
        calls = self._counted(monkeypatch)
        with pytest.raises(DataError, match="zero-padded"):
            parse_dataset(io.StringIO(_csv(_row(date="2022-1-01"))))
        with pytest.raises(DataError, match="whitespace"):
            parse_dataset(io.StringIO(_csv(_row(match_id="m1 "))))
        # the second file's valid date is read by strptime too
        assert calls == {"strptime": 2, "check_name": 1, "check_fields": 1}
        # a record built by hand runs the per-field checks
        make_record("m2", P[:11], P[11:22])
        assert calls["check_fields"] == 2

    def test_a_bad_last_row_reaches_the_row_path(self, monkeypatch):
        # the last row's outcome token, its last character, becomes V
        text = serialize_dataset(random_dataset(np.random.default_rng(32), 200, 60))[:-2] + "V\n"
        calls = self._counted(monkeypatch)
        with pytest.raises(DataError, match="^line 201: unknown outcome token 'V' \\(expected W, D or L\\)$"):
            parse_dataset(io.StringIO(text))
        # every row's date was read, and every row before it became a record
        # that passed the per-field checks: 26 ids each
        assert calls == {"strptime": 200, "check_name": 199 * 26, "check_fields": 199}
