"""The CSV table codec shared by the trial, interval and study readers."""

import math
import re
from dataclasses import fields

import pytest

from wedgeperm import (
    ConfidenceInterval,
    CoverageRow,
    DataFormatError,
    PowerRow,
    StudyResult,
    emit_tables,
    parse_tables,
    read_ci_csv,
    read_trial_csv,
    write_ci_csv,
    write_trial_csv,
)

from conftest import make_trial

_POWER = StudyResult(
    "power",
    (
        PowerRow.from_counts(16, 2, 0, 0.4, "mcrts_z", 6, 2),
        PowerRow.from_counts(16, 2, 0, 0.4, "bonferroni", 6, 0),
    ),
)
_COVERAGE = StudyResult(
    "coverage",
    (
        CoverageRow.from_counts(24, 3, 1, 0.9, 1, 0.3, "weighted_z", 4, 3, 2.5, 0),
        CoverageRow.from_counts(24, 3, 1, 0.9, 1, 0.3, "fisher", 4, 3, math.inf, 1),
    ),
)
_INTERVALS = [
    ConfidenceInterval(2, "weighted_z", 0.9, -0.25, 0.75, 121),
    ConfidenceInterval(None, "single", 0.95, 0.1, 0.2, 41),
    ConfidenceInterval(1, "bonferroni", 0.9, math.nan, math.nan, 26),
]


def _write_ci(path):
    write_ci_csv(path, _INTERVALS)


def _read_ci(path):
    return [(ci.lag, ci.method, ci.level, repr(ci.lower), repr(ci.upper)) for ci in read_ci_csv(path)]


def _write_power(path):
    emit_tables(_POWER, path)


def _write_coverage(path):
    emit_tables(_COVERAGE, path)


def _read_study(path):
    result = parse_tables(path)
    return result.study, result.rows


# (id, writer, reader): every table the package writes and reads back
_TABLES = [
    ("interval", _write_ci, _read_ci),
    ("power", _write_power, _read_study),
    ("coverage", _write_coverage, _read_study),
]
_STUDY_TABLES = _TABLES[1:]


def _ids(tables):
    return [t[0] for t in tables]


@pytest.mark.parametrize("name, write, read", _TABLES, ids=_ids(_TABLES))
def test_byte_order_mark_is_skipped(tmp_path, name, write, read):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write(plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read(marked) == read(plain)


@pytest.mark.parametrize("bad_line", [1, 3])
@pytest.mark.parametrize("name, write, read", _TABLES, ids=_ids(_TABLES))
def test_undecodable_byte_cites_line(tmp_path, name, write, read, bad_line):
    path = tmp_path / "table.csv"
    write(path)
    lines = path.read_bytes().split(b"\r\n")
    lines[bad_line - 1] += b"\xff"
    path.write_bytes(b"\r\n".join(lines))
    message = f"{re.escape(str(path))}: line {bad_line}: .*can't decode byte 0xff"
    with pytest.raises(DataFormatError, match=message):
        read(path)


def _write_trial(path):
    write_trial_csv(path, make_trial(12, (4, 4, 4), seed=5))


_WITH_TRIAL = _TABLES + [("trial", _write_trial, read_trial_csv)]


@pytest.mark.parametrize("name, write, read", _WITH_TRIAL, ids=_ids(_WITH_TRIAL))
def test_rows_after_a_cell_spanning_lines_cite_their_own_line(tmp_path, name, write, read):
    # the first cell of line 2 is quoted and runs on to line 3, so the
    # next row starts on line 4
    path = tmp_path / "table.csv"
    write(path)
    head, first, second, *rest = path.read_text().splitlines()
    cell, tail = first.split(",", 1)
    second = second.rsplit(",", 1)[0] + ",bad"
    path.write_text("\n".join([head, f'"{cell}\n",{tail}', second, *rest]) + "\n")
    with pytest.raises(DataFormatError, match="line 4: "):
        read(path)


@pytest.mark.parametrize("name, write, read", _STUDY_TABLES, ids=_ids(_STUDY_TABLES))
def test_whitespace_only_row_is_skipped(tmp_path, name, write, read):
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    write(plain)
    head, *rows = plain.read_text().splitlines()
    spaced.write_text("\n".join([head, "  \t ", rows[0], ",, ,", *rows[1:]]) + "\n")
    assert read(spaced) == read(plain)


@pytest.mark.parametrize("name, write, read", _STUDY_TABLES, ids=_ids(_STUDY_TABLES))
def test_extra_cells_cite_their_line(tmp_path, name, write, read):
    path = tmp_path / "table.csv"
    write(path)
    lines = path.read_text().splitlines()
    lines[2] += ",junk,9"
    path.write_text("\n".join(lines) + "\n")
    width = len(lines[0].split(","))
    with pytest.raises(DataFormatError, match=f"line 3: expected {width} columns, got {width + 2}"):
        read(path)


@pytest.mark.parametrize("cell", ["junk", "coverage", ""])
def test_study_cell_must_name_the_table(tmp_path, cell):
    path = tmp_path / "power.csv"
    _write_power(path)
    lines = path.read_text().splitlines()
    lines[1] = cell + lines[1][len("power"):]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=f"line 2: study {cell!r} in a power table"):
        parse_tables(path)


@pytest.mark.parametrize("row_type", [PowerRow, CoverageRow])
def test_study_columns_are_the_row_fields_in_order(tmp_path, row_type):
    result = _POWER if row_type is PowerRow else _COVERAGE
    path = tmp_path / "table.csv"
    emit_tables(result, path)
    header = path.read_text().splitlines()[0]
    assert header.split(",") == ["study"] + [f.name for f in fields(row_type)]


def test_study_tables_keep_their_bytes(tmp_path):
    power, coverage = tmp_path / "power.csv", tmp_path / "coverage.csv"
    emit_tables(_POWER, power)
    emit_tables(_COVERAGE, coverage)
    assert power.read_bytes() == (
        b"study,n_units,n_times,lag,effect,method,replicates,rejections,rate,stderr\r\n"
        b"power,16,2,0,0.4,mcrts_z,6,2,0.3333333333333333,0.19245008972987526\r\n"
        b"power,16,2,0,0.4,bonferroni,6,0,0.0,0.0\r\n"
    )
    assert coverage.read_bytes() == (
        b"study,n_units,n_times,interaction,level,lag,effect,method,replicates,"
        b"covered,coverage,stderr,mean_length,empty_sets\r\n"
        b"coverage,24,3,1,0.9,1,0.3,weighted_z,4,3,0.75,0.21650635094610965,0.625,0\r\n"
        b"coverage,24,3,1,0.9,1,0.3,fisher,4,3,0.75,0.21650635094610965,inf,1\r\n"
    )


def test_empty_study_table_round_trips(tmp_path):
    path = tmp_path / "power.csv"
    emit_tables(StudyResult("power", ()), path)
    assert parse_tables(path) == StudyResult("power", ())
