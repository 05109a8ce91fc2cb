"""Dataset and report I/O: the boundary where real data would enter.

All files are UTF-8. Floats are written with repr precision so write/read
round-trips are exact. The dataset CSV is written in joined blocks, byte
for byte as one csv.writer pass writes it: repr and str cells, which never
need quoting, and each distinct code quoted once by csv.writer itself; it
is read in blocks into typed buffers. Its optional columns are listed
once, in OPTIONAL_COLUMNS; the report CSV's columns are ImpactRecord's
fields, in declaration order. Report emissions use that fixed column
order and sorted JSON keys, so identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
import operator
import typing
import warnings
from array import array
from pathlib import Path

import numpy as np

from .core import Dataset, named_errors, read_json
from .harness import ExperimentReport, ImpactRecord
from .synth import FEATURE_NAMES
from .synth import standardize as _standardize


def _non_negative(cell: str) -> int:
    value = int(cell)
    if value < 0:
        raise ValueError(f"must be non-negative, got {value}")
    return value


# The dataset CSV's optional columns, in file order: CSV header -> (Dataset
# attribute, cell parser). write_csv writes the ones a dataset carries and
# read_csv loads the ones a file has.
OPTIONAL_COLUMNS = {
    "bookings": ("bookings", _non_negative),
    "hidden_segment": ("hidden_segment", int),
    "origin": ("origins", str),
    "destination": ("destinations", str),
}

# Records that read_csv reads and parses, and write_csv writes, at a time;
# each holds one block's cells, never the whole file's.
_BLOCK_RECORDS = 4096

REPORT_COLUMNS = tuple(f.name for f in dataclasses.fields(ImpactRecord))


def _numbered(reader) -> typing.Iterator[tuple[int, list[str]]]:
    """Each record of a csv.reader with the file line it starts on; a
    quoted cell may hold line breaks, so one record can span lines."""
    start = reader.line_num + 1
    for row in reader:
        yield start, row
        start = reader.line_num + 1


def _code_cells(codes: tuple[str, ...]) -> dict[str, str]:
    """Each distinct code's cell text, as csv.writer quotes it: the row
    [code, ""] written once, less its trailing ",\\r\\n"."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    cells = {}
    for code in dict.fromkeys(codes):
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([code, ""])
        cells[code] = buffer.getvalue()[:-3]
    return cells


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset: its feature columns, then whichever of the
    OPTIONAL_COLUMNS it carries, _BLOCK_RECORDS rows at a time, each block
    joined and written at once. The bytes are those of one csv.writer pass:
    repr and str cells never need quoting, and a code's cell is its
    _code_cells text."""
    carried = {name: getattr(dataset, attr) for name, (attr, _) in OPTIONAL_COLUMNS.items()}
    optional = {name: values for name, values in carried.items() if values is not None}
    code_cells = {name: _code_cells(codes) for name, codes in optional.items() if OPTIONAL_COLUMNS[name][1] is str}
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerow([*dataset.feature_names, *optional])
        for start in range(0, dataset.n_points, _BLOCK_RECORDS):
            block = slice(start, start + _BLOCK_RECORDS)
            columns = [map(repr, column) for column in dataset.points[block].T.tolist()]
            for name, values in optional.items():
                if name in code_cells:
                    columns.append(map(code_cells[name].__getitem__, values[block]))
                else:
                    columns.append(map(str, values[block].tolist()))
            handle.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def read_csv(path: str | Path, standardize: bool = False) -> Dataset:
    """Load a dataset CSV with the 8-feature schema.

    Each of the OPTIONAL_COLUMNS loads when the file has it; unrecognized
    columns are ignored with a warning. Repeated column names, non-numeric
    and non-finite (nan, inf) feature cells fail the load, cells with the
    file line their record starts on, all bad rows together. Otherwise an
    integer cell that is not an integer, does not fit in 64 bits or is a
    negative bookings count fails it, naming its column and the line of
    the column's first such cell. A leading UTF-8 byte-order mark is
    skipped.

    The file is read _BLOCK_RECORDS records at a time: the features go into
    one float buffer that becomes the points, the integer columns into
    64-bit buffers, and each code cell is replaced by one shared str per
    distinct code.
    """
    path = Path(path)
    with named_errors(path, UnicodeDecodeError), open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        repeated = sorted({h for h in header if header.count(h) > 1})
        if repeated:
            raise ValueError(f"{path}: repeated column(s): {', '.join(repeated)}")
        missing = [name for name in FEATURE_NAMES if name not in header]
        if missing:
            raise ValueError(f"{path}: missing required column(s): {', '.join(missing)}")
        unknown = [h for h in header if h not in FEATURE_NAMES and h not in OPTIONAL_COLUMNS]
        if unknown:
            warnings.warn(f"{path}: ignoring unrecognized column(s): {', '.join(unknown)}")
        col_index = {name: header.index(name) for name in header if name not in unknown}

        pick_features = operator.itemgetter(*(col_index[name] for name in FEATURE_NAMES))
        features = array("d")
        # Each loaded optional column: (cell index, values, parser).
        loaded = {
            name: (col_index[name], [] if parse is str else array("q"), parse)
            for name, (_, parse) in OPTIONAL_COLUMNS.items()
            if name in col_index
        }
        codes = {}
        bad_rows = []
        column_errors = {}
        records = _numbered(reader)
        while True:
            # Records are taken one by one, so the block holds only the
            # kept rows; a block that reads no line ends the file.
            kept, kept_lines, first_line = [], [], reader.line_num
            for line_no, row in itertools.islice(records, _BLOCK_RECORDS):
                if not row:
                    continue
                if len(row) != len(header):
                    bad_rows.append(f"line {line_no}: expected {len(header)} cells, got {len(row)}")
                    continue
                try:
                    floats = tuple(map(float, pick_features(row)))
                except ValueError:
                    bad_rows.append(f"line {line_no}: non-numeric feature value")
                    continue
                if not all(map(math.isfinite, floats)):
                    bad_rows.append(f"line {line_no}: non-finite feature value")
                    continue
                features.extend(floats)
                kept.append(row)
                kept_lines.append(line_no)
            if reader.line_num == first_line:
                break
            for name, (col, values, parse) in loaded.items():
                if name in column_errors:
                    continue
                cells = [row[col] for row in kept]
                start = len(values)
                try:
                    values.extend(map(codes.setdefault, cells, cells) if parse is str else map(parse, cells))
                except (ValueError, OverflowError) as exc:
                    # extend keeps the values parsed before the failing cell.
                    failed = len(values) - start
                    message = f"{cells[failed]} does not fit in 64 bits" if isinstance(exc, OverflowError) else exc
                    column_errors[name] = f"line {kept_lines[failed]}: {message}"
        if bad_rows:
            raise ValueError(f"{path}: rejected rows: " + "; ".join(bad_rows))
        if not features:
            raise ValueError(f"{path}: no data rows")

    for name in OPTIONAL_COLUMNS:
        if name in column_errors:
            raise ValueError(f"{path}: {name} column: {column_errors[name]}")
    # Read-only, so the Dataset shares the buffer instead of copying it.
    points = np.frombuffer(features).reshape(-1, len(FEATURE_NAMES))
    points.setflags(write=False)
    extras = {OPTIONAL_COLUMNS[name][0]: values for name, (_, values, _) in loaded.items()}
    dataset = Dataset(points=points, feature_names=FEATURE_NAMES, **extras)
    if standardize:
        dataset, _ = _standardize(dataset)
    return dataset


def _record_to_row(record: dict) -> list[str]:
    row = []
    for col in REPORT_COLUMNS:
        value = record.get(col)
        if value is None:
            row.append("")
        elif isinstance(value, bool):
            row.append("true" if value else "false")
        elif isinstance(value, float):
            row.append(repr(value))
        else:
            row.append(str(value))
    return row


# ImpactRecord's field types. Only the optional custom_* fields may be None
# (an empty CSV cell, a JSON null).
_REPORT_TYPES = typing.get_type_hints(ImpactRecord)
_NULLABLE = {name for name, hint in _REPORT_TYPES.items() if type(None) in typing.get_args(hint)}

# Each report column's cell parser, from its field type; the optional
# custom_* floats take the float default. A bad cell raises ValueError, or
# KeyError for a bool cell other than true/false.
_REPORT_PARSERS = {
    name: {int: int, str: str, bool: {"true": True, "false": False}.__getitem__}.get(hint, float)
    for name, hint in _REPORT_TYPES.items()
}


def _row_to_record(row: list[str], where: str) -> dict:
    if len(row) != len(REPORT_COLUMNS):
        raise ValueError(f"{where}: expected {len(REPORT_COLUMNS)} cells, got {len(row)}")
    record = {}
    for col, cell in zip(REPORT_COLUMNS, row):
        with named_errors(f"{where}: {col}", KeyError, ValueError):
            record[col] = None if cell == "" and col in _NULLABLE else _REPORT_PARSERS[col](cell)
    return record


def _json_value(col: str, value):
    """A JSON report value checked against its ImpactRecord field type. bool
    is a subclass of int, so it is rejected by name where it is not the
    type, and float fields also take an integer."""
    if value is None and col in _NULLABLE:
        return None
    hint = _REPORT_TYPES[col]
    expected = typing.get_args(hint)[0] if col in _NULLABLE else hint
    accepted = (int, float) if expected is float else expected
    if not isinstance(value, accepted) or (isinstance(value, bool) and expected is not bool):
        raise ValueError(f"expected {expected.__name__}, got {type(value).__name__}")
    return float(value) if expected is float else value


def _json_to_record(item, where: str) -> dict:
    if not isinstance(item, dict):
        raise ValueError(f"{where}: expected an object, got {type(item).__name__}")
    missing = [col for col in REPORT_COLUMNS if col not in item]
    if missing:
        raise ValueError(f"{where}: missing field(s): {', '.join(missing)}")
    extra = sorted(set(item) - set(REPORT_COLUMNS))
    if extra:
        raise ValueError(f"{where}: unexpected field(s): {', '.join(extra)}")
    record = {}
    for col in REPORT_COLUMNS:
        with named_errors(f"{where}: {col}", OverflowError, ValueError):
            record[col] = _json_value(col, item[col])
    return record


def write_report(report: ExperimentReport, path: str | Path, format: str = "csv") -> None:
    """Serialize an experiment report.

    csv: one fixed-order row per impact record (failures are JSON-only).
    json: {"records": [...], "failures": [...], "fluctuation_by_k": {...}}
    with sorted keys. Either emission re-reads to equal values.
    """
    path = Path(path)
    records = report.record_dicts()
    if format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(REPORT_COLUMNS)
            for record in records:
                writer.writerow(_record_to_row(record))
    elif format == "json":
        payload = {
            "records": records,
            "failures": report.failure_dicts(),
            "fluctuation_by_k": {str(k): v for k, v in sorted((report.fluctuation_by_k or {}).items())},
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown report format {format!r} (expected 'csv' or 'json')")


def read_report(path: str | Path) -> list[dict]:
    """Read back the impact records of a report file (.csv or .json).

    Every record is checked field by field against ImpactRecord's types; a
    bad one fails the read with its CSV line or its index in the JSON
    records list.
    """
    path = Path(path)
    if path.suffix == ".json":
        payload = read_json(path, str(path))
        records = payload.get("records") if isinstance(payload, dict) else None
        if not isinstance(records, list):
            raise ValueError(f"{path}: expected an object with a \"records\" list")
        return [_json_to_record(item, f"{path}: record {i}") for i, item in enumerate(records)]
    with named_errors(path, UnicodeDecodeError), open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty report file")
        if tuple(header) != REPORT_COLUMNS:
            raise ValueError(f"{path}: unexpected report header {header}")
        return [_row_to_record(row, f"{path}: line {line_no}") for line_no, row in _numbered(reader) if row]
