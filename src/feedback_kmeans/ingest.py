"""Dataset and report I/O: the boundary where real data would enter.

All files are UTF-8. Floats are written with repr precision so write/read
round-trips are exact; report emissions use a fixed column order and
sorted JSON keys so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core import Dataset
from .synth import FEATURE_NAMES
from .synth import standardize as _standardize

if TYPE_CHECKING:  # pragma: no cover
    from .harness import ExperimentReport

OPTIONAL_COLUMNS = ("bookings", "hidden_segment", "origin", "destination")

REPORT_COLUMNS = (
    "method",
    "k",
    "seed",
    "driving_feedback",
    "initial_eval",
    "best_eval",
    "impact",
    "custom_initial",
    "custom_reference",
    "custom_impact",
    "final_k",
    "stalled",
)


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset: the 8 feature columns plus whichever of
    bookings/hidden_segment/origin/destination are present."""
    header = list(dataset.feature_names)
    columns: list = [dataset.points[:, i] for i in range(dataset.n_features)]
    if dataset.bookings is not None:
        header.append("bookings")
        columns.append(dataset.bookings)
    if dataset.hidden_segment is not None:
        header.append("hidden_segment")
        columns.append(dataset.hidden_segment)
    if dataset.origins is not None:
        header.append("origin")
        columns.append(dataset.origins)
    if dataset.destinations is not None:
        header.append("destination")
        columns.append(dataset.destinations)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row_idx in range(dataset.n_points):
            row = []
            for col in columns:
                value = col[row_idx]
                if isinstance(value, str):
                    row.append(value)
                elif isinstance(value, (np.integer, int)):
                    row.append(str(int(value)))
                else:
                    row.append(repr(float(value)))
            writer.writerow(row)


def read_csv(
    path: str | Path,
    has_hidden_columns: bool = True,
    standardize: bool = False,
) -> Dataset:
    """Load a dataset CSV with the 8-feature schema.

    Known extra columns (bookings, hidden_segment, origin, destination) are
    loaded when has_hidden_columns is true; unrecognized columns are ignored
    with a warning. Non-numeric and non-finite (nan, inf) feature cells fail
    the load with their file line numbers.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        missing = [name for name in FEATURE_NAMES if name not in header]
        if missing:
            raise ValueError(f"{path}: missing required column(s): {', '.join(missing)}")
        unknown = [h for h in header if h not in FEATURE_NAMES and h not in OPTIONAL_COLUMNS]
        if unknown:
            warnings.warn(f"{path}: ignoring unrecognized column(s): {', '.join(unknown)}")
        col_index = {name: header.index(name) for name in header if name not in unknown}

        feature_cols = [col_index[name] for name in FEATURE_NAMES]
        rows = []
        features = []
        bad_rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                bad_rows.append(f"line {line_no}: expected {len(header)} cells, got {len(row)}")
                continue
            try:
                values = [float(row[col]) for col in feature_cols]
            except ValueError:
                bad_rows.append(f"line {line_no}: non-numeric feature value")
                continue
            if not all(map(math.isfinite, values)):
                bad_rows.append(f"line {line_no}: non-finite feature value")
                continue
            rows.append(row)
            features.append(values)
        if bad_rows:
            raise ValueError(f"{path}: rejected rows: " + "; ".join(bad_rows))
        if not rows:
            raise ValueError(f"{path}: no data rows")

    points = np.array(features)
    bookings = hidden = origins = destinations = None
    if has_hidden_columns:
        if "bookings" in col_index:
            raw = [row[col_index["bookings"]] for row in rows]
            try:
                bookings = np.array([int(v) for v in raw], dtype=np.int64)
            except ValueError:
                raise ValueError(f"{path}: bookings column contains non-integer values") from None
        if "hidden_segment" in col_index:
            raw = [row[col_index["hidden_segment"]] for row in rows]
            try:
                hidden = np.array([int(v) for v in raw], dtype=np.int64)
            except ValueError:
                raise ValueError(f"{path}: hidden_segment column contains non-integer values") from None
        if "origin" in col_index:
            origins = tuple(row[col_index["origin"]] for row in rows)
        if "destination" in col_index:
            destinations = tuple(row[col_index["destination"]] for row in rows)

    dataset = Dataset(
        points=points,
        feature_names=FEATURE_NAMES,
        bookings=bookings,
        hidden_segment=hidden,
        origins=origins,
        destinations=destinations,
    )
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


def _row_to_record(row: list[str]) -> dict:
    record: dict = {}
    for col, cell in zip(REPORT_COLUMNS, row):
        if cell == "":
            record[col] = None
        elif col in ("k", "final_k"):
            record[col] = int(cell)
        elif col == "seed":
            record[col] = int(cell)
        elif col == "stalled":
            record[col] = cell == "true"
        elif col in ("method", "driving_feedback"):
            record[col] = cell
        else:
            record[col] = float(cell)
    return record


def write_report(report: "ExperimentReport", path: str | Path, format: str = "csv") -> None:
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
            "failures": [dict(f) for f in report.failure_dicts()],
            "fluctuation_by_k": {str(k): v for k, v in sorted((report.fluctuation_by_k or {}).items())},
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown report format {format!r} (expected 'csv' or 'json')")


def read_report(path: str | Path) -> list[dict]:
    """Read back the impact records of a report file (.csv or .json)."""
    path = Path(path)
    if path.suffix == ".json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        return payload["records"]
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty report file")
        if tuple(header) != REPORT_COLUMNS:
            raise ValueError(f"{path}: unexpected report header {header}")
        return [_row_to_record(row) for row in reader if row]
