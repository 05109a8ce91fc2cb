import csv
import io
import json
import re
import tracemalloc

import numpy as np
import pytest

from feedback_kmeans import (
    FEATURE_NAMES,
    CustomizabilityFeedback,
    Dataset,
    OracleProfile,
    demo_generator_config,
    generate,
    lloyd,
    KMeansConfig,
    read_csv,
    read_report,
    write_csv,
    write_report,
)
from feedback_kmeans.harness import CellFailure, ExperimentReport, ImpactRecord
from feedback_kmeans.ingest import _BLOCK_RECORDS, OPTIONAL_COLUMNS, REPORT_COLUMNS


@pytest.fixture
def sample_dataset():
    return generate(demo_generator_config(n_points=80, seed=17))


# ---------------------------------------------------------------- dataset csv

def test_dataset_round_trip(tmp_path, sample_dataset):
    path = tmp_path / "dataset.csv"
    write_csv(sample_dataset, path)
    loaded = read_csv(path)
    np.testing.assert_array_equal(loaded.points, sample_dataset.points)
    np.testing.assert_array_equal(loaded.bookings, sample_dataset.bookings)
    np.testing.assert_array_equal(loaded.hidden_segment, sample_dataset.hidden_segment)
    assert loaded.origins == sample_dataset.origins
    assert loaded.destinations == sample_dataset.destinations


def test_byte_order_mark_is_skipped(tmp_path, sample_dataset):
    # The mark used to stay in the first header cell, so "distance" read
    # as missing.
    path = tmp_path / "dataset.csv"
    write_csv(sample_dataset, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    loaded = read_csv(path)
    np.testing.assert_array_equal(loaded.points, sample_dataset.points)
    np.testing.assert_array_equal(loaded.bookings, sample_dataset.bookings)


def test_non_utf8_dataset_names_the_file(tmp_path, sample_dataset):
    # The decoder's error used to pass through without the file.
    path = tmp_path / "dataset.csv"
    write_csv(sample_dataset, path)
    lines = path.read_bytes().split(b"\n")
    path.write_bytes(b"\n".join(lines[:1] + [b"\xff" + lines[1]] + lines[2:]))
    with pytest.raises(ValueError, match=r"dataset\.csv: 'utf-8' codec can't decode byte 0xff"):
        read_csv(path)


def test_missing_column_is_named(tmp_path, sample_dataset):
    path = tmp_path / "dataset.csv"
    write_csv(sample_dataset, path)
    lines = path.read_text().splitlines()
    header = lines[0].replace("stay_duration", "stay")
    path.write_text("\n".join([header] + lines[1:]))
    with pytest.raises(ValueError, match="stay_duration"):
        read_csv(path)


def test_unknown_column_warns(tmp_path, sample_dataset):
    path = tmp_path / "dataset.csv"
    write_csv(sample_dataset, path)
    lines = path.read_text().splitlines()
    patched = [lines[0] + ",mystery"] + [line + ",x" for line in lines[1:]]
    path.write_text("\n".join(patched))
    with pytest.warns(UserWarning, match="mystery"):
        loaded = read_csv(path)
    np.testing.assert_array_equal(loaded.points, sample_dataset.points)


@pytest.mark.parametrize("column", ["distance", "bookings", "mystery"])
def test_repeated_column_is_named(tmp_path, sample_dataset, column):
    path = tmp_path / "dataset.csv"
    write_csv(sample_dataset, path)
    lines = path.read_text().splitlines()
    if column == "mystery":
        lines = [lines[0] + ",mystery,mystery"] + [line + ",x,y" for line in lines[1:]]
    else:
        lines = [lines[0] + f",{column}"] + [line + ",0" for line in lines[1:]]
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=rf"repeated column\(s\): {column}$"):
        read_csv(path)


def test_non_numeric_cell_reports_line_number(tmp_path, sample_dataset):
    path = tmp_path / "dataset.csv"
    write_csv(sample_dataset, path)
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[0] = "not-a-number"
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match="line 4"):
        read_csv(path)


def test_line_numbers_count_the_lines_of_a_quoted_cell(tmp_path, sample_dataset):
    # Line 3's extra cell holds a line break, so its record ends on line 4
    # and the bad row is file line 5; counting records reads line 4.
    path = tmp_path / "dataset.csv"
    write_csv(sample_dataset, path)
    lines = path.read_text().splitlines()[:5]
    lines = [lines[0] + ",note", lines[1] + ",x", lines[2] + ',"two\nlines"', lines[3] + ",x", lines[4] + ",x"]
    _set_cell(lines, 4, "distance", "x")
    path.write_text("\n".join(lines))
    assert path.read_text().splitlines()[4].startswith("x,")
    with pytest.warns(UserWarning, match="note"), pytest.raises(ValueError) as excinfo:
        read_csv(path)
    assert str(excinfo.value) == f"{path}: rejected rows: line 5: non-numeric feature value"


def test_non_finite_cells_report_line_numbers(tmp_path, sample_dataset):
    path = tmp_path / "dataset.csv"
    write_csv(sample_dataset, path)
    lines = path.read_text().splitlines()
    for line_index, cell in ((2, "nan"), (5, "inf"), (6, "-Infinity")):
        cells = lines[line_index].split(",")
        cells[1] = cell
        lines[line_index] = ",".join(cells)
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError) as excinfo:
        read_csv(path)
    message = str(excinfo.value)
    for line_no in (3, 6, 7):
        assert f"line {line_no}: non-finite feature value" in message


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_csv(path)
    path.write_text("distance,advance_purchase,stay_duration,n_passengers,n_children,geography,dep_dow,ret_dow\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_csv(path)


def test_features_only_file_loads_then_oracle_rejects(tmp_path, sample_dataset):
    path = tmp_path / "bare.csv"
    bare = type(sample_dataset)(
        points=sample_dataset.points,
        feature_names=sample_dataset.feature_names,
    )
    write_csv(bare, path)
    loaded = read_csv(path)
    assert loaded.bookings is None and loaded.hidden_segment is None
    profile = OracleProfile(segment_weights={0: np.array([1.0, 0.0])})
    provider = CustomizabilityFeedback(profile)
    clustering = lloyd(loaded, KMeansConfig(k=2, seed=0))
    with pytest.raises(ValueError, match="generator-labeled"):
        provider.evaluate(loaded, clustering, provider.evaluation_rng(0))


def test_non_integer_bookings_cell_names_the_column(tmp_path, sample_dataset):
    path = tmp_path / "dataset.csv"
    write_csv(sample_dataset, path)
    lines = path.read_text().splitlines()
    bookings = lines[0].split(",").index("bookings")
    cells = lines[1].split(",")
    cells[bookings] = "2.5"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match="bookings column"):
        read_csv(path)


def _set_cell(lines, line_no, column, cell):
    """Replace one cell of a written CSV's lines, by file line number."""
    cells = lines[line_no - 1].split(",")
    cells[lines[0].split(",").index(column)] = cell
    lines[line_no - 1] = ",".join(cells)


@pytest.mark.parametrize(
    "column, cell, message",
    [
        ("bookings", "99999999999999999999999", "99999999999999999999999 does not fit in 64 bits"),
        ("hidden_segment", "-99999999999999999999999", "-99999999999999999999999 does not fit in 64 bits"),
        ("bookings", "-3", "must be non-negative, got -3"),
    ],
    ids=["huge-bookings", "huge-segment", "negative-bookings"],
)
def test_bad_integer_cell_names_file_column_and_first_line(tmp_path, sample_dataset, column, cell, message):
    path = tmp_path / "dataset.csv"
    write_csv(sample_dataset, path)
    lines = path.read_text().splitlines()
    for line_no in (6, 9):
        _set_cell(lines, line_no, column, cell)
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {column} column: line 6: {message}$"):
        read_csv(path)


@pytest.fixture
def two_block_dataset():
    return generate(demo_generator_config(n_points=_BLOCK_RECORDS + 60, seed=5))


def test_bad_rows_across_a_block_boundary_keep_their_line_numbers(tmp_path, two_block_dataset):
    path = tmp_path / "dataset.csv"
    write_csv(two_block_dataset, path)
    lines = path.read_text().splitlines()
    # A blank record in the first block still counts as a line; the first
    # block then ends at line _BLOCK_RECORDS + 1.
    lines.insert(99, "")
    last_of_first = _BLOCK_RECORDS + 1
    _set_cell(lines, 40, "distance", "x")
    _set_cell(lines, last_of_first, "stay_duration", "nan")
    lines[last_of_first] += ",1"
    _set_cell(lines, last_of_first + 30, "distance", "x")
    _set_cell(lines, 20, "bookings", "-1")
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError) as excinfo:
        read_csv(path)
    assert str(excinfo.value) == (
        f"{path}: rejected rows: line 40: non-numeric feature value; "
        f"line {last_of_first}: non-finite feature value; "
        f"line {last_of_first + 1}: expected 12 cells, got 13; "
        f"line {last_of_first + 30}: non-numeric feature value"
    )


def test_column_errors_come_in_column_order_across_blocks(tmp_path, two_block_dataset):
    path = tmp_path / "dataset.csv"
    write_csv(two_block_dataset, path)
    lines = path.read_text().splitlines()
    lines.insert(99, "")
    _set_cell(lines, 30, "hidden_segment", "x")
    _set_cell(lines, _BLOCK_RECORDS + 20, "bookings", "1.5")
    _set_cell(lines, _BLOCK_RECORDS + 40, "bookings", "-1")
    path.write_text("\n".join(lines))
    expected = rf"^{re.escape(str(path))}: bookings column: line {_BLOCK_RECORDS + 20}: invalid literal"
    with pytest.raises(ValueError, match=expected):
        read_csv(path)


def test_file_longer_than_a_block_round_trips_bit_for_bit(tmp_path):
    dataset = generate(demo_generator_config(n_points=2 * _BLOCK_RECORDS + 7, seed=9))
    path = tmp_path / "dataset.csv"
    write_csv(dataset, path)
    loaded = read_csv(path)
    assert loaded.points.tobytes() == dataset.points.tobytes()
    assert loaded.bookings.tobytes() == dataset.bookings.tobytes()
    assert loaded.hidden_segment.tobytes() == dataset.hidden_segment.tobytes()
    assert loaded.origins == dataset.origins
    assert loaded.destinations == dataset.destinations


def test_codes_are_shared_str_objects(tmp_path, sample_dataset):
    path = tmp_path / "dataset.csv"
    write_csv(sample_dataset, path)
    loaded = read_csv(path, standardize=True)
    for codes in (loaded.origins, loaded.destinations):
        assert len({id(code) for code in codes}) == len(set(codes))


def test_reading_20k_rows_peaks_below_12_mb(tmp_path):
    # The loaded dataset's arrays hold about 1.8 MB; the parse holds one
    # block's cells at a time, not the file's.
    path = tmp_path / "dataset.csv"
    write_csv(generate(demo_generator_config(n_points=20_000, seed=13)), path)
    tracemalloc.start()
    try:
        read_csv(path, standardize=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def _one_pass_bytes(dataset, names):
    """The file as one csv.writer pass writes it: every row at once, repr
    of each feature and str of each other cell."""
    columns = [map(repr, column) for column in dataset.points.T.tolist()]
    columns += [map(str, getattr(dataset, OPTIONAL_COLUMNS[name][0])) for name in names]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow([*dataset.feature_names, *names])
    writer.writerows(zip(*columns))
    return expected.getvalue().encode("utf-8")


@pytest.mark.parametrize("carried", [True, False])
def test_write_csv_in_blocks_writes_the_one_pass_bytes(tmp_path, carried):
    dataset = generate(demo_generator_config(n_points=2 * _BLOCK_RECORDS + 7, seed=9))
    if not carried:
        dataset = Dataset(points=dataset.points, feature_names=dataset.feature_names)
    path = tmp_path / "dataset.csv"
    write_csv(dataset, path)
    names = [name for name, (attr, _) in OPTIONAL_COLUMNS.items() if getattr(dataset, attr) is not None]
    assert path.read_bytes() == _one_pass_bytes(dataset, names)
    assert len(names) == (4 if carried else 0)


def test_write_csv_quotes_codes_as_csv_writer_does(tmp_path):
    # Each distinct code's cell is csv.writer's own quoting of it, in a
    # file of two blocks.
    odd = ("a,b", 'say "hi"', "two\r\nlines", "", "  padded  ", "Zürich–東京", "plain", "\n", '"')
    n = _BLOCK_RECORDS + 30
    rng = np.random.default_rng(4)
    dataset = Dataset(
        points=rng.standard_normal((n, len(FEATURE_NAMES))) * 1e3,
        feature_names=FEATURE_NAMES,
        bookings=rng.integers(0, 500, n),
        hidden_segment=rng.integers(-3, 3, n),
        origins=tuple(odd[i % len(odd)] for i in range(n)),
        destinations=tuple(odd[(5 * i + 2) % len(odd)] for i in range(n)),
    )
    path = tmp_path / "dataset.csv"
    write_csv(dataset, path)
    assert path.read_bytes() == _one_pass_bytes(dataset, list(OPTIONAL_COLUMNS))
    loaded = read_csv(path)
    assert loaded.points.tobytes() == dataset.points.tobytes()
    assert loaded.origins == dataset.origins
    assert loaded.destinations == dataset.destinations
    np.testing.assert_array_equal(loaded.hidden_segment, dataset.hidden_segment)


def test_writing_20k_rows_peaks_below_3_mb(tmp_path):
    # The points array holds 1.3 MB; the writer holds one block's cells.
    dataset = generate(demo_generator_config(n_points=20_000, seed=13))
    tracemalloc.start()
    try:
        write_csv(dataset, tmp_path / "dataset.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_standardize_option(tmp_path, sample_dataset):
    path = tmp_path / "dataset.csv"
    write_csv(sample_dataset, path)
    loaded = read_csv(path, standardize=True)
    stds = loaded.points.std(axis=0)
    varying = sample_dataset.points.std(axis=0) > 0
    np.testing.assert_allclose(loaded.points.mean(axis=0)[varying], 0.0, atol=1e-9)
    np.testing.assert_allclose(stds[varying], 1.0, atol=1e-9)


# ---------------------------------------------------------------- reports

def _report():
    records = (
        ImpactRecord(
            method="sme:rss",
            k=3,
            seed=12345,
            driving_feedback="rss",
            initial_eval=2.5,
            best_eval=2.0,
            impact=0.2,
            custom_initial=0.31,
            custom_reference=0.37,
            custom_impact=0.1935483870967742,
            final_k=3,
            stalled=False,
        ),
        ImpactRecord(
            method="sm:custom",
            k=2,
            seed=999,
            driving_feedback="custom",
            initial_eval=0.4,
            best_eval=0.52,
            impact=0.3,
            custom_initial=0.4,
            custom_reference=0.52,
            custom_impact=0.3,
            final_k=5,
            stalled=False,
        ),
        # An RSS-driven cell of an experiment run without an oracle.
        ImpactRecord(
            method="sm:rss",
            k=4,
            seed=7,
            driving_feedback="rss",
            initial_eval=1.25,
            best_eval=1.0,
            impact=0.2,
            custom_initial=None,
            custom_reference=None,
            custom_impact=None,
            final_k=4,
            stalled=True,
        ),
    )
    failures = (CellFailure(method="sm:rss", k=7, seed=5, error="ValueError: boom"),)
    return ExperimentReport(records=records, failures=failures, fluctuation_by_k={2: 0.01})


def test_report_round_trip_csv(tmp_path):
    report = _report()
    path = tmp_path / "report.csv"
    write_report(report, path, format="csv")
    loaded = read_report(path)
    assert loaded == report.record_dicts()
    assert path.read_text().splitlines()[3] == "sm:rss,4,7,rss,1.25,1.0,0.2,,,,4,true"


def test_report_round_trip_json(tmp_path):
    report = _report()
    path = tmp_path / "report.json"
    write_report(report, path, format="json")
    loaded = read_report(path)
    assert loaded == report.record_dicts()


def test_report_formats_agree_field_by_field(tmp_path):
    report = _report()
    write_report(report, tmp_path / "report.csv", format="csv")
    write_report(report, tmp_path / "report.json", format="json")
    from_csv = read_report(tmp_path / "report.csv")
    from_json = read_report(tmp_path / "report.json")
    assert len(from_csv) == len(from_json)
    for a, b in zip(from_csv, from_json):
        for col in REPORT_COLUMNS:
            va, vb = a[col], b[col]
            if isinstance(va, float):
                assert abs(va - vb) <= 1e-12
            else:
                assert va == vb


def test_empty_report_is_header_only(tmp_path):
    report = ExperimentReport(records=(), failures=())
    path = tmp_path / "report.csv"
    write_report(report, path, format="csv")
    lines = path.read_text().splitlines()
    assert lines == [",".join(REPORT_COLUMNS)]
    assert read_report(path) == []


@pytest.mark.parametrize(
    "content, message",
    [("", "empty report file"), ("method,k\r\nsme:rss,2\r\n", "unexpected report header ['method', 'k']")],
)
def test_report_csv_without_its_header_names_the_file(tmp_path, content, message):
    path = tmp_path / "report.csv"
    path.write_text(content)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        read_report(path)


def test_non_utf8_report_names_the_file(tmp_path):
    path = tmp_path / "report.csv"
    write_report(_report(), path, format="csv")
    path.write_bytes(path.read_bytes().replace(b"sme:rss", b"sme:\xffss", 1))
    with pytest.raises(ValueError, match=r"report\.csv: 'utf-8' codec can't decode byte 0xff"):
        read_report(path)


def test_report_row_with_wrong_cell_count_is_rejected(tmp_path):
    path = tmp_path / "report.csv"
    write_report(_report(), path, format="csv")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + ["sme:rss,2,1"] + lines[2:]) + "\n")
    with pytest.raises(ValueError, match=f"report.csv: line 3: expected {len(REPORT_COLUMNS)} cells, got 3"):
        read_report(path)
    path.write_text("\n".join(lines[:2] + [lines[2] + ",extra"]) + "\n")
    with pytest.raises(ValueError, match="line 3: expected"):
        read_report(path)


@pytest.mark.parametrize(
    "column, cell",
    [("k", "x"), ("seed", "1.5"), ("impact", "high"), ("stalled", "maybe")],
)
def test_report_bad_cell_names_line_and_column(tmp_path, column, cell):
    path = tmp_path / "report.csv"
    write_report(_report(), path, format="csv")
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[REPORT_COLUMNS.index(column)] = cell
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"report.csv: line 3: {column}: .*{cell}") as excinfo:
        read_report(path)
    if column == "stalled":  # a KeyError's bare 'maybe' did not say what was expected
        assert str(excinfo.value).endswith("line 3: stalled: expected true or false, got 'maybe'")


def test_report_line_numbers_count_the_lines_of_a_quoted_cell(tmp_path):
    path = tmp_path / "report.csv"
    write_report(_report(), path, format="csv")
    lines = path.read_text().splitlines()
    for line_index, column, cell in ((1, "driving_feedback", '"r\nss"'), (2, "k", "x")):
        cells = lines[line_index].split(",")
        cells[REPORT_COLUMNS.index(column)] = cell
        lines[line_index] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="report.csv: line 4: k: invalid literal"):
        read_report(path)


def test_report_empty_cell_is_null_only_for_custom_fields(tmp_path):
    path = tmp_path / "report.csv"
    write_report(_report(), path, format="csv")
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[REPORT_COLUMNS.index("custom_impact")] = ""
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert read_report(path)[1]["custom_impact"] is None
    cells[REPORT_COLUMNS.index("k")] = ""
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="report.csv: line 3: k: invalid literal"):
        read_report(path)


def _write_json_report(tmp_path, payload):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("payload", [{}, {"records": {"k": 2}}, [1, 2]])
def test_json_report_without_records_list_is_rejected(tmp_path, payload):
    path = _write_json_report(tmp_path, payload)
    with pytest.raises(ValueError, match='report.json: expected an object with a "records" list'):
        read_report(path)


def test_json_report_that_is_not_json_names_the_file(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="report.json: Expecting property name"):
        read_report(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("k", "x", "k: expected int, got str"),
        ("k", True, "k: expected int, got bool"),
        ("seed", 1.5, "seed: expected int, got float"),
        ("impact", "high", "impact: expected float, got str"),
        ("impact", False, "impact: expected float, got bool"),
        ("custom_impact", True, "custom_impact: expected float, got bool"),
        pytest.param("best_eval", 10**400, "best_eval: int too large to convert to float", id="huge-int"),
        ("stalled", 1, "stalled: expected bool, got int"),
        ("method", None, "method: expected str, got NoneType"),
        ("final_k", None, "final_k: expected int, got NoneType"),
    ],
)
def test_json_report_bad_field_names_record_and_field(tmp_path, field, value, message):
    records = _report().record_dicts()
    records[1][field] = value
    path = _write_json_report(tmp_path, {"records": records})
    with pytest.raises(ValueError, match=f"report.json: record 1: {message}$"):
        read_report(path)


def test_json_report_missing_or_extra_field_is_rejected(tmp_path):
    records = _report().record_dicts()
    del records[0]["seed"], records[0]["stalled"]
    path = _write_json_report(tmp_path, {"records": records})
    with pytest.raises(ValueError, match="report.json: record 0: missing field\\(s\\): seed, stalled$"):
        read_report(path)
    records = _report().record_dicts()
    records[1]["note"] = "x"
    path = _write_json_report(tmp_path, {"records": records})
    with pytest.raises(ValueError, match="report.json: record 1: unexpected field\\(s\\): note$"):
        read_report(path)
    path = _write_json_report(tmp_path, {"records": [3]})
    with pytest.raises(ValueError, match="report.json: record 0: expected an object, got int$"):
        read_report(path)


def test_json_report_takes_null_custom_fields_and_integral_floats(tmp_path):
    records = _report().record_dicts()
    records[0].update(custom_initial=None, custom_reference=None, custom_impact=None)
    records[1]["impact"] = 0
    loaded = read_report(_write_json_report(tmp_path, {"records": records}))
    assert loaded[0] == records[0]
    assert loaded[1]["impact"] == 0.0 and isinstance(loaded[1]["impact"], float)


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="format"):
        write_report(_report(), tmp_path / "report.xml", format="xml")
