import argparse
import hashlib
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from feedback_kmeans.cli import _EXPERIMENT_KEYS, build_parser, main, validate_trace_records
from feedback_kmeans.engines import read_trace_records
from feedback_kmeans.feedback import PROFILE_KEYS
from feedback_kmeans.ingest import read_report
from feedback_kmeans.synth import FEATURE_NAMES


def write_config(path, n_points=400, seed=5, noise_sigma=0.05):
    config = {
        "n_points": n_points,
        "seed": seed,
        "segments": [
            {
                "id": 0,
                "mixture_weight": 0.6,
                "feature_means": [800.0, 7.0, 2.0, 1.0, 0.0, 0.0, 1.0, 4.0],
                "feature_stddevs": [200.0, 3.0, 1.0, 0.3, 0.1, 0.3, 1.0, 1.0],
                "oracle_weights": [2.0, 0.0],
                "booking_lognormal": [3.0, 1.0],
            },
            {
                "id": 1,
                "mixture_weight": 0.4,
                "feature_means": [3000.0, 60.0, 14.0, 2.0, 0.0, 2.0, 3.0, 3.0],
                "feature_stddevs": [800.0, 15.0, 4.0, 0.5, 0.3, 0.4, 2.0, 2.0],
                "oracle_weights": [0.0, 1.5],
                "booking_lognormal": [2.5, 1.2],
            },
        ],
        "oracle": {"noise_sigma": noise_sigma, "sample_size": 40},
    }
    path.write_text(json.dumps(config))
    return path


@pytest.fixture
def generated(tmp_path):
    config = write_config(tmp_path / "config.json")
    out = tmp_path / "data"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    return out / "dataset.csv", out / "oracle.json"


# ---------------------------------------------------------------- README

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """Every feedback-kmeans command in README's bash blocks, with
    backslash continuations joined, as argument lists."""
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["feedback-kmeans"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert {c[0] for c in commands} == {"generate", "run", "experiment", "validate"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a flag README names but the CLI lacks exits 2


def subcommand_flags(command):
    """Each flag of a subcommand, mapped to its (dest, type, choices)."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.option_strings[0]: (a.dest, a.type, a.choices) for a in sub.choices[command]._actions}


def test_experiment_setting_flags_are_the_config_keys():
    flags = subcommand_flags("experiment")
    for other in ("-h", "--dataset", "--oracle", "--no-standardize", "--out", "--config"):
        del flags[other]
    assert flags == {
        "--methods": ("methods", None, None),
        "--k-values": ("k_values", None, None),
        "--repeats": ("repeats", int, None),
        "--sme-iterations": ("sme_iterations", int, None),
        "--sm-iterations": ("sm_iterations", int, None),
        "--fluctuation-calls": ("fluctuation_calls", int, None),
        "--seed": ("seed", int, None),
    }
    assert [dest for dest, _, _ in flags.values()] == list(_EXPERIMENT_KEYS)


def test_run_and_experiment_share_the_data_flags_and_name_the_engine_choices():
    run, experiment = subcommand_flags("run"), subcommand_flags("experiment")
    for flag in ("--dataset", "--oracle", "--no-standardize"):
        assert run[flag] == experiment[flag]
    assert run["--method"][2] == subcommand_flags("validate")["--method"][2] == ["sme", "sm"]
    assert run["--feedback"][2] == ["rss", "custom"]


def test_readme_oracle_key_lists_match_the_profile_keys():
    text = README.read_text(encoding="utf-8")
    profile = re.search(r"The oracle profile JSON holds exactly\s+`\{(.*?)\}`", text, re.S).group(1)
    block = re.search(r"optional\s+`oracle`\s+block\s+\((.*?)\)", text, re.S).group(1)
    assert re.findall(r"(\w+)(?:: \{.*?\})?,?", profile) == list(PROFILE_KEYS)
    assert re.findall(r"`(\w+)`", block) == [key for key in PROFILE_KEYS if key not in ("m", "segments")]


# ---------------------------------------------------------------- generate

def test_generate_writes_files_and_summary(tmp_path, capsys):
    config = write_config(tmp_path / "config.json")
    out = tmp_path / "data"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert (out / "dataset.csv").exists()
    assert (out / "oracle.json").exists()
    assert captured.splitlines() == [
        f"wrote {out / 'dataset.csv'} (400 points) and {out / 'oracle.json'}",
        "segments: 0: 254, 1: 146",
        "bookings: mean 33.5, median 19, max 328",
    ]


def test_generate_missing_out_is_usage_error(tmp_path):
    config = write_config(tmp_path / "config.json")
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--config", str(config)])
    assert excinfo.value.code == 2


def test_generate_deterministic_bytes(tmp_path):
    config = write_config(tmp_path / "config.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["generate", "--config", str(config), "--out", str(out_a)])
    main(["generate", "--config", str(config), "--out", str(out_b)])
    assert (out_a / "dataset.csv").read_bytes() == (out_b / "dataset.csv").read_bytes()
    assert (out_a / "oracle.json").read_bytes() == (out_b / "oracle.json").read_bytes()


def test_generate_seed_override_changes_output(tmp_path):
    config = write_config(tmp_path / "config.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["generate", "--config", str(config), "--out", str(out_a)])
    main(["generate", "--config", str(config), "--out", str(out_b), "--seed", "99"])
    assert (out_a / "dataset.csv").read_bytes() != (out_b / "dataset.csv").read_bytes()


def test_generate_invalid_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_points": 10, "seed": 0, "segments": []}))
    assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "knob, value, message",
    [
        ("sample_size", 40.5, "sample_size must be an integer, got 40.5"),
        ("sample_size", True, "sample_size must be an integer, got True"),
        ("noise_sigma", "0.05", "noise_sigma must be a finite int or float, got '0.05'"),
        ("noise_sigma", float("nan"), "noise_sigma must be a finite int or float, got nan"),
    ],
    ids=["fractional-sample-size", "bool-sample-size", "string-noise", "nan-noise"],
)
def test_generate_oracle_knob_that_is_not_a_finite_number_exits_1(tmp_path, capsys, knob, value, message):
    # These were written truncated (40.5 as 40, true as 1), written as nan,
    # or raised an uncaught TypeError.
    config = write_config(tmp_path / "config.json")
    payload = json.loads(config.read_text())
    payload["oracle"][knob] = value
    config.write_text(json.dumps(payload))
    out = tmp_path / "data"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 1
    assert f"error: generator config {config}: {message}" in capsys.readouterr().err
    assert not (out / "dataset.csv").exists() and not (out / "oracle.json").exists()


_ABSENT = object()  # a value that deletes its key


@pytest.mark.parametrize(
    "segment, key, value, message",
    [
        (None, "segments", 5, "segments must be a JSON list, got 5"),
        (None, "seed", -1, "seed must be non-negative, got -1"),
        (0, "id", 2**63, f"segment 0 id must fit in 64 bits, got {2**63}"),
        (0, "feature_means", 5, "segment 0 feature_means must be a list of numbers, got 5"),
        (0, "mixture_weight", None, "segment 0 mixture_weight must be a finite int or float, got None"),
        (0, "mixture_weight", -0.6, "segment 0 mixture_weight must be non-negative, got -0.6"),
        (0, "booking_lognormal", 3, "segment 0 booking_lognormal must be a list of numbers, got 3"),
        (1, "booking_lognormal", _ABSENT, "segment 1 missing field 'booking_lognormal'"),
        (None, "seed", _ABSENT, "missing field 'seed'"),
    ],
    ids=[
        "segments-number", "negative-seed", "huge-id", "means-number", "null-weight", "negative-weight",
        "lognormal-number", "segment-key-missing", "top-level-key-missing",
    ],
)
def test_generate_malformed_config_value_is_named(tmp_path, capsys, segment, key, value, message):
    # These raised an uncaught TypeError or OverflowError, or failed in
    # numpy without naming the file: the negative seed, and the negative
    # weight, which segment 1's 1.6 keeps summing to 1. A segment's missing
    # key named the file but not the segment.
    config = write_config(tmp_path / "config.json")
    payload = json.loads(config.read_text())
    block = payload if segment is None else payload["segments"][segment]
    if value is _ABSENT:
        del block[key]
    else:
        block[key] = value
    if segment is not None:
        payload["segments"][1]["mixture_weight"] = 1.6 if value == -0.6 else 0.4
    config.write_text(json.dumps(payload))
    assert main(["generate", "--config", str(config), "--out", str(tmp_path / "data")]) == 1
    assert capsys.readouterr().err == f"error: generator config {config}: {message}\n"


@pytest.mark.parametrize(
    "command, flag, what",
    [("generate", "--config", "generator config "), ("run", "--oracle", "oracle profile "), ("experiment", "--config", "")],
)
def test_json_input_with_a_syntax_error_names_the_file(tmp_path, generated, capsys, command, flag, what):
    dataset, _ = generated
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1,}')
    args = {
        "generate": ["--out", str(tmp_path / "o")],
        "run": ["--dataset", str(dataset), "--method", "sm", "--feedback", "custom", "--k", "2"],
        "experiment": ["--dataset", str(dataset), "--out", str(tmp_path / "r")],
    }[command]
    assert main([command, flag, str(bad), *args]) == 1
    assert capsys.readouterr().err.startswith(f"error: {what}{bad}: Expecting property name")


def _json_input(kind, tmp_path, dataset, oracle):
    """A file of one kind of JSON input, and the command that reads it
    (None for a report, which read_report reads)."""
    if kind == "generator config":
        path = write_config(tmp_path / "gen.json")
        return path, ["generate", "--config", str(path), "--out", str(tmp_path / "o")]
    if kind == "oracle profile":
        return oracle, ["run", "--dataset", str(dataset), "--method", "sm", "--feedback", "custom", "--k", "2",
                        "--oracle", str(oracle)]
    if kind == "experiment config":
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"methods": ["sme:rss"], "k_values": [2], "repeats": 1}))
        return path, ["experiment", "--dataset", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "r"),
                      "--config", str(path)]
    if kind == "report":
        grid = ["--methods", "sme:rss", "--k-values", "2", "--repeats", "1", "--fluctuation-calls", "2"]
        assert main(["experiment", "--dataset", str(dataset), *grid, "--out", str(tmp_path / "r")]) == 0
        return tmp_path / "r" / "report.json", None
    path = tmp_path / "trace.jsonl"
    assert main(["run", "--dataset", str(dataset), "--method", "sme", "--k", "2", "--out", str(path)]) == 0
    return path, ["validate", "--trace", str(path)]


@pytest.mark.parametrize(
    "kind, key, where",
    [
        ("generator config", "seed", "generator config {path}: "),
        ("oracle profile", "0", "oracle profile {path}: "),  # a segment id, inside "segments"
        ("experiment config", "repeats", "{path}: "),
        ("report", "seed", "{path}: "),  # inside the first record
        ("trace", "k", "{path}: line 1: "),
    ],
    ids=["generator-config", "oracle-profile", "experiment-config", "report", "trace"],
)
def test_a_key_given_twice_in_any_json_input_is_named(tmp_path, generated, capsys, kind, key, where):
    # Each of these files ran on the key's last value, as json.loads keeps it.
    path, argv = _json_input(kind, tmp_path, *generated)
    path.write_text(path.read_text().replace(f'"{key}": ', f'"{key}": 0, "{key}": ', 1))
    capsys.readouterr()
    message = where.format(path=path) + f"key {key!r} is given twice"
    if argv is None:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_report(path)
    else:
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------- run

def test_run_sme_trace_has_seven_evaluations(tmp_path, generated, capsys):
    dataset, _ = generated
    trace_path = tmp_path / "trace.jsonl"
    code = main(
        [
            "run", "--dataset", str(dataset), "--method", "sme", "--feedback", "rss",
            "--k", "4", "--iterations", "6", "--seed", "3", "--out", str(trace_path),
        ]
    )
    assert code == 0
    records = read_trace_records(trace_path)
    assert len(records) == 7
    assert all(r["k"] == 4 for r in records)
    out = capsys.readouterr().out
    assert "initial evaluation" in out and "best evaluation" in out and "impact" in out


def test_run_sm_custom_cluster_count_may_drift(tmp_path, generated):
    dataset, oracle = generated
    trace_path = tmp_path / "trace.jsonl"
    code = main(
        [
            "run", "--dataset", str(dataset), "--method", "sm", "--feedback", "custom",
            "--k", "2", "--iterations", "12", "--seed", "1",
            "--oracle", str(oracle), "--out", str(trace_path),
        ]
    )
    assert code == 0
    records = read_trace_records(trace_path)
    assert len(records) == 13
    assert len({r["k"] for r in records}) > 1


def test_run_iteration_defaults_per_method(tmp_path, generated):
    dataset, _ = generated
    sme_trace = tmp_path / "sme.jsonl"
    sm_trace = tmp_path / "sm.jsonl"
    main(["run", "--dataset", str(dataset), "--method", "sme", "--k", "3", "--out", str(sme_trace)])
    main(["run", "--dataset", str(dataset), "--method", "sm", "--k", "3", "--out", str(sm_trace)])
    assert len(read_trace_records(sme_trace)) == 7  # init + 6 paired iterations
    assert len(read_trace_records(sm_trace)) == 13  # init + 12 single actions


def test_run_custom_without_oracle_names_the_flag(tmp_path, generated, capsys):
    dataset, _ = generated
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--dataset", str(dataset), "--method", "sme", "--feedback", "custom", "--k", "2"])
    assert excinfo.value.code == 2
    assert "--oracle" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "experiment"])
def test_a_negative_seed_flag_is_named(tmp_path, generated, capsys, command):
    dataset, _ = generated
    grid = ["--method", "sme", "--k", "2"] if command == "run" else ["--methods", "sme:rss", "--out", str(tmp_path / "r")]
    assert main([command, "--dataset", str(dataset), "--seed", "-1", *grid]) == 1
    assert "error: seed must be non-negative, got -1\n" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_run_says_when_it_stalled(tmp_path, capsys):
    # k=2 on two distinct points, each given twice: neither cluster holds
    # two distinct points, so no split is legal. The oracle scores the
    # clusters, whose RSS of 0 would be a degenerate impact baseline.
    rows = [[1.0] * 8 + [5, 0], [1.0] * 8 + [3, 0], [2.0] * 8 + [4, 1], [2.0] * 8 + [2, 1]]
    dataset = tmp_path / "dataset.csv"
    dataset.write_text("\n".join(",".join(map(str, row)) for row in [[*FEATURE_NAMES, "bookings", "hidden_segment"], *rows]))
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps({
        "m": 2, "segments": {"0": [1.0, 0.0], "1": [0.0, 1.0]}, "C": 10.0, "noise_sigma": 0.05,
        "sample_size": 100, "eval_pool_fraction": 0.2,
    }))
    trace = tmp_path / "trace.jsonl"
    argv = ["run", "--dataset", str(dataset), "--oracle", str(oracle), "--method", "sme", "--feedback", "custom",
            "--k", "2", "--out", str(trace)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.endswith("final k (best clustering): 2\nrun stalled: no legal action remained\n")
    assert f"wrote {trace} (1 steps)" in out and len(read_trace_records(trace)) == 1


def test_run_deterministic_trace_bytes(tmp_path, generated):
    dataset, oracle = generated
    args = [
        "run", "--dataset", str(dataset), "--method", "sm", "--feedback", "custom",
        "--k", "3", "--seed", "7", "--oracle", str(oracle),
    ]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "column, cell, message",
    [
        ("bookings", "99999999999999999999999", "99999999999999999999999 does not fit in 64 bits"),
        ("bookings", "-2", "must be non-negative, got -2"),
    ],
    ids=["huge-bookings", "negative-bookings"],
)
def test_run_names_a_bad_integer_cell(generated, capsys, column, cell, message):
    dataset, _ = generated
    lines = dataset.read_text().splitlines()
    cells = lines[4].split(",")
    cells[lines[0].split(",").index(column)] = cell
    lines[4] = ",".join(cells)
    dataset.write_text("\n".join(lines) + "\n")
    assert main(["run", "--dataset", str(dataset), "--method", "sme", "--k", "2"]) == 1
    assert capsys.readouterr().err == f"error: {dataset}: {column} column: line 5: {message}\n"


# ---------------------------------------------------------------- experiment

def test_experiment_row_counting_and_subset(tmp_path, generated, capsys):
    dataset, oracle = generated
    out = tmp_path / "report"
    code = main(
        [
            "experiment", "--dataset", str(dataset), "--oracle", str(oracle),
            "--out", str(out), "--methods", "sme:rss,sm:custom", "--k-values", "2,3",
            "--repeats", "2", "--seed", "11", "--fluctuation-calls", "4",
        ]
    )
    assert code == 0
    rows = (out / "report.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 2 * 2  # header + methods * k * repeats
    methods = {row.split(",")[0] for row in rows[1:]}
    assert methods == {"sme:rss", "sm:custom"}
    captured = capsys.readouterr().out
    assert "mean impact" in captured
    assert "expected relative change" in captured


def test_experiment_requires_oracle_for_custom_methods(tmp_path, generated):
    dataset, _ = generated
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "experiment", "--dataset", str(dataset), "--out", str(tmp_path / "r"),
                "--methods", "sm:custom", "--k-values", "2",
            ]
        )
    assert excinfo.value.code == 2


def test_experiment_deterministic_bytes(tmp_path, generated):
    dataset, oracle = generated
    args = [
        "experiment", "--dataset", str(dataset), "--oracle", str(oracle),
        "--methods", "sme:custom", "--k-values", "2", "--repeats", "1",
        "--seed", "5", "--fluctuation-calls", "3",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_experiment_config_file_with_flag_override(tmp_path, generated):
    dataset, oracle = generated
    exp_config = tmp_path / "exp.json"
    exp_config.write_text(json.dumps({"methods": ["sme:rss"], "k_values": [2], "repeats": 3}))
    out = tmp_path / "r"
    code = main(
        [
            "experiment", "--dataset", str(dataset), "--oracle", str(oracle),
            "--out", str(out), "--config", str(exp_config), "--repeats", "1",
        ]
    )
    assert code == 0
    rows = (out / "report.csv").read_text().splitlines()
    assert len(rows) == 1 + 1  # flag overrode the config's repeats=3


def test_experiment_config_unknown_key_is_named(tmp_path, generated, capsys):
    dataset, oracle = generated
    exp_config = tmp_path / "exp.json"
    exp_config.write_text(json.dumps({"methods": ["sme:rss"], "k_values": [2], "repeats_per_cell": 1}))
    out = tmp_path / "r"
    code = main(
        [
            "experiment", "--dataset", str(dataset), "--oracle", str(oracle),
            "--out", str(out), "--config", str(exp_config),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "repeats_per_cell" in err and "accepted: methods, k_values, repeats," in err
    assert not out.exists()


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"repeats": 2.9}, "repeats must be an integer, got 2.9"),
        ({"sme_iterations": True}, "sme_iterations must be an integer, got True"),
        ({"repeats": "abc"}, "repeats must be an integer, got 'abc'"),
        ({"seed": None}, "seed must be an integer, got None"),
        ({"k_values": [2, 2.5]}, "k_values must be integers, got [2, 2.5]"),
        ({"k_values": [True]}, "k_values must be integers, got [True]"),
    ],
)
def test_experiment_config_value_that_is_not_an_integer_is_named(tmp_path, capsys, setting, message):
    exp_config = tmp_path / "exp.json"
    exp_config.write_text(json.dumps({"methods": ["sme:rss"], "k_values": [2], **setting}))
    code = main(
        [
            "experiment", "--dataset", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "r"),
            "--config", str(exp_config),
        ]
    )
    assert code == 1
    assert f"error: {exp_config}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"repeats": 0}, "repeats must be at least 1"),
        ({"methods": ["sme:foo"]}, "unknown method 'sme:foo'"),
        ({"k_values": [2, 2]}, "k_values repeats 2"),
    ],
)
def test_experiment_config_value_out_of_range_is_named(tmp_path, capsys, setting, message):
    # The file's values are checked before the flags are merged, so even a
    # value a flag would override names its file.
    exp_config = tmp_path / "exp.json"
    exp_config.write_text(json.dumps({"methods": ["sme:rss"], "k_values": [2], **setting}))
    code = main(
        [
            "experiment", "--dataset", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "r"),
            "--config", str(exp_config), "--repeats", "1",
        ]
    )
    assert code == 1
    assert f"error: {exp_config}: {message}" in capsys.readouterr().err


def test_experiment_flag_out_of_range_names_the_flag(tmp_path, capsys):
    code = main(["experiment", "--dataset", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "r"), "--repeats", "0"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: repeats must be at least 1" in err and "repeats_per_cell" not in err


@pytest.mark.parametrize(
    "methods, message",
    [("sme:rss,sme:foo", "unknown method 'sme:foo'; expected one of sme:rss, "), (" , ", "methods must be non-empty")],
)
def test_experiment_bad_methods_are_named(tmp_path, capsys, methods, message):
    code = main(
        [
            "experiment", "--dataset", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "r"),
            "--methods", methods,
        ]
    )
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [[], {"m": 2, "segments": [[1.0, 0.0]]}])
def test_run_with_a_malformed_oracle_file_exits_1(tmp_path, generated, capsys, payload):
    dataset, _ = generated
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code = main(
        ["run", "--dataset", str(dataset), "--method", "sm", "--k", "2", "--oracle", str(bad)]
    )
    assert code == 1
    assert f"error: oracle profile {bad}: " in capsys.readouterr().err


def test_experiment_bad_grid_setting_fails_before_loading_data(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    code = main(
        [
            "experiment", "--dataset", str(missing), "--methods", "sme:rss",
            "--out", str(tmp_path / "r"), "--fluctuation-calls", "1",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "fluctuation_calls must be at least 2" in err and "missing.csv" not in err


@pytest.mark.parametrize(
    "flags, message",
    [(["--k-values", "2,2"], "k_values repeats 2"), (["--methods", "sme:rss,sme:rss"], "methods repeats sme:rss")],
    ids=["k", "method"],
)
def test_experiment_repeated_grid_value_is_named(tmp_path, capsys, flags, message):
    # `--k-values 2,2` ran each cell twice with one derived seed.
    code = main(["experiment", "--dataset", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "r"), *flags])
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_experiment_non_integer_thread_env_is_an_error(tmp_path, generated, monkeypatch, capsys):
    dataset, oracle = generated
    monkeypatch.setenv("FEEDBACK_KMEANS_THREADS", "abc")
    out = tmp_path / "r"
    code = main(
        [
            "experiment", "--dataset", str(dataset), "--oracle", str(oracle), "--out", str(out),
            "--methods", "sme:rss", "--k-values", "2", "--repeats", "1",
        ]
    )
    assert code == 1
    assert "FEEDBACK_KMEANS_THREADS" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_thread_env_does_not_change_output(tmp_path, generated, monkeypatch):
    dataset, oracle = generated
    args = [
        "experiment", "--dataset", str(dataset), "--oracle", str(oracle),
        "--methods", "sme:rss,sm:custom", "--k-values", "2,3", "--repeats", "1",
        "--seed", "2", "--fluctuation-calls", "3",
    ]
    serial_out = tmp_path / "serial"
    assert main(args + ["--out", str(serial_out)]) == 0
    monkeypatch.setenv("FEEDBACK_KMEANS_THREADS", "4")
    threaded_out = tmp_path / "threaded"
    assert main(args + ["--out", str(threaded_out)]) == 0
    assert (serial_out / "report.csv").read_bytes() == (threaded_out / "report.csv").read_bytes()
    assert (serial_out / "report.json").read_bytes() == (threaded_out / "report.json").read_bytes()


def test_experiment_partial_failure_exit_code(tmp_path, generated, capsys):
    # dataset stripped of bookings: custom reference evaluations fail per cell
    dataset, oracle = generated
    import csv

    with open(dataset) as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    drop = [header.index("bookings")]
    bare = tmp_path / "bare.csv"
    with open(bare, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([c for i, c in enumerate(row) if i not in drop])
    code = main(
        [
            "experiment", "--dataset", str(bare), "--oracle", str(oracle),
            "--out", str(tmp_path / "r"), "--methods", "sme:rss", "--k-values", "2",
            "--repeats", "1",
        ]
    )
    assert code == 1
    assert "failed" in capsys.readouterr().err


def test_every_report_row_reproduces_through_run(tmp_path, generated, capsys):
    # A report row's method, k and seed are all that `run` needs to redo it.
    dataset, oracle = generated
    out = tmp_path / "r"
    code = main(
        [
            "experiment", "--dataset", str(dataset), "--oracle", str(oracle), "--out", str(out),
            "--k-values", "2,3", "--repeats", "1", "--fluctuation-calls", "3", "--seed", "9",
            "--sme-iterations", "3", "--sm-iterations", "5",
        ]
    )
    assert code == 0
    rows = read_report(out / "report.json")
    assert sorted({row["method"] for row in rows}) == ["sm:custom", "sm:rss", "sme:custom", "sme:rss"]
    assert len(rows) == 8
    capsys.readouterr()
    for row in rows:
        method, feedback = row["method"].split(":")
        code = main(
            [
                "run", "--dataset", str(dataset), "--oracle", str(oracle), "--method", method,
                "--feedback", feedback, "--k", str(row["k"]), "--seed", str(row["seed"]),
                "--iterations", "3" if method == "sme" else "5",
            ]
        )
        assert code == 0
        printed = dict(line.split(":", 1) for line in capsys.readouterr().out.splitlines())
        assert printed["initial evaluation"].strip() == repr(row["initial_eval"])
        assert printed["impact"].strip() == repr(row["impact"])
        assert printed["final k (best clustering)"].strip() == str(row["final_k"])


# ---------------------------------------------------------------- validate

def test_validate_accepts_good_trace(tmp_path, generated, capsys):
    dataset, _ = generated
    trace_path = tmp_path / "trace.jsonl"
    main(
        [
            "run", "--dataset", str(dataset), "--method", "sme", "--k", "3",
            "--seed", "2", "--out", str(trace_path),
        ]
    )
    assert main(["validate", "--trace", str(trace_path), "--method", "sme"]) == 0
    assert "no violations" in capsys.readouterr().out


def test_validate_flags_corrupted_trace(tmp_path, generated, capsys):
    dataset, _ = generated
    trace_path = tmp_path / "trace.jsonl"
    main(
        [
            "run", "--dataset", str(dataset), "--method", "sme", "--k", "3",
            "--seed", "2", "--out", str(trace_path),
        ]
    )
    lines = trace_path.read_text().splitlines()
    record = json.loads(lines[2])
    record["k"] = record["k"] + 1  # break the feedback-length/k agreement
    lines[2] = json.dumps(record, sort_keys=True)
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--trace", str(trace_path), "--method", "sme"]) == 1
    assert "feedback values" in capsys.readouterr().err


@pytest.mark.parametrize("field, bad", [("aggregate", math.nan), ("per_cluster_feedback", math.inf)])
def test_validate_flags_a_non_finite_evaluation(tmp_path, generated, capsys, field, bad):
    dataset, _ = generated
    trace_path = tmp_path / "trace.jsonl"
    argv = ["run", "--dataset", str(dataset), "--method", "sm", "--k", "3", "--seed", "2", "--out", str(trace_path)]
    assert main(argv) == 0
    lines = trace_path.read_text().splitlines()
    record = json.loads(lines[1])
    record[field] = bad if field == "aggregate" else [bad, *record[field][1:]]
    lines[1] = json.dumps(record, sort_keys=True)  # writes the bare NaN or Infinity token
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--trace", str(trace_path)]) == 1
    assert capsys.readouterr().err == f"step 1: non-finite or non-numeric feedback {bad!r}\n"


def test_validate_records_unit_checks():
    records = [
        {"step": 0, "action": "init", "k": 2, "per_cluster_feedback": [1.0, 2.0], "aggregate": 1.5, "is_best": True},
        {"step": 1, "action": "split(0)+merge(1,2)", "k": 2, "per_cluster_feedback": [1.0, 1.0], "aggregate": 1.0, "is_best": True},
    ]
    assert validate_trace_records(records, method="sme") == []
    assert validate_trace_records([], method=None) == ["trace is empty"]
    broken = [dict(records[0], action="explode()")]
    assert any("malformed action" in v for v in validate_trace_records(broken))
    for values, bad in (([1.0, "2"], "'2'"), ([True, 2.0], "True")):
        assert validate_trace_records([dict(records[0], per_cluster_feedback=values)]) == [
            f"step 0: non-finite or non-numeric feedback {bad}"
        ]
    assert validate_trace_records([dict(records[0], per_cluster_feedback=[10**400, 2])]) == []
    # is_best must equal Sense.best_flags of the aggregates under one sense
    inconsistent = ["is_best flags are inconsistent with every evaluation orientation"]
    for aggregates, flags, expected in [
        ([1.5, 1.0, 2.0], [True, True, False], []),  # lower is better
        ([1.5, 1.0, 2.0], [True, False, True], []),  # higher is better
        ([1.5, 1.0, 0.5], [True, True, False], inconsistent),  # a flipped flag
        ([1.5, 1.0], [False, True], inconsistent),  # step 0 unflagged
        ([1.5], [False], inconsistent),
        ([1.5, 1.0, 2.0], [True, True, True], inconsistent),  # fits neither sense
        ([1.5, 1.5, 1.5], [True, False, False], []),  # a flat trace
        ([1.5, 1.5, 1.5], [True, True, False], inconsistent),  # a tie is no improvement
    ]:
        flagged = [
            dict(records[min(step, 1)], step=step, aggregate=value, is_best=flag)
            for step, (value, flag) in enumerate(zip(aggregates, flags))
        ]
        assert validate_trace_records(flagged, method="sme") == expected, (aggregates, flags)


@pytest.mark.parametrize(
    "k, action, expected",
    [
        (0, "split(0)", ["step 1: k=0 is below 2"]),
        (1, "merge(0,1)", ["step 1: k=1 is below 2"]),
        (2, "merge(0,0)", ["step 1: merge(0,0) does not name its pair in ascending order"]),
        (2, "split(0)+merge(3,1)", ["step 1: merge(3,1) does not name its pair in ascending order"]),
        (2, "split(0)+merge(1,2)", []),
        (
            2,
            "split(9)+merge(7,8)",
            [
                "step 1: split(9) names a cluster id not below its k=2",
                "step 1: merge(7,8) names a cluster id not below its k=3",
            ],
        ),
        (5, "split(0)", ["step 1: k=5 after k=2 and split(0), not 3"]),
        (2, "init", ["step 1: init action after step 0"]),
        # An id is ASCII digits with no leading zero, and the label ends at its last ")".
        (2, "split(01)+merge(1,2)", ["step 1: malformed action 'split(01)+merge(1,2)'"]),
        (2, "split(\u0661)+merge(1,2)", ["step 1: malformed action 'split(\u0661)+merge(1,2)'"]),
        (2, "split(0)+merge(1,2)\n", ["step 1: malformed action 'split(0)+merge(1,2)\\n'"]),
    ],
)
def test_validate_flags_a_step_no_engine_produces(k, action, expected):
    # Every k is at least MIN_K, the export writes each merge as (i, j) with
    # i < j, and each action's ids lie below the k it acts on: the k before
    # it, plus one after an SME step's split. A step that keeps k is checked
    # as an SME step too.
    init = {"step": 0, "action": "init", "k": 2, "per_cluster_feedback": [1.0, 1.0], "aggregate": 1.0, "is_best": True}
    step = dict(init, step=1, action=action, k=k, per_cluster_feedback=[1.0] * k, is_best=False)
    for method in [None, "sm"] + (["sme"] if k == init["k"] else []):
        assert validate_trace_records([init, step], method=method) == expected, method


_STEP_0 = {"step": 0, "action": "init", "k": 2, "per_cluster_feedback": [1.0, 1.0], "aggregate": 1.0, "is_best": True}
_STEP_1 = dict(_STEP_0, step=1, action="split(0)+merge(1,2)", is_best=False)


@pytest.mark.parametrize(
    "records, method, expected",
    [
        ([{k: v for k, v in _STEP_0.items() if k != "is_best"}], None, ["step 0: missing fields ['is_best']"]),
        ([_STEP_0, dict(_STEP_1, step=5)], None, ["step 1: step numbering broken (found 5)"]),
        ([dict(_STEP_0, action="split(0)"), _STEP_1], None, ["step 0 is not the initial clustering"]),
        (
            [_STEP_0, dict(_STEP_1, action="split(0)", k=3, per_cluster_feedback=[1.0] * 3)],
            "sme",
            ["cluster count not preserved across steps: [2, 3]"],
        ),
        ([_STEP_0, dict(_STEP_1, action="split(0)", k=3, per_cluster_feedback=[1.0] * 3)], "sm", []),
    ],
    ids=["missing-field", "step-numbering", "no-init", "sme-count-drift", "sm-count-drift"],
)
def test_validate_flags_a_trace_no_engine_writes(records, method, expected):
    assert validate_trace_records(records, method=method) == expected


@pytest.mark.parametrize(
    "field, value", [("per_cluster_feedback", 5), ("action", 7), ("k", "2"), ("is_best", 1)]
)
def test_validate_reports_wrongly_typed_fields(tmp_path, field, value, capsys):
    records = [
        {"step": 0, "action": "init", "k": 2, "per_cluster_feedback": [1.0, 2.0], "aggregate": 1.5, "is_best": True},
    ]
    records[0][field] = value
    assert validate_trace_records(records) == [f"step 0: wrongly typed fields ['{field}']"]
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text(json.dumps(records[0]) + "\n5\n")
    assert main(["validate", "--trace", str(trace_path)]) == 1
    assert "step 1: record is not an object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad_line, error", [(b"{oops", "line 3: Expecting property name"), (b"\xff", "line 3: 'utf-8' codec")]
)
def test_validate_unreadable_trace_line_names_file_and_line(tmp_path, generated, capsys, bad_line, error):
    dataset, _ = generated
    trace_path = tmp_path / "trace.jsonl"
    main(["run", "--dataset", str(dataset), "--method", "sme", "--k", "3", "--out", str(trace_path)])
    lines = trace_path.read_bytes().splitlines()
    trace_path.write_bytes(b"\n".join(lines[:2] + [bad_line] + lines[2:]) + b"\n")
    assert main(["validate", "--trace", str(trace_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {trace_path}: {error}")


# ---------------------------------------------------------------- golden digests

# SHA-256 of the CLI's output files on the 400-point `generated` dataset.
# They pin today's results byte for byte: a change that alters any output
# (a faster kernel included) must re-pin them and say so.
GOLDEN_RUN_DIGESTS = {
    "sme:rss": "7e722bf4cd602d116ece64d9b626cd0e59217ed18ee89b60e45d951958203201",
    "sme:custom": "6cc5109efc46d322be12daf7f23cc9f10651bc7ecec8e6a7d28280e3c1bea55c",
    "sm:rss": "954423e194069f3116cc8fae111f914f3de027ef01c412c147470b0a136b8891",
    "sm:custom": "02a93fa13f16eab0d71df13569c3f5b7104b0e22f338aa0f34e6f6fb3012678a",
}
GOLDEN_EXPERIMENT_DIGESTS = {
    "report.csv": "9f3975ca5147b4fe23d51fd879627e692bc048863c0b484e824327b49e805399",
    "report.json": "ec37746ba9521a44c9e0022907720c3f24d804f4b6d7a7d1a7779737ec198b4e",
}
GOLDEN_GENERATE_DIGESTS = {
    "dataset.csv": "0bb2e1019494330c8fef97e6990f6b575b70d4936d7ec9590e87f996bbc10f16",
    "oracle.json": "dbb75059a4533bee059205503ac866c0026a0dd8e420335d230436243687b247",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generate_matches_golden_digests(generated):
    dataset, oracle = generated
    assert {path.name: _sha256(path) for path in (dataset, oracle)} == GOLDEN_GENERATE_DIGESTS


@pytest.mark.parametrize("method", ["sme", "sm"])
@pytest.mark.parametrize("feedback", ["rss", "custom"])
def test_run_trace_matches_golden_digest(tmp_path, generated, method, feedback):
    dataset, oracle = generated
    trace_path = tmp_path / "trace.jsonl"
    code = main(
        [
            "run", "--dataset", str(dataset), "--method", method, "--feedback", feedback,
            "--k", "3", "--seed", "7", "--oracle", str(oracle), "--out", str(trace_path),
        ]
    )
    assert code == 0
    assert _sha256(trace_path) == GOLDEN_RUN_DIGESTS[f"{method}:{feedback}"]
    assert main(["validate", "--trace", str(trace_path), "--method", method]) == 0


def test_experiment_reports_match_golden_digests(tmp_path, generated):
    dataset, oracle = generated
    out = tmp_path / "r"
    code = main(
        [
            "experiment", "--dataset", str(dataset), "--oracle", str(oracle), "--out", str(out),
            "--k-values", "2,3", "--repeats", "1", "--fluctuation-calls", "3", "--seed", "7",
        ]
    )
    assert code == 0
    assert {name: _sha256(out / name) for name in GOLDEN_EXPERIMENT_DIGESTS} == GOLDEN_EXPERIMENT_DIGESTS
