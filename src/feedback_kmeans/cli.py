"""Command-line entry point.

Commands:
    generate    draw a synthetic dataset + oracle profile from a JSON config
    run         one method run, as an experiment cell makes it; optionally
                exports a JSON-lines trace
    experiment  the full protocol grid, writing report CSV + JSON
    validate    invariant checks on an exported trace file

All randomness is controlled by explicit --seed flags; nothing is seeded
from the clock, so re-running a command with the same inputs reproduces
its output files byte for byte. The FEEDBACK_KMEANS_THREADS environment
variable caps experiment-cell parallelism (an integer, default 1; values
below 1 mean 1).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import engines, harness, ingest, synth
from .core import Sense, check_keys, field_errors, read_json
from .feedback import load_oracle_profile, save_oracle_profile
from .operators import MIN_K


def _threads() -> int:
    raw = os.environ.get("FEEDBACK_KMEANS_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"FEEDBACK_KMEANS_THREADS must be an integer, got {raw!r}") from None


def _cmd_generate(args: argparse.Namespace) -> int:
    config, profile = synth.load_generator_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = synth.generate(config)
    dataset_path = out / "dataset.csv"
    oracle_path = out / "oracle.json"
    ingest.write_csv(dataset, dataset_path)
    save_oracle_profile(profile, oracle_path)

    segments, counts = np.unique(dataset.hidden_segment, return_counts=True)
    bookings = dataset.bookings
    print(f"wrote {dataset_path} ({dataset.n_points} points) and {oracle_path}")
    print("segments: " + ", ".join(f"{seg}: {n}" for seg, n in zip(segments.tolist(), counts.tolist())))
    print(
        f"bookings: mean {bookings.mean():.1f}, median {float(np.sort(bookings)[len(bookings) // 2]):.0f}, "
        f"max {bookings.max()}"
    )
    return 0


def _load_inputs(args: argparse.Namespace):
    """The dataset and the oracle profile (None if absent) that the data flags name."""
    dataset = ingest.read_csv(args.dataset, standardize=not args.no_standardize)
    return dataset, None if args.oracle is None else load_oracle_profile(args.oracle)


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.feedback == "custom" and args.oracle is None:
        parser.error("--feedback custom requires --oracle")
    dataset, profile = _load_inputs(args)
    method = harness.ExperimentMethod(f"{args.method}:{args.feedback}")
    trace = harness.run_method(dataset, method, args.k, args.seed, profile, args.iterations, args.target)
    if args.out is not None:
        engines.write_trace(trace, args.out)
        print(f"wrote {args.out} ({len(trace.steps)} steps)")
    initial = trace.steps[0].feedback.aggregate
    best_clust, best_eval = engines.best_clustering(trace)
    print(f"initial evaluation: {initial!r}")
    print(f"best evaluation:    {best_eval!r} (step {trace.best_step_index})")
    print(f"impact:             {harness.impact(initial, best_eval, trace.sense)!r}")
    print(f"final k (best clustering): {best_clust.k}")
    if trace.stalled:
        print("run stalled: no legal action remained")
    return 0


# Experiment config JSON keys, which are also the flag names, mapped to the
# ExperimentConfig fields they set; the list settings with their flags' help.
_EXPERIMENT_KEYS = {
    "methods": "methods",
    "k_values": "k_values",
    "repeats": "repeats_per_cell",
    "sme_iterations": "sme_iterations",
    "sm_iterations": "sm_iterations",
    "fluctuation_calls": "fluctuation_calls",
    "seed": "seed",
}
_LIST_KEYS = {"methods": "comma-separated, e.g. sme:rss,sm:custom", "k_values": "comma-separated initial k values"}


def _experiment_value(key: str, value):
    """Coerce one config-file or flag value to its ExperimentConfig type:
    list settings may be JSON lists or comma-separated strings, and every
    other setting is passed on for ExperimentConfig to check."""
    if key in _LIST_KEYS:
        raw = ",".join(str(v) for v in value) if isinstance(value, (list, tuple)) else str(value)
        if key == "methods":  # ExperimentConfig checks the names
            return tuple(token.strip() for token in raw.split(",") if token.strip())
        try:
            return tuple(int(tok) for tok in raw.replace(",", " ").split())
        except ValueError:
            raise ValueError(f"k_values must be integers, got {value!r}") from None
    return value


def _with_settings(config: harness.ExperimentConfig, settings: dict, prefix: str = "") -> harness.ExperimentConfig:
    with field_errors(prefix, _EXPERIMENT_KEYS, settings):
        return replace(config, **{_EXPERIMENT_KEYS[k]: _experiment_value(k, v) for k, v in settings.items()})


def _cmd_experiment(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    config = harness.ExperimentConfig()
    if args.config is not None:
        settings = read_json(args.config, args.config)
        check_keys(args.config, "experiment config", settings, _EXPERIMENT_KEYS)
        config = _with_settings(config, settings, f"{args.config}: ")  # before the flags, to name the file
    flags = {key: getattr(args, key) for key in _EXPERIMENT_KEYS if getattr(args, key) is not None}
    config = _with_settings(config, flags)
    if args.oracle is None and any(m.feedback_kind == "custom" for m in config.methods):
        parser.error("customizability-driven methods require --oracle")
    threads = _threads()
    dataset, profile = _load_inputs(args)

    report = harness.run_experiment(dataset, config, profile, threads=threads)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ingest.write_report(report, out / "report.csv", format="csv")
    ingest.write_report(report, out / "report.json", format="json")
    print(f"wrote {out / 'report.csv'} and {out / 'report.json'} ({len(report.records)} records)")

    own = report.mean_by("impact", "method")
    custom = report.mean_by("custom_impact", "method")
    print(f"{'method':<12}{'mean impact':>14}{'mean custom impact':>22}")
    for method in config.methods:
        own_val = f"{own[method.value]:.4f}" if method.value in own else "-"
        cus_val = f"{custom[method.value]:.4f}" if method.value in custom else "-"
        print(f"{method.value:<12}{own_val:>14}{cus_val:>22}")
    if report.fluctuation_by_k:
        line = ", ".join(f"k={k}: {v:.4f}" for k, v in sorted(report.fluctuation_by_k.items()))
        print(f"expected relative change ({config.fluctuation_calls} calls): {line}")
    if report.failures:
        print(f"{len(report.failures)} cell(s) failed:", file=sys.stderr)
        for failure in report.failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


# A cluster id as the export writes it: ASCII digits, no leading zero.
_ID = r"(?:0|[1-9][0-9]*)"
_PART = rf"split\({_ID}\)|merge\({_ID},{_ID}\)"
_ACTION_RE = re.compile(rf"(?:init|{_PART})(?:\+(?:{_PART}))*")
_MERGE_RE = re.compile(rf"merge\(({_ID}),({_ID})\)")
_ID_RE = re.compile(_ID)

# The JSON types each trace record field may have. Types are compared
# exactly, so a bool is not taken for a number.
_RECORD_TYPES = {
    "step": (int,),
    "action": (str,),
    "k": (int,),
    "per_cluster_feedback": (list,),
    "aggregate": (int, float),
    "is_best": (bool,),
}


def validate_trace_records(records: list[dict], method: str | None = None) -> list[str]:
    """Invariant checks on exported trace records.

    The export carries evaluations and actions, not snapshots, so the
    checks cover step numbering, action syntax, merge pairs in ascending
    order, feedback shape against k, k of at least MIN_K, finite feedback
    values, action ids and k against the step before, best-flag
    consistency and (for SME) cluster-count preservation.
    """
    violations: list[str] = []
    if not records:
        return ["trace is empty"]
    for pos, rec in enumerate(records):
        if not isinstance(rec, dict):
            violations.append(f"step {pos}: record is not an object")
            continue
        missing = set(_RECORD_TYPES) - set(rec)
        if missing:
            violations.append(f"step {pos}: missing fields {sorted(missing)}")
            continue
        mistyped = [name for name, types in _RECORD_TYPES.items() if type(rec[name]) not in types]
        if mistyped:
            violations.append(f"step {pos}: wrongly typed fields {mistyped}")
            continue
        if rec["step"] != pos:
            violations.append(f"step {pos}: step numbering broken (found {rec['step']})")
        if not _ACTION_RE.fullmatch(rec["action"]):
            violations.append(f"step {pos}: malformed action {rec['action']!r}")
        for i, j in _MERGE_RE.findall(rec["action"]):
            if int(i) >= int(j):
                violations.append(f"step {pos}: merge({i},{j}) does not name its pair in ascending order")
        if rec["k"] < MIN_K:
            violations.append(f"step {pos}: k={rec['k']} is below {MIN_K}")
        if len(rec["per_cluster_feedback"]) != rec["k"]:
            violations.append(
                f"step {pos}: {len(rec['per_cluster_feedback'])} feedback values for k={rec['k']}"
            )
        for value in [rec["aggregate"], *rec["per_cluster_feedback"]]:
            if type(value) not in (int, float) or (type(value) is float and not math.isfinite(value)):
                violations.append(f"step {pos}: non-finite or non-numeric feedback {value!r}")
                break
    if violations:
        return violations
    if records[0]["action"] != "init":
        violations.append("step 0 is not the initial clustering")
    for rec in records[1:]:
        if "init" in rec["action"]:
            violations.append(f"step {rec['step']}: init action after step 0")
    # Each action acts on the clusters the one before it leaves: its ids lie
    # below that count, a split adds one cluster and a merge removes one.
    for prev, rec in zip(records, records[1:]):
        k = prev["k"]
        for part in rec["action"].split("+"):
            if any(int(i) >= k for i in _ID_RE.findall(part)):
                violations.append(f"step {rec['step']}: {part} names a cluster id not below its k={k}")
            k += {"split": 1, "merge": -1}.get(part[:5], 0)
        if rec["k"] != k:
            violations.append(f"step {rec['step']}: k={rec['k']} after k={prev['k']} and {rec['action']}, not {k}")
    # is_best marks step 0 and each strict improvement, in either orientation.
    aggregates = [rec["aggregate"] for rec in records]
    flags = [rec["is_best"] for rec in records]
    if all(flags != sense.best_flags(aggregates) for sense in Sense):
        violations.append("is_best flags are inconsistent with every evaluation orientation")
    if method == "sme":
        ks = {rec["k"] for rec in records}
        if len(ks) > 1:
            violations.append(f"cluster count not preserved across steps: {sorted(ks)}")
    return violations


def _cmd_validate(args: argparse.Namespace) -> int:
    records = engines.read_trace_records(args.trace)
    violations = validate_trace_records(records, method=args.method)
    if violations:
        for violation in violations:
            print(violation, file=sys.stderr)
        return 1
    print(f"{args.trace}: {len(records)} steps, no violations")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feedback-kmeans",
        description="Feedback-driven split/merge refinement of k-means segmentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="draw a synthetic dataset + oracle profile")
    gen.add_argument("--config", required=True, help="generator config JSON")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=None, help="override the config seed")

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--dataset", required=True, help="dataset CSV")
    data.add_argument("--oracle", default=None, help="oracle profile JSON (required for custom feedback)")
    data.add_argument("--no-standardize", action="store_true", help="cluster on raw feature values")
    methods = [m.value for m in engines.Method]
    feedback_kinds = list(dict.fromkeys(m.feedback_kind for m in harness.ALL_METHODS))

    run = sub.add_parser("run", parents=[data], help="one method run on a dataset, as an experiment cell runs it")
    run.add_argument("--method", choices=methods, required=True)
    run.add_argument("--feedback", choices=feedback_kinds, default="rss")
    run.add_argument("--k", type=int, required=True, help="initial cluster count")
    run.add_argument(
        "--iterations", type=int, default=None,
        help="default: " + ", ".join(f"{n} for {m.value}" for m, n in engines.DEFAULT_ITERATIONS.items()),
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--target", type=float, default=None, help="stop once the evaluation reaches this value")
    run.add_argument("--out", default=None, help="trace output path (JSON lines)")

    exp = sub.add_parser("experiment", parents=[data], help="full protocol grid")
    exp.add_argument("--out", required=True, help="report output directory")
    exp.add_argument("--config", default=None, help="experiment config JSON (flags override it)")
    for key in _EXPERIMENT_KEYS:  # each setting's flag is its config key; unset flags are None
        typed = {"help": _LIST_KEYS[key]} if key in _LIST_KEYS else {"type": int}
        exp.add_argument("--" + key.replace("_", "-"), dest=key, **typed)

    val = sub.add_parser("validate", help="check an exported trace for invariant violations")
    val.add_argument("--trace", required=True, help="trace JSON-lines file")
    val.add_argument("--method", choices=methods, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "run":
            return _cmd_run(args, parser)
        if args.command == "experiment":
            return _cmd_experiment(args, parser)
        return _cmd_validate(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
