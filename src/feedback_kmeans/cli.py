"""Command-line entry point.

Commands:
    generate    draw a synthetic dataset + oracle profile from a JSON config
    run         one engine call, optionally exporting a JSON-lines trace
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
import json
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

from . import engines, harness, ingest, synth
from .core import Sense
from .feedback import load_oracle_profile, provider_from_name, save_oracle_profile
from .rng import derive_seed


def _threads() -> int:
    raw = os.environ.get("FEEDBACK_KMEANS_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"FEEDBACK_KMEANS_THREADS must be an integer, got {raw!r}") from None


def _cmd_generate(args: argparse.Namespace) -> int:
    config, oracle_kwargs = synth.load_generator_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = synth.generate(config)
    profile = synth.build_oracle_profile(config, **oracle_kwargs)
    dataset_path = out / "dataset.csv"
    oracle_path = out / "oracle.json"
    ingest.write_csv(dataset, dataset_path)
    save_oracle_profile(profile, oracle_path)

    counts: dict[int, int] = {}
    for seg in dataset.hidden_segment:
        counts[int(seg)] = counts.get(int(seg), 0) + 1
    bookings = dataset.bookings
    print(f"wrote {dataset_path} ({dataset.n_points} points) and {oracle_path}")
    print("segments: " + ", ".join(f"{seg}: {n}" for seg, n in sorted(counts.items())))
    print(
        f"bookings: mean {bookings.mean():.1f}, median {float(sorted(bookings)[len(bookings) // 2]):.0f}, "
        f"max {bookings.max()}"
    )
    return 0


def _load_dataset(args: argparse.Namespace):
    return ingest.read_csv(args.dataset, standardize=not args.no_standardize)


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.feedback == "custom" and args.oracle is None:
        parser.error("--feedback custom requires --oracle")
    dataset = _load_dataset(args)
    profile = None
    if args.oracle is not None:
        profile = load_oracle_profile(args.oracle, rng_seed=derive_seed(args.seed, "oracle"))
    provider = provider_from_name(args.feedback, profile)
    method = engines.Method(args.method)
    config = engines.EngineConfig(
        method=method,
        feedback=provider,
        seed=args.seed,
        iterations=args.iterations,
        target_evaluation=args.target,
    )
    trace = engines.run_engine(dataset, args.k, config)
    if args.out is not None:
        engines.write_trace(trace, args.out)
        print(f"wrote {args.out} ({len(trace.steps)} steps)")
    initial = trace.steps[0].feedback.aggregate
    best_clust, best_eval = engines.best_clustering(trace)
    print(f"initial evaluation: {initial!r}")
    print(f"best evaluation:    {best_eval!r} (step {trace.best_step_index})")
    print(f"impact:             {harness.impact(initial, best_eval, provider.sense)!r}")
    print(f"final k (best clustering): {best_clust.k}")
    if trace.stalled:
        print("run stalled: no legal action remained")
    return 0


def _parse_methods(raw: str) -> tuple[harness.ExperimentMethod, ...]:
    methods = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            methods.append(harness.ExperimentMethod(token))
        except ValueError:
            valid = ", ".join(m.value for m in harness.ExperimentMethod)
            raise ValueError(f"unknown method {token!r} (expected one of: {valid})") from None
    if not methods:
        raise ValueError("no methods selected")
    return tuple(methods)


# Experiment config JSON keys, which are also the flag names, mapped to the
# ExperimentConfig fields they set.
_EXPERIMENT_KEYS = {
    "methods": "methods",
    "k_values": "k_values",
    "repeats": "repeats_per_cell",
    "sme_iterations": "sme_iterations",
    "sm_iterations": "sm_iterations",
    "fluctuation_calls": "fluctuation_calls",
    "seed": "seed",
}


def _experiment_value(key: str, value):
    """Coerce one config-file or flag value to its ExperimentConfig type;
    list settings may be JSON lists or comma-separated strings."""
    if key in ("methods", "k_values"):
        raw = ",".join(str(v) for v in value) if isinstance(value, (list, tuple)) else str(value)
        if key == "methods":
            return _parse_methods(raw)
        return tuple(int(tok) for tok in raw.replace(",", " ").split())
    return int(value)


def _cmd_experiment(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    settings = {}
    if args.config is not None:
        settings = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(settings, dict):
            raise ValueError(f"{args.config}: experiment config must be a JSON object")
        unknown = sorted(set(settings) - set(_EXPERIMENT_KEYS))
        if unknown:
            raise ValueError(
                f"{args.config}: unknown experiment config key(s) {', '.join(unknown)} "
                f"(accepted: {', '.join(_EXPERIMENT_KEYS)})"
            )
    settings.update({key: getattr(args, key) for key in _EXPERIMENT_KEYS if getattr(args, key) is not None})
    config = replace(
        harness.ExperimentConfig(),
        **{_EXPERIMENT_KEYS[key]: _experiment_value(key, value) for key, value in settings.items()},
    )
    if args.oracle is None and any(m.feedback_kind == "custom" for m in config.methods):
        parser.error("customizability-driven methods require --oracle")
    threads = _threads()

    dataset = _load_dataset(args)
    profile = None
    if args.oracle is not None:
        profile = load_oracle_profile(args.oracle)

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
            print(
                f"  {failure.method} k={failure.k} seed={failure.seed}: {failure.error}",
                file=sys.stderr,
            )
        return 1
    return 0


_ACTION_RE = re.compile(r"^(init|split\(\d+\)|merge\(\d+,\d+\))(\+(split\(\d+\)|merge\(\d+,\d+\)))*$")

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
    checks cover step numbering, action syntax, feedback shape against k,
    best-flag consistency and (for SME) cluster-count preservation.
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
        if not _ACTION_RE.match(rec["action"]):
            violations.append(f"step {pos}: malformed action {rec['action']!r}")
        if len(rec["per_cluster_feedback"]) != rec["k"]:
            violations.append(
                f"step {pos}: {len(rec['per_cluster_feedback'])} feedback values for k={rec['k']}"
            )
    if violations:
        return violations
    if records[0]["action"] != "init":
        violations.append("step 0 is not the initial clustering")
    for rec in records[1:]:
        if "init" in rec["action"]:
            violations.append(f"step {rec['step']}: init action after step 0")
    aggregates = [rec["aggregate"] for rec in records]
    best_steps = [rec["step"] for rec in records if rec["is_best"]]
    if not best_steps or 0 not in best_steps:
        violations.append("step 0 must be marked as the initial best")
    # is_best marks strict improvements; each flagged step must beat every
    # earlier aggregate in one orientation or the other.
    for sense in (Sense.HIGHER_IS_BETTER, Sense.LOWER_IS_BETTER):
        ok = True
        best = aggregates[0]
        for rec in records[1:]:
            improved = sense.better(rec["aggregate"], best)
            if improved:
                best = rec["aggregate"]
            if improved != rec["is_best"]:
                ok = False
                break
        if ok:
            break
    else:
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

    run = sub.add_parser("run", help="one engine call on a dataset")
    run.add_argument("--dataset", required=True, help="dataset CSV")
    run.add_argument("--method", choices=["sme", "sm"], required=True)
    run.add_argument("--feedback", choices=["rss", "custom"], default="rss")
    run.add_argument("--k", type=int, required=True, help="initial cluster count")
    run.add_argument(
        "--iterations", type=int, default=None,
        help="default: " + ", ".join(f"{n} for {m.value}" for m, n in engines.DEFAULT_ITERATIONS.items()),
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--target", type=float, default=None, help="stop once the evaluation reaches this value")
    run.add_argument("--oracle", default=None, help="oracle profile JSON (required for custom feedback)")
    run.add_argument("--out", default=None, help="trace output path (JSON lines)")
    run.add_argument("--no-standardize", action="store_true", help="cluster on raw feature values")

    exp = sub.add_parser("experiment", help="full protocol grid")
    exp.add_argument("--dataset", required=True)
    exp.add_argument("--oracle", default=None)
    exp.add_argument("--out", required=True, help="report output directory")
    exp.add_argument("--config", default=None, help="experiment config JSON (flags override it)")
    exp.add_argument("--methods", default=None, help="comma-separated, e.g. sme:rss,sm:custom")
    exp.add_argument("--k-values", dest="k_values", default=None, help="comma-separated initial k values")
    exp.add_argument("--repeats", type=int, default=None)
    exp.add_argument("--sme-iterations", dest="sme_iterations", type=int, default=None)
    exp.add_argument("--sm-iterations", dest="sm_iterations", type=int, default=None)
    exp.add_argument("--fluctuation-calls", dest="fluctuation_calls", type=int, default=None)
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--no-standardize", action="store_true")

    val = sub.add_parser("validate", help="check an exported trace for invariant violations")
    val.add_argument("--trace", required=True, help="trace JSON-lines file")
    val.add_argument("--method", choices=["sme", "sm"], default=None)

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
