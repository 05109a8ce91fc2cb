"""End-to-end desk-scale protocol run on the planted four-segment mix.

Generates the 20k-point dataset, runs all four methods over k in [2..7]
with 3 repeats, and prints the two comparison tables: each method's impact
on its own driving feedback, and every method's impact on customizability
(the axis the application cares about), plus the per-k breakdown and the
evaluation-fluctuation statistic per k.

Run: python scripts/desk_experiment.py [n_points] [seed]
"""

import sys
import time

from feedback_kmeans import (
    ExperimentConfig,
    build_oracle_profile,
    demo_generator_config,
    generate,
    run_experiment,
    standardize,
)


def main() -> None:
    n_points = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7

    config = demo_generator_config(n_points=n_points, seed=seed)
    dataset, _ = standardize(generate(config))
    profile = build_oracle_profile(config)
    print(f"dataset: {dataset.n_points} points, {dataset.n_features} features, "
          f"{len(config.segments)} hidden segments")

    experiment = ExperimentConfig(repeats_per_cell=3, seed=seed)
    start = time.perf_counter()
    report = run_experiment(dataset, experiment, profile)
    print(f"ran {len(report.records) + len(report.failures)} cells in {time.perf_counter() - start:.1f}s "
          f"({len(report.failures)} failed)\n")
    for failure in report.failures:
        print(f"failed: {failure}", file=sys.stderr)

    own = report.mean_by("impact", "method")
    custom = report.mean_by("custom_impact", "method")
    print(f"{'method':<12}{'own-feedback impact':>22}{'customizability impact':>25}")
    for method in experiment.methods:
        print(f"{method.value:<12}{own[method.value]:>22.4f}{custom[method.value]:>25.4f}")

    print("\ncustomizability impact by initial k:")
    per_k = report.mean_by("custom_impact", "method", "k")
    ks = experiment.k_values
    print(f"{'method':<12}" + "".join(f"{k:>9}" for k in ks))
    for method in experiment.methods:
        row = per_k[method.value]
        print(f"{method.value:<12}" + "".join(f"{row.get(k, float('nan')):>9.4f}" for k in ks))

    print("\nmean initial customizability by k:")
    for k, value in report.mean_by("custom_initial", "k").items():
        print(f"  k={k}: {value:.4f}")

    if report.fluctuation_by_k:
        print("\nexpected relative change of the evaluation (10 calls, fixed clustering):")
        for k, value in report.fluctuation_by_k.items():
            print(f"  k={k}: {value:.4f}")

    print("\nfinal-k distribution of the best clusterings (k may drift under S/M):")
    for method in ("sm:rss", "sm:custom"):
        print(f"  {method}: {report.final_k_distribution(method)}")


if __name__ == "__main__":
    main()
