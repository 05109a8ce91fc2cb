"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the two protocol-scale checks (desk-scale impact comparisons on the
planted 20k-point dataset) dominate the runtime.
"""

import json
import time

import numpy as np
import pytest

from feedback_kmeans import (
    Clustering,
    CustomizabilityFeedback,
    EngineConfig,
    ExperimentConfig,
    ExperimentMethod,
    KMeansConfig,
    Method,
    OracleProfile,
    RssFeedback,
    bisect_cluster,
    build_oracle_profile,
    customizability_cluster,
    demo_generator_config,
    expected_relative_change,
    generate,
    lloyd,
    run_engine,
    run_experiment,
    standardize,
)
from feedback_kmeans.cli import main
from feedback_kmeans.rng import substream
from helpers import cluster_means, make_dataset, objective_sequence


def report_line(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert passed, f"{name}{suffix}"


@pytest.fixture(scope="module")
def planted_20k():
    config = demo_generator_config(n_points=20_000, seed=7)
    dataset, _ = standardize(generate(config))
    profile = build_oracle_profile(config)
    return dataset, profile


def _random_valid_clustering(rng, n, k, dim):
    points = rng.normal(size=(n, dim))
    ds = make_dataset(points)
    assignment = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
    centroids = points[rng.choice(n, size=k, replace=False)]
    return ds, Clustering(assignment=assignment, centroids=centroids)


def test_c01_rss_aggregate_matches_flat_sum():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 501))
        dim = int(rng.integers(1, 9))
        k = int(rng.integers(1, min(7, n)))
        ds, clustering = _random_valid_clustering(rng, n, k, dim)
        report = RssFeedback().evaluate(ds, clustering)
        diff = ds.points - clustering.centroids[clustering.assignment]
        flat = float(np.sum(np.einsum("nd,nd->n", diff, diff)) / n)
        worst_gap = max(worst_gap, abs(report.aggregate - flat))
    elapsed = time.perf_counter() - start
    report_line(
        "C1 weighted-mean RSS equals flat global sum",
        worst_gap <= 1e-12 and elapsed < 10.0,
        f"worst gap {worst_gap:.2e}, {elapsed:.1f}s over 100 datasets",
    )


def test_c02_lloyd_objective_monotone():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    violations = 0
    runs = 0
    for seed in range(50):
        n = int(rng.integers(30, 400))
        dim = int(rng.integers(2, 9))
        ds = make_dataset(rng.normal(size=(n, dim)) * rng.uniform(0.5, 3.0))
        k = int(rng.integers(2, 7))
        objective = objective_sequence(ds, KMeansConfig(k=min(k, n), seed=seed))
        runs += 1
        for earlier, later in zip(objective, objective[1:]):
            if later > earlier + 1e-12 * max(1.0, abs(earlier)):
                violations += 1
    elapsed = time.perf_counter() - start
    report_line(
        "C2 Lloyd objective non-increasing",
        violations == 0 and elapsed < 30.0,
        f"{violations} violations over {runs} runs, {elapsed:.1f}s",
    )


def test_c03_sme_preserves_cluster_count(planted_20k):
    config = demo_generator_config(n_points=1500, seed=31)
    dataset, _ = standardize(generate(config))
    profile = build_oracle_profile(config)
    violations = 0
    cells = 0
    for k in (2, 3, 4, 5, 6, 7):
        for seed in range(5):
            if seed < 4:
                provider = RssFeedback()
            else:
                provider = CustomizabilityFeedback(profile.with_rng_seed(seed))
            trace = run_engine(
                dataset, k, EngineConfig(method=Method.SME, feedback=provider, seed=seed)
            )
            cells += 1
            if {step.k for step in trace.steps} != {k}:
                violations += 1
    report_line(
        "C3 SME preserves k at every recorded step",
        violations == 0 and cells == 30,
        f"{violations} violations over {cells} cells",
    )


def test_c04_operator_count_parity(planted_small):
    dataset, _ = planted_small
    sm_trace = run_engine(
        dataset, 3, EngineConfig(method=Method.SM, feedback=RssFeedback(), seed=5, iterations=12)
    )
    sme_trace = run_engine(
        dataset, 3, EngineConfig(method=Method.SME, feedback=RssFeedback(), seed=5, iterations=6)
    )
    sm_actions, sme_actions = (sum(len(s.actions) for s in t.steps[1:]) for t in (sm_trace, sme_trace))
    sm_ok = sm_actions == 12 and len(sm_trace.evaluations()) == 13
    sme_ok = sme_actions == 12 and len(sme_trace.evaluations()) == 7
    report_line(
        "C4 operator-count parity (12 S/M actions vs 6 SME pairs)",
        sm_ok and sme_ok,
        f"S/M: {sm_actions} actions/{len(sm_trace.evaluations())} evals, "
        f"SME: {sme_actions} actions/{len(sme_trace.evaluations())} evals",
    )


def test_c05_split_local_improvement():
    rng = np.random.default_rng(505)
    checked = 0
    duplicate_clusters = 0
    violations = 0
    while checked < 100:
        n = int(rng.integers(8, 80))
        dim = int(rng.integers(1, 5))
        points = rng.normal(size=(n, dim))
        if rng.random() < 0.3:  # force duplicate-heavy clusters
            points = np.round(points)
        ds = make_dataset(points)
        k = int(rng.integers(2, 5))
        assignment = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        clustering = Clustering(assignment=assignment, centroids=cluster_means(ds, assignment, k))
        target = int(rng.integers(0, k))
        members = clustering.members(target)
        if members.size < 2:
            continue
        member_points = ds.points[members]
        has_duplicates = len(np.unique(member_points, axis=0)) < members.size
        if len(np.unique(member_points, axis=0)) < 2:
            continue  # unsplittable, engines skip these
        child_centroids, child_labels = bisect_cluster(ds, clustering, target, seed=checked)
        parent_diff = member_points - clustering.centroids[target]
        parent_cost = float(np.sum(parent_diff * parent_diff))
        child_diff = member_points - child_centroids[child_labels]
        child_cost = float(np.sum(child_diff * child_diff))
        checked += 1
        duplicate_clusters += has_duplicates
        if child_cost > parent_cost + 1e-12:
            violations += 1
    report_line(
        "C5 split never worsens the parent's weighted RSS contribution",
        violations == 0,
        f"{violations} violations over {checked} splits "
        f"({duplicate_clusters} duplicate-point clusters flagged)",
    )


def test_c06_oracle_closed_form():
    profile = OracleProfile(
        segment_weights={0: np.array([2.0, 0.0, 0.0, 0.0])},  # ||w*||^2 = 4
        score_offset=10.0,
        noise_sigma=0.0,
    )
    n = 40
    ds = make_dataset(
        np.zeros((n, 2)),
        bookings=np.arange(n, 0, -1),
        hidden_segment=np.zeros(n, dtype=int),
    )
    value = customizability_cluster(ds, np.arange(n), profile, substream(6))
    expected = (10.0 - 6.0) / 6.0
    gap = abs(value - expected)
    report_line(
        "C6 segment-pure oracle value equals (10-6)/6",
        gap <= 1e-9,
        f"value {value!r}, gap {gap:.2e}",
    )


def test_c07_fluctuation_statistic():
    config = demo_generator_config(n_points=300, seed=77)
    dataset, _ = standardize(generate(config))
    clustering = lloyd(dataset, KMeansConfig(k=3, seed=2))
    assert clustering.sizes().max() <= 200  # keeps the sigma=0 oracle exact
    quiet = CustomizabilityFeedback(build_oracle_profile(config, noise_sigma=0.0, rng_seed=1))
    noisy = CustomizabilityFeedback(build_oracle_profile(config, noise_sigma=0.05, rng_seed=1))
    at_zero = expected_relative_change(dataset, clustering, quiet, calls=10, seed=3)
    at_noise = expected_relative_change(dataset, clustering, noisy, calls=10, seed=3)
    report_line(
        "C7 fluctuation: zero without noise, positive with noise",
        at_zero == 0.0 and at_noise > 0.0,
        f"sigma=0 -> {at_zero!r}, sigma=0.05 -> {at_noise:.5f} over 10 calls",
    )


def test_c08_desk_scale_own_feedback_impacts(planted_20k):
    start = time.perf_counter()
    dataset, profile = planted_20k
    config = ExperimentConfig(
        methods=(ExperimentMethod.SME_RSS, ExperimentMethod.SME_CUSTOM),
        k_values=(2, 3, 4, 5, 6, 7),
        repeats_per_cell=3,
        seed=808,
    )
    report = run_experiment(dataset, config, profile)
    elapsed = time.perf_counter() - start
    means = report.mean_by("impact", "method")
    rss_mean = means.get("sme:rss", float("nan"))
    custom_mean = means.get("sme:custom", float("nan"))
    ratio = custom_mean / rss_mean if rss_mean > 0 else float("inf")
    ok = (
        not report.failures
        and rss_mean > 0
        and custom_mean > 0
        and 0.1 <= ratio <= 10.0
        and elapsed < 300.0
    )
    report_line(
        "C8 both SME impacts positive and within one order of magnitude",
        ok,
        f"SME(RSS) {rss_mean:.4f}, SME(Custom) {custom_mean:.4f}, ratio {ratio:.2f}, {elapsed:.0f}s",
    )


def test_c09_desk_scale_customizability_comparison(planted_20k):
    start = time.perf_counter()
    dataset, profile = planted_20k
    config = ExperimentConfig(
        methods=(
            ExperimentMethod.SM_CUSTOM,
            ExperimentMethod.SME_RSS,
            ExperimentMethod.SM_RSS,
        ),
        k_values=(2, 3, 4, 5, 6, 7),
        repeats_per_cell=5,
        seed=909,
    )
    report = run_experiment(dataset, config, profile)
    elapsed = time.perf_counter() - start
    means = report.mean_by("custom_impact", "method")
    sm_custom = means.get("sm:custom", float("nan"))
    rivals = {m: v for m, v in means.items() if m != "sm:custom"}
    ok = (
        not report.failures
        and bool(rivals)
        and all(sm_custom >= v for v in rivals.values())
        and elapsed < 600.0
    )
    if not ok:
        # full per-cell detail rather than a bare failure
        for record in report.records:
            print(
                f"  {record.method} k={record.k} seed={record.seed} "
                f"impact={record.impact:.4f} custom_impact={record.custom_impact}"
            )
    detail = ", ".join(f"{m} {v:.4f}" for m, v in sorted(means.items()))
    report_line(
        "C9 S/M(Custom) leads every RSS-driven method on customizability",
        ok,
        f"{detail}, {elapsed:.0f}s",
    )


def test_c10_byte_identical_reruns(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "n_points": 300,
                "seed": 12,
                "segments": [
                    {
                        "id": 0,
                        "mixture_weight": 0.5,
                        "feature_means": [800.0, 7.0, 2.0, 1.0, 0.0, 0.0, 1.0, 4.0],
                        "feature_stddevs": [200.0, 3.0, 1.0, 0.3, 0.1, 0.3, 1.0, 1.0],
                        "oracle_weights": [2.0, 0.0],
                        "booking_lognormal": [3.0, 1.0],
                    },
                    {
                        "id": 1,
                        "mixture_weight": 0.5,
                        "feature_means": [3000.0, 60.0, 14.0, 2.0, 0.0, 2.0, 3.0, 3.0],
                        "feature_stddevs": [800.0, 15.0, 4.0, 0.5, 0.3, 0.4, 2.0, 2.0],
                        "oracle_weights": [0.0, 1.5],
                        "booking_lognormal": [2.5, 1.2],
                    },
                ],
                "oracle": {"sample_size": 30},
            }
        )
    )
    outputs = []
    for tag in ("a", "b"):
        base = tmp_path / tag
        main(["generate", "--config", str(config_path), "--out", str(base)])
        trace = base / "trace.jsonl"
        main(
            [
                "run", "--dataset", str(base / "dataset.csv"), "--method", "sm",
                "--feedback", "custom", "--k", "2", "--seed", "6",
                "--oracle", str(base / "oracle.json"), "--out", str(trace),
            ]
        )
        main(
            [
                "experiment", "--dataset", str(base / "dataset.csv"),
                "--oracle", str(base / "oracle.json"), "--out", str(base / "report"),
                "--methods", "sme:custom,sm:rss", "--k-values", "2,3", "--repeats", "1",
                "--seed", "6", "--fluctuation-calls", "3",
            ]
        )
        outputs.append(
            tuple(
                path.read_bytes()
                for path in (
                    base / "dataset.csv",
                    base / "oracle.json",
                    trace,
                    base / "report" / "report.csv",
                    base / "report" / "report.json",
                )
            )
        )
    identical = outputs[0] == outputs[1]
    report_line(
        "C10 identical seeds reproduce byte-identical files",
        identical,
        "dataset, oracle, trace and both report files compared",
    )
