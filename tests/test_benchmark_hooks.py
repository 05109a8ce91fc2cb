"""The benchmark's tracer and run log hook package names by string; a rename
or deletion here breaks them without failing any other test."""

import contextlib
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from feedback_kmeans import Clustering, CustomizabilityFeedback, OracleProfile, engines, feedback, harness
from feedback_kmeans import cli, ingest, kmeans, operators, save_oracle_profile, synth
from helpers import make_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracer = _load_tracer()
    for module_name, func_name, _, _ in tracer.FUNCTIONS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"
    for module_name, class_name, method, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"{tracer.PACKAGE}.{module_name}"), class_name)
        assert method in cls.__dict__, f"{module_name}.{class_name}.{method}"
    # RunLog observes every engine run by rebinding harness.run_engine.
    assert harness.run_engine is engines.run_engine


def test_every_method_run_goes_through_harness_run_engine(tmp_path, monkeypatch):
    # RunLog sees a run only if it calls harness.run_engine: both the CLI's
    # run command and each experiment cell do, through harness.run_method.
    calls = []
    original = harness.run_engine

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(harness, "run_engine", counted)
    config = synth.demo_generator_config(n_points=240, seed=3)
    dataset = synth.generate(config)
    profile = synth.build_oracle_profile(config)
    ingest.write_csv(dataset, tmp_path / "dataset.csv")
    save_oracle_profile(profile, tmp_path / "oracle.json")
    argv = ["run", "--dataset", str(tmp_path / "dataset.csv"), "--oracle", str(tmp_path / "oracle.json")]
    assert cli.main(argv + ["--method", "sm", "--feedback", "custom", "--k", "3", "--iterations", "2"]) == 0
    assert len(calls) == 1
    experiment = harness.ExperimentConfig(k_values=(2, 3), repeats_per_cell=1, sme_iterations=1, sm_iterations=1)
    harness.run_experiment(dataset, experiment, profile)
    assert len(calls) == 1 + 4 * 2


def test_custom_evaluate_looks_up_the_oracle_at_call_time(monkeypatch):
    # The tracer counts feedback.customizability_cluster by rebinding the
    # module global; an evaluate that bound the function early would read 0.
    calls = []
    original = feedback.customizability_cluster

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(feedback, "customizability_cluster", counted)
    ds = make_dataset(
        [[0.0], [0.1], [5.0], [5.1], [9.0], [9.1]],
        bookings=np.arange(6, 0, -1),
        hidden_segment=np.zeros(6, dtype=np.int64),
    )
    clustering = Clustering(assignment=[0, 0, 1, 1, 2, 2], centroids=[[0.05], [5.05], [9.05]])
    provider = CustomizabilityFeedback(OracleProfile(segment_weights={0: np.array([1.0, 0.0])}))
    provider.evaluate(ds, clustering, provider.evaluation_rng(0))
    assert len(calls) == 3


def test_lloyd_updates_centroids_through_the_module_global(monkeypatch):
    # The tracer times kmeans.update_centroids by rebinding the module
    # global: Lloyd must call it once per update+assign iteration, except
    # the last iteration of a converged run, which follows a pass that
    # moved no point, is recorded as 0 rows and runs no update.
    calls = []
    original = kmeans.update_centroids

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kmeans, "update_centroids", counted)
    rng = np.random.default_rng(5)
    dataset = make_dataset(np.vstack([rng.normal(0, 1, (60, 2)), rng.normal(6, 1, (60, 2))]))
    _, history = kmeans.lloyd_history(dataset, kmeans.KMeansConfig(k=3, seed=1))
    assert len(history) > 4 and history[-1] == 0
    assert len(calls) == len(history) - 2
    # Capped before it converges, every iteration runs its update.
    calls.clear()
    _, history = kmeans.lloyd_history(dataset, kmeans.KMeansConfig(k=3, seed=1, max_iterations=3))
    assert len(history) == 4 and len(calls) == len(history) - 1


def test_split_runs_its_2_means_through_lloyd_on_the_members():
    # The tracer counts kmeans.lloyd.calls by rebinding operators.lloyd, and
    # Lloyd iterations from kmeans.lloyd_history's second positional
    # argument: a split's bisect must reach both, once.
    rng = np.random.default_rng(2)
    dataset = make_dataset(np.vstack([rng.normal(c, 0.5, (30, 2)) for c in (0.0, 4.0, 8.0)]))
    clustering = kmeans.lloyd(dataset, kmeans.KMeansConfig(k=3, seed=1))
    distances = operators.distance_rows(dataset, clustering.centroids)
    calls = {"lloyd": [], "lloyd_history": []}
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        with pytest.MonkeyPatch.context() as patch:
            # Spies over the tracer's wrappers, removed before them.
            for module, name in ((operators, "lloyd"), (kmeans, "lloyd_history")):
                def counted(*args, _name=name, _traced=getattr(module, name)):
                    calls[_name].append(args)
                    return _traced(*args)
                patch.setattr(module, name, counted)
            tracer.active = True
            operators.split_cluster(dataset, clustering, distances, target=1, seed=5)
            tracer.active = False
    finally:
        tracer.uninstall()
    [lloyd_args] = calls["lloyd"]
    [(_, config, members)] = calls["lloyd_history"]
    assert lloyd_args[2] is members
    assert isinstance(config, kmeans.KMeansConfig) and config.k == 2
    np.testing.assert_array_equal(members, clustering.members(1))
    _, history = kmeans.lloyd_history(dataset, config, members)
    assert tracer.counts["kmeans.lloyd.iterations"] == len(history) - 1 > 0
    assert tracer_module.layer_metrics(tracer)["kmeans.lloyd.calls"] == (1, "count")


# The 240-point desk_grid pass's digest by OpenBLAS kernel
# (OPENBLAS_CORETYPE, or the kernel DYNAMIC_ARCH picks).
PASS_DIGESTS = {
    "SkylakeX": "e54b4da718750a07e05f7d5174c442fd4e6a3f3ce5c981f4f40cfcaa4da7454a",
    "Haswell, Sandybridge": "4dd13dd1fca77a4a52f4cdf047c623d397dbe7f521021e193d2b197653ceeca6",
}


def test_csv_workload_setup_and_pass_check_clean(tmp_path, monkeypatch):
    # desk_grid and deep_refine build their inputs through write_csv,
    # read_csv(standardize=True) and build_oracle_profile; a 240-point,
    # one-dataset copy of desk_grid runs that set-up and the pass's checks.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    speed = importlib.import_module("speed")
    workload = dataclasses.replace(workloads.WORKLOADS["desk_grid"], n_points=240, n_datasets=1)
    assert workload.via_csv
    inputs = workloads.setup(workload, 7, tmp_path)
    [(ds_seed, dataset, profile)] = inputs
    assert (tmp_path / f"dataset-{ds_seed}.csv").is_file()
    assert dataset.n_points == 240 and np.allclose(dataset.points.mean(axis=0), 0.0)
    assert profile.rng_seed == ds_seed
    result = workloads.run_pass(workload, inputs, tmp_path, contextlib.nullcontext, speed.SpeedProbe())
    assert result.problems == []
    assert result.cells == 24
    # The pass's output digest sees a change of summation order that the
    # CLI goldens miss (the oracle's norms through np.add.reduce, for one).
    # aggregate_weighted's np.dot sets a last bit by OpenBLAS kernel, so
    # each kernel this was pinned on has its digest.
    assert result.digest in PASS_DIGESTS.values()
