import ast
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import feedback_kmeans
from feedback_kmeans import (
    Clustering,
    Dataset,
    FeedbackReport,
    OracleProfile,
    Sense,
    validate_clustering,
)
from feedback_kmeans.core import as_number, check_keys, read_json

from helpers import make_dataset


@pytest.mark.parametrize("value", [3, 2.5, -0.0, np.int32(4), np.float32(0.25), 10**20])
def test_as_number_takes_finite_ints_and_floats(value):
    assert as_number("x", value) == float(value) and type(as_number("x", value)) is float


@pytest.mark.parametrize("value", [True, "0.05", None, float("nan"), float("inf"), -np.inf, [1.0], pytest.param(-(10**400), id="-10**400")])
def test_as_number_rejects_the_rest_by_name(value):
    with pytest.raises(ValueError, match=rf"^noise_sigma must be a finite int or float, got {re.escape(repr(value))}$"):
        as_number("noise_sigma", value)


@pytest.mark.parametrize(
    "content, error", [(b'{"a": 1,}', "Expecting property name"), (b'{"a": "\xff"}', "'utf-8' codec can't decode")]
)
def test_read_json_names_the_file_it_cannot_parse(tmp_path, content, error):
    path = tmp_path / "f.json"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=rf"^settings f\.json: {error}"):
        read_json(path, "settings f.json")



def test_check_keys_names_the_file_the_block_and_the_keys():
    check_keys("f.json", "top level", {"a": 1}, ("a", "b"))
    with pytest.raises(ValueError, match=r"^f\.json: unknown top level key\(s\) c, d \(accepted: a, b\)$"):
        check_keys("f.json", "top level", {"d": 1, "a": 2, "c": 3}, ("a", "b"))
    with pytest.raises(ValueError, match=r"^f\.json: top level must be a JSON object$"):
        check_keys("f.json", "top level", [1], ("a", "b"))


def test_minimal_valid_clustering():
    ds = make_dataset([[0, 0], [1, 0], [0, 1], [1, 1]])
    clustering = Clustering(assignment=[0, 0, 0, 0], centroids=[[0.5, 0.5]])
    assert validate_clustering(ds, clustering) == []


def test_empty_cluster_reported():
    ds = make_dataset([[0, 0], [1, 0], [0, 1], [1, 1]])
    clustering = Clustering(assignment=[0, 0, 1, 1], centroids=np.zeros((3, 2)))
    violations = validate_clustering(ds, clustering)
    assert violations == ["cluster 2 empty"]


def test_assignment_length_mismatch():
    ds = make_dataset([[0, 0], [1, 0], [0, 1], [1, 1]])
    clustering = Clustering(assignment=[0, 0, 1], centroids=np.zeros((2, 2)))
    violations = validate_clustering(ds, clustering)
    assert len(violations) == 1
    assert "assignment length mismatch" in violations[0]


def test_centroid_count_and_dimension_mismatches():
    ds = make_dataset([[0, 0], [1, 1]])
    # k is the centroid count, so an extra centroid is an empty cluster
    clustering = Clustering(assignment=[0, 1], centroids=np.zeros((3, 2)))
    assert clustering.k == 3
    assert validate_clustering(ds, clustering) == ["cluster 2 empty"]
    clustering = Clustering(assignment=[0, 1], centroids=np.zeros((2, 5)))
    assert any("centroid dimension mismatch" in v for v in validate_clustering(ds, clustering))


def test_assignment_out_of_range():
    ds = make_dataset([[0, 0], [1, 1]])
    clustering = Clustering(assignment=[0, 7], centroids=np.zeros((2, 2)))
    assert validate_clustering(ds, clustering) == ["assignment value out of range"]


def test_dataset_stores_codes_as_a_tuple_of_str():
    ds = make_dataset([[0.0], [1.0], [2.0]], origins=[7, "LHR", np.int64(3)], destinations=("AAA", 1.5, "BBB"))
    assert ds.origins == ("7", "LHR", "3")
    assert ds.destinations == ("AAA", "1.5", "BBB")
    for codes in (ds.origins, ds.destinations):
        assert type(codes) is tuple and all(type(code) is str for code in codes)


def test_dataset_invariants():
    with pytest.raises(ValueError, match="empty"):
        Dataset(points=np.zeros((0, 2)), feature_names=("a", "b"))
    with pytest.raises(ValueError, match="feature_names"):
        make_dataset([[1, 2]], feature_names=("only-one",))
    with pytest.raises(ValueError, match="one entry per point"):
        make_dataset([[1, 2], [3, 4]], bookings=[5])
    with pytest.raises(ValueError, match="non-negative"):
        make_dataset([[1, 2]], bookings=[-1])
    with pytest.raises(ValueError, match="one entry per point"):
        make_dataset([[1, 2], [3, 4]], hidden_segment=[0, 0, 0])
    with pytest.raises(ValueError, match="origins"):
        make_dataset([[1, 2], [3, 4]], origins=("AAA",))
    with pytest.raises(ValueError, match=r"finite: row\(s\) \[1, 3\]"):
        make_dataset([[0.0, 1.0], [np.nan, 1.0], [2.0, 3.0], [4.0, -np.inf]])
    with pytest.raises(ValueError, match=r"bookings must be integral: entry\(s\) \[0, 1\]"):
        make_dataset([[0.0], [1.0]], bookings=[1.7, 2.2])
    with pytest.raises(ValueError, match=r"hidden_segment must be integral: entry\(s\) \[0, 1\]"):
        make_dataset([[0.0], [1.0]], hidden_segment=[0.9, 1.5])
    with pytest.raises(ValueError, match="bookings must be integral"):
        make_dataset([[0.0], [1.0]], bookings=[1.0, np.nan])
    assert make_dataset([[0.0], [1.0]], bookings=[1.0, 2.0]).bookings.tolist() == [1, 2]


def test_dataset_points_are_read_only():
    ds = make_dataset([[1.0, 2.0]])
    with pytest.raises(ValueError):
        ds.points[0, 0] = 5.0


@pytest.mark.parametrize(
    "caller, stored",
    [
        (np.array([0, 1]), lambda a: Clustering(assignment=a, centroids=[[0.0], [1.0]]).assignment),
        (np.array([[0.0], [1.0]]), lambda c: Clustering(assignment=[0, 1], centroids=c).centroids),
        (np.array([[0.0], [1.0]]), lambda p: Dataset(points=p, feature_names=("a",)).points),
        (np.array([3, 4]), lambda b: make_dataset([[0.0], [1.0]], bookings=b).bookings),
        (np.array([0, 1]), lambda s: make_dataset([[0.0], [1.0]], hidden_segment=s).hidden_segment),
        (np.array([1.0, 0.0]), lambda w: OracleProfile(segment_weights={0: w}).segment_weights[0]),
    ],
    ids=["assignment", "centroids", "points", "bookings", "hidden_segment", "segment_weights"],
)
def test_construction_leaves_the_callers_array_writeable(caller, stored):
    kept = stored(caller)
    before = kept.copy()
    caller[0] += 1  # raises if construction froze the caller's own array
    assert not kept.flags.writeable
    np.testing.assert_array_equal(kept, before)


def test_adopt_shares_the_arrays_it_is_handed_and_freezes_them():
    assignment, centroids = np.array([0, 1]), np.array([[0.0], [1.0]])
    clustering = Clustering.adopt(assignment, centroids)
    assert clustering.assignment is assignment and clustering.centroids is centroids
    assert not assignment.flags.writeable and not centroids.flags.writeable


def test_columns_are_the_points_feature_major_read_only_and_cached():
    points = np.random.default_rng(3).normal(size=(7, 3))
    ds = make_dataset(points)
    assert "columns" not in vars(ds)  # built on first use
    columns = ds.columns
    assert columns.tobytes() == np.ascontiguousarray(points.T).tobytes()
    assert columns.flags.c_contiguous and not columns.flags.writeable
    assert ds.columns is columns


def test_duplicate_points_are_allowed():
    ds = make_dataset([[1.0, 2.0], [1.0, 2.0]])
    assert ds.n_points == 2


def test_booking_rank_orders_by_descending_bookings_ties_to_lowest_index():
    ds = make_dataset(np.zeros((6, 1)), bookings=[3, 7, 3, 0, 7, 3])
    assert ds.booking_rank.tolist() == [1, 4, 0, 2, 5, 3]
    assert ds.booking_rank is ds.booking_rank  # computed once
    assert not ds.booking_rank.flags.writeable
    with pytest.raises(ValueError, match="no bookings"):
        make_dataset(np.zeros((2, 1))).booking_rank


def test_feedback_report_requires_values():
    with pytest.raises(ValueError):
        FeedbackReport(per_cluster=(), aggregate=0.0, sense=Sense.LOWER_IS_BETTER)


@pytest.mark.parametrize(
    "per_cluster, aggregate, message",
    [
        ((1.0, float("nan")), 1.0, "feedback of cluster 1 is not finite: nan"),
        ((float("-inf"), 1.0), 1.0, "feedback of cluster 0 is not finite: -inf"),
        ((1.0, 2.0), float("nan"), "aggregate feedback is not finite: nan"),
        ((1.0,), float("inf"), "aggregate feedback is not finite: inf"),
    ],
)
def test_feedback_report_rejects_a_non_finite_value_by_name(per_cluster, aggregate, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FeedbackReport(per_cluster=per_cluster, aggregate=aggregate, sense=Sense.LOWER_IS_BETTER)


def test_sense_better_is_strict():
    assert Sense.HIGHER_IS_BETTER.better(1.0, 0.5)
    assert not Sense.HIGHER_IS_BETTER.better(0.5, 0.5)
    assert Sense.LOWER_IS_BETTER.better(0.5, 1.0)
    assert not Sense.LOWER_IS_BETTER.better(1.0, 1.0)


def test_sense_worst_first_breaks_ties_to_lowest_id():
    values = (0.5, 2.0, 0.5, 2.0, 1.0)
    assert Sense.LOWER_IS_BETTER.worst_first(values) == [1, 3, 4, 0, 2]
    assert Sense.HIGHER_IS_BETTER.worst_first(values) == [0, 2, 4, 1, 3]


def test_sense_reached_is_inclusive():
    assert Sense.HIGHER_IS_BETTER.reached(0.5, 0.5)
    assert Sense.HIGHER_IS_BETTER.reached(0.6, 0.5)
    assert not Sense.HIGHER_IS_BETTER.reached(0.4, 0.5)
    assert Sense.LOWER_IS_BETTER.reached(0.5, 0.5)
    assert Sense.LOWER_IS_BETTER.reached(0.4, 0.5)
    assert not Sense.LOWER_IS_BETTER.reached(0.6, 0.5)


def test_sense_best_flags_mark_the_first_value_and_strict_improvements():
    values = (2.0, 3.0, 1.0, 1.0, 3.0, 0.5)
    assert Sense.LOWER_IS_BETTER.best_flags(values) == [True, False, True, False, False, True]
    assert Sense.HIGHER_IS_BETTER.best_flags(values) == [True, True, False, False, False, False]
    assert Sense.LOWER_IS_BETTER.best_flags([]) == []


@given(values=st.lists(st.integers(min_value=-3, max_value=3), max_size=12), sense=st.sampled_from(Sense))
def test_sense_best_flags_match_their_definition(values, sense):
    expected = [all(sense.better(v, earlier) for earlier in values[:i]) for i, v in enumerate(values)]
    assert sense.best_flags(values) == expected


@given(
    n=st.integers(min_value=1, max_value=40),
    k=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_accepted_clusterings_are_surjective_with_sizes_summing(n, k, seed):
    rng = np.random.default_rng(seed)
    k = min(k, n)
    # surjective by construction: first k points get ids 0..k-1
    assignment = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    points = rng.normal(size=(n, 3))
    ds = Dataset(points=points, feature_names=("a", "b", "c"))
    clustering = Clustering(assignment=assignment, centroids=rng.normal(size=(k, 3)))
    assert validate_clustering(ds, clustering) == []
    sizes = clustering.sizes()
    assert sizes.sum() == n
    assert (sizes > 0).all()
    for cid in range(k):
        assert cid in assignment


# ---------------------------------------------------------------- package

def test_the_package_imports_nothing_beyond_numpy_and_the_standard_library():
    imported = set()
    for path in sorted(Path(feedback_kmeans.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # a relative import has level >= 1
                imported.add(node.module.partition(".")[0])
    assert "numpy" in imported
    assert imported - sys.stdlib_module_names - {"numpy"} == set()


# Package functions that hand a sum of products to an einsum, BLAS or
# matmul loop, by (file, function, loop): such a loop may accumulate
# through a fused multiply-add or in an order set by the build, so an
# output it sums can differ in its last bit from build to build. The
# distance kernels sum in one fixed order of IEEE adds instead
# (kmeans._fold_lanes). These are the known exceptions: a new call fails
# the guard below, and a call rewritten in a fixed order leaves the table.
SUMMING_CALLS = {
    ("feedback.py", "aggregate_weighted", "dot"): 1,
    ("feedback.py", "OracleProfile.__post_init__", "@"): 2,
    ("feedback.py", "customizability_cluster", "einsum"): 2,
    ("kmeans.py", "lloyd_history", "einsum"): 1,
    ("operators.py", "_centroid_distances", "matmul"): 1,
}


def test_only_the_known_functions_sum_through_einsum_blas_or_matmul():
    loops = {"einsum", "dot", "vdot", "inner", "matmul", "tensordot"}
    found = Counter()

    def visit(node, file, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        name = None
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            name = "@"
        if name in loops or name == "@":
            found[(file, scope or "<module>", name)] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, file, scope)

    for path in sorted(Path(feedback_kmeans.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.name, "")
    assert dict(found) == SUMMING_CALLS
