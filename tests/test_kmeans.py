import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import feedback_kmeans
from feedback_kmeans import (
    Clustering,
    KMeansConfig,
    assign_points,
    init_centroids,
    lloyd,
    repair_empty,
    validate_clustering,
)
from feedback_kmeans import kmeans
from feedback_kmeans.kmeans import lloyd_history

from helpers import (
    broadcast_squared_distances,
    cluster_means,
    lane_fold_squared_distances,
    make_dataset,
    objective_sequence,
    plain_lloyd,
    squared_distances,
    weighted_rss,
)


# ---------------------------------------------------------------- init

def _init(ds, k, seed):
    return init_centroids(ds.columns, ds.row_ids, k, seed)


def test_init_forced_selection_with_exactly_k_points():
    ds = make_dataset([[0, 0], [5, 5], [9, 1]])
    centroids = _init(ds, k=3, seed=0)
    assert sorted(centroids.tolist()) == sorted(ds.points.tolist())
    assert centroids.shape == (3, 2) and centroids.flags.c_contiguous


def test_init_deterministic_per_seed():
    rng = np.random.default_rng(1)
    ds = make_dataset(rng.normal(size=(200, 4)))
    first = _init(ds, k=5, seed=99)
    second = _init(ds, k=5, seed=99)
    np.testing.assert_array_equal(first, second)


def test_init_seeds_differ():
    rng = np.random.default_rng(2)
    ds = make_dataset(rng.normal(size=(1000, 3)))
    a = _init(ds, k=3, seed=0)
    b = _init(ds, k=3, seed=1)
    assert not np.array_equal(a, b)


def test_init_errors_on_too_few_distinct_points():
    ds = make_dataset([[1, 1], [1, 1], [2, 2]])
    with pytest.raises(ValueError, match="k exceeds distinct points"):
        _init(ds, k=3, seed=0)
    centroids = _init(ds, k=2, seed=0)
    assert len(np.unique(centroids, axis=0)) == 2


def test_empty_members_name_the_distinct_count():
    ds = make_dataset([[1, 1], [2, 2], [3, 3]])
    message = "^k exceeds distinct points: k=2, distinct=0$"
    with pytest.raises(ValueError, match=message):
        lloyd(ds, KMeansConfig(k=2, seed=0), np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match=message):
        init_centroids(np.empty((2, 0)), np.array([], dtype=np.int64), 2, seed=0)


def _sorted_distinct_draw(points, k, seed):
    # The draw as a sort of the points' own rows makes it.
    distinct = np.unique(points, axis=0)
    rng = np.random.default_rng(seed)
    return distinct[rng.choice(distinct.shape[0], size=k, replace=False)]


def test_init_on_subset_matches_sorted_distinct_draw():
    # A split's 2-means draws from its members' points with the dataset's
    # row ids at those members, which skip the ranks of the rows left out.
    rng = np.random.default_rng(5)
    pool = rng.integers(0, 4, size=(30, 3)).astype(float)
    ds = make_dataset(pool[rng.integers(0, 30, size=300)])  # many duplicate rows
    members = np.flatnonzero(ds.points[:, 0] != 1.0)  # drops some distinct rows
    points, ids = ds.points[members], ds.row_ids[members]
    distinct = len(np.unique(points, axis=0))
    assert distinct < len(np.unique(ds.points, axis=0))
    for k in (1, 2, 5, distinct):
        for seed in range(6):
            np.testing.assert_array_equal(
                init_centroids(points.T, ids, k, seed), _sorted_distinct_draw(points, k, seed)
            )
            np.testing.assert_array_equal(_init(ds, k, seed), _sorted_distinct_draw(ds.points, k, seed))
    with pytest.raises(ValueError, match=f"k exceeds distinct points: k={distinct + 1}, distinct={distinct}"):
        init_centroids(points.T, ids, distinct + 1, seed=0)
    # Members of those members: their ids skip the ranks of both dropped sets.
    nested = members[points[:, 1] != 2.0]
    points, ids = ds.points[nested], ds.row_ids[nested]
    sparse = np.unique(ids)
    distinct = sparse.size
    assert distinct < len(np.unique(ds.points[members], axis=0))
    assert sparse[-1] + 1 > distinct  # some ids below the largest are absent
    for k in (1, 2, 5, distinct):
        for seed in range(6):
            np.testing.assert_array_equal(
                init_centroids(points.T, ids, k, seed), _sorted_distinct_draw(points, k, seed)
            )
    with pytest.raises(ValueError, match=f"k exceeds distinct points: k={distinct + 1}, distinct={distinct}"):
        init_centroids(points.T, ids, distinct + 1, seed=0)


# ---------------------------------------------------------------- assign

def test_assign_point_on_centroid():
    ds = make_dataset([[3.0, 3.0]])
    centroids = np.array([[0.0, 0.0], [9.0, 9.0], [3.0, 3.0]])
    assert assign_points(ds, centroids)[0].tolist() == [2]


def test_assign_tie_goes_to_lowest_index():
    ds = make_dataset([[1.0, 0.0]])
    centroids = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert assign_points(ds, centroids)[0].tolist() == [0]


def test_assign_hand_computed_two_centroids():
    # squared distances to (0,0) / (10,0): (4,1) -> 17 vs 37; (6,-1) -> 37 vs 17
    ds = make_dataset([[4.0, 1.0], [6.0, -1.0]])
    centroids = np.array([[0.0, 0.0], [10.0, 0.0]])
    assignment, distances = assign_points(ds, centroids)
    assert assignment.tolist() == [0, 1]
    assert distances.tolist() == [[17.0, 37.0], [37.0, 17.0]]  # row c: every point's distance to centroid c


def test_assign_two_centroids_equals_argmin_with_ties_to_id_0():
    # On an integer grid many points lie as far from one centroid as from
    # the other; the k=2 column compare must give each of them id 0.
    ds = make_dataset([[x, y] for x in range(-3, 6) for y in range(-3, 4)])
    for centroids in ([[0, 0], [2, 0]], [[2, 0], [0, 0]], [[1, -1], [1, 1]], [[0, 0], [2, 2]], [[1, 1], [1, 1]]):
        assignment, distances = assign_points(ds, centroids)
        ties = distances[0] == distances[1]
        assert ties.sum() >= 7
        assert assignment.dtype == np.int64
        assert np.array_equal(assignment, distances.argmin(axis=0))
        assert not assignment[ties].any()


def test_assign_points_reads_the_cached_columns_and_returns_squared_distances():
    rng = np.random.default_rng(9)
    ds = make_dataset(rng.normal(size=(300, 5)))
    centroids = rng.normal(size=(4, 5))
    assignment, rows = assign_points(ds, centroids)
    assert "columns" in vars(ds)
    # The (k, n) kernel result itself, equal to the kernel's on strided columns.
    expected = squared_distances(ds.points, centroids).T
    assert rows.shape == (4, 300) and rows.flags.c_contiguous
    assert rows.tobytes() == expected.tobytes()
    assert assignment.tobytes() == expected.argmin(axis=0).astype(np.int64).tobytes()


def test_lloyd_reads_the_cached_columns():
    ds = make_dataset(np.random.default_rng(10).normal(size=(50, 3)))
    lloyd(ds, KMeansConfig(k=3, seed=1))
    assert "columns" in vars(ds)


def test_assign_rejects_dimension_mismatch():
    ds = make_dataset([[1.0, 2.0]])
    with pytest.raises(ValueError, match="dimension"):
        assign_points(ds, np.zeros((2, 3)))


def test_assign_rejects_non_finite_centroids():
    # argmin over a NaN column picks it for every row
    ds = make_dataset([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0], [6.0, 5.0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"centroids must be finite: row\(s\) \[0\]"):
            assign_points(ds, [[bad, 0.0], [5.0, 5.0]])
    with pytest.raises(ValueError, match=r"row\(s\) \[1, 2\]"):
        assign_points(ds, [[0.0, 0.0], [np.nan, np.nan], [1.0, np.inf]])


def test_squared_distances_rows_do_not_depend_on_the_batch():
    # The bounded Lloyd recomputes subsets of rows, and split and merge
    # compute only the new centroids' columns; both must get the values a
    # full pass would.
    rng = np.random.default_rng(8)
    shapes = ((500, 7, 8), (40, 1, 3), (30, 16, 5), (9, 2, 1), (200, 17, 8), (60, 5, 2),
              (300, 7, 9), (60, 3, 13), (400, 4, 17), (120, 8, 17), (90, 11, 13))
    for n, k, d in shapes:
        points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
        centroids = rng.normal(size=(k, d))
        full = squared_distances(points, centroids)
        for rows in (np.arange(1), np.flatnonzero(rng.random(n) < 0.3), rng.integers(0, n, 3)):
            assert squared_distances(points[rows], centroids).tobytes() == full[rows].tobytes()
        for cols in (np.arange(1), [k - 1], np.flatnonzero(rng.random(k) < 0.5), rng.integers(0, k, 2)):
            assert squared_distances(points, centroids[cols]).tobytes() == full[:, cols].tobytes()


@st.composite
def _distance_inputs(draw):
    """Points and centroids of n 1-200, d 1-24, k 1-20, with duplicate rows
    and coordinates from 1e-3 to 1e3, as contiguous arrays or as row and
    column slices of larger ones. Past d=8 a distance's sum has a second
    chunk of four feature pairs, leftover pairs and odd last features."""
    n = draw(st.integers(1, 200))
    d = draw(st.integers(1, 24))
    k = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sliced = draw(st.booleans())

    def block(rows):
        # Extra rows and columns to slice away; each row has its own scale.
        values = rng.normal(size=(2 * rows, d + 3)) * 10.0 ** rng.uniform(-3, 3, size=(2 * rows, 1))
        values[rng.random(2 * rows) < 0.2] = values[0]  # duplicate rows
        return values[::2, 1 : d + 1] if sliced else np.ascontiguousarray(values[:rows, :d])

    return block(n), block(k)


@settings(max_examples=200, deadline=None)
@given(_distance_inputs(), st.data())
def test_squared_distances_equals_the_broadcast_form_byte_for_byte(inputs, data):
    points, centroids = inputs
    n, d = points.shape
    k = centroids.shape[0]
    # A block of at most half the rows, so the kernel runs several blocks
    # and a shorter last one, and centroid groups down to one centroid.
    block_values = data.draw(st.integers(1, max(1, n * k * d // 2)), label="block_values")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kmeans, "_BLOCK_VALUES", block_values)
        got = squared_distances(points, centroids)
    assert got.shape == (n, k)
    # einsum gives the kernel's bits where its loop does not fuse a multiply
    # and an add (numpy's x86-64 baseline); where it fuses, this line fails,
    # and the Python reference below still pins the order.
    assert got.tobytes() == broadcast_squared_distances(points, centroids).tobytes()
    assert got.tobytes() == lane_fold_squared_distances(points, centroids).tobytes()
    assert got.tobytes() == squared_distances(points, centroids).tobytes()


@settings(max_examples=100, deadline=None)
@given(_distance_inputs(), st.data())
def test_own_squared_distances_equal_the_whole_difference_byte_for_byte(inputs, data):
    points, centroids = inputs
    n, d = points.shape
    assignment = np.random.default_rng(n * d).integers(0, centroids.shape[0], n)
    block_values = data.draw(st.integers(1, max(1, n * d // 2)), label="block_values")
    # Contiguous columns as Dataset.columns and Lloyd's gather give them, or
    # the strided transpose of row-major points, which is read in place too.
    contiguous = data.draw(st.booleans(), label="contiguous")
    columns = np.ascontiguousarray(points.T) if contiguous else points.T
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kmeans, "_BLOCK_VALUES", block_values)
        got = kmeans.own_squared_distances(columns, centroids, assignment)
    diff = points - centroids[assignment]
    # einsum's loop may fuse a multiply and an add (see the kernel's test);
    # the Python reference pins the order regardless.
    assert got.tobytes() == np.einsum("nd,nd->n", diff, diff).tobytes()
    own = [lane_fold_squared_distances(point[None], centroids[[cid]])[0, 0] for point, cid in zip(points, assignment)]
    assert got.tobytes() == np.array(own).tobytes()


def test_squared_distances_of_no_points_or_no_centroids():
    rng = np.random.default_rng(4)
    points, centroids = rng.normal(size=(6, 3)), rng.normal(size=(4, 3))
    for p, c in ((points[:0], centroids), (points, centroids[:0]), (points[:0], centroids[:0])):
        got = squared_distances(p, c)
        assert got.shape == (p.shape[0], c.shape[0])
        assert got.tobytes() == broadcast_squared_distances(p, c).tobytes()
    assert kmeans.own_squared_distances(points[:0].T, centroids, np.zeros(0, dtype=np.int64)).shape == (0,)


def test_squared_distances_holds_its_result_and_one_block_buffer():
    # The whole (n, k, d) difference tensor would be 8 times the result:
    # 44.8 MB here. The headroom covers numpy's iteration buffers.
    points = np.random.default_rng(5).normal(size=(100_000, 8))
    centroids = points[:7].copy()
    tracemalloc.start()
    try:
        out = squared_distances(points, centroids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 8 * kmeans._BLOCK_VALUES + 256 * 1024


# Distances of a call whose centroids run in several groups and of a
# one-group call, with per-feature scales far apart, as one digest. The
# inputs come from uniform draws and powers of two only: numpy's normal
# draws and exp dispatch too, so their bits would differ before the kernel
# ran. Every step after the draws is one IEEE operation in a fixed order,
# so the digest is the same on every build; numpy's einsum gives it too
# where its loop does not fuse a multiply and an add.
_KERNEL_GOLDEN_DIGEST = "f29db749b41a663f88fbf5b450fcb46288abda6bdba5c05cb27a06df0c19b1e7"
_KERNEL_DIGEST = """
import hashlib
import numpy as np
from feedback_kmeans.kmeans import column_distances
rng = np.random.default_rng(27)
digest = hashlib.sha256()
for n, k, d in ((3000, 5, 13), (40, 3, 8)):
    scale = np.ldexp(1.0, rng.integers(-20, 21, size=d))
    points, centroids = (rng.random((n, d)) - 0.5) * scale, (rng.random((k, d)) - 0.5) * scale
    digest.update(column_distances(points.T, centroids).T.tobytes())
digest = digest.hexdigest()
"""


def test_squared_distances_match_their_golden_digest():
    # The CLI golden digests do not pin a distance's last bit: distances
    # reach a trace only through nearest-centroid comparisons, and a kernel
    # summing in feature order gave the same traces. This digest pins the
    # kernel's own order.
    here = {}
    exec(_KERNEL_DIGEST, here)
    assert here["digest"] == _KERNEL_GOLDEN_DIGEST


def test_squared_distances_do_not_depend_on_simd_dispatch():
    # numpy picks some loops at run time by the CPU's features; a distance
    # must come out the same with every such feature switched off.
    umath = np._core._multiarray_umath if hasattr(np, "_core") else np.core._multiarray_umath
    dispatch = getattr(umath, "__cpu_dispatch__", None)
    if dispatch is None:
        pytest.skip("numpy lists no run-time dispatched CPU features (__cpu_dispatch__)")
    enabled = [f for f in dispatch if umath.__cpu_features__.get(f)]
    if not enabled:
        pytest.skip("this CPU enables none of numpy's run-time dispatched features")
    env = {key: value for key, value in os.environ.items() if key != "NPY_ENABLE_CPU_FEATURES"}
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(enabled)
    package_root = str(Path(feedback_kmeans.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    report = f"from {umath.__name__} import __cpu_features__ as on\nprint(digest, [f for f in {enabled!r} if on[f]])"
    result = subprocess.run(
        [sys.executable, "-c", _KERNEL_DIGEST + report], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    here = {}
    exec(_KERNEL_DIGEST, here)
    assert result.stdout.split(" ", 1) == [here["digest"], "[]\n"]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=200),
    d=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=1, max_value=12),
    grid=st.booleans(),
    as_list=st.booleans(),
)
def test_nearest_rows_equal_argmin_and_partition_bit_for_bit(seed, n, d, k, grid, as_list):
    # Integer-grid points and centroids, some centroids repeated: most
    # points are equally near several centroids, and the best and second
    # distances are often equal.
    rng = np.random.default_rng(seed)
    if grid:
        points = rng.integers(0, 3, size=(n, d)).astype(float)
        centroids = rng.integers(0, 3, size=(k, d)).astype(float)
        centroids[rng.random(k) < 0.3] = centroids[0]
    else:
        points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
        centroids = rng.normal(size=(k, d)) * 10.0 ** rng.integers(-3, 4)
    result = kmeans.column_distances(points.T, centroids)  # (k, n)
    rows = [row.copy() for row in result] if as_list else result
    nearest, best, second = kmeans.nearest_rows(rows)
    ids_only = kmeans.nearest_rows(rows, second=False)
    d2 = squared_distances(points, centroids)
    assert np.stack(list(rows)).tobytes() == d2.T.tobytes()  # the rows are left as they were
    assert nearest.dtype == np.int64
    assert nearest.tobytes() == d2.argmin(axis=1).astype(np.int64).tobytes()
    assert ids_only[0].tobytes() == nearest.tobytes() and ids_only[2] is None
    if k == 1:
        expected_best, expected_second = d2[:, 0], np.full(n, np.inf)
    else:
        d2.partition(1, axis=1)
        expected_best, expected_second = d2[:, 0], d2[:, 1]
    assert best.tobytes() == expected_best.tobytes()
    assert second.tobytes() == expected_second.tobytes()
    assert not np.shares_memory(best, result) and not np.shares_memory(second, result)



def _generic_nearest_with_bounds(points, centroids):
    # The k-generic path: argmin for the nearest, partition for the two
    # smallest squared distances.
    d2 = squared_distances(points, centroids)
    nearest = d2.argmin(axis=1).astype(np.int64)
    d2.partition(1, axis=1)
    return nearest, d2[:, 0], d2[:, 1]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=200),
    d=st.integers(min_value=1, max_value=6),
    grid=st.booleans(),
    from_points=st.booleans(),
)
def test_nearest_at_k2_equals_the_generic_path_bit_for_bit(seed, n, d, grid, from_points):
    # At k=2 the row scan is one compare, one minimum and one maximum.
    rng = np.random.default_rng(seed)
    if grid:  # duplicate-heavy, with exact distance ties
        points = rng.integers(0, 3, size=(n, d)).astype(float)
    else:
        points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
    if from_points:  # centroids on data rows, possibly equal ones
        centroids = points[rng.integers(0, n, size=2)]
    elif grid:
        centroids = rng.integers(0, 3, size=(2, d)).astype(float)
    else:
        centroids = rng.normal(size=(2, d))
    got = kmeans.nearest_rows(kmeans.column_distances(np.ascontiguousarray(points.T), centroids))
    expected = _generic_nearest_with_bounds(points, centroids)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------- update

def test_update_single_cluster_mean():
    ds = make_dataset([[0.0, 0.0], [2.0, 0.0]])
    np.testing.assert_array_equal(cluster_means(ds, [0, 0], k=1), [[1.0, 0.0]])


def test_update_reports_empties():
    ds = make_dataset([[0.0, 0.0], [2.0, 0.0]])
    centroids = cluster_means(ds, [0, 0], k=2)
    np.testing.assert_array_equal(centroids[0], [1.0, 0.0])
    assert np.isnan(centroids[1]).all()


def test_update_matches_independent_summation():
    rng = np.random.default_rng(7)
    ds = make_dataset(rng.normal(size=(50, 3)))
    assignment = rng.integers(0, 3, size=50)
    assignment[:3] = [0, 1, 2]
    centroids = cluster_means(ds, assignment, k=3)
    for cid in range(3):
        members = ds.points[assignment == cid]
        expected = [sum(float(p[d]) for p in members) / len(members) for d in range(3)]
        np.testing.assert_allclose(centroids[cid], expected, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=200),
    d=st.integers(min_value=2, max_value=5),
    k=st.integers(min_value=1, max_value=6),
)
def test_update_equals_per_cluster_mean_bit_for_bit(seed, n, d, k):
    # d starts at 2: numpy's mean sums a single column pairwise, while the
    # update (and numpy's mean over two or more columns) sums in row order.
    rng = np.random.default_rng(seed)
    ds = make_dataset(rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4))
    assignment = rng.integers(0, k, size=n)  # some ids may stay empty
    counts = np.bincount(assignment, minlength=k)
    # Lloyd passes the feature-major columns contiguous.
    centroids = kmeans.update_centroids(np.ascontiguousarray(ds.points.T), assignment, counts)
    for cid in range(k):
        if counts[cid] == 0:
            assert np.isnan(centroids[cid]).all()
        else:
            np.testing.assert_array_equal(centroids[cid], ds.points[assignment == cid].mean(axis=0))


def test_update_gives_an_empty_id_nan_without_a_warning():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(50, 3))
    assignment = rng.choice([0, 2, 3], size=50)  # ids 1 and 4 stay empty
    counts = np.bincount(assignment, minlength=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        centroids = kmeans.update_centroids(np.ascontiguousarray(points.T), assignment, counts)
    assert centroids.shape == (5, 3)
    for cid in range(5):
        if counts[cid] == 0:
            assert np.isnan(centroids[cid]).all()
        else:
            assert centroids[cid].tobytes() == points[assignment == cid].mean(axis=0).tobytes()


def test_update_single_feature_is_the_row_order_mean():
    rng = np.random.default_rng(3)
    ds = make_dataset(rng.normal(size=(200, 1)))
    assignment = rng.integers(0, 3, size=200)
    centroids = kmeans.update_centroids(ds.points.T, assignment, np.bincount(assignment, minlength=3))
    for cid in range(3):
        column = ds.points[assignment == cid, 0]
        total = 0.0
        for value in column:
            total += value
        assert centroids[cid, 0] == total / column.size
        np.testing.assert_allclose(centroids[cid, 0], column.mean(), rtol=1e-13)


# ---------------------------------------------------------------- repair

def test_repair_moves_farthest_point():
    ds = make_dataset([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    centroids = np.array([[0.0, 0.0], [0.0, 0.0]])
    assignment = np.array([0, 0, 0])  # everything ties to cluster 0
    repaired = Clustering(*repair_empty(ds.columns, assignment, centroids))
    assert repaired.assignment.tolist() == [0, 0, 1]  # farthest point moved
    np.testing.assert_array_equal(repaired.centroids[1], [5.0, 0.0])
    assert validate_clustering(ds, repaired) == []
    # The repair returns new arrays and leaves its inputs as they are.
    assert assignment.tolist() == [0, 0, 0] and not centroids.any()


def test_repair_without_empties_is_identity():
    ds = make_dataset([[0.0, 0.0], [5.0, 0.0]])
    centroids = np.array([[0.0, 0.0], [5.0, 0.0]])
    assignment = np.array([0, 1])
    repaired = Clustering(*repair_empty(ds.columns, assignment, centroids))
    np.testing.assert_array_equal(repaired.assignment, assignment)
    np.testing.assert_array_equal(repaired.centroids, centroids)


def test_repair_line_dataset_passes_validation():
    ds = make_dataset([[float(i), 0.0] for i in range(10)])
    centroids = np.array([[0.0, 0.0], [9.0, 0.0], [100.0, 0.0]])
    assignment = assign_points(ds, centroids)[0]  # cluster 2 ends up empty
    assert 2 not in assignment
    repaired = Clustering(*repair_empty(ds.columns, assignment, centroids))
    assert validate_clustering(ds, repaired) == []


def test_repair_never_drains_a_singleton_donor():
    # all points sit on their centroids (distance ties everywhere); the
    # donor must come from the 2-point cluster, not the singleton, or the
    # repair would just move the hole around
    ds = make_dataset([[5.0], [0.0], [0.0]])
    assignment = np.array([1, 0, 0])
    centroids = np.array([[0.0], [5.0], [7.0]])  # cluster 2 empty
    repaired = Clustering(*repair_empty(ds.columns, assignment, centroids))
    assert validate_clustering(ds, repaired) == []
    assert repaired.assignment[0] == 1  # the singleton kept its point
    assert sorted(repaired.sizes().tolist()) == [1, 1, 1]


def test_repair_impossible_when_k_exceeds_points():
    ds = make_dataset([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="repair"):
        repair_empty(ds.columns, np.array([0, 1]), np.zeros((3, 2)))


# ---------------------------------------------------------------- lloyd

def test_lloyd_recovers_separated_blobs(two_blobs):
    clustering = lloyd(two_blobs, KMeansConfig(k=2, seed=5))
    assert validate_clustering(two_blobs, clustering) == []
    for cid in range(2):
        segments = two_blobs.hidden_segment[clustering.members(cid)]
        _, counts = np.unique(segments, return_counts=True)
        assert counts.max() / counts.sum() >= 0.95


def test_lloyd_every_point_its_own_cluster():
    ds = make_dataset([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [9.0, 9.0]])
    clustering = lloyd(ds, KMeansConfig(k=4, seed=0))
    assert sorted(clustering.assignment.tolist()) == [0, 1, 2, 3]
    assert weighted_rss(ds, clustering.assignment, clustering.centroids) == 0.0


def test_lloyd_no_worse_than_first_assignment():
    rng = np.random.default_rng(11)
    ds = make_dataset(rng.normal(size=(120, 4)))
    for seed in range(5):
        objective = objective_sequence(ds, KMeansConfig(k=4, seed=seed))
        assert objective[-1] <= objective[0] + 1e-12


def test_lloyd_deterministic_bit_for_bit(two_blobs):
    a = lloyd(two_blobs, KMeansConfig(k=3, seed=21))
    b = lloyd(two_blobs, KMeansConfig(k=3, seed=21))
    np.testing.assert_array_equal(a.assignment, b.assignment)
    np.testing.assert_array_equal(a.centroids, b.centroids)


def test_lloyd_assignment_is_idempotent_after_convergence(two_blobs):
    clustering = lloyd(two_blobs, KMeansConfig(k=3, seed=4))
    again = assign_points(two_blobs, clustering.centroids)[0]
    np.testing.assert_array_equal(again, clustering.assignment)


def test_lloyd_rejects_oversized_k():
    ds = make_dataset([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        lloyd(ds, KMeansConfig(k=3, seed=0))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=6, max_value=40),
    k=st.integers(min_value=2, max_value=5),
)
def test_lloyd_objective_monotone(seed, n, k):
    rng = np.random.default_rng(seed)
    ds = make_dataset(rng.normal(size=(n, 2)))
    k = min(k, len(np.unique(ds.points, axis=0)))
    config = KMeansConfig(k=k, seed=seed)
    assert validate_clustering(ds, lloyd(ds, config)) == []
    objective = objective_sequence(ds, config)
    for earlier, later in zip(objective, objective[1:]):
        assert later <= earlier + 1e-12 * max(1.0, abs(earlier))


def _assert_bounded_equals_plain(ds, config):
    clustering, history = lloyd_history(ds, config)
    reference, iterations = plain_lloyd(ds, config)
    np.testing.assert_array_equal(clustering.assignment, reference.assignment)
    assert clustering.centroids.tobytes() == reference.centroids.tobytes()
    assert len(history) == iterations + 1
    assert history[0] == ds.n_points
    assert all(0 <= rows <= ds.n_points for rows in history)
    return history


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=200),
    d=st.integers(min_value=1, max_value=5),
    grid=st.booleans(),
    k_draw=st.integers(min_value=1, max_value=200),
)
def test_bounded_lloyd_equals_plain_lloyd(seed, n, d, grid, k_draw):
    rng = np.random.default_rng(seed)
    if grid:  # duplicate-heavy, with exact distance ties
        points = rng.integers(0, 3, size=(n, d)).astype(float)
    else:
        points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
    ds = make_dataset(points)
    k = 1 + (k_draw - 1) % len(np.unique(points, axis=0))
    _assert_bounded_equals_plain(ds, KMeansConfig(k=k, seed=seed))


@st.composite
def _members_inputs(draw):
    """An integer-grid dataset of n 1-60 points in d 1-3, with duplicate
    rows, and non-empty ascending members of it."""
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.integers(0, 4, size=(n, d)).astype(float)
    chosen = rng.random(n) < draw(st.floats(0.05, 1.0))
    chosen[rng.integers(n)] = True
    return make_dataset(points), np.flatnonzero(chosen)


@settings(max_examples=200, deadline=None)
@given(_members_inputs(), st.integers(0, 2**31), st.data())
def test_lloyd_on_members_equals_lloyd_on_their_points(inputs, seed, data):
    # A split's 2-means runs on its target's members with the dataset's row
    # ids at them; it must equal Lloyd on a dataset of just those points.
    ds, members = inputs
    alone = make_dataset(ds.points[members])
    distinct = len(np.unique(alone.points, axis=0))
    config = KMeansConfig(k=data.draw(st.integers(1, min(4, distinct) + 1), label="k"), seed=seed)
    if config.k > distinct:
        with pytest.raises(ValueError, match="k exceeds distinct points") as on_members:
            lloyd_history(ds, config, members)
        with pytest.raises(ValueError) as on_points:
            lloyd_history(alone, config)
        assert str(on_members.value) == str(on_points.value)
        return
    clustering, history = lloyd_history(ds, config, members)
    reference, reference_history = lloyd_history(alone, config)
    assert clustering.assignment.tobytes() == reference.assignment.tobytes()
    assert clustering.centroids.tobytes() == reference.centroids.tobytes()
    assert history == reference_history


def test_bounded_lloyd_equals_plain_lloyd_through_a_repair(monkeypatch):
    # After the first update, cluster 1 loses both its points to other
    # clusters, and the loop repairs it.
    ds = make_dataset(
        [[4, 0, 0], [0, 2, 4], [2, 2, 4], [3, 4, 1], [0, 2, 3],
         [4, 1, 2], [3, 4, 0], [3, 3, 0], [3, 0, 0]]
    )
    repairs = []

    def counted(*args):
        repairs.append(args)
        return repair_empty(*args)

    monkeypatch.setattr(kmeans, "repair_empty", counted)
    history = _assert_bounded_equals_plain(ds, KMeansConfig(k=4, seed=4))
    assert len(repairs) == 1
    assert history == [9, 9, 9, 0]  # the pass after the repair recomputes every row


def test_bounded_lloyd_equals_plain_lloyd_on_a_planted_mix():
    rng = np.random.default_rng(16)
    means = rng.normal(size=(12, 8)) * 3.0
    ds = make_dataset(means[rng.integers(0, 12, 5000)] + rng.normal(size=(5000, 8)))
    history = _assert_bounded_equals_plain(ds, KMeansConfig(k=16, seed=3))
    assert sum(history[2:]) < 0.5 * ds.n_points * len(history[2:])  # most rows skip


@pytest.mark.parametrize(
    "field, value",
    [("k", 2.5), ("k", True), ("seed", 1.0), ("seed", "3"), ("max_iterations", 2.5), ("max_iterations", None)],
)
def test_config_field_that_is_not_an_integer_is_named(field, value):
    settings = {"k": 2, "seed": 1, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        KMeansConfig(**settings)


def test_config_rejects_a_negative_seed_by_name():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        KMeansConfig(k=2, seed=-1)


def test_config_accepts_numpy_integers_as_ints():
    config = KMeansConfig(k=np.int64(3), seed=np.uint32(4), max_iterations=np.int16(5))
    assert (config.k, config.seed, config.max_iterations) == (3, 4, 5)
    assert all(type(v) is int for v in (config.k, config.seed, config.max_iterations))


def test_config_validation():
    with pytest.raises(ValueError):
        KMeansConfig(k=0, seed=1)
    with pytest.raises(ValueError):
        KMeansConfig(k=2, seed=1, max_iterations=0)
