from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_box_union_count, brute_force_front
from pareto_judge import _kernels
from pareto_judge.objective_space import front_rows

# Coordinates from a coarse grid produce ties and duplicates; free floats in
# the same range produce the general case.
_coord = st.one_of(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)), st.floats(0.0, 1.0))


@st.composite
def _point_arrays(draw, *, min_size: int = 0, max_size: int = 40):
    """(array of shape (n, dim), dim) for dim in 1..3, n in [min_size, max_size]."""
    dim = draw(st.integers(1, 3))
    rows = draw(
        st.lists(st.tuples(*[_coord] * dim), min_size=min_size, max_size=max_size)
    )
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), dim), dim


class TestOracleAgreement:
    @settings(deadline=None)
    @given(data=st.data())
    def test_count_in_box_union(self, data):
        points, dim = data.draw(_point_arrays(max_size=12))
        samples = np.asarray(
            data.draw(st.lists(st.tuples(*[_coord] * dim), min_size=1, max_size=60)),
            dtype=np.float64,
        )
        assert _kernels.count_in_box_union(samples, points) == brute_force_box_union_count(
            samples.tolist(), points.tolist()
        )

    @settings(deadline=None)
    @given(data=st.data())
    def test_count_in_box_union_2d_on_point_coordinates(self, data):
        # samples built from the points' own coordinates sit exactly on box
        # edges and corners, and share x with several points at once; -0.0
        # must cover and be covered as 0.0 does, although the sweep negates x
        edge = _coord | st.just(-0.0)
        xs = data.draw(st.lists(edge, min_size=1, max_size=4))
        points = np.asarray(
            data.draw(st.lists(st.tuples(st.sampled_from(xs), edge), min_size=1, max_size=12)),
            dtype=np.float64,
        )
        grid_x = points[:, 0].tolist() + [-0.0, 0.0, 1.0]
        grid_y = points[:, 1].tolist() + [-0.0, 0.0, 1.0]
        samples = np.asarray(
            data.draw(
                st.lists(
                    st.tuples(st.sampled_from(grid_x), st.sampled_from(grid_y)),
                    min_size=1,
                    max_size=60,
                )
            ),
            dtype=np.float64,
        )
        assert _kernels.count_in_box_union(samples, points) == brute_force_box_union_count(
            samples.tolist(), points.tolist()
        )

    @settings(deadline=None)
    @given(_point_arrays(min_size=1))
    def test_nondominated_mask(self, drawn):
        points, _ = drawn
        coords = [tuple(p) for p in points.tolist()]
        front = set(brute_force_front(coords))
        assert _kernels.nondominated_mask(points).tolist() == [c in front for c in coords]


class TestBackendSelection:
    """Edge cases of the numpy kernels: chunk boundaries and empty inputs."""

    def test_numpy_chunking_handles_large_inputs(self):
        rng = np.random.default_rng(113)
        samples = rng.random((150_000, 2))
        points = np.asarray([[0.5, 0.5]])
        count = _kernels.count_in_box_union(samples, points)
        assert count == int((samples <= 0.5).all(axis=1).sum())

    def test_empty_point_set_covers_nothing(self):
        samples = np.random.default_rng(0).random((100, 2))
        assert _kernels.count_in_box_union(samples, np.empty((0, 2))) == 0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_queries(self, dim):
        points = np.random.default_rng(dim).random((5, dim))
        mask = _kernels.nondominated_mask(np.empty((0, dim)))
        assert mask.dtype == np.bool_ and mask.shape == (0,)
        assert _kernels.count_in_box_union(np.empty((0, dim)), points) == 0

    def test_broadcasts_stay_within_the_element_budget(self):
        # unchunked, 5 000 points compared pairwise would hold 75M booleans,
        # and 70 000 samples against 200 boxes 42M
        rng = np.random.default_rng(114)
        points, boxes = rng.random((5000, 3)), rng.random((200, 3))
        samples = rng.random((70_000, 3))
        tracemalloc.start()
        try:
            mask = _kernels.nondominated_mask(points)
            count = _kernels.count_in_box_union(samples, boxes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert mask.tolist() == [not (points > p).all(axis=1).any() for p in points]
        covered = np.zeros(len(samples), dtype=np.bool_)
        for box in boxes:
            covered |= (samples <= box).all(axis=1)
        assert count == int(covered.sum())


# signed zeros compare equal, so they must land in one equal-x group
_signed = st.sampled_from((-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0))


@st.composite
def _points_2d(draw):
    """(n, 2) arrays, n up to about 300, of one of several shapes that stress
    the sweep: few distinct x (large equal-x groups), signed zeros, exact
    duplicates, chains where every point but one is dominated, antichains,
    and free floats."""
    kind = draw(st.sampled_from(("lattice", "chain", "antichain", "floats")))
    if kind == "lattice":
        xs = draw(st.lists(_signed, min_size=1, max_size=3))
        rows = draw(st.lists(st.tuples(st.sampled_from(xs), _signed), min_size=1, max_size=300))
    elif kind == "chain":
        n = draw(st.integers(1, 300))
        rows = draw(st.permutations([(i * 0.5, i * 0.25 - 3.0) for i in range(n)]))
    elif kind == "antichain":
        n = draw(st.integers(1, 300))
        rows = draw(st.permutations([(float(i), float(n - i)) for i in range(n)]))
    else:
        rows = draw(
            st.lists(st.tuples(_coord | _signed, _coord | _signed), min_size=1, max_size=120)
        )
    copies = draw(st.lists(st.integers(0, len(rows) - 1), max_size=10))
    return np.asarray(rows + [rows[i] for i in copies], dtype=np.float64)


class TestTwoDimensionalFront:
    """The 2-D sweep against the all-pairs oracle, compared with ==."""

    @settings(deadline=None, max_examples=300)
    @given(_points_2d())
    def test_mask_equals_brute_force(self, points):
        coords = [tuple(p) for p in points.tolist()]
        front = set(brute_force_front(coords))
        assert _kernels.nondominated_mask(points).tolist() == [c in front for c in coords]

    @settings(deadline=None, max_examples=300)
    @given(_points_2d())
    def test_front_rows_equal_brute_force(self, points):
        expected = brute_force_front([tuple(p) for p in points.tolist()])
        assert [tuple(row) for row in front_rows(points).tolist()] == expected

    def test_front_rows_of_20000_points_within_one_second(self):
        points = np.random.default_rng(20000).random((20_000, 2))
        start = time.perf_counter()
        front = front_rows(points)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"{elapsed:.2f} s"
        # no point dominates a front row, and every point is weakly below one
        assert not (points[:, None, :] > front[None, :, :]).all(axis=2).any()
        assert (points[:, None, :] <= front[None, :, :]).all(axis=2).any(axis=1).all()
