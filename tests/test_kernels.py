from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_front
from pareto_judge import _kernels
from pareto_judge.objective_space import front_rows

# Coordinates from a coarse grid produce ties and duplicates; free floats in
# the same range produce the general case.
_lattice = st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0))
_coord = st.one_of(_lattice, st.floats(0.0, 1.0))


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
    @given(_point_arrays(min_size=1))
    def test_nondominated_mask(self, drawn):
        points, _ = drawn
        coords = [tuple(p) for p in points.tolist()]
        front = set(brute_force_front(coords))
        assert _kernels.nondominated_mask(points).tolist() == [c in front for c in coords]


class TestChunkedFront:
    """The M >= 3 mask, chunked, against the all-pairs oracle, compared with ==."""

    @pytest.mark.parametrize("dim", (3, 4, 5))
    @pytest.mark.parametrize("coord", (_lattice, _coord), ids=("lattice", "free"))
    @settings(deadline=None)
    @given(data=st.data())
    def test_mask_equals_brute_force_across_chunks(self, dim, coord, data):
        # a budget of a few rows per chunk puts ties and duplicates in
        # different chunks from the points they tie with
        rows = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=40))
        copies = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=10))
        points = np.asarray(rows + [rows[i] for i in copies], dtype=np.float64)
        rows_per_chunk = data.draw(st.integers(1, 7))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernels, "_ELEMENTS", rows_per_chunk * points.size)
            mask = _kernels.nondominated_mask(points)
        coords = [tuple(p) for p in points.tolist()]
        front = set(brute_force_front(coords))
        assert mask.tolist() == [c in front for c in coords]


class TestBackendSelection:
    """Edge cases of the numpy kernels: chunk boundaries and empty inputs."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_queries(self, dim):
        mask = _kernels.nondominated_mask(np.empty((0, dim)))
        assert mask.dtype == np.bool_ and mask.shape == (0,)

    def test_broadcasts_stay_within_the_element_budget(self):
        # unchunked, 5 000 points compared pairwise would hold 75M booleans
        points = np.random.default_rng(114).random((5000, 3))
        tracemalloc.start()
        try:
            mask = _kernels.nondominated_mask(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert mask.tolist() == [not (points > p).all(axis=1).any() for p in points]


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
