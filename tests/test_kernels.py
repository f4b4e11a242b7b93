from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_box_union_count, brute_force_front
from pareto_judge import _kernels
from pareto_judge.objective_space import ObjectivePoint, strictly_dominates

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
        # edges and corners, and share x with several points at once
        xs = data.draw(st.lists(_coord, min_size=1, max_size=4))
        points = np.asarray(
            data.draw(st.lists(st.tuples(st.sampled_from(xs), _coord), min_size=1, max_size=12)),
            dtype=np.float64,
        )
        grid_x = sorted(set(points[:, 0].tolist()) | {0.0, 1.0})
        grid_y = sorted(set(points[:, 1].tolist()) | {0.0, 1.0})
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

    @settings(deadline=None)
    @given(data=st.data())
    def test_dominance_counts(self, data):
        points, dim = data.draw(_point_arrays())
        ref = ObjectivePoint(data.draw(st.tuples(*[_coord] * dim)))
        members = [ObjectivePoint(tuple(p)) for p in points.tolist()]
        expected = (
            sum(strictly_dominates(p, ref) for p in members),
            sum(strictly_dominates(ref, p) for p in members),
        )
        assert _kernels.dominance_counts(points, ref.as_array()) == expected


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
