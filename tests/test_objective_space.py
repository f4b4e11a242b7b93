from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import brute_force_front
from pareto_judge.objective_space import (
    ObjectivePoint,
    SolutionSet,
    pareto_front,
    strictly_dominates,
)


def _point(*coords):
    return ObjectivePoint(tuple(coords))


class TestTypes:
    def test_point_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            ObjectivePoint(())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_point_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            _point(0.5, bad)

    def test_point_coerces_to_floats(self):
        assert _point(1, 0).coords == (1.0, 0.0)

    def test_set_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            SolutionSet("x", ())

    def test_set_rejects_mixed_dims(self):
        with pytest.raises(ValueError, match="dimensionalities"):
            SolutionSet("x", (_point(1.0), _point(1.0, 2.0)))

    def test_as_array_shape(self):
        s = SolutionSet.from_coords("x", [(0.1, 0.2), (0.3, 0.4)])
        assert s.as_array().shape == (2, 2)
        assert s.dim == 2 and len(s) == 2


class TestStrictDominance:
    def test_componentwise_greater(self):
        assert strictly_dominates(_point(0.9, 0.9), _point(0.5, 0.5))

    def test_tie_breaks_strictness(self):
        assert not strictly_dominates(_point(0.9, 0.5), _point(0.5, 0.5))

    def test_irreflexive(self):
        p = _point(0.3, 0.7)
        assert not strictly_dominates(p, p)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"^dimension mismatch: 1 vs 2$"):
            strictly_dominates(_point(1.0), _point(1.0, 2.0))

    def test_relation_properties(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            a, b, c = (ObjectivePoint(tuple(rng.random(3))) for _ in range(3))
            assert not strictly_dominates(a, a)
            if strictly_dominates(a, b):
                assert not strictly_dominates(b, a)
            if strictly_dominates(a, b) and strictly_dominates(b, c):
                assert strictly_dominates(a, c)


class TestParetoFront:
    def test_mutually_non_dominated_all_kept(self):
        s = SolutionSet.from_coords("x", [(1, 0), (0, 1), (0.5, 0.5)])
        assert {p.coords for p in pareto_front(s).points} == {
            (1.0, 0.0),
            (0.0, 1.0),
            (0.5, 0.5),
        }

    def test_chain_dominance(self):
        s = SolutionSet.from_coords("x", [(0.2, 0.2), (0.6, 0.6)])
        assert [p.coords for p in pareto_front(s).points] == [(0.6, 0.6)]

    def test_duplicates_collapse(self):
        s = SolutionSet.from_coords("x", [(0.5, 0.5), (0.5, 0.5), (0.2, 0.9)])
        assert [p.coords for p in pareto_front(s).points] == [(0.2, 0.9), (0.5, 0.5)]

    def test_output_is_lexicographically_sorted(self):
        s = SolutionSet.from_coords("x", [(0.9, 0.1), (0.1, 0.9), (0.5, 0.5)])
        coords = [p.coords for p in pareto_front(s).points]
        assert coords == sorted(coords)

    def test_idempotent(self):
        rng = np.random.default_rng(37)
        s = SolutionSet.from_coords("x", rng.random((40, 2)))
        once = pareto_front(s)
        assert pareto_front(once) == once

    def test_output_mutually_non_dominated(self):
        rng = np.random.default_rng(41)
        s = SolutionSet.from_coords("x", rng.random((60, 2)))
        front = pareto_front(s)
        for p in front.points:
            for q in front.points:
                if p != q:
                    assert not strictly_dominates(p, q)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            n = int(rng.integers(1, 201))
            dim = int(rng.integers(2, 4))
            if rng.random() < 0.4:
                coords = rng.integers(0, 5, size=(n, dim)) / 4.0  # force ties and duplicates
            else:
                coords = rng.random((n, dim))
            coords = [tuple(float(v) for v in row) for row in coords]
            s = SolutionSet.from_coords("x", coords)
            expected = brute_force_front(coords)
            assert [p.coords for p in pareto_front(s).points] == expected
