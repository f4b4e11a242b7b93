from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from pareto_judge.confusion_metrics import ConfusionMatrix, fbeta, ppv, tpr
from pareto_judge.fbeta_analysis import (
    BETA_COUNT_LIMIT,
    BetaGrid,
    FbetaCurve,
    default_beta_grid,
    fbeta_curve,
    fbeta_curves,
    fbeta_envelope,
    isocurve_y,
)


class TestBetaGrid:
    def test_default_grid_shape(self):
        grid = default_beta_grid()
        assert len(grid) == 201
        assert grid.betas[0] == 0.1
        assert grid.betas[-1] == 10.0

    def test_default_grid_log_symmetric_about_one(self):
        grid = default_beta_grid()
        assert grid.betas[100] == 1.0

    def test_log_spacing_is_uniform(self):
        grid = default_beta_grid()
        steps = np.diff(np.log10(np.asarray(grid.betas)))
        assert np.allclose(steps, steps[0], atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            BetaGrid(())
        with pytest.raises(ValueError, match="positive"):
            BetaGrid((0.0, 1.0))
        with pytest.raises(ValueError, match="increasing"):
            BetaGrid((1.0, 1.0))
        with pytest.raises(ValueError, match="at least 2"):
            BetaGrid.log_spaced(0.1, 10.0, 1)
        with pytest.raises(ValueError, match="lo < hi"):
            BetaGrid.log_spaced(2.0, 1.0, 10)

    def test_a_grid_of_the_largest_count(self):
        grid = BetaGrid.log_spaced(0.1, 10.0, BETA_COUNT_LIMIT)
        assert len(grid) == BETA_COUNT_LIMIT
        assert grid.betas[0] == 0.1 and grid.betas[-1] == 10.0

    # 10**11 float64 betas would take 800 GB: refused before any is allocated
    @pytest.mark.parametrize("count", [BETA_COUNT_LIMIT + 1, 10**11])
    def test_a_count_above_the_limit_rejected(self, count):
        with pytest.raises(ValueError) as err:
            BetaGrid.log_spaced(0.1, 10.0, count)
        assert str(err.value) == f"grid takes at most {BETA_COUNT_LIMIT} points, got {count}"

    @pytest.mark.parametrize("count", [2, 3])
    def test_bounds_with_one_log10_rejected(self, count):
        # distinct bounds whose log axis has no width
        lo, hi = 1e10, 10000000000.000002
        assert lo < hi and math.log10(lo) == math.log10(hi)
        with pytest.raises(ValueError) as err:
            BetaGrid.log_spaced(lo, hi, count)
        assert str(err.value) == (
            "grid bounds lo=10000000000.0 hi=10000000000.000002 have the same log10: 10.0"
        )

    def test_bounds_too_close_for_the_count_rejected(self):
        # distinct log10, but the interior betas round onto the bounds
        lo, hi = 1e10, 10000000000.000021
        assert math.log10(lo) < math.log10(hi)
        with pytest.raises(ValueError) as err:
            BetaGrid.log_spaced(lo, hi, 3)
        assert str(err.value) == (
            "grid bounds lo=10000000000.0 hi=10000000000.000021 lie too close for 3 strictly "
            "increasing betas"
        )

    def test_grid_names_a_beta_whose_square_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning would raise here
            with pytest.raises(ValueError) as err:
                BetaGrid((1.0, 1e200))
        assert str(err.value) == "beta 1e+200 is too large: its square overflows"

    def test_curve_at_the_largest_beta_equals_the_scalar_metric(self):
        m = ConfusionMatrix(4, 6, 1, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = fbeta_curve(m, BetaGrid((1.0, 1.3e154)))
        assert curve.values == (fbeta(m, 1.0).value, fbeta(m, 1.3e154).value)


class TestFbetaCurve:
    def test_fixed_point_curve_is_constant(self):
        m = ConfusionMatrix(80, 20, 20, 100)  # PPV = TPR = 0.8
        curve = fbeta_curve(m, default_beta_grid(), label="fixed")
        assert all(abs(v - 0.8) <= 1e-12 for v in curve.values)
        assert not curve.is_envelope

    def test_endpoints_approach_components(self):
        m = ConfusionMatrix(36, 4, 54, 6)  # PPV = 0.4, TPR = 0.9
        curve = fbeta_curve(m, default_beta_grid())
        assert abs(curve.values[0] - ppv(m).value) <= 0.05
        assert abs(curve.values[-1] - tpr(m).value) <= 0.05

    def test_all_wrong_classifier_propagates_degeneracy(self):
        curve = fbeta_curve(ConfusionMatrix(0, 5, 5, 0), default_beta_grid())
        assert all(v == 0.0 for v in curve.values)
        assert not any(curve.defined)

    def test_matches_scalar_metric_pointwise(self):
        m = ConfusionMatrix(17, 3, 9, 71)
        grid = BetaGrid.log_spaced(0.2, 5.0, 17)
        curve = fbeta_curve(m, grid)
        assert curve.values == tuple(fbeta(m, b).value for b in grid.betas)

    def test_field_length_validation(self):
        with pytest.raises(ValueError, match="grid length"):
            FbetaCurve("x", (1.0, 2.0), (0.5,), (True,))

    def test_value_range_validation(self):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            FbetaCurve("x", (1.0,), (1.5,), (True,))

    @pytest.mark.parametrize("value", [-0.5, math.nan])
    def test_a_negative_or_nan_value_rejected(self, value):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            FbetaCurve("x", (1.0, 2.0), (0.5, value), (True, True))

    def test_values_on_the_bounds_pass(self):
        assert FbetaCurve("x", (1.0, 2.0), (0.0, 1.0), (False, True)).values == (0.0, 1.0)


class TestFbetaEnvelope:
    def test_single_member_equals_member_curve(self):
        m = ConfusionMatrix(30, 10, 5, 55)
        grid = default_beta_grid()
        envelope = fbeta_envelope([m], grid)
        assert envelope.values == fbeta_curve(m, grid).values
        assert envelope.is_envelope
        assert envelope.argmax == (0,) * len(grid)

    def test_envelope_dominates_members_and_switches_once(self):
        precision_heavy = ConfusionMatrix(90, 210, 10, 100)  # PPV = 0.9, TPR = 0.3
        recall_heavy = ConfusionMatrix(90, 10, 210, 100)  # PPV = 0.3, TPR = 0.9
        grid = default_beta_grid()
        envelope = fbeta_envelope([precision_heavy, recall_heavy], grid)
        for member in (precision_heavy, recall_heavy):
            curve = fbeta_curve(member, grid)
            assert all(e >= v for e, v in zip(envelope.values, curve.values))
        switches = sum(a != b for a, b in zip(envelope.argmax, envelope.argmax[1:]))
        assert switches == 1
        assert envelope.argmax[0] == 0 and envelope.argmax[-1] == 1

    def test_perfect_member_pins_envelope_at_one(self):
        members = [ConfusionMatrix(30, 10, 5, 55), ConfusionMatrix(10, 0, 0, 10)]
        envelope = fbeta_envelope(members, default_beta_grid())
        assert all(v == 1.0 for v in envelope.values)

    def test_ties_break_to_lowest_index(self):
        m = ConfusionMatrix(30, 10, 5, 55)
        envelope = fbeta_envelope([m, m, m], default_beta_grid())
        assert set(envelope.argmax) == {0}

    def test_argmax_invariant_under_count_scaling(self):
        rng = np.random.default_rng(79)
        grid = default_beta_grid()
        for _ in range(30):
            size = int(rng.integers(1, 8))
            members = []
            while len(members) < size:
                counts = [int(v) for v in rng.integers(0, 50, size=4)]
                if sum(counts) > 0:
                    members.append(ConfusionMatrix(*counts))
            scaled = [
                ConfusionMatrix(7 * m.tp, 7 * m.fn, 7 * m.fp, 7 * m.tn) for m in members
            ]
            assert fbeta_envelope(members, grid).argmax == fbeta_envelope(scaled, grid).argmax

    def test_rejects_empty_member_list(self):
        with pytest.raises(ValueError, match="at least one"):
            fbeta_envelope([], default_beta_grid())


# count arrays that no ConfusionMatrix could hold, with the rule each breaks
BAD_COUNTS = [
    ([[1.5, 0.5, 0.0, 1.0]], "int array"),
    ([[True, False, False, True]], "int array"),
    ([[1, 2, 3]], "int array"),
    ([[5, -1, 2, 3]], "fn must be non-negative, got -1"),
    ([[1, 1, 1, 1], [0, 0, 0, 0]], "at least one outcome"),
    ([[2**52, 2**52, 1, 0]], f"counts sum to {2**53 + 1}, above the limit 2\\*\\*53"),
]


@pytest.mark.parametrize("counts,message", BAD_COUNTS)
def test_array_entry_points_reject_what_confusion_matrix_rejects(counts, message):
    counts = np.array(counts)
    with pytest.raises(ValueError, match=message):
        fbeta_envelope(counts, default_beta_grid())
    with pytest.raises(ValueError, match=message):
        fbeta_curves(counts, default_beta_grid(), ["m"] * len(counts))


class TestIsocurves:
    def test_gmean_level_passes_through_symmetric_points(self):
        assert isocurve_y("gmean", 0.6, 0.9) == pytest.approx(0.4, abs=1e-12)
        assert isocurve_y("gmean", 0.6, 0.4) == pytest.approx(0.9, abs=1e-12)

    def test_f1_level_passes_through_diagonal(self):
        for level in (0.2, 0.5, 0.8):
            assert isocurve_y("f1", level, level) == pytest.approx(level, abs=1e-12)

    def test_points_on_curve_reevaluate_to_level(self):
        for level in (0.25, 0.5, 0.75):
            xs = np.linspace(level * level, 1.0, 100)[1:]
            for x in xs:
                y = isocurve_y("gmean", level, float(x))
                assert np.sqrt(x * y) == pytest.approx(level, abs=1e-6)
            xs = np.linspace(level / (2.0 - level), 1.0, 100)
            for x in xs:
                y = isocurve_y("f1", level, float(x))
                assert 2 * x * y / (x + y) == pytest.approx(level, abs=1e-6)

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown"):
            isocurve_y("accuracy", 0.5, 0.5)
