"""Tests for the functional-accuracy axis (dse.accuracy).

Covers the evaluator's caching/determinism contract, the
deployment-precision twin, and how accuracy joins Pareto dominance.
"""

import pytest

from repro.dse import (
    AccuracyResult,
    ExecutionMode,
    ParetoPoint,
    accuracy_cache_key,
    accuracy_cache_stats,
    clear_accuracy_cache,
    deployed_workload,
    evaluate_accuracy,
    pareto_filter,
    stage_timings_since,
    timings_snapshot,
)
from repro.errors import ConfigError
from repro.flow import NSFlow
from repro.quant import MIXED_PRECISION_PRESETS
from repro.workloads import build_workload


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_accuracy_cache()
    yield
    clear_accuracy_cache()


class TestAccuracyResult:
    def test_value_range_enforced(self):
        with pytest.raises(ConfigError):
            AccuracyResult(value=1.5, n_problems=4, seed=0, workload="prae")
        with pytest.raises(ConfigError):
            AccuracyResult(value=-0.1, n_problems=4, seed=0, workload="prae")

    def test_none_value_allowed(self):
        r = AccuracyResult(value=None, n_problems=4, seed=0, workload="synth")
        assert r.value is None


class TestCacheKey:
    def test_distinct_across_request_knobs(self):
        w = build_workload("prae")
        keys = {
            accuracy_cache_key(w, 8, 0),
            accuracy_cache_key(w, 16, 0),
            accuracy_cache_key(w, 8, 1),
        }
        assert len(keys) == 3
        assert accuracy_cache_key(w, 8, 0) == accuracy_cache_key(
            build_workload("prae"), 8, 0
        )

    def test_precision_twin_changes_key(self):
        w = build_workload("prae")
        int4 = deployed_workload(w, MIXED_PRECISION_PRESETS["INT4"])
        assert accuracy_cache_key(w, 8, 0) != accuracy_cache_key(int4, 8, 0)

    def test_zero_problems_rejected(self):
        with pytest.raises(ConfigError):
            accuracy_cache_key(build_workload("prae"), 0, 0)


class TestDeployedWorkload:
    def test_replaces_precision(self):
        w = build_workload("prae")
        twin = deployed_workload(w, MIXED_PRECISION_PRESETS["INT4"])
        assert twin is not w
        assert twin.config.precision == MIXED_PRECISION_PRESETS["INT4"]
        assert twin.name == w.name

    def test_same_precision_passes_through(self):
        w = build_workload("prae")
        assert deployed_workload(w, w.config.precision) is w
        assert deployed_workload(w, None) is w

    def test_workload_without_precision_field_passes_through(self):
        w = build_workload("synth")
        assert deployed_workload(w, MIXED_PRECISION_PRESETS["INT4"]) is w


class TestEvaluateAccuracy:
    def test_memoized_once_per_key(self):
        w = build_workload("prae")
        a = evaluate_accuracy(w, 4, 0)
        b = evaluate_accuracy(w, 4, 0)
        assert a == b
        stats = accuracy_cache_stats()
        assert stats["executed"] == 1
        assert stats["hits"] == 1

    def test_deterministic_across_fresh_evaluations(self):
        w = build_workload("prae")
        first = evaluate_accuracy(w, 8, 0)
        clear_accuracy_cache()
        second = evaluate_accuracy(build_workload("prae"), 8, 0)
        assert first == second
        assert first.value == second.value

    def test_synth_has_no_functional_pipeline(self):
        w = build_workload("synth")
        r = evaluate_accuracy(w, 4, 0)
        assert r.value is None
        assert accuracy_cache_stats()["executed"] == 0
        evaluate_accuracy(w, 4, 0)
        assert accuracy_cache_stats()["hits"] == 1

    def test_int4_degrades_versus_int8(self):
        w = build_workload("prae")
        int8 = evaluate_accuracy(
            w, 8, 0, precision=MIXED_PRECISION_PRESETS["INT8"]
        )
        int4 = evaluate_accuracy(
            w, 8, 0, precision=MIXED_PRECISION_PRESETS["INT4"]
        )
        assert int8.value is not None and int4.value is not None
        assert int4.value <= int8.value
        assert int4.value < 1.0


def _point(cycles=100, area=50, accuracy=None):
    return ParetoPoint(
        h=4, w=4, n_sub=2, mode=ExecutionMode.PARALLEL, nl_bar=1, nv_bar=1,
        cycles=cycles, area=area, energy_proxy=cycles * area,
        accuracy=accuracy,
    )


class TestParetoWithAccuracy:
    def test_objectives_stay_three_axis_without_accuracy(self):
        assert _point().objectives == (100, 50, 5000)

    def test_objectives_negate_accuracy_as_fourth_axis(self):
        assert _point(accuracy=0.875).objectives == (100, 50, 5000, -0.875)

    def test_higher_accuracy_dominates_at_equal_cost(self):
        good = _point(accuracy=1.0)
        bad = _point(accuracy=0.5)
        survivors = pareto_filter([good, bad])
        assert survivors == [good]

    def test_accuracy_trades_off_against_latency(self):
        fast_inaccurate = _point(cycles=50, accuracy=0.5)
        slow_accurate = _point(cycles=100, accuracy=1.0)
        survivors = pareto_filter([fast_inaccurate, slow_accurate])
        assert set(survivors) == {fast_inaccurate, slow_accurate}


class TestNSFlowIntegration:
    def test_report_and_points_are_stamped(self):
        flow = NSFlow(
            max_pes=256,
            precision=MIXED_PRECISION_PRESETS["INT8"],
            accuracy=True,
            accuracy_problems=4,
        )
        design = flow.compile(build_workload("prae"))
        acc = design.dse.accuracy
        assert acc is not None
        assert acc.n_problems == 4 and acc.seed == 0
        assert acc.value is not None and 0.0 <= acc.value <= 1.0
        assert design.dse.pareto is not None
        assert all(
            p.accuracy == acc.value for p in design.dse.pareto.points
        )

    def test_execution_is_a_timed_stage(self):
        flow = NSFlow(max_pes=256, precision=MIXED_PRECISION_PRESETS["INT4"],
                      accuracy=True, accuracy_problems=4)
        snap = timings_snapshot()
        flow.compile(build_workload("prae"))
        stage = stage_timings_since(snap)["accuracy.execute"]
        assert (stage.calls, stage.items) == (1, 4)
        assert stage.seconds > 0

        snap = timings_snapshot()
        flow.compile(build_workload("prae"))      # memo hit
        assert "accuracy.execute" not in stage_timings_since(snap)

    def test_accuracy_off_leaves_report_unstamped(self):
        design = NSFlow(max_pes=256).compile(build_workload("prae"))
        assert design.dse.accuracy is None
        assert all(p.accuracy is None for p in design.dse.pareto.points)

    def test_bad_problem_count_rejected(self):
        with pytest.raises(ConfigError):
            NSFlow(max_pes=256, accuracy=True, accuracy_problems=0)
