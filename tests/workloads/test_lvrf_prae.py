"""Unit tests for the LVRF and PrAE workloads."""

import pytest

from repro.errors import ConfigError
from repro.trace.opnode import ExecutionUnit, OpDomain
from repro.workloads.lvrf import LvrfConfig, LvrfWorkload
from repro.workloads.prae import PraeWorkload


@pytest.fixture(scope="module")
def small_lvrf(small_lvrf_config):
    return LvrfWorkload(small_lvrf_config)


@pytest.fixture(scope="module")
def small_prae(small_prae_config):
    return PraeWorkload(small_prae_config)


class TestLvrf:
    def test_solver_accuracy(self, small_lvrf, raven_problems):
        assert small_lvrf.accuracy(raven_problems) >= 0.8

    def test_trace_has_rule_posterior_stage(self, small_lvrf):
        trace = small_lvrf.build_trace()
        softmaxes = [
            op for op in trace
            if op.kind == "softmax" and op.domain is OpDomain.SYMBOLIC
        ]
        assert softmaxes, "LVRF's Estimation stage must appear in the trace"

    def test_rule_count_in_trace_scale(self, small_lvrf):
        trace = small_lvrf.build_trace()
        cfg = small_lvrf.config
        rule_binds = [
            op for op in trace
            if op.params.get("stage") == "rule_scoring"
        ]
        n_rules = cfg.n_rules + cfg.extra_rules
        assert all(
            op.vsa is not None and op.vsa.n == 2 * n_rules * cfg.blocks
            for op in rule_binds
        )

    def test_memory_includes_learned_rules(self, small_lvrf):
        ce = small_lvrf.component_elements()
        cfg = small_lvrf.config
        rules = (cfg.n_rules + cfg.extra_rules) * cfg.vector_elements
        assert ce["symbolic"] >= rules

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            LvrfConfig(n_rules=0)
        with pytest.raises(ConfigError):
            LvrfConfig(extra_rules=-1)


class TestPrae:
    def test_solver_accuracy(self, small_prae, raven_problems):
        # 12-problem fixture: tolerate small-sample noise (0.9 at n=50).
        assert small_prae.accuracy(raven_problems) >= 0.7

    def test_accuracy_needs_problems(self, small_prae):
        with pytest.raises(ConfigError):
            small_prae.accuracy([])

    def test_trace_has_no_vsa_array_ops(self, small_prae):
        """PrAE is purely probabilistic: no circular-convolution kernels."""
        trace = small_prae.build_trace()
        assert not trace.by_unit(ExecutionUnit.ARRAY_VSA)

    def test_symbolic_is_many_small_simd_ops(self, small_prae):
        trace = small_prae.build_trace()
        symbolic_simd = [
            op for op in trace.by_unit(ExecutionUnit.SIMD)
            if op.domain is OpDomain.SYMBOLIC
        ]
        assert len(symbolic_simd) > 50
        # Tiny kernels: the GPU-hostile behaviour Fig. 1a shows for PrAE.
        assert all(op.flops < 100_000 for op in symbolic_simd)

    def test_arithmetic_prediction_mass_conserved(self, small_prae):
        import numpy as np

        a = np.array([0.2, 0.5, 0.3, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        pred = small_prae._predict_pmf(("arithmetic", 1), a, b, a)
        assert pred.sum() == pytest.approx(1.0)
        # c = a + b with b = 1 shifts the PMF by one.
        assert int(np.argmax(pred)) == 2

    def test_progression_prediction(self, small_prae):
        import numpy as np

        a = np.zeros(6); a[1] = 1.0
        b = np.zeros(6); b[2] = 1.0
        pred = small_prae._predict_pmf(("progression", 1), a, b, a)
        assert int(np.argmax(pred)) == 3
