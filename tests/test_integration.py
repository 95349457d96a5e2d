"""Cross-module integration tests: the paper's claims, end to end."""

import numpy as np

from repro import NSFlow, build_workload
from repro.arch import AdArray
from repro.arch.controller import Controller
from repro.baselines import baseline_devices
from repro.dse import DseEngine, design_config_from_json, design_config_to_json
from repro.graph import build_dataflow_graph
from repro.model.runtime import monolithic_baseline_runtime
from repro.dse.phase1 import extract_cost_dims
from repro.trace import trace_from_json, trace_to_json
from repro.vsa import ops
from repro.workloads.scaling import ScalableConfig, ScalableNsaiWorkload


class TestToolchainRoundTrips:
    """The .json hand-offs of Fig. 2 are lossless end to end."""

    def test_trace_json_through_graph_and_dse(self, small_nvsa_trace):
        restored = trace_from_json(trace_to_json(small_nvsa_trace))
        g1 = build_dataflow_graph(small_nvsa_trace)
        g2 = build_dataflow_graph(restored)
        r1 = DseEngine(max_pes=1024).explore(g1)
        r2 = DseEngine(max_pes=1024).explore(g2)
        assert r1.config.geometry == r2.config.geometry
        assert r1.config.estimated_cycles == r2.config.estimated_cycles

    def test_design_config_json_through_controller(self, small_nvsa_graph):
        report = DseEngine(max_pes=1024).explore(small_nvsa_graph)
        restored = design_config_from_json(design_config_to_json(report.config))
        s1 = Controller(report.config).schedule(small_nvsa_graph)
        s2 = Controller(restored).schedule(small_nvsa_graph)
        assert s1.total_cycles == s2.total_cycles


class TestDeterminism:
    def test_compile_is_deterministic(self):
        wl = build_workload("mimonet", image_size=32, cnn_width=8, cnn_depth=2)
        a = NSFlow(max_pes=1024).compile(wl)
        b = NSFlow(max_pes=1024).compile(wl)
        assert a.config == b.config
        assert a.schedule.total_cycles == b.schedule.total_cycles
        assert a.rtl_header == b.rtl_header


class TestPaperClaimsEndToEnd:
    def test_nsflow_beats_monolithic_on_symbolic_heavy(self):
        """The Fig. 6 crossover, through the full flow."""
        wl = ScalableNsaiWorkload(
            ScalableConfig(symbolic_ratio=0.6, batch_panels=16)
        )
        graph = build_dataflow_graph(wl.build_trace())
        report = DseEngine(max_pes=8192).explore(graph)
        layers, vsa = extract_cost_dims(graph)
        mono = monolithic_baseline_runtime(128, 64, layers, vsa)
        assert mono > 4 * report.config.estimated_cycles

    def test_runtime_grows_monotonically_with_symbolic_share(self):
        cycles = []
        for ratio in (0.0, 0.2, 0.5):
            wl = ScalableNsaiWorkload(
                ScalableConfig(symbolic_ratio=ratio, batch_panels=4,
                               image_size=64, resnet_width=16)
            )
            graph = build_dataflow_graph(wl.build_trace())
            cycles.append(
                DseEngine(max_pes=1024).explore(graph).config.estimated_cycles
            )
        assert cycles == sorted(cycles)
        assert cycles[-1] > cycles[0]

    def test_nsflow_beats_every_baseline_on_nvsa(self, small_nvsa):
        """Fig. 5's headline, at test scale with the small NVSA config."""
        design = NSFlow(max_pes=8192).compile(build_workload("nvsa"))
        for name, device in baseline_devices().items():
            if name == "Edge TPU":
                continue  # the Coral model is Fig. 1b-only
            latency = device.run_trace(design.trace).total_s
            assert latency > design.latency_s, name

    def test_vsa_streaming_beats_circulant_lowering(self):
        """Sec. IV-B: the AdArray's streaming mode vs a traditional array,
        on identical work, both at 8192 PEs."""
        from repro.model.runtime import circulant_gemm_runtime, vsa_node_runtime
        from repro.trace.opnode import VsaDims

        dims = VsaDims(n=64, d=1024)
        adarray = vsa_node_runtime(16, 64, 8, dims, "best")
        circulant = circulant_gemm_runtime(128, 64, dims)
        assert circulant > 3 * adarray


class TestFunctionalHardwareEquivalence:
    """The backend executes real workload kernels bit-consistently."""

    def test_nvsa_binding_on_adarray(self, small_nvsa):
        """Run one of the solver's actual binding ops through the array."""
        reasoner = small_nvsa.reasoner
        attr = reasoner.attributes[0]
        atoms = reasoner._atoms[attr.name]
        a, b = atoms[1], atoms[2]
        expected = ops.circular_convolution(a, b)

        arr = AdArray(h=256, w=8, n_sub=2)
        result = arr.run_vsa(a, b, 1, "convolution")
        assert np.allclose(result.values, expected, atol=1e-9)

    def test_perception_head_on_adarray(self, small_nvsa):
        """The PMF head GEMM computes the same logits on the array."""
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((4, 16))
        weights = rng.standard_normal((16, 5))
        arr = AdArray(8, 8, 2)
        result = arr.run_gemm(feats, weights, 2)
        assert np.allclose(result.values, feats @ weights)


class TestLoopFusionSpeedup:
    def test_fused_loops_overlap_nn_and_symbolic(self):
        """Fig. 4 step ③: fusing k loops beats k sequential inferences
        whenever symbolic and NN halves are comparable."""
        wl = ScalableNsaiWorkload(
            ScalableConfig(symbolic_ratio=0.4, batch_panels=4,
                           image_size=64, resnet_width=16)
        )
        nsf = NSFlow(max_pes=1024)
        single = nsf.compile(wl, n_loops=1)
        fused = nsf.compile(wl, n_loops=3)
        assert fused.schedule.total_cycles < 3 * single.schedule.total_cycles
