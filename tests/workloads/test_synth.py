"""Determinism and structure tests for the seeded synthetic workloads.

The generator's contract is the artifact cache's foundation: the same
config (seed included) must produce an identical ``fingerprint()`` and a
byte-identical trace in *every* process — across interpreter restarts —
while different seeds must produce distinct family members.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.graph.build import build_dataflow_graph
from repro.trace.opnode import ExecutionUnit
from repro.trace.serialize import trace_to_json
from repro.workloads import SynthConfig, SynthWorkload, build_workload

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: Small family for fast structural scans.
SMALL = dict(n_ops=10, depth=4, vector_dim=64, blocks=2, gemm_scale=16)


def trace_sha(workload) -> str:
    return hashlib.sha256(
        trace_to_json(workload.build_trace()).encode()
    ).hexdigest()


class TestSeedDeterminism:
    def test_same_seed_same_fingerprint_and_trace(self):
        a = SynthWorkload(SynthConfig(seed=7, **SMALL))
        b = SynthWorkload(SynthConfig(seed=7, **SMALL))
        assert a.fingerprint() == b.fingerprint()
        assert trace_to_json(a.build_trace()) == trace_to_json(b.build_trace())

    def test_different_seeds_distinct_fingerprints(self):
        fps = {
            SynthWorkload(SynthConfig(seed=s, **SMALL)).fingerprint()
            for s in range(64)
        }
        assert len(fps) == 64

    def test_different_seeds_distinct_traces(self):
        shas = {
            trace_sha(SynthWorkload(SynthConfig(seed=s, **SMALL)))
            for s in range(16)
        }
        assert len(shas) == 16

    def test_byte_identical_across_process_restarts(self):
        """A fresh interpreter must reproduce fingerprint and trace bytes."""
        prog = (
            "import hashlib, json, sys\n"
            "from repro.workloads import SynthConfig, SynthWorkload\n"
            "from repro.trace.serialize import trace_to_json\n"
            f"wl = SynthWorkload(SynthConfig(seed=42, **{SMALL!r}))\n"
            "print(json.dumps({'fp': wl.fingerprint(), 'sha': hashlib.sha256("
            "trace_to_json(wl.build_trace()).encode()).hexdigest()}))\n"
        )
        outs = [
            json.loads(subprocess.run(
                [sys.executable, "-c", prog],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
            ).stdout)
            for _ in range(2)
        ]
        here = SynthWorkload(SynthConfig(seed=42, **SMALL))
        assert outs[0] == outs[1]
        assert outs[0]["fp"] == here.fingerprint()
        assert outs[0]["sha"] == trace_sha(here)


class TestGeneratedStructure:
    @pytest.mark.parametrize("seed", range(8))
    def test_trace_is_valid_and_compilable_shape(self, seed):
        wl = SynthWorkload(SynthConfig(seed=seed, **SMALL))
        trace = wl.build_trace()
        graph = build_dataflow_graph(trace)   # validates DAG ordering
        layers = [n for n in graph.layer_nodes if n.gemm is not None]
        assert layers, "DSE needs at least one GEMM layer"
        assert trace.external_inputs == ["%input"]
        # The tail is always sum -> host argmax.
        assert trace.ops[-1].unit is ExecutionUnit.HOST
        assert trace.ops[-2].kind == "sum"

    def test_neural_fraction_extremes(self):
        all_nn = SynthWorkload(SynthConfig(neural_fraction=1.0, **SMALL))
        assert all(
            op.unit in (ExecutionUnit.ARRAY_NN, ExecutionUnit.SIMD,
                        ExecutionUnit.HOST)
            for op in all_nn.build_trace()
        )
        mostly_sym = SynthWorkload(SynthConfig(neural_fraction=0.0, **SMALL))
        trace = mostly_sym.build_trace()
        # The forced stem keeps the DSE viable even at fraction 0.
        assert sum(
            1 for op in trace if op.unit is ExecutionUnit.ARRAY_NN
        ) == 1

    def test_symbolic_ratio_footprint(self):
        cfg = SynthConfig(seed=1, symbolic_ratio=0.4, **SMALL)
        wl = SynthWorkload(cfg)
        ce = wl.component_elements()
        sym_bytes = ce["symbolic"] * cfg.symbolic_bytes_per_element
        neu_bytes = ce["neural"] * cfg.neural_bytes_per_element
        achieved = sym_bytes / (sym_bytes + neu_bytes)
        assert achieved == pytest.approx(0.4, abs=0.1)

    def test_zero_ratio_has_no_dictionary(self):
        wl = SynthWorkload(SynthConfig(symbolic_ratio=0.0, **SMALL))
        assert wl.n_dictionary_vectors == 0
        assert wl.component_elements()["symbolic"] > 0  # buffer remains

    def test_registry_roundtrip_and_overrides(self):
        wl = build_workload("synth", seed=9, n_ops=6)
        assert wl.name == "synth"
        assert wl.config.seed == 9
        assert wl.config.n_ops == 6

    @pytest.mark.parametrize("bad", [
        dict(seed=-1),
        dict(n_ops=1),
        dict(depth=0),
        dict(fanout=0),
        dict(neural_fraction=1.5),
        dict(vector_dim=0),
        dict(gemm_scale=0),
        dict(symbolic_ratio=1.0),
        dict(symbolic_bytes_per_element=0),
    ])
    def test_config_validation(self, bad):
        with pytest.raises(ConfigError):
            SynthConfig(**bad)


@pytest.mark.slow
class TestLargeSeedScan:
    def test_500_seeds_unique_and_valid(self):
        fps = set()
        for seed in range(500):
            wl = SynthWorkload(SynthConfig(seed=seed, **SMALL))
            fps.add(wl.fingerprint())
            trace = wl.build_trace()
            assert len(trace) >= SMALL["n_ops"]
            build_dataflow_graph(trace)
        assert len(fps) == 500
