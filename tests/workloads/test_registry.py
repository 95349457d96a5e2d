"""Unit tests for the workload registry."""

import pytest

from repro import NSFlow
from repro.dse import clear_accuracy_cache
from repro.errors import ConfigError
from repro.quant import MIXED_PRECISION_PRESETS
from repro.workloads import available_workloads, build_workload


class TestRegistry:
    def test_all_table1_workloads_present(self):
        names = available_workloads()
        for expected in ("nvsa", "mimonet", "lvrf", "prae"):
            assert expected in names

    def test_build_by_name(self):
        wl = build_workload("mimonet", image_size=32, cnn_width=8, cnn_depth=2)
        assert wl.name == "mimonet"

    def test_case_insensitive(self):
        assert build_workload("NVSA", batch_panels=2, image_size=32,
                              resnet_width=8, blocks=2, block_dim=64).name == "nvsa"

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            build_workload("bert")

    def test_every_workload_traces_and_profiles(self, weight_draws):
        # Tracing needs layer shapes, never weight values: building,
        # profiling, memory accounting, fingerprinting and compiling with
        # accuracy off must draw no weight at all.
        small = {
            "nvsa": dict(batch_panels=2, image_size=32, resnet_width=8,
                         blocks=2, block_dim=64, dictionary_atoms=8),
            "mimonet": dict(image_size=32, cnn_width=8, cnn_depth=2),
            "lvrf": dict(batch_panels=2, image_size=32, resnet_width=8,
                         blocks=2, block_dim=64, dictionary_atoms=8),
            "prae": dict(batch_panels=2, image_size=32, cnn_width=8, cnn_depth=2),
            "scalable_nsai": dict(image_size=32, resnet_width=8,
                                  vector_dim=64, blocks=2, symbolic_ratio=0.2),
            "synth": dict(n_ops=8, vector_dim=64, blocks=2, gemm_scale=16),
        }
        for name in available_workloads():
            wl = build_workload(name, **small[name])
            profile = wl.profile()
            assert profile.n_ops > 0
            assert profile.total_flops > 0
            ce = wl.component_elements()
            assert set(ce) == {"neural", "symbolic"}
            wl.fingerprint()
            NSFlow(max_pes=1024).compile(wl)
        assert weight_draws == []

        # An INT4 accuracy compile runs the deployed twin's pipeline: only
        # MIMONet's executes its CNN, drawing each weight exactly once.
        int4 = NSFlow(max_pes=1024, precision=MIXED_PRECISION_PRESETS["INT4"],
                      accuracy=True, accuracy_problems=2)
        clear_accuracy_cache()
        try:
            for name in ("prae", "nvsa"):
                int4.compile(build_workload(name, **small[name]))
                assert weight_draws == [], name
            int4.compile(build_workload("mimonet", **small["mimonet"]))
        finally:
            clear_accuracy_cache()
        assert weight_draws == ["mimocnn.conv0", "mimocnn.conv1", "mimocnn.fc"]
