"""Baseline device models (paper Fig. 1 and Fig. 5 comparisons).

Calibrated roofline-style models of the hardware the paper benchmarks
against: Jetson TX2, Xavier NX, Xeon CPU, RTX 2080(Ti), Coral-class edge
TPU, a TPU-like 128×128 systolic array, and a Xilinx-DPU-like engine.

The mechanism, not a lookup table, produces the paper's trends:

* neural GEMMs run near each device's dense-kernel efficiency;
* symbolic kernels are *fragmented* — a batched trace op of ``n`` vectors
  issues ``n`` small kernels, each paying the device's launch overhead,
  and streams its bytes at a degraded irregular-access bandwidth — which
  is why symbolic work dominates runtime on GPUs/SoCs (Fig. 1a) while
  contributing few FLOPs;
* the TPU-like array has no circular-convolution mode, so VSA ops lower
  to circulant-matrix GEMMs with a ``d×`` data blow-up;
* the DPU-like engine cannot run symbolic kernels at all and falls back
  to its host CPU.

Names resolve on first use (:mod:`repro._lazy`); a compile loads none
of these models.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "device": ["DeviceSpec", "DeviceResult", "RooflineDevice"],
    "cpu_gpu": ["JETSON_TX2", "XAVIER_NX", "XEON_CPU", "RTX_2080TI", "CORAL_TPU"],
    "tpu": ["TpuLikeArray"],
    "dpu": ["DpuLikeEngine"],
    "zoo": ["baseline_devices", "fig5_devices"],
})
