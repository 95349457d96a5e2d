"""Quantization substrate: precisions, quantizers, and mixed-precision configs.

NSFlow supports mixed precisions "ranging from FP16/8 to INT8/4 in different
components of the workload" (paper Sec. IV-D). This package provides:

* :class:`~repro.quant.schemes.Precision` — the precision vocabulary with
  per-element storage costs,
* symmetric fake-quantization (:func:`~repro.quant.schemes.quantize_array`)
  used by the Table IV accuracy study,
* :class:`~repro.quant.mixed.MixedPrecisionConfig` — the (NN precision,
  symbolic precision) pairs the frontend assigns to workload components,
* the model memory-footprint model behind Table IV's "Memory" row.
"""

from .schemes import (
    Precision,
    QuantizedTensor,
    dequantize,
    quantization_noise_floor,
    quantize_array,
    quantize_rows,
    quantize_tensor,
)
from .mixed import (
    MixedPrecisionConfig,
    MIXED_PRECISION_PRESETS,
    component_footprint_bytes,
    model_footprint_bytes,
)

__all__ = [
    "Precision",
    "QuantizedTensor",
    "quantize_array",
    "quantize_rows",
    "quantize_tensor",
    "dequantize",
    "quantization_noise_floor",
    "MixedPrecisionConfig",
    "MIXED_PRECISION_PRESETS",
    "component_footprint_bytes",
    "model_footprint_bytes",
]
