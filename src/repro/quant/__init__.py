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

Names resolve on first use (:mod:`repro._lazy`).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "schemes": [
        "Precision",
        "QuantizedTensor",
        "quantize_array",
        "quantize_rows",
        "quantize_tensor",
        "dequantize",
        "quantization_noise_floor",
    ],
    "mixed": [
        "MixedPrecisionConfig",
        "MIXED_PRECISION_PRESETS",
        "component_footprint_bytes",
        "model_footprint_bytes",
    ],
})
