"""Precision vocabulary and symmetric (fake-)quantization.

The Table IV experiment quantizes the NVSA pipeline's weights, codebooks and
activations to FP16 / INT8 / INT4 (and the paper's mixed INT8-NN/INT4-symbolic
scheme) and measures end-to-end reasoning accuracy. We implement standard
symmetric per-tensor quantization: values are scaled so the largest magnitude
maps to the top of the integer grid, rounded to the grid, then de-quantized.
Accuracy degradation then emerges from real rounding noise rather than from a
hand-tuned accuracy table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import PrecisionError


class Precision(enum.Enum):
    """Numeric precisions supported by NSFlow compute units (Sec. IV-D)."""

    FP32 = "fp32"
    FP16 = "fp16"
    FP8 = "fp8"
    INT8 = "int8"
    INT4 = "int4"

    @property
    def bits(self) -> int:
        """Storage bits per element."""
        return _BITS[self]

    @property
    def bytes_per_element(self) -> float:
        """Storage bytes per element (INT4 packs two elements per byte)."""
        return self.bits / 8.0

    @property
    def is_integer(self) -> bool:
        return self in (Precision.INT8, Precision.INT4)

    @property
    def integer_levels(self) -> int:
        """Number of representable levels for integer grids."""
        if not self.is_integer:
            raise PrecisionError(f"{self.value} is not an integer precision")
        return 1 << self.bits

    @classmethod
    def parse(cls, name: "str | Precision") -> "Precision":
        """Parse a precision from its string name (case-insensitive)."""
        if isinstance(name, Precision):
            return name
        try:
            return cls(name.lower())
        except ValueError as exc:
            valid = ", ".join(p.value for p in cls)
            raise PrecisionError(f"unknown precision {name!r}; expected one of {valid}") from exc


_BITS = {
    Precision.FP32: 32,
    Precision.FP16: 16,
    Precision.FP8: 8,
    Precision.INT8: 8,
    Precision.INT4: 4,
}

#: Mantissa bits used by the FP8 rounding model (E4M3-style).
_FP8_MANTISSA_BITS = 3


@dataclass(frozen=True)
class QuantizedTensor:
    """A tensor stored on an integer grid together with its scale.

    ``values`` holds integers (as ``int32`` for headroom); ``scale`` maps the
    grid back to real values: ``real ≈ values * scale``.
    """

    values: np.ndarray
    scale: float
    precision: Precision

    def dequantize(self) -> np.ndarray:
        """Reconstruct the real-valued tensor."""
        return self.values.astype(np.float64) * self.scale

    @property
    def nbytes(self) -> int:
        """Storage bytes at the nominal precision.

        Sub-byte precisions pack: INT4 stores two elements per byte, so an
        odd element count rounds *up* to the next whole byte (``ceil``), the
        way a packed buffer is actually allocated. 3 INT4 elements are 2
        bytes, never 1.5.
        """
        return (self.values.size * self.precision.bits + 7) // 8


def _symmetric_scale(arr: np.ndarray, precision: Precision) -> float:
    qmax = (precision.integer_levels // 2) - 1
    peak = float(np.max(np.abs(arr))) if arr.size else 0.0
    if peak == 0.0:
        return 1.0
    return peak / qmax


def quantize_tensor(arr: np.ndarray, precision: Precision | str) -> QuantizedTensor:
    """Symmetric per-tensor quantization onto an integer grid.

    Only integer precisions are supported here; floating precisions do not
    need an explicit grid (see :func:`quantize_array` for the fake-quant
    path that handles every precision uniformly).
    """
    precision = Precision.parse(precision)
    if not precision.is_integer:
        raise PrecisionError(f"quantize_tensor needs an integer precision, got {precision.value}")
    arr = np.asarray(arr, dtype=np.float64)
    scale = _symmetric_scale(arr, precision)
    qmax = (precision.integer_levels // 2) - 1
    qmin = -(precision.integer_levels // 2)
    q = np.clip(np.rint(arr / scale), qmin, qmax).astype(np.int32)
    return QuantizedTensor(values=q, scale=scale, precision=precision)


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Convenience wrapper for :meth:`QuantizedTensor.dequantize`."""
    return qt.dequantize()


def _round_float(arr: np.ndarray, precision: Precision) -> np.ndarray:
    if precision is Precision.FP32:
        return arr.astype(np.float32).astype(np.float64)
    if precision is Precision.FP16:
        return arr.astype(np.float16).astype(np.float64)
    if precision is Precision.FP8:
        # E4M3-style rounding model: keep _FP8_MANTISSA_BITS mantissa bits.
        out = np.zeros_like(arr, dtype=np.float64)
        nonzero = arr != 0
        vals = arr[nonzero]
        exp = np.floor(np.log2(np.abs(vals)))
        step = np.exp2(exp - _FP8_MANTISSA_BITS)
        out[nonzero] = np.rint(vals / step) * step
        return out
    raise PrecisionError(f"{precision.value} is not a float precision")


def _snap(arr: np.ndarray, scale: np.ndarray | float, precision: Precision) -> np.ndarray:
    """``quantize_tensor(arr).dequantize()`` for a finite, positive ``scale``.

    The grid point is rounded, clipped and scaled back in float64, which
    is exact: every grid value is a small integer. The one difference
    from the int32 round trip is the sign of zero, which ``+ 0.0`` clears.
    ``scale`` may be an array that broadcasts against ``arr``.
    """
    half = precision.integer_levels // 2
    q = arr / scale
    np.rint(q, out=q)
    np.clip(q, -half, half - 1, out=q)
    q *= scale
    q += 0.0
    return q


def quantize_array(arr: np.ndarray, precision: Precision | str) -> np.ndarray:
    """Fake-quantize: round ``arr`` to ``precision`` and return real values.

    This is the uniform entry point used by the Table IV pipeline: FP32 is
    the identity (modulo float32 rounding), FP16/FP8 round the mantissa,
    INT8/INT4 round onto a symmetric per-tensor integer grid. The integer
    result equals ``quantize_tensor(arr, precision).dequantize()`` bit for
    bit; a 0-d input, or one whose scale is not a finite positive number
    (NaN or inf, or a subnormal peak whose scale underflows to 0), takes
    that path itself.
    """
    precision = Precision.parse(precision)
    arr = np.asarray(arr, dtype=np.float64)
    if arr.size == 0:
        return arr.copy()
    if not precision.is_integer:
        return _round_float(arr, precision)
    scale = _symmetric_scale(arr, precision)
    if not 0.0 < scale < np.inf or arr.ndim == 0:
        return quantize_tensor(arr, precision).dequantize()
    return _snap(arr, scale, precision)


def quantize_rows(arr: np.ndarray, precision: Precision | str) -> np.ndarray:
    """:func:`quantize_array` of every ``arr[i]`` on its own grid, stacked.

    Bitwise equal to ``np.stack([quantize_array(row, p) for row in arr])``:
    each row gets its own ``peak / qmax`` scale (per-codeword, per-PMF
    storage), and float precisions round element-wise anyway.
    """
    precision = Precision.parse(precision)
    arr = np.asarray(arr, dtype=np.float64)
    if arr.size == 0 or not precision.is_integer:
        return quantize_array(arr, precision)
    peak = np.abs(arr).reshape(len(arr), -1).max(axis=1)
    scale = peak / ((precision.integer_levels // 2) - 1)
    scale[peak == 0.0] = 1.0
    if not np.all((scale > 0.0) & (scale < np.inf)):
        return np.stack([quantize_array(row, precision) for row in arr])
    return _snap(arr, scale.reshape((-1,) + (1,) * (arr.ndim - 1)), precision)


def quantization_noise_floor(precision: Precision | str) -> float:
    """Relative RMS rounding noise expected for a unit-RMS tensor.

    For a symmetric b-bit grid spanning the data range, the classic result
    is ``step / sqrt(12)`` with ``step ≈ 2·peak / 2^b``. This is used by
    tests as a sanity band, not by the accuracy pipeline itself.
    """
    precision = Precision.parse(precision)
    if precision is Precision.FP32:
        return 2.0**-24
    if precision is Precision.FP16:
        return 2.0**-11
    if precision is Precision.FP8:
        return 2.0 ** -(_FP8_MANTISSA_BITS + 1)
    # Integer grids: assume ~4 sigma peak-to-rms ratio for Gaussian data.
    step = 2.0 * 4.0 / precision.integer_levels
    return step / np.sqrt(12.0)
