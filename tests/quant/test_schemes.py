"""Unit tests for quantization schemes."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import PrecisionError
from repro.quant import (
    Precision,
    dequantize,
    quantization_noise_floor,
    quantize_array,
    quantize_rows,
    quantize_tensor,
)

#: Finite float64 arrays of 1-3 dimensions, with zeros of both signs,
#: subnormals and magnitudes near the top of the float64 range mixed in.
finite_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
    elements=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 5e-324, -1e-320, 2.5e-308, 1e300, -1e300]),
    ),
)

INTEGER = st.sampled_from([Precision.INT8, Precision.INT4])


def int32_grid(x: np.ndarray, precision: Precision) -> np.ndarray:
    """The reference: a round trip through ``quantize_tensor``'s int32 grid.

    A subnormal peak underflows the scale to 0, which divides by zero
    there; its warnings are part of the reference result, not a failure.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return quantize_tensor(x, precision).dequantize()


class TestPrecision:
    def test_bits(self):
        assert Precision.FP32.bits == 32
        assert Precision.FP16.bits == 16
        assert Precision.INT8.bits == 8
        assert Precision.INT4.bits == 4

    def test_bytes_per_element_packs_int4(self):
        assert Precision.INT4.bytes_per_element == 0.5
        assert Precision.INT8.bytes_per_element == 1.0

    def test_integer_flags(self):
        assert Precision.INT8.is_integer
        assert not Precision.FP16.is_integer

    def test_integer_levels(self):
        assert Precision.INT8.integer_levels == 256
        assert Precision.INT4.integer_levels == 16

    def test_levels_rejected_for_float(self):
        with pytest.raises(PrecisionError):
            _ = Precision.FP32.integer_levels

    def test_parse_string(self):
        assert Precision.parse("int8") is Precision.INT8
        assert Precision.parse("FP16") is Precision.FP16

    def test_parse_passthrough(self):
        assert Precision.parse(Precision.INT4) is Precision.INT4

    def test_parse_unknown(self):
        with pytest.raises(PrecisionError):
            Precision.parse("int3")


class TestQuantizeTensor:
    def test_roundtrip_error_bounded_by_half_step(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000)
        qt = quantize_tensor(x, Precision.INT8)
        step = qt.scale
        assert np.max(np.abs(dequantize(qt) - x)) <= step / 2 + 1e-12

    def test_grid_is_integer(self):
        qt = quantize_tensor(np.linspace(-1, 1, 64), Precision.INT4)
        assert qt.values.dtype == np.int32
        assert qt.values.max() <= 7
        assert qt.values.min() >= -8

    def test_zero_tensor(self):
        qt = quantize_tensor(np.zeros(8), Precision.INT8)
        assert np.allclose(qt.dequantize(), 0.0)

    def test_float_precision_rejected(self):
        with pytest.raises(PrecisionError):
            quantize_tensor(np.ones(4), Precision.FP16)

    def test_nbytes_packs_int4(self):
        qt = quantize_tensor(np.ones(100), Precision.INT4)
        assert qt.nbytes == 50
        assert isinstance(qt.nbytes, int)

    def test_nbytes_odd_int4_count_rounds_up(self):
        """Packed INT4 storage is ceil(n/2) whole bytes, never fractional."""
        qt = quantize_tensor(np.ones(3), Precision.INT4)
        assert qt.nbytes == 2
        qt1 = quantize_tensor(np.ones(1), Precision.INT4)
        assert qt1.nbytes == 1

    def test_nbytes_int8_unchanged_by_packing(self):
        qt = quantize_tensor(np.ones(7), Precision.INT8)
        assert qt.nbytes == 7

    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 64),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    @settings(max_examples=50)
    def test_peak_preserved(self, x):
        """The largest-magnitude element maps near the top of the grid."""
        qt = quantize_tensor(x, Precision.INT8)
        rec = qt.dequantize()
        assert np.max(np.abs(rec - x)) <= qt.scale / 2 + 1e-9


class TestQuantizeArray:
    def test_fp32_is_near_identity(self):
        x = np.array([1.0, -2.5, 3.25])
        assert np.allclose(quantize_array(x, Precision.FP32), x, atol=1e-6)

    def test_fp16_rounds(self):
        x = np.array([1.0 + 2.0**-13])
        q = quantize_array(x, Precision.FP16)
        assert q[0] != x[0]
        assert abs(q[0] - x[0]) < 2.0**-10

    def test_fp8_keeps_sign_and_scale(self):
        x = np.array([0.1, -10.0, 100.0])
        q = quantize_array(x, "fp8")
        assert np.all(np.sign(q) == np.sign(x))
        assert np.all(np.abs(q - x) <= np.abs(x) * 0.08)

    def test_int4_is_coarse(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(512)
        err4 = np.abs(quantize_array(x, Precision.INT4) - x).mean()
        err8 = np.abs(quantize_array(x, Precision.INT8) - x).mean()
        assert err4 > 5 * err8

    def test_empty_array(self):
        q = quantize_array(np.array([]), Precision.INT8)
        assert q.size == 0

    @given(finite_arrays, INTEGER)
    @example(np.zeros((2, 3)), Precision.INT4)
    @example(np.array([-0.0]), Precision.INT8)
    @example(np.array([5e-324, -0.0, 0.0]), Precision.INT4)
    @example(np.array([[1e300, -1e300], [1e-300, 0.0]]), Precision.INT8)
    @settings(max_examples=300, deadline=None)
    def test_integer_path_equals_the_int32_grid_bitwise(self, x, precision):
        """No int32 round trip, same bytes (signed zeros included)."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = quantize_array(x, precision)
        want = int32_grid(x, precision)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_keeps_the_int32_result(self, value):
        x = np.array([[value, 1.0], [-2.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = quantize_array(x, Precision.INT4)
            want = quantize_tensor(x, Precision.INT4).dequantize()
        assert got.tobytes() == want.tobytes()

    @given(finite_arrays, st.sampled_from(list(Precision)))
    @example(np.array([[0.0, -0.0], [5e-324, 1.0]]), Precision.INT4)
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_per_row_quantize_array(self, x, precision):
        """``quantize_rows`` is ``quantize_array`` of each row, stacked."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = quantize_rows(x, precision)
            want = np.stack([quantize_array(row, precision) for row in x])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(st.sampled_from(list(Precision)))
    def test_idempotent(self, precision):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(64)
        once = quantize_array(x, precision)
        twice = quantize_array(once, precision)
        assert np.allclose(once, twice, atol=1e-12)


class TestNoiseFloor:
    def test_monotone_in_bits(self):
        floors = [
            quantization_noise_floor(p)
            for p in (Precision.FP32, Precision.FP16, Precision.INT8, Precision.INT4)
        ]
        assert floors == sorted(floors)

    def test_int8_band(self):
        """Empirical rounding noise on Gaussian data is within 3x the floor."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal(20_000)
        q = quantize_array(x, Precision.INT8)
        rms = np.sqrt(np.mean((q - x) ** 2))
        floor = quantization_noise_floor(Precision.INT8)
        assert floor / 3 < rms < floor * 3
