"""NSFlow backend: the flexible hardware architecture (paper Sec. IV).

A cycle-level functional simulator of the accelerator template the
frontend parameterizes: the adaptive systolic array (AdArray) with its
passing-register circular-convolution streaming mode and sub-array
folding, the custom SIMD unit, the re-organizable on-chip memory system
(MemA1/MemA2/MemB/MemC + URAM cache, double-buffered), the AXI/DRAM
bandwidth model, the controller that schedules dataflow graphs, the FPGA
resource estimator behind Table III, and the RTL parameter generator.

Names resolve on first use (:mod:`repro._lazy`), so importing the package
loads no submodule. A compile runs the controller and the memory,
resource and RTL models, never the functional simulators (:mod:`.pe`,
:mod:`.column`, :mod:`.adarray`, :mod:`.simd`), and so never loads them.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "pe": ["ProcessingElement"],
    "column": ["ColumnResult", "simulate_column"],
    "adarray": ["AdArray", "ArrayOpResult"],
    "simd": ["SimdUnit", "SimdOpResult"],
    "memory": ["DoubleBufferedMemory", "OnChipMemorySystem"],
    "dram": ["DramModel"],
    "controller": ["Controller", "ScheduleResult"],
    "resources": [
        "FpgaDevice", "ResourceEstimate", "U250", "ZCU104", "estimate_resources",
    ],
    "rtlgen": ["generate_rtl_parameters"],
})
