"""NSFlow reproduction: an end-to-end FPGA framework with scalable
dataflow architecture for Neuro-Symbolic AI (DAC 2025, arXiv:2504.19323).

Public API tour:

>>> from repro import NSFlow, build_workload
>>> design = NSFlow().compile(build_workload("mimonet"))
>>> design.config.geometry            # AdArray (H, W, N)  # doctest: +SKIP
>>> design.latency_ms                 # simulated latency  # doctest: +SKIP

Subpackages: :mod:`repro.vsa` (vector-symbolic algebra), :mod:`repro.nn`
(numpy NN substrate), :mod:`repro.workloads` (NVSA/MIMONet/LVRF/PrAE),
:mod:`repro.datasets` (synthetic RAVEN/I-RAVEN/PGM/CVR/SVRT-like tasks),
:mod:`repro.trace` / :mod:`repro.graph` / :mod:`repro.dse` (the frontend),
:mod:`repro.arch` (the backend simulator), :mod:`repro.baselines` and
:mod:`repro.characterize` (comparison devices), :mod:`repro.flow` (the
end-to-end framework).

``import repro`` loads the compile pipeline (the API below) and the
workload registry, nothing else: every sub-package but
:mod:`repro.workloads` imports a submodule on the first read of one of
its names (:mod:`repro._lazy`), so ``from repro.flow import run_sweep``
loads the sweep layer only when a caller asks for it.
"""

from .errors import NSFlowError
from .flow import NSFlow, CompiledDesign
from .dse import DesignConfig, DseEngine
from .quant import MixedPrecisionConfig, MIXED_PRECISION_PRESETS, Precision
from .workloads import available_workloads, build_workload

__version__ = "1.0.0"

__all__ = [
    "NSFlow",
    "CompiledDesign",
    "DesignConfig",
    "DseEngine",
    "Precision",
    "MixedPrecisionConfig",
    "MIXED_PRECISION_PRESETS",
    "build_workload",
    "available_workloads",
    "NSFlowError",
    "__version__",
]
