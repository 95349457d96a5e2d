"""The four NSAI workloads of Table I, plus a scalable synthetic workload.

Each workload is a *traceable program*: it can solve its task functionally
(numpy) and it can emit a Listing-1-style execution trace at the paper's
deployment scale for the DAG frontend. The four models are:

* :class:`~repro.workloads.nvsa.NvsaWorkload` — neuro-vector-symbolic
  architecture for RPM reasoning (ResNet-18 + VSA abduction/execution);
* :class:`~repro.workloads.mimonet.MimoNetWorkload` — multiple-input
  superposition networks (CNN + VSA binding, neural-dominated);
* :class:`~repro.workloads.lvrf.LvrfWorkload` — probabilistic abduction
  via learned rules in VSA;
* :class:`~repro.workloads.prae.PraeWorkload` — probabilistic abduction
  and execution on attribute PMFs (symbolic-dominated, no VSA vectors).

NVSA, LVRF and PrAE solve Raven's progressive matrices and share
:class:`~repro.workloads.nvsa.RpmWorkload`'s perception, accuracy and
trace steps.

:class:`~repro.workloads.scaling.ScalableNsaiWorkload` parameterizes the
symbolic/neural balance for the Fig. 6 ablation.

Unlike the other sub-packages, this one imports every workload module
eagerly: importing :mod:`.base` must define every registry class, since
perfbench's tracer wraps ``build_trace`` on the ``NSAIWorkload``
subclasses that exist when it installs (DESIGN.md "Import footprint").
"""

from .base import NSAIWorkload, WorkloadProfile
from .nvsa import NvsaConfig, NvsaWorkload, PerceptionModel
from .mimonet import MimoNetConfig, MimoNetWorkload
from .lvrf import LvrfConfig, LvrfWorkload
from .prae import PraeConfig, PraeWorkload
from .scaling import ScalableConfig, ScalableNsaiWorkload
from .synth import SynthConfig, SynthWorkload
from .registry import available_workloads, build_workload, workload_config

__all__ = [
    "NSAIWorkload",
    "WorkloadProfile",
    "NvsaConfig",
    "NvsaWorkload",
    "PerceptionModel",
    "MimoNetConfig",
    "MimoNetWorkload",
    "LvrfConfig",
    "LvrfWorkload",
    "PraeConfig",
    "PraeWorkload",
    "ScalableConfig",
    "ScalableNsaiWorkload",
    "SynthConfig",
    "SynthWorkload",
    "available_workloads",
    "build_workload",
    "workload_config",
]
