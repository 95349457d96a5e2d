"""Workload characterization (paper Sec. II-B, Fig. 1).

* :mod:`~repro.characterize.profiler` — end-to-end latency breakdowns per
  device (Fig. 1a's neuro/symbolic runtime split, Fig. 1b's cross-device
  latencies);
* :mod:`~repro.characterize.roofline` — arithmetic-intensity /
  performance points under a device roofline (Fig. 1c).

Names resolve on first use (:mod:`repro._lazy`); a compile loads
neither module.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "profiler": ["WorkloadCharacterization", "characterize_workload"],
    "roofline": ["RooflinePoint", "roofline_points", "roofline_curve"],
})
