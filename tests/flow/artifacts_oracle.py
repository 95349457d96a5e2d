"""The eager artifact-store load: every hit parses the whole trace.

``ArtifactStore.load`` once answered every hit this way: it parsed each
trace op into a ``TraceOp``, then re-serialized the trace to check it
against ``meta.json``'s ``trace_fingerprint``. It now audits the bytes
it reads against per-file fingerprints and parses the trace only when
something reads it. This module keeps the eager version as the
reference the lazy load is checked against (``test_artifacts.py``) and
is used nowhere else.

:func:`load` is a pure read: it counts nothing and quarantines nothing,
and answers ``None`` wherever the eager load missed.
"""

from __future__ import annotations

import json

from repro.arch.resources import ResourceEstimate
from repro.dse.accuracy import AccuracyResult
from repro.dse.config import design_config_from_json
from repro.dse.engine import DseReport
from repro.dse.phase1 import Phase1Result
from repro.dse.phase2 import Phase2Result
from repro.errors import NSFlowError
from repro.flow.artifacts import (
    ARTIFACT_FORMAT_VERSION,
    ENGINE_CACHE_EPOCH,
    ArtifactStore,
    ScenarioArtifacts,
    _frontier_from_doc,
)
from repro.model.backend import BackendInfo
from repro.model.designspace import DesignSpaceSize
from repro.trace.serialize import trace_fingerprint, trace_from_json

__all__ = ["load"]


def _artifacts(trace_text: str, config_text: str, report: dict) -> ScenarioArtifacts:
    if report.get("format_version") != ARTIFACT_FORMAT_VERSION:
        raise ValueError(f"unsupported report format {report.get('format_version')!r}")
    config = design_config_from_json(config_text)
    p2 = report["phase2"]
    dse_report = DseReport(
        config=config,
        phase1=Phase1Result(**report["phase1"]),
        phase2=Phase2Result(
            nl=tuple(p2["nl"]),
            nv=tuple(p2["nv"]),
            t_parallel=p2["t_parallel"],
            iterations_run=p2["iterations_run"],
            improved=p2["improved"],
        ),
        space=DesignSpaceSize(**report["space"]),
        pareto=_frontier_from_doc(report["pareto"]),
        backend=None if report.get("backend") is None else BackendInfo(**report["backend"]),
        accuracy=(
            None if report.get("accuracy") is None
            else AccuracyResult(**report["accuracy"])
        ),
    )
    return ScenarioArtifacts(
        trace=trace_from_json(trace_text),
        config=config,
        report=dse_report,
        resources=ResourceEstimate(**report["resources"]),
        total_cycles=report["schedule"]["total_cycles"],
        latency_ms=report["schedule"]["latency_ms"],
    )


def load(store: ArtifactStore, key: str) -> ScenarioArtifacts | None:
    """The entry under ``key`` as the eager load returned it, or ``None``."""
    path = store.path_for(key)
    try:
        meta = json.loads((path / "meta.json").read_bytes())
        if not isinstance(meta, dict) or meta.get("format") != ARTIFACT_FORMAT_VERSION \
                or meta.get("epoch") != ENGINE_CACHE_EPOCH:
            return None
        artifacts = _artifacts(
            (path / "trace.json").read_bytes().decode("utf-8"),
            (path / "design_config.json").read_bytes().decode("utf-8"),
            json.loads((path / "report.json").read_bytes()),
        )
        if trace_fingerprint(artifacts.trace) != meta.get("trace_fingerprint"):
            return None
    except (OSError, ValueError, TypeError, KeyError, NSFlowError):
        return None
    return artifacts
