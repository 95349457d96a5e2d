"""One ``run_sweep`` per process: the worker the multi-process tests spawn.

:func:`spawn` starts ``python sweep_worker.py '<spec>'``, where the
JSON spec names the worker's cache directory (its ``ledger.jsonl`` and
``store/``; several workers may share one) and the synth seed range,
plus any of ``shard``, ``worker``, ``lease``, ``scenario_timeout`` and
``resume`` (the ``run_sweep`` arguments of the same meaning) and
``kill_after``: SIGKILL the process right after it durably appends its
Nth claim record, the window where a scenario is claimed but will never
be priced. A fault schedule arrives the way a user arms one, through
``REPRO_FAULTS`` in the environment.

A worker whose sweep returns exits 0, error rows or not, and prints
the result counters as one JSON object on stdout.

Tests import :func:`synth_grid` from here too (pytest puts this
directory on ``sys.path``), so every process prices the same tiny
grid.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys

from repro.faults import FAULTS_ENV, FAULTS_STATE_ENV
from repro.flow import ArtifactStore, RunLedger, ScenarioGrid, run_sweep

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

#: A tiny synth family: compiles in milliseconds per scenario.
SYNTH_OVR = (("n_ops", 8), ("vector_dim", 64), ("blocks", 2),
             ("gemm_scale", 16))


def synth_grid(seeds: str, **kwargs) -> ScenarioGrid:
    return ScenarioGrid(workloads=(f"synth:{seeds}",), max_pes=(256,),
                        overrides=SYNTH_OVR, **kwargs)


def spawn(spec: dict, *, faults: str = "",
          fault_state: os.PathLike | None = None) -> subprocess.Popen:
    """Start one worker on ``spec`` with ``faults`` as its schedule."""
    env = dict(os.environ, PYTHONPATH=SRC, **{FAULTS_ENV: faults})
    env.pop(FAULTS_STATE_ENV, None)
    if fault_state is not None:
        env[FAULTS_STATE_ENV] = str(fault_state)
    return subprocess.Popen(
        [sys.executable, __file__, json.dumps(spec)], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _kill_after_nth_claim(n: int) -> None:
    seen = [0]
    append_doc = RunLedger._append_doc

    def append_then_maybe_die(self, doc):
        append_doc(self, doc)
        if doc.get("kind") == "claim":
            seen[0] += 1
            if seen[0] >= n:
                os.kill(os.getpid(), signal.SIGKILL)

    RunLedger._append_doc = append_then_maybe_die


def main(spec: dict) -> int:
    cache = pathlib.Path(spec["cache"])
    if spec.get("kill_after") is not None:
        _kill_after_nth_claim(spec["kill_after"])
    result = run_sweep(
        synth_grid(spec["seeds"]),
        store=ArtifactStore(cache / "store"),
        ledger=cache / "ledger.jsonl",
        shard=spec.get("shard"),
        worker=spec.get("worker"),
        lease_timeout_s=spec.get("lease", 300.0),
        scenario_timeout_s=spec.get("scenario_timeout"),
        resume=spec.get("resume", False),
    )
    print(json.dumps({
        "n_errors": result.n_errors,
        "n_timeouts": result.n_timeouts,
        "n_recovered": result.n_recovered,
        "io_retries": result.io_retries,
        "quarantined": result.store_stats.quarantined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
