#!/usr/bin/env python3
"""Accuracy-execution benchmark: where an INT4 accuracy pass spends its time.

The accuracy objective (``repro compile --accuracy``, every ``--accuracy``
sweep miss, the Table IV bench) executes each workload's functional
pipeline at the scenario's precision. This bench runs that pass, as a
cold compile pays for it (``repro.dse.accuracy.evaluate_accuracy`` with
the memo cleared, so the deployed twin is built and its codebooks or CNN
weights drawn), for prae, nvsa, lvrf and mimonet at INT4 over 16
problems, and records per workload:

* the median wall time of ``REPEATS`` passes;
* a per-stage split from one instrumented pass: perception PMFs, PMF
  encoding, FFTs (every ``np.fft.rfft``/``irfft``), similarity, PrAE's
  rule algebra, the CNN weight draw, the CNN forward's conv gather
  (every ``im2col``, padding included), its conv GEMMs (the rest of
  ``Conv2d.forward``: the weights×columns product, bias and NCHW view),
  the rest of the CNN forward (BatchNorm, ReLU, pooling, the FC head),
  and the rest. A stage called inside another counts toward the outer
  one, except that the weight draw, conv gather and GEMM are taken out
  of the stages that hold them; the wrappers' own overhead is in the
  split, not in the median;
* call counts of FFTs, ``quantize_array``, ``quantize_rows`` and
  ``np.tensordot`` in that pass;
* a digest of the candidate scores (for mimonet, of the CNN features its
  prototype scores are computed from); for the RPM workloads whether
  every score equals the pair-by-pair oracle of
  ``tests/workloads/reasoner_oracle.py`` bit for bit; for mimonet whether
  every feature equals the row-major conv oracle of
  ``tests/nn/conv_oracle.py`` bit for bit, whether each is within
  ``atol = rtol = 1e-12`` of it, and whether the accuracy equals the
  oracle pass's.

It also records the call counts of the same pass on small configs, which
``--check-only`` (CI's perf-smoke job) gates: it runs the small configs
and fails when any nvsa, lvrf or prae score differs from the oracle's,
any mimonet feature leaves the conv oracle's tolerance, mimonet's
accuracy differs from the oracle pass's, or any call count exceeds the
recorded one. It prints the pass times but never gates on them. Results
land in ``BENCH_accuracy.json`` (repo root). Usage::

    PYTHONPATH=src python benchmarks/bench_accuracy.py
    PYTHONPATH=src python benchmarks/bench_accuracy.py --check-only

For the whole cold compile by layer, run ``python3 perfbench/run.py
--workload compile-cold --trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import platform
import statistics
import sys
import time
from collections import Counter, defaultdict

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests" / "workloads"))
sys.path.insert(0, str(REPO_ROOT / "tests" / "nn"))
# One BLAS thread, as perfbench's compile-cold children run: mimonet's
# conv GEMMs would otherwise time whatever cores the host has free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import conv_oracle  # noqa: E402
import numpy as np  # noqa: E402
import reasoner_oracle  # noqa: E402

import repro.nn.layers as layers_module  # noqa: E402
import repro.quant.schemes as schemes  # noqa: E402
import repro.workloads.nvsa as nvsa_module  # noqa: E402
from repro.dse.accuracy import (  # noqa: E402
    clear_accuracy_cache,
    deployed_workload,
    evaluate_accuracy,
)
from repro.nn.layers import Conv2d, WeightSource  # noqa: E402
from repro.nn.resnet import ResNet  # noqa: E402
from repro.quant import MIXED_PRECISION_PRESETS  # noqa: E402
from repro.workloads import build_workload  # noqa: E402
from repro.workloads.mimonet import MimoNetWorkload  # noqa: E402
from repro.workloads.nvsa import NvsaReasoner, PerceptionModel  # noqa: E402
from repro.workloads.prae import PraeWorkload  # noqa: E402

WORKLOADS = ("prae", "nvsa", "lvrf", "mimonet")
RPM = ("prae", "nvsa", "lvrf")
PRESET = "INT4"
N_PROBLEMS = 16
SEED = 0
REPEATS = 5

#: The configs ``--check-only`` runs (the test suite's small configs).
SMALL = {
    "nvsa": dict(batch_panels=4, image_size=32, resnet_width=8,
                 blocks=2, block_dim=128, dictionary_atoms=32, seed=7),
    "lvrf": dict(batch_panels=4, image_size=32, resnet_width=8,
                 blocks=2, block_dim=128, dictionary_atoms=16, seed=0),
    "prae": dict(batch_panels=4, image_size=32, cnn_width=8, cnn_depth=2, seed=0),
    "mimonet": dict(image_size=32, cnn_width=8, cnn_depth=3, superposition=3, seed=8),
}

STAGES = ("perception", "encode", "fft", "similarity", "rule_algebra",
          "weight_draw", "conv_gather", "conv_gemm", "cnn_other")
COUNTED = ("fft", "quantize_array", "quantize_rows", "tensordot")


class Probe:
    """Times stages, counts calls and captures scores by wrapping functions.

    Every target must exist where it is named: a renamed or moved
    function raises rather than reading as zero calls, which the
    call-count gate would pass.
    """

    def __init__(self) -> None:
        self.stage_ms: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.scores: list[np.ndarray] = []
        self._depth = 0
        self._split_ms = 0.0
        self._undo: list[tuple[object, str, object]] = []

    def _install(self, owner, attr: str, make) -> None:
        raw = vars(owner).get(attr)
        if raw is None:
            raise AttributeError(f"probe target {owner.__name__}.{attr} is not defined")
        setattr(owner, attr, make(raw))
        self._undo.append((owner, attr, raw))

    def stage(self, owner, attr: str, stage: str, counter: str | None = None,
              split: bool = False) -> None:
        """Time calls of ``owner.attr`` as ``stage``. A call inside another
        stage counts toward the outer one, unless ``split``: then it is
        timed as its own stage and taken out of the outer one's time."""
        def make(func):
            def timed(*args, **kwargs):
                if counter:
                    self.calls[counter] += 1
                if self._depth and not split:
                    return func(*args, **kwargs)
                self._depth += 1
                split_before = self._split_ms
                t0 = time.perf_counter()
                try:
                    return func(*args, **kwargs)
                finally:
                    ms = (time.perf_counter() - t0) * 1e3
                    inner = self._split_ms - split_before
                    self.stage_ms[stage] += ms - inner
                    if split:
                        self._split_ms += ms - inner
                    self._depth -= 1
            return timed
        self._install(owner, attr, make)

    def count(self, owner, attr: str, counter: str) -> None:
        def make(func):
            def counted(*args, **kwargs):
                self.calls[counter] += 1
                return func(*args, **kwargs)
            return counted
        self._install(owner, attr, make)

    def capture(self, owner, attr: str, pick) -> None:
        def make(func):
            def captured(*args, **kwargs):
                out = func(*args, **kwargs)
                self.scores.append(np.asarray(pick(out)))
                return out
            return captured
        self._install(owner, attr, make)

    def __enter__(self) -> Probe:
        try:
            self._wrap_targets()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _wrap_targets(self) -> None:
        self.stage(np.fft, "rfft", "fft", "fft")
        self.stage(np.fft, "irfft", "fft", "fft")
        self.count(np, "tensordot", "tensordot")
        # Every module binding of the function, its defining one included,
        # so calls through any import path are counted.
        for name in ("quantize_array", "quantize_rows"):
            original = getattr(schemes, name)
            for module in [m for n, m in sys.modules.items() if n.startswith("repro")]:
                if getattr(module, name, None) is original:
                    self.count(module, name, name)
        self.stage(PerceptionModel, "pmfs", "perception")
        self.stage(NvsaReasoner, "encode", "encode")
        self.stage(nvsa_module, "_sim", "similarity")
        self.stage(PraeWorkload, "_row_prob", "rule_algebra")
        self.stage(PraeWorkload, "_predict_pmf", "rule_algebra")
        self.stage(ResNet, "forward", "cnn_other")
        self.stage(Conv2d, "forward", "conv_gemm", split=True)
        self.stage(layers_module, "im2col", "conv_gather", split=True)
        self.stage(WeightSource, "materialize", "weight_draw", split=True)
        self.capture(NvsaReasoner, "solve", lambda out: out[1])
        self.capture(PraeWorkload, "candidate_scores", lambda out: out)
        self.capture(MimoNetWorkload, "_features", lambda out: out)

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()


def accuracy_pass(wl) -> tuple[float, float]:
    """``(accuracy, ms)`` of one cold INT4 pass, as a compile runs it."""
    clear_accuracy_cache()
    gc.collect()
    t0 = time.perf_counter()
    result = evaluate_accuracy(
        wl, N_PROBLEMS, SEED, precision=MIXED_PRECISION_PRESETS[PRESET]
    )
    return result.value, (time.perf_counter() - t0) * 1e3


def scores_digest(scores: list[np.ndarray]) -> str:
    h = hashlib.sha256()
    for s in scores:
        h.update(np.ascontiguousarray(s, dtype=np.float64).tobytes())
    return h.hexdigest()[:32]


def measure(name: str, overrides: dict, repeats: int) -> dict:
    """One workload: timed passes, then one instrumented pass."""
    wl = build_workload(name, **overrides)
    times = [accuracy_pass(wl)[1] for _ in range(repeats)]
    with Probe() as probe:
        value, probed_ms = accuracy_pass(wl)
    stages = {s: round(probe.stage_ms[s], 3) for s in STAGES if s in probe.stage_ms}
    stages["other"] = round(probed_ms - sum(probe.stage_ms.values()), 3)
    row = {
        "accuracy": value,
        "pass_ms": (
            {"median": statistics.median(times), "min": min(times), "max": max(times)}
            if times else None
        ),
        "instrumented_pass_ms": round(probed_ms, 3),
        "stages_ms": stages,
        "calls": {c: probe.calls[c] for c in COUNTED},
        "scores_digest": scores_digest(probe.scores),
    }
    twin = deployed_workload(wl, MIXED_PRECISION_PRESETS[PRESET])
    if name in RPM:
        want = [s for s, _ in reasoner_oracle.score_problems(twin, SEED, N_PROBLEMS)]
        row["scores_match_oracle"] = same_arrays(probe.scores, want)
    else:
        want_value, want = conv_oracle.accuracy_pass(twin, N_PROBLEMS, SEED)
        row["features_match_oracle"] = same_arrays(probe.scores, want)
        row["features_within_tolerance"] = len(want) == len(probe.scores) and all(
            np.allclose(g, w, **conv_oracle.TOLERANCE) for g, w in zip(probe.scores, want)
        )
        row["accuracy_matches_oracle"] = value == want_value
    return row


def same_arrays(got: list[np.ndarray], want: list[np.ndarray]) -> bool:
    return len(got) == len(want) and all(
        g.tobytes() == w.tobytes() for g, w in zip(got, want)
    )


def oracle_failures(name: str, row: dict) -> list[str]:
    """The row's oracle-contract breaches (never its bit-exact mimonet flag)."""
    failures = []
    if row.get("scores_match_oracle") is False:
        failures.append(f"{name}: candidate scores differ from the oracle")
    if row.get("features_within_tolerance") is False:
        failures.append(f"{name}: CNN features leave the conv oracle's tolerance "
                        f"{conv_oracle.TOLERANCE}")
    if row.get("accuracy_matches_oracle") is False:
        failures.append(f"{name}: accuracy differs from the conv oracle pass's")
    return failures


def oracle_verdict(row: dict) -> str:
    if oracle_failures("", row):
        return "DIFFERS"
    if row.get("scores_match_oracle") or row.get("features_match_oracle"):
        return "equal"
    return "within tol"


def print_table(rows: dict[str, dict]) -> None:
    cols = STAGES + ("other",)
    print(f"{'workload':>8} | {'pass ms':>8} | " + " | ".join(f"{c:>12}" for c in cols)
          + " | fft calls | quantize_array | quantize_rows | tensordot | oracle")
    for name, r in rows.items():
        ms = r["pass_ms"]["median"] if r["pass_ms"] else r["instrumented_pass_ms"]
        oracle = oracle_verdict(r)
        print(f"{name:>8} | {ms:8.1f} | "
              + " | ".join(f"{r['stages_ms'].get(c, 0.0):12.1f}" for c in cols)
              + f" | {r['calls']['fft']:9d} | {r['calls']['quantize_array']:14d}"
              + f" | {r['calls']['quantize_rows']:13d} | {r['calls']['tensordot']:9d}"
              + f" | {oracle}")


def run_check(recorded: dict | None) -> list[str]:
    failures: list[str] = []
    rows = {name: measure(name, dict(SMALL[name]), repeats=0) for name in WORKLOADS}
    print("small configs, one instrumented pass each (times not gated):")
    print_table(rows)
    for name, row in rows.items():
        failures += oracle_failures(name, row)
        want = (recorded or {}).get("check", {}).get(name, {}).get("calls")
        if want is None:
            failures.append(f"{name}: no recorded call counts (run the bench without --check-only)")
            continue
        for counter, n in row["calls"].items():
            if n > want.get(counter, 0):
                failures.append(f"{name}: {n} {counter} calls, recorded {want.get(counter, 0)}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_accuracy.json",
                        help="result JSON path (default: repo-root BENCH_accuracy.json)")
    parser.add_argument("--check-only", action="store_true",
                        help="run the small configs; fail on an oracle mismatch or "
                             "a call count above the recorded one; skip the JSON write")
    args = parser.parse_args(argv)

    if args.check_only:
        recorded = json.loads(args.out.read_text()) if args.out.exists() else None
        failures = run_check(recorded)
        for failure in failures:
            print(f"CONTRACT FAILURE: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("check-only: every nvsa/lvrf/prae score equals the oracle's; mimonet's "
              "features and accuracy agree with the conv oracle; no call count above "
              "the recorded one")
        return 0

    rows = {name: measure(name, {}, REPEATS) for name in WORKLOADS}
    print(f"{PRESET} x {N_PROBLEMS} problems, seed {SEED}, median of {REPEATS} cold passes:")
    print_table(rows)
    check = {name: {"calls": measure(name, dict(SMALL[name]), repeats=0)["calls"]}
             for name in WORKLOADS}
    doc = {
        "bench": "accuracy",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "precision": PRESET,
        "n_problems": N_PROBLEMS,
        "seed": SEED,
        "repeats": REPEATS,
        "workloads": rows,
        "check": check,
    }
    failures = [f for name, row in rows.items() for f in oracle_failures(name, row)]
    for failure in failures:
        print(f"CONTRACT FAILURE: {failure}", file=sys.stderr)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
