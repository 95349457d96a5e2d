"""PrAE: probabilistic abduction and execution learner (paper ref. [5]).

PrAE pairs a CNN perception frontend with a *purely probabilistic* symbolic
backend: attribute PMFs from perception are pushed through probability-
space rule checks (no VSA vectors), the best-fitting rule per attribute is
abduced, and execution predicts the answer's PMF. Its compute pattern
(Table I) is "CNN + probabilistic abduction": the symbolic half is a swarm
of small element-wise/reduction kernels, which is why it shows the most
symbolic-dominated runtime of the four workloads on GPUs (Fig. 1a) — every
tiny kernel pays launch overhead and streams memory with no reuse.

The probabilistic rule semantics over a row of PMFs (p, q, r):

* constant            ``Σ_k p(k) q(k) r(k)``
* progression(d)      ``Σ_k p(k) q(k+d) r(k+2d)``
* arithmetic(±)       ``Σ_{i,j} p(i) q(j) r(i ± j)``
* distribute-three    mass-profile match: rows share one value multiset
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..datasets.rpm import RpmProblem
from ..errors import ConfigError
from ..nn.layers import WeightSource
from ..nn.resnet import build_small_cnn
from ..quant import MixedPrecisionConfig, MIXED_PRECISION_PRESETS, quantize_array, quantize_rows
from ..trace.opnode import Trace
from ..trace.tracer import Tracer
from ..utils import make_rng
from .nvsa import PerceptionModel, RpmWorkload, rule_templates

__all__ = ["PraeConfig", "PraeWorkload"]


@dataclass(frozen=True)
class PraeConfig:
    """PrAE deployment parameters."""

    dataset: str = "raven"
    batch_panels: int = 16
    image_size: int = 80
    cnn_width: int = 32
    cnn_depth: int = 6
    confidence: float = 4.0
    rule_weight_power: float = 2.0
    precision: MixedPrecisionConfig = field(
        default_factory=lambda: MIXED_PRECISION_PRESETS["FP32"]
    )
    seed: int = 0


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _progression_indices(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(k, k + d, k + 2d)`` for every ``k`` that keeps all three in ``range(n)``."""
    ks = np.arange(n)
    valid = (ks + 2 * d >= 0) & (ks + 2 * d < n) & (ks + d >= 0) & (ks + d < n)
    ks = ks[valid]
    return _read_only(ks, ks + d, ks + 2 * d)


@lru_cache(maxsize=None)
def _arithmetic_indices(n: int, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """The n x n mask of pairs ``(i, j)`` with ``k = i + sign * j`` in
    ``range(n)``, and those ``k`` in the mask's row-major order."""
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    k = i + sign * j
    mask = (k >= 0) & (k < n)
    return _read_only(mask, k[mask])


class PraeWorkload(RpmWorkload):
    """Probabilistic abduction + execution on attribute PMFs."""

    name = "prae"

    def __init__(self, config: PraeConfig | None = None):
        super().__init__(config or PraeConfig())
        # Frontend weights are drawn only on first read (see WeightSource).
        self._weights = WeightSource(make_rng(self.config.seed))
        self._frontend = build_small_cnn(
            name="praecnn",
            in_channels=1,
            num_classes=256,
            base_width=self.config.cnn_width,
            depth=self.config.cnn_depth,
            rng=self._weights,
        )

    # -- probabilistic rule engine ---------------------------------------------

    def _quant(self, arr: np.ndarray) -> np.ndarray:
        return quantize_array(arr, self.config.precision.symbolic)

    def _row_prob(
        self, template: tuple[str, int], p: np.ndarray, q: np.ndarray, r: np.ndarray
    ) -> float:
        """Probability the rule holds for a row of symbolic-precision PMFs."""
        kind, param = template
        n = p.shape[0]
        if kind == "constant":
            return float(np.sum(p * q * r))
        if kind == "progression":
            ks, ks_d, ks_2d = _progression_indices(n, param)
            return float(np.sum(p[ks] * q[ks_d] * r[ks_2d]))
        if kind == "arithmetic":
            mask, k = _arithmetic_indices(n, param)
            joint = p[:, None] * q[None, :]
            return float(np.sum(joint[mask] * r[k]))
        if kind == "distribute_three":
            # Handled at the solver level (needs both complete rows).
            raise ConfigError("distribute_three has no single-row probability")
        raise ConfigError(f"unknown template {template}")

    def _predict_pmf(
        self,
        template: tuple[str, int],
        a: np.ndarray,
        b: np.ndarray,
        mass_ref: np.ndarray,
    ) -> np.ndarray:
        """Execution: PMF over the missing value given row 3's partial PMFs."""
        kind, param = template
        n = a.shape[0]
        if kind == "constant":
            pred = a * b
        elif kind == "progression":
            pred = np.zeros(n)
            src, mid, ks = _progression_indices(n, param)
            pred[ks] = a[src] * b[mid]
        elif kind == "arithmetic":
            pred = np.zeros(n)
            mask, k = _arithmetic_indices(n, param)
            joint = a[:, None] * b[None, :]
            np.add.at(pred, k, joint[mask])
        elif kind == "distribute_three":
            pred = np.maximum(mass_ref - (a + b) / 3.0, 0.0)
        else:
            raise ConfigError(f"unknown template {template}")
        total = pred.sum()
        if total <= 1e-12:
            return np.full(n, 1.0 / n)
        return self._quant(pred / total)

    # -- functional interface -------------------------------------------------------

    def solve_problem(
        self, problem: RpmProblem, perception: PerceptionModel | None = None
    ) -> int:
        return int(np.argmax(self.candidate_scores(problem, perception)))

    def candidate_scores(
        self, problem: RpmProblem, perception: PerceptionModel | None = None
    ) -> np.ndarray:
        """Posterior-weighted score of every candidate; the argmax is the answer."""
        perception = perception or self.perception
        n_cands = len(problem.candidates)
        scores = np.zeros(n_cands)
        # Row-major grid, the answer panel grid[2][2] included (perception
        # still reads it), then the candidates.
        panels = [panel for row in problem.grid for panel in row] + problem.candidates
        for attr in problem.all_attributes:
            pmfs = perception.pmfs(attr.n_values, [p.value(attr.name) for p in panels])
            pm = pmfs[:9].reshape(3, 3, -1)
            cand_pmfs = pmfs[9:]
            # Abduction reads rows 1-2 on the symbolic grid: each PMF once.
            rows = quantize_rows(pmfs[:6], self.config.precision.symbolic).reshape(2, 3, -1)
            mass0 = (pm[0][0] + pm[0][1] + pm[0][2]) / 3.0
            mass1 = (pm[1][0] + pm[1][1] + pm[1][2]) / 3.0
            mass_ref = (mass0 + mass1) / 2.0

            attr_scores = np.zeros(n_cands)
            weight_total = 0.0
            for template in rule_templates(self.spec, attr):
                if template[0] == "distribute_three":
                    # Rows share a value multiset: compare mass profiles.
                    prior = float(np.sum(np.minimum(mass0, mass1)))
                else:
                    f0 = self._row_prob(template, *rows[0])
                    f1 = self._row_prob(template, *rows[1])
                    prior = float(np.sqrt(max(f0, 0.0) * max(f1, 0.0)))
                pred = self._predict_pmf(template, pm[2][0], pm[2][1], mass_ref)
                weight = prior**self.config.rule_weight_power
                attr_scores += weight * (cand_pmfs @ pred)
                weight_total += weight
            if weight_total > 0:
                scores += attr_scores / weight_total
        return scores

    # -- memory accounting -------------------------------------------------------------

    def component_elements(self) -> dict[str, int]:
        neural = self._frontend.weight_elements()
        neural += sum(256 * a.n_values + a.n_values for a in self._all_attrs)
        # Probability tensors for abduction: joint (n×n×n) scratch per attr.
        symbolic = sum(a.n_values**3 for a in self._all_attrs)
        return {"neural": neural, "symbolic": symbolic}

    # -- trace ------------------------------------------------------------------------------

    def build_trace(self) -> Trace:
        """PrAE dataflow: CNN + a swarm of small probability kernels.

        Every (attribute × rule × stage) step is its own small SIMD op —
        deliberately *not* batched, because that is PrAE's documented
        execution behaviour and the source of its GPU inefficiency.
        """
        tracer = Tracer(self.name)
        tail = self._trace_frontend(tracer)

        n_cands = self.spec.n_candidates
        score_names: list[str] = []
        for attr in self._all_attrs:
            nv = attr.n_values
            pmf = self._trace_pmf(tracer, tail, attr)
            rule_names: list[str] = []
            for kind, param in rule_templates(self.spec, attr):
                if kind == "arithmetic":
                    # O(n²·n) joint-probability contraction, per row.
                    prior_flops = 2 * 2 * nv * nv
                    pred_flops = 2 * nv * nv
                else:
                    prior_flops = 2 * 3 * nv
                    pred_flops = 2 * nv
                prior = tracer.record_simd(
                    "rule_prob", (pmf.name,), (2,),
                    flops=prior_flops,
                    params={"attribute": attr.name, "rule": kind, "param": param},
                )
                pred = tracer.record_simd(
                    "rule_execute", (pmf.name, prior.name), (nv,),
                    flops=pred_flops,
                    params={"attribute": attr.name, "rule": kind, "param": param},
                )
                cand = tracer.record_simd(
                    "matvec", (pred.name, pmf.name), (n_cands,),
                    flops=2 * n_cands * nv,
                )
                weighted = tracer.record_simd("mul", (prior.name, cand.name), (n_cands,))
                rule_names.append(weighted.name)
            attr_sum = tracer.record_simd("sum", tuple(rule_names), (n_cands,))
            norm = tracer.record_simd("norm", (attr_sum.name,), (n_cands,))
            score_names.append(norm.name)

        total = tracer.record_simd("sum", tuple(score_names), (n_cands,))
        clamp = tracer.record_simd("clamp", (total.name,), (n_cands,))
        tracer.record_host("argmax", (clamp.name,))
        return tracer.finish()
