"""The pair-by-pair accuracy pipelines the production reasoners are held to.

``NvsaReasoner`` (NVSA and LVRF) and PrAE's scorer once computed every
operand-derived quantity where it was used: each binding took both
operands' FFTs, each similarity both norms, each PrAE rule check
re-quantized its row, every perception PMF was its own draw, and the
codebooks were built at construction. Production now computes each of
those once and batches the draws; its contract is that none of that
shows: every candidate score, and the perception stream after every
problem, is bit-identical to this module's.

* :func:`quantize_array` — fake quantization through the int32 grid;
* :class:`OraclePerception` — one ``normal`` draw per PMF;
* :class:`OracleReasoner` — eager codebooks, ``_row_fit`` and ``solve``;
* :func:`prae_scores` — PrAE's scoring, returning the scores array;
* :func:`score_problems` — the oracle's scores for a workload's seeded
  accuracy problems, problem by problem.

Tests import it as ``import reasoner_oracle`` (pytest puts this
directory on ``sys.path``); benches add ``tests/workloads`` to
``sys.path`` first. It is used nowhere else.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.datasets import generate_dataset, make_spec
from repro.datasets.rpm import RpmProblem
from repro.datasets.spec import RpmAttribute, RpmDatasetSpec
from repro.errors import ConfigError
from repro.quant import Precision, quantization_noise_floor, quantize_tensor
from repro.quant.schemes import _round_float
from repro.utils import make_rng
from repro.vsa import ops as vops

__all__ = [
    "quantize_array",
    "OraclePerception",
    "OracleReasoner",
    "prae_scores",
    "score_problems",
]


def quantize_array(arr: np.ndarray, precision: Precision | str) -> np.ndarray:
    """Fake-quantize: integer grids through ``quantize_tensor().dequantize()``."""
    precision = Precision.parse(precision)
    arr = np.asarray(arr, dtype=np.float64)
    if arr.size == 0:
        return arr.copy()
    if precision.is_integer:
        return quantize_tensor(arr, precision).dequantize()
    return _round_float(arr, precision)


class OraclePerception:
    """Simulated perception channel drawing one PMF per call."""

    QUANT_NOISE_AMPLIFICATION = 1.4

    def __init__(
        self,
        confidence: float,
        noise: float,
        neural_precision: Precision,
        rng: np.random.Generator | int | None = None,
    ):
        self.confidence = confidence
        self.noise = noise
        self.neural_precision = neural_precision
        self._rng = make_rng(rng)

    @property
    def effective_noise(self) -> float:
        floor = quantization_noise_floor(self.neural_precision)
        extra = self.QUANT_NOISE_AMPLIFICATION * floor * self.confidence
        return float(np.sqrt(self.noise**2 + extra**2))

    def pmf(self, n_values: int, true_value: int) -> np.ndarray:
        """One noisy, quantized PMF over ``n_values``."""
        if not 0 <= true_value < n_values:
            raise ConfigError(f"value {true_value} out of range [0, {n_values})")
        logits = self._rng.normal(0.0, self.effective_noise, size=n_values)
        logits[true_value] += self.confidence
        logits = quantize_array(logits, self.neural_precision)
        z = logits - logits.max()
        e = np.exp(z)
        return e / e.sum()


RuleTemplate = tuple[str, int]


class OracleReasoner:
    """VSA abduction + execution binding each operand pair from scratch."""

    def __init__(
        self,
        attributes: list[RpmAttribute],
        spec: RpmDatasetSpec,
        blocks: int,
        block_dim: int,
        symbolic_precision: Precision,
        rule_weight_power: float = 2.0,
        rng: np.random.Generator | int | None = None,
    ):
        self.attributes = list(attributes)
        self.spec = spec
        self.blocks = blocks
        self.block_dim = block_dim
        self.symbolic_precision = symbolic_precision
        self.rule_weight_power = rule_weight_power
        gen = make_rng(rng)

        self._atoms: dict[str, np.ndarray] = {}
        self._steps: dict[str, dict[int, np.ndarray]] = {}
        for attr in self.attributes:
            base = vops.random_unitary_vector(block_dim, blocks=blocks, rng=gen)
            base = base.reshape(blocks, block_dim)
            atoms = np.stack(
                [vops.bind_power(base, k + 1) for k in range(attr.n_values)],
                axis=0,
            )
            self._atoms[attr.name] = self._quant_rows(atoms)
            steps: dict[int, np.ndarray] = {}
            for d in list(spec.progression_steps) + [1]:
                steps[d] = self._quant(vops.bind_power(base, d))
            self._steps[attr.name] = steps

    def _quant(self, arr: np.ndarray) -> np.ndarray:
        return quantize_array(arr, self.symbolic_precision)

    def _quant_rows(self, stack: np.ndarray) -> np.ndarray:
        return np.stack([self._quant(row) for row in stack], axis=0)

    def atom_elements(self) -> int:
        return sum(m.size for m in self._atoms.values()) + sum(
            v.size for steps in self._steps.values() for v in steps.values()
        )

    def encode(self, attr: RpmAttribute, pmf: np.ndarray) -> np.ndarray:
        atoms = self._atoms[attr.name]
        if pmf.shape != (atoms.shape[0],):
            raise ConfigError(f"pmf shape {pmf.shape} does not match {attr.name!r}")
        return self._quant(np.tensordot(pmf, atoms, axes=(0, 0)))

    @staticmethod
    def _sim(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        num = np.sum(a * b, axis=-1)
        den = np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1)
        sims = num / np.maximum(den, 1e-12)
        return np.clip(np.mean(sims, axis=-1), 0.0, 1.0)

    def rule_templates(self, attr: RpmAttribute) -> list[RuleTemplate]:
        templates: list[RuleTemplate] = [("constant", 0)]
        for d in self.spec.progression_steps:
            if 2 * abs(d) < attr.n_values:
                templates.append(("progression", d))
        for sign in self.spec.arithmetic_signs:
            templates.append(("arithmetic", sign))
        templates.append(("distribute_three", 0))
        return templates

    def _bind(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return vops.circular_convolution(a, b)

    def _row_fit(
        self,
        attr: RpmAttribute,
        template: RuleTemplate,
        x: np.ndarray,
        y: np.ndarray,
        z: np.ndarray,
    ) -> np.ndarray:
        kind, param = template
        if kind == "constant":
            return self._sim(x, y) * self._sim(y, z)
        if kind == "progression":
            step = self._steps[attr.name][param]
            return self._sim(self._bind(x, step), y) * self._sim(self._bind(y, step), z)
        if kind == "arithmetic":
            g1 = self._steps[attr.name][1]
            if param > 0:
                return self._sim(self._bind(x, y), self._bind(z, g1))
            return self._sim(self._bind(y, z), self._bind(x, g1))
        raise ConfigError(f"unknown rule template {template}")

    def solve(
        self, problem: RpmProblem, perception: OraclePerception
    ) -> tuple[int, np.ndarray]:
        n_cands = len(problem.candidates)
        scores = np.zeros(n_cands)

        for attr in problem.all_attributes:
            n_values = attr.n_values
            v = [
                [
                    self.encode(attr, perception.pmf(n_values, problem.grid[r][c].value(attr.name)))
                    for c in range(3)
                ]
                for r in range(2)
            ]
            a = self.encode(
                attr, perception.pmf(n_values, problem.grid[2][0].value(attr.name))
            )
            b = self.encode(
                attr, perception.pmf(n_values, problem.grid[2][1].value(attr.name))
            )
            cands = np.stack(
                [
                    self.encode(attr, perception.pmf(n_values, cand.value(attr.name)))
                    for cand in problem.candidates
                ],
                axis=0,
            )

            bundle0 = v[0][0] + v[0][1] + v[0][2]
            bundle1 = v[1][0] + v[1][1] + v[1][2]
            partial2 = a + b

            attr_scores = np.zeros(n_cands)
            weight_total = 0.0
            for template in self.rule_templates(attr):
                if template[0] == "distribute_three":
                    prior = float(self._sim(bundle0 / 3.0, bundle1 / 3.0))
                    cand_bundles = partial2[None, ...] + cands
                    ref = (bundle0 + bundle1) / 2.0
                    row3 = self._sim(cand_bundles / 3.0, ref[None, ...] / 3.0)
                else:
                    fit0 = float(self._row_fit(attr, template, v[0][0], v[0][1], v[0][2]))
                    fit1 = float(self._row_fit(attr, template, v[1][0], v[1][1], v[1][2]))
                    prior = float(np.sqrt(max(fit0, 0.0) * max(fit1, 0.0)))
                    row3 = self._row_fit(attr, template, a, b, cands)
                weight = prior**self.rule_weight_power
                attr_scores += weight * np.asarray(row3)
                weight_total += weight
            if weight_total > 0:
                scores += attr_scores / weight_total

        return int(np.argmax(scores)), scores


# -- PrAE ------------------------------------------------------------------------


def _prae_templates(spec: RpmDatasetSpec, attr: RpmAttribute) -> list[RuleTemplate]:
    templates: list[RuleTemplate] = [("constant", 0)]
    for d in spec.progression_steps:
        if 2 * abs(d) < attr.n_values:
            templates.append(("progression", d))
    for sign in spec.arithmetic_signs:
        templates.append(("arithmetic", sign))
    templates.append(("distribute_three", 0))
    return templates


def _row_prob(
    symbolic: Precision, template: RuleTemplate, p: np.ndarray, q: np.ndarray, r: np.ndarray
) -> float:
    kind, param = template
    p, q, r = (quantize_array(x, symbolic) for x in (p, q, r))
    n = p.shape[0]
    if kind == "constant":
        return float(np.sum(p * q * r))
    if kind == "progression":
        d = param
        ks = np.arange(n)
        valid = (ks + 2 * d >= 0) & (ks + 2 * d < n) & (ks + d >= 0) & (ks + d < n)
        ks = ks[valid]
        return float(np.sum(p[ks] * q[ks + d] * r[ks + 2 * d]))
    if kind == "arithmetic":
        i = np.arange(n)[:, None]
        j = np.arange(n)[None, :]
        k = i + param * j
        mask = (k >= 0) & (k < n)
        joint = p[:, None] * q[None, :]
        return float(np.sum(joint[mask] * r[np.clip(k, 0, n - 1)[mask]]))
    raise ConfigError(f"unknown template {template}")


def _predict_pmf(
    symbolic: Precision,
    template: RuleTemplate,
    a: np.ndarray,
    b: np.ndarray,
    mass_ref: np.ndarray,
) -> np.ndarray:
    kind, param = template
    n = a.shape[0]
    if kind == "constant":
        pred = a * b
    elif kind == "progression":
        d = param
        pred = np.zeros(n)
        ks = np.arange(n)
        src = ks - 2 * d
        mid = ks - d
        valid = (src >= 0) & (src < n) & (mid >= 0) & (mid < n)
        pred[valid] = a[src[valid]] * b[mid[valid]]
    elif kind == "arithmetic":
        pred = np.zeros(n)
        i = np.arange(n)[:, None]
        j = np.arange(n)[None, :]
        k = i + param * j
        mask = (k >= 0) & (k < n)
        joint = a[:, None] * b[None, :]
        np.add.at(pred, k[mask], joint[mask])
    elif kind == "distribute_three":
        pred = np.maximum(mass_ref - (a + b) / 3.0, 0.0)
    else:
        raise ConfigError(f"unknown template {template}")
    total = pred.sum()
    if total <= 1e-12:
        return np.full(n, 1.0 / n)
    return quantize_array(pred / total, symbolic)


def prae_scores(
    spec: RpmDatasetSpec,
    symbolic: Precision,
    rule_weight_power: float,
    problem: RpmProblem,
    perception: OraclePerception,
) -> np.ndarray:
    """PrAE's candidate scores for one problem (its argmax is the answer)."""
    n_cands = len(problem.candidates)
    scores = np.zeros(n_cands)
    for attr in problem.all_attributes:
        nv = attr.n_values
        pm = [
            [perception.pmf(nv, problem.grid[r][c].value(attr.name)) for c in range(3)]
            for r in range(3)
        ]
        cand_pmfs = np.stack(
            [perception.pmf(nv, cand.value(attr.name)) for cand in problem.candidates],
            axis=0,
        )
        mass0 = (pm[0][0] + pm[0][1] + pm[0][2]) / 3.0
        mass1 = (pm[1][0] + pm[1][1] + pm[1][2]) / 3.0
        mass_ref = (mass0 + mass1) / 2.0

        attr_scores = np.zeros(n_cands)
        weight_total = 0.0
        for template in _prae_templates(spec, attr):
            if template[0] == "distribute_three":
                prior = float(np.sum(np.minimum(mass0, mass1)))
            else:
                f0 = _row_prob(symbolic, template, *pm[0])
                f1 = _row_prob(symbolic, template, *pm[1])
                prior = float(np.sqrt(max(f0, 0.0) * max(f1, 0.0)))
            pred = _predict_pmf(symbolic, template, pm[2][0], pm[2][1], mass_ref)
            weight = prior**rule_weight_power
            attr_scores += weight * (cand_pmfs @ pred)
            weight_total += weight
        if weight_total > 0:
            scores += attr_scores / weight_total
    return scores


# -- driver ----------------------------------------------------------------------


def score_problems(wl, seed: int, n_problems: int) -> Iterator[tuple[np.ndarray, dict]]:
    """Yield the oracle's ``(scores, perception stream state)`` per problem.

    ``wl`` is an NVSA, LVRF or PrAE workload; only its config is read. The
    problems and the perception channel share one ``make_rng(seed)``
    stream, as the workload's ``evaluate_accuracy(n_problems, seed)``
    seeds them, and the reasoner is drawn from ``make_rng(config.seed)``,
    as the workload's constructor draws it.
    """
    cfg = wl.config
    spec = make_spec(cfg.dataset)
    root = make_rng(seed)
    problems = generate_dataset(spec, n_problems, seed=root)
    perception = OraclePerception(
        cfg.confidence, spec.perception_noise, cfg.precision.neural, rng=root
    )
    if wl.name == "prae":
        def score(problem: RpmProblem) -> np.ndarray:
            return prae_scores(
                spec, cfg.precision.symbolic, cfg.rule_weight_power, problem, perception
            )
    else:
        reasoner = OracleReasoner(
            attributes=wl._all_attrs,
            spec=spec,
            blocks=cfg.blocks,
            block_dim=cfg.block_dim,
            symbolic_precision=cfg.precision.symbolic,
            # LVRF's config has no exponent: its reasoner keeps the default.
            rule_weight_power=getattr(cfg, "rule_weight_power", 2.0),
            rng=make_rng(cfg.seed),
        )

        def score(problem: RpmProblem) -> np.ndarray:
            return reasoner.solve(problem, perception)[1]

    for problem in problems:
        yield score(problem), perception._rng.bit_generator.state
