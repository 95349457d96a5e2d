"""LVRF: probabilistic abduction via learned rules in VSA (paper ref. [12]).

LVRF shares NVSA's perception frontend but replaces the fixed rule
templates with a set of *learned rule vectors*: abduction estimates a
posterior over the rule set in one pass, and execution applies the
posterior-weighted rules. Its distinguishing strengths (Table I) are
one-pass learning and out-of-distribution handling; its compute pattern is
CNN + VSA binding/unbinding like NVSA, with an extra rule-estimation GEMM.

Functional simplification (per DESIGN.md): a converged LVRF's learned rule
set spans the generative rule vocabulary of the task, so we instantiate
the learned set from the same algebraic templates the generator uses, plus
``extra_rules`` spurious rules (random rule vectors) that dilute the
posterior exactly the way imperfectly learned rules would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..datasets.rpm import RpmProblem, generate_dataset
from ..datasets.spec import RpmAttribute, make_spec
from ..errors import ConfigError
from ..nn.gemm import GemmDims
from ..nn.layers import WeightSource
from ..nn.resnet import build_resnet18
from ..quant import MixedPrecisionConfig, MIXED_PRECISION_PRESETS
from ..trace.opnode import ExecutionUnit, OpDomain, Trace
from ..trace.tracer import Tracer
from ..utils import make_rng
from .base import NSAIWorkload
from .nvsa import NvsaReasoner, PerceptionModel

__all__ = ["LvrfConfig", "LvrfWorkload"]


@dataclass(frozen=True)
class LvrfConfig:
    """LVRF deployment parameters."""

    dataset: str = "raven"
    batch_panels: int = 16
    image_size: int = 160
    resnet_width: int = 64
    blocks: int = 4
    block_dim: int = 1024
    n_rules: int = 12            # size of the learned rule set
    extra_rules: int = 4         # spurious learned rules (posterior dilution)
    confidence: float = 4.0
    dictionary_atoms: int = 1100
    precision: MixedPrecisionConfig = field(
        default_factory=lambda: MIXED_PRECISION_PRESETS["FP32"]
    )
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_rules < 1:
            raise ConfigError("n_rules must be >= 1")
        if self.extra_rules < 0:
            raise ConfigError("extra_rules must be >= 0")

    @property
    def vector_elements(self) -> int:
        return self.blocks * self.block_dim


class LvrfWorkload(NSAIWorkload):
    """Learned-rule VSA abduction on RPM problems."""

    name = "lvrf"

    def __init__(self, config: LvrfConfig | None = None):
        self.config = config or LvrfConfig()
        spec = make_spec(self.config.dataset)
        self.spec = spec
        gen = make_rng(self.config.seed)
        noise_attrs = [
            RpmAttribute(f"noise_{i}", spec.noise_attribute_values)
            for i in range(spec.n_noise_attributes)
        ]
        self._all_attrs = list(spec.attributes) + noise_attrs
        # Converged learned rules ≈ the algebraic templates (see docstring).
        self.reasoner = NvsaReasoner(
            attributes=self._all_attrs,
            spec=spec,
            blocks=self.config.blocks,
            block_dim=self.config.block_dim,
            symbolic_precision=self.config.precision.symbolic,
            rng=gen,
        )
        # Frontend weights are drawn only on first read (see WeightSource).
        self._weights = WeightSource(gen)
        self._frontend = build_resnet18(
            name="resnet18",
            in_channels=1,
            num_classes=512,
            base_width=self.config.resnet_width,
            rng=self._weights,
        )

    @cached_property
    def perception(self) -> PerceptionModel:
        """The default perception channel, drawing after the frontend's weights."""
        return PerceptionModel(
            confidence=self.config.confidence,
            noise=self.spec.perception_noise,
            neural_precision=self.config.precision.neural,
            rng=self._weights.materialize(),
        )

    # -- functional interface ------------------------------------------------------

    def solve_problem(
        self, problem: RpmProblem, perception: PerceptionModel | None = None
    ) -> int:
        pred, _ = self.reasoner.solve(problem, perception or self.perception)
        return pred

    def accuracy(
        self,
        problems: list[RpmProblem],
        perception: PerceptionModel | None = None,
    ) -> float:
        if not problems:
            raise ConfigError("accuracy needs at least one problem")
        correct = sum(
            1
            for p in problems
            if self.solve_problem(p, perception) == p.answer_index
        )
        return correct / len(problems)

    def evaluate_accuracy(self, n_problems: int, seed: int = 0) -> float | None:
        """Seeded functional accuracy (see :class:`NSAIWorkload`)."""
        if n_problems < 1:
            raise ConfigError(f"n_problems must be >= 1, got {n_problems}")
        root = make_rng(seed)
        problems = generate_dataset(self.spec, n_problems, seed=root)
        perception = PerceptionModel(
            confidence=self.config.confidence,
            noise=self.spec.perception_noise,
            neural_precision=self.config.precision.neural,
            rng=root,
        )
        return self.accuracy(problems, perception)

    # -- memory accounting -----------------------------------------------------------

    def component_elements(self) -> dict[str, int]:
        cfg = self.config
        neural = self._frontend.weight_elements()
        neural += sum(512 * a.n_values + a.n_values for a in self._all_attrs)
        symbolic = self.reasoner.atom_elements()
        symbolic += (cfg.n_rules + cfg.extra_rules) * cfg.vector_elements
        symbolic += cfg.dictionary_atoms * cfg.vector_elements
        return {"neural": neural, "symbolic": symbolic}

    # -- trace ---------------------------------------------------------------------------

    def build_trace(self) -> Trace:
        """LVRF dataflow: CNN → PMF-to-VSA → rule posterior → execution.

        Differs from NVSA's trace in the rule stage: every learned rule is
        scored against the context in one batched VSA pass, followed by a
        posterior GEMM (the "Estimation" stage of the paper's workload
        figure) and posterior-weighted execution.
        """
        cfg = self.config
        spec = self.spec
        tracer = Tracer(self.name)
        net_ops = self._frontend.describe(
            (cfg.batch_panels, 1, cfg.image_size, cfg.image_size)
        )
        tail, _ = tracer.record_network(net_ops, input_name="%panels")

        blocks, d = cfg.blocks, cfg.block_dim
        vec = cfg.vector_elements
        n_rules = cfg.n_rules + cfg.extra_rules
        n_cands = spec.n_candidates

        score_names: list[str] = []
        for attr in self._all_attrs:
            head = tracer.record(
                kind="linear",
                domain=OpDomain.NEURAL,
                unit=ExecutionUnit.ARRAY_NN,
                inputs=(tail.name,),
                output_shape=(cfg.batch_panels, attr.n_values),
                gemm=GemmDims(m=cfg.batch_panels, n=attr.n_values, k=512),
                params={"attribute": attr.name},
            )
            pmf = tracer.record_simd(
                "softmax", (head.name,), (cfg.batch_panels, attr.n_values),
                domain=OpDomain.NEURAL,
            )
            enc = tracer.record(
                kind="pmf_to_vsa",
                domain=OpDomain.SYMBOLIC,
                unit=ExecutionUnit.ARRAY_NN,
                inputs=(pmf.name,),
                output_shape=(cfg.batch_panels, blocks, d),
                gemm=GemmDims(m=cfg.batch_panels, n=vec, k=attr.n_values),
                params={"attribute": attr.name},
            )
            # Abduction: score all learned rules against both context rows
            # in one batched binding pass.
            rule_bind = tracer.record_binding(
                (enc.name,),
                n_vectors=2 * n_rules * blocks,
                dim=d,
                params={"attribute": attr.name, "stage": "rule_scoring"},
            )
            rule_match = tracer.record_simd(
                "match_prob_multi_batched",
                (rule_bind.name, enc.name),
                (n_rules,),
                flops=2 * 2 * n_rules * vec,
                bytes_read=2 * 2 * n_rules * vec * tracer.element_bytes,
            )
            # Estimation: posterior over rules (softmax-normalized).
            posterior = tracer.record_simd(
                "softmax", (rule_match.name,), (n_rules,)
            )
            # Execution: posterior-weighted rule application per candidate.
            exec_bind = tracer.record_binding(
                (enc.name, posterior.name),
                n_vectors=n_cands * blocks,
                dim=d,
                inverse=True,
                params={"attribute": attr.name, "stage": "execution"},
            )
            cand_match = tracer.record_simd(
                "match_prob_multi_batched",
                (exec_bind.name, enc.name),
                (n_cands,),
                flops=2 * n_cands * vec,
                bytes_read=2 * n_cands * vec * tracer.element_bytes,
            )
            # Dictionary lookup as a dense GEMM on the array (see nvsa.py).
            dict_match = tracer.record(
                kind="match_prob_multi_batched",
                domain=OpDomain.SYMBOLIC,
                unit=ExecutionUnit.ARRAY_NN,
                inputs=(enc.name,),
                output_shape=(n_cands, cfg.dictionary_atoms),
                gemm=GemmDims(m=n_cands, n=cfg.dictionary_atoms, k=vec),
                params={"attribute": attr.name, "dictionary": True},
            )
            attr_sum = tracer.record_simd(
                "sum", (cand_match.name, dict_match.name), (n_cands,)
            )
            score_names.append(attr_sum.name)

        total = tracer.record_simd("sum", tuple(score_names), (n_cands,))
        tracer.record_host("argmax", (total.name,))
        return tracer.finish()
