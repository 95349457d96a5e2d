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

from ..datasets.rpm import RpmProblem
from ..errors import ConfigError
from ..nn.layers import WeightSource
from ..nn.resnet import build_resnet18
from ..quant import MixedPrecisionConfig, MIXED_PRECISION_PRESETS
from ..trace.opnode import Trace
from ..trace.tracer import Tracer
from ..utils import make_rng
from .nvsa import NvsaReasoner, PerceptionModel, RpmWorkload

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


class LvrfWorkload(RpmWorkload):
    """Learned-rule VSA abduction on RPM problems."""

    name = "lvrf"

    def __init__(self, config: LvrfConfig | None = None):
        super().__init__(config or LvrfConfig())
        cfg = self.config
        gen = make_rng(cfg.seed)
        # Converged learned rules ≈ the algebraic templates (see docstring).
        self.reasoner = NvsaReasoner(
            attributes=self._all_attrs,
            spec=self.spec,
            blocks=cfg.blocks,
            block_dim=cfg.block_dim,
            symbolic_precision=cfg.precision.symbolic,
            rng=gen,
        )
        # Frontend weights are drawn only on first read (see WeightSource).
        self._weights = WeightSource(gen)
        self._frontend = build_resnet18(
            name="resnet18",
            in_channels=1,
            num_classes=512,
            base_width=cfg.resnet_width,
            rng=self._weights,
        )

    def solve_problem(
        self, problem: RpmProblem, perception: PerceptionModel | None = None
    ) -> int:
        pred, _ = self.reasoner.solve(problem, perception or self.perception)
        return pred

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
        tracer = Tracer(self.name)
        tail = self._trace_frontend(tracer)

        blocks, d = cfg.blocks, cfg.block_dim
        vec = cfg.vector_elements
        n_rules = cfg.n_rules + cfg.extra_rules
        n_cands = self.spec.n_candidates

        score_names: list[str] = []
        for attr in self._all_attrs:
            enc = self._trace_encode(tracer, self._trace_pmf(tracer, tail, attr), attr)
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
            dict_match = self._trace_dictionary(tracer, enc, attr)
            attr_sum = tracer.record_simd(
                "sum", (cand_match.name, dict_match.name), (n_cands,)
            )
            score_names.append(attr_sum.name)

        total = tracer.record_simd("sum", tuple(score_names), (n_cands,))
        tracer.record_host("argmax", (total.name,))
        return tracer.finish()
