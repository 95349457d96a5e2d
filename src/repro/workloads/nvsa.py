"""NVSA: Neuro-Vector-Symbolic Architecture (paper ref. [17], Table I).

NVSA solves Raven-progressive-matrix tasks with a ResNet-18 perception
frontend and a VSA backend that performs *probabilistic abduction*
(inferring which rule governs each attribute from the context panels) and
*execution* (applying the abduced rule to predict the answer panel, then
scoring the candidates). The symbolic algebra uses block codes with
blockwise circular convolution binding — the workload Listing 1 profiles.

This module provides four cooperating pieces:

* :class:`PerceptionModel` — the simulated perception channel (true
  attribute value → noisy PMF, with the neural precision applied to the
  logits). See DESIGN.md: the paper does not retrain either; Table IV
  accuracy deltas come from quantizing the *pipeline*.
* :class:`RpmWorkload` — the harness every RPM solver (NVSA, LVRF, PrAE)
  shares: dataset spec and attributes, perception channels, accuracy,
  the rule-template vocabulary and the frontend/PMF-head/encode/
  dictionary trace steps.
* :class:`NvsaReasoner` — the functional VSA abduction/execution engine
  built on fractional-power codebooks, with a symbolic-precision
  quantization hook on every stored vector. It computes every
  operand-derived quantity once (spectra, norms, quantized rows) with
  every score bit-identical to binding pair by pair (DESIGN.md,
  "Exact execution").
* :class:`NvsaWorkload` — ties both together, answers RPM problems,
  reports component element counts, and emits the deployment-scale
  execution trace.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ..datasets.rpm import RpmProblem, generate_dataset
from ..datasets.spec import RpmAttribute, RpmDatasetSpec, make_spec
from ..errors import ConfigError
from ..nn.gemm import GemmDims
from ..nn.layers import WeightSource
from ..nn.resnet import ResNet, build_resnet18
from ..quant import (
    MixedPrecisionConfig,
    MIXED_PRECISION_PRESETS,
    Precision,
    quantize_array,
    quantize_rows,
)
from ..trace.opnode import ExecutionUnit, OpDomain, Trace, TraceOp
from ..trace.tracer import Tracer
from ..utils import make_rng
from ..vsa import ops as vops
from .base import NSAIWorkload

__all__ = [
    "NvsaConfig", "PerceptionModel", "RpmWorkload", "rule_templates",
    "NvsaReasoner", "NvsaWorkload",
]


@dataclass(frozen=True)
class NvsaConfig:
    """NVSA deployment parameters.

    Defaults match the paper's deployment scale (Listing 1: 16 panels at
    160×160 through a width-64 ResNet-18; block-code vectors with 4
    blocks). ``dictionary_atoms`` sizes the scene dictionary the backend
    queries (`match_prob_multi_batched`), which dominates symbolic memory.
    """

    dataset: str = "raven"
    batch_panels: int = 16          # 8 context + 8 candidate panels
    image_size: int = 160
    resnet_width: int = 64
    blocks: int = 4
    block_dim: int = 1024
    confidence: float = 4.0         # perception logit peak
    dictionary_atoms: int = 1250
    precision: MixedPrecisionConfig = field(
        default_factory=lambda: MIXED_PRECISION_PRESETS["FP32"]
    )
    rule_weight_power: float = 2.0  # abduction sharpening exponent
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_panels < 2:
            raise ConfigError("batch_panels must be >= 2")
        if self.blocks < 1 or self.block_dim < 8:
            raise ConfigError("block code needs blocks >= 1 and block_dim >= 8")
        if self.dictionary_atoms < 1:
            raise ConfigError("dictionary_atoms must be >= 1")

    @property
    def vector_elements(self) -> int:
        return self.blocks * self.block_dim

    @classmethod
    def table4(cls, dataset: str = "raven", **overrides) -> "NvsaConfig":
        """The Table IV sizing: the paper's 32 MB FP32 footprint implies a
        ≈3 M-parameter frontend, i.e. a width-32 ResNet-18 (see
        EXPERIMENTS.md for the derivation)."""
        cfg = cls(dataset=dataset, resnet_width=32)
        return replace(cfg, **overrides) if overrides else cfg


class PerceptionModel:
    """Simulated perception channel producing attribute PMFs.

    For a panel whose true value index is ``k`` out of ``n``, the channel
    emits logits ``confidence·onehot(k) + N(0, σ²)``, fake-quantized at
    the neural precision, then softmaxed. The base noise level comes from
    the dataset spec (difficulty calibration, see ``datasets.spec``);
    quantizing the CNN backbone adds depth-amplified rounding noise on top
    (``σ² = noise² + (amp · rounding_floor)²``) — quantizing only the
    9-way logits would ignore the error the paper's INT4 column actually
    measures, which accumulates through every quantized layer.
    """

    #: Depth-amplification of per-layer rounding noise at the logits
    #: (calibrated once so INT8 costs ≈0.2 pt and INT4 ≈6 pt on RAVEN,
    #: matching Table IV).
    QUANT_NOISE_AMPLIFICATION = 1.4

    def __init__(
        self,
        confidence: float,
        noise: float,
        neural_precision: Precision,
        rng: np.random.Generator | int | None = None,
    ):
        if confidence <= 0:
            raise ConfigError(f"confidence must be positive, got {confidence}")
        if noise < 0:
            raise ConfigError(f"noise must be >= 0, got {noise}")
        self.confidence = confidence
        self.noise = noise
        self.neural_precision = neural_precision
        self._rng = make_rng(rng)

    @property
    def effective_noise(self) -> float:
        """Base perception noise plus depth-amplified quantization noise."""
        from ..quant import quantization_noise_floor

        floor = quantization_noise_floor(self.neural_precision)
        extra = self.QUANT_NOISE_AMPLIFICATION * floor * self.confidence
        return float(np.sqrt(self.noise**2 + extra**2))

    def pmf(self, n_values: int, true_value: int) -> np.ndarray:
        """One noisy, quantized PMF over ``n_values``."""
        return self.pmfs(n_values, [true_value])[0]

    def pmfs(self, n_values: int, true_values: list[int]) -> np.ndarray:
        """One PMF per true value: row ``i`` of a ``(k, n_values)`` array.

        The k logit rows come from one ``normal(size=(k, n_values))``
        draw, which consumes the stream exactly as k single-PMF draws do;
        each row is quantized on its own grid and softmaxed, so row ``i``
        is bit for bit the ``i``-th of k successive :meth:`pmf` calls.
        """
        for true_value in true_values:
            if not 0 <= true_value < n_values:
                raise ConfigError(f"value {true_value} out of range [0, {n_values})")
        k = len(true_values)
        logits = self._rng.normal(0.0, self.effective_noise, size=(k, n_values))
        logits[np.arange(k), true_values] += self.confidence
        logits = quantize_rows(logits, self.neural_precision)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)


#: Rule template vocabulary used by the reasoners: (kind, parameter).
RuleTemplate = tuple[str, int]


def rule_templates(spec: RpmDatasetSpec, attr: RpmAttribute) -> list[RuleTemplate]:
    """The rule hypotheses abduction scores for one attribute."""
    templates: list[RuleTemplate] = [("constant", 0)]
    for d in spec.progression_steps:
        if 2 * abs(d) < attr.n_values:
            templates.append(("progression", d))
    for sign in spec.arithmetic_signs:
        templates.append(("arithmetic", sign))
    templates.append(("distribute_three", 0))
    return templates


class RpmWorkload(NSAIWorkload):
    """An RPM solver: a CNN frontend emits per-attribute PMFs through a
    perception channel, and a symbolic reasoner abduces rules from them.

    The base holds what NVSA, LVRF and PrAE share: the dataset spec, the
    attribute list (noise attributes last), the default and seeded
    perception channels, accuracy, and the trace steps around the rule
    stage. It draws nothing. Each subclass draws in its own order and
    must set ``self._weights`` (the frontend's :class:`WeightSource`) and
    ``self._frontend`` in its ``__init__``, because that order fixes every
    weight (DESIGN.md, "Deferred weight draws"). Subclasses keep their own
    ``build_trace``, which is what perfbench's tracer wraps.
    """

    _weights: WeightSource
    _frontend: ResNet

    def __init__(self, config) -> None:
        self.config = config
        self.spec = make_spec(config.dataset)
        self._all_attrs = list(self.spec.attributes) + [
            RpmAttribute(f"noise_{i}", self.spec.noise_attribute_values)
            for i in range(self.spec.n_noise_attributes)
        ]

    def _perception(self, rng: np.random.Generator) -> PerceptionModel:
        return PerceptionModel(
            confidence=self.config.confidence,
            noise=self.spec.perception_noise,
            neural_precision=self.config.precision.neural,
            rng=rng,
        )

    @cached_property
    def perception(self) -> PerceptionModel:
        """The default perception channel, drawing after the frontend's weights."""
        return self._perception(self._weights.materialize())

    # -- functional task interface ---------------------------------------------

    @abc.abstractmethod
    def solve_problem(
        self, problem: RpmProblem, perception: PerceptionModel | None = None
    ) -> int:
        """Predicted candidate index for one RPM problem."""

    def accuracy(
        self,
        problems: list[RpmProblem],
        perception: PerceptionModel | None = None,
    ) -> float:
        """Fraction of problems answered correctly."""
        if not problems:
            raise ConfigError("accuracy needs at least one problem")
        correct = sum(
            1
            for p in problems
            if self.solve_problem(p, perception) == p.answer_index
        )
        return correct / len(problems)

    def evaluate_accuracy(self, n_problems: int, seed: int = 0) -> float | None:
        """Seeded functional accuracy (see :class:`NSAIWorkload`).

        The problem set and a fresh perception channel share one stream
        derived from ``seed``; everything else the solver reads was drawn
        at construction from the workload config (a reasoner's codebooks
        are built from its bases on first use), so the result is a pure
        function of (config, n_problems, seed), whatever earlier calls
        consumed of the workload's own streams.
        """
        if n_problems < 1:
            raise ConfigError(f"n_problems must be >= 1, got {n_problems}")
        root = make_rng(seed)
        problems = generate_dataset(self.spec, n_problems, seed=root)
        return self.accuracy(problems, self._perception(root))

    # -- shared trace steps ------------------------------------------------------

    def _trace_frontend(self, tracer: Tracer) -> TraceOp:
        """The frontend over the whole panel batch; returns its tail op."""
        cfg = self.config
        net_ops = self._frontend.describe(
            (cfg.batch_panels, 1, cfg.image_size, cfg.image_size)
        )
        tail, _ = tracer.record_network(net_ops, input_name="%panels")
        return tail

    def _trace_pmf(self, tracer: Tracer, tail: TraceOp, attr: RpmAttribute) -> TraceOp:
        """PMF head: (batch, width) @ (width, n_values) + softmax."""
        batch = self.config.batch_panels
        head = tracer.record(
            kind="linear",
            domain=OpDomain.NEURAL,
            unit=ExecutionUnit.ARRAY_NN,
            inputs=(tail.name,),
            output_shape=(batch, attr.n_values),
            gemm=GemmDims(m=batch, n=attr.n_values, k=tail.output_shape[-1]),
            params={"attribute": attr.name},
        )
        return tracer.record_simd(
            "softmax", (head.name,), (batch, attr.n_values), domain=OpDomain.NEURAL
        )

    def _trace_encode(self, tracer: Tracer, pmf: TraceOp, attr: RpmAttribute) -> TraceOp:
        """PMF → VSA encode: a (batch × n_values) @ (n_values × vec) GEMM."""
        cfg = self.config
        return tracer.record(
            kind="pmf_to_vsa",
            domain=OpDomain.SYMBOLIC,
            unit=ExecutionUnit.ARRAY_NN,
            inputs=(pmf.name,),
            output_shape=(cfg.batch_panels, cfg.blocks, cfg.block_dim),
            gemm=GemmDims(m=cfg.batch_panels, n=cfg.vector_elements, k=attr.n_values),
            params={"attribute": attr.name},
        )

    def _trace_dictionary(self, tracer: Tracer, enc: TraceOp, attr: RpmAttribute) -> TraceOp:
        """Scene-dictionary lookup (the big match_prob_multi_batched of
        Listing 1): every candidate row queried against the dictionary.

        This is a dense (candidates × atoms) similarity matrix — a GEMM,
        so it maps onto the array ("Other GEMMs" in the paper's operation
        taxonomy), not the SIMD unit.
        """
        cfg = self.config
        n_cands = self.spec.n_candidates
        return tracer.record(
            kind="match_prob_multi_batched",
            domain=OpDomain.SYMBOLIC,
            unit=ExecutionUnit.ARRAY_NN,
            inputs=(enc.name,),
            output_shape=(n_cands, cfg.dictionary_atoms),
            gemm=GemmDims(m=n_cands, n=cfg.dictionary_atoms, k=cfg.vector_elements),
            params={"attribute": attr.name, "dictionary": True},
        )


class _Operand:
    """A vector whose spectrum and per-block norms are computed at most once.

    ``vec`` is ``(blocks, d)`` or a stack ``(k, blocks, d)``. Identical
    inputs give identical spectra, so :meth:`bind` equals
    ``circular_convolution`` of the two vectors bit for bit, and the norm
    is ``np.linalg.norm(vec, axis=-1)``'s own expression.
    """

    def __init__(self, vec: np.ndarray):
        self.vec = vec

    @cached_property
    def spectrum(self) -> np.ndarray:
        return np.fft.rfft(self.vec, axis=-1)

    @cached_property
    def norm(self) -> np.ndarray:
        return np.sqrt(np.add.reduce(self.vec * self.vec, axis=-1))

    def bind(self, spectrum: np.ndarray) -> "_Operand":
        """``self ⊛ s`` given ``rfft(s)``: operands stay quantized in storage,
        the wide-accumulator MAC result is not re-quantized (Sec. IV-D)."""
        d = self.vec.shape[-1]
        return _Operand(np.fft.irfft(self.spectrum * spectrum, n=d, axis=-1))


def _sim(a: _Operand, b: _Operand) -> np.ndarray:
    """Mean per-block cosine similarity, clipped to [0, 1].

    Supports broadcasting: ``a`` may be ``(blocks, d)`` while ``b`` is
    ``(k, blocks, d)``; the result then has shape ``(k,)``.
    """
    num = np.add.reduce(a.vec * b.vec, axis=-1)
    sims = num / np.maximum(a.norm * b.norm, 1e-12)
    return np.clip(np.add.reduce(sims, axis=-1) / sims.shape[-1], 0.0, 1.0)


@dataclass(frozen=True)
class _Codebook:
    """One attribute's stored vectors, built from its base on first read."""

    atoms: np.ndarray                      # (n_values, blocks, d)
    step_spectra: dict[int, np.ndarray]    # step d -> rfft of quantized g^d


class NvsaReasoner:
    """VSA probabilistic abduction + execution over encoded RPM panels.

    Attribute values are encoded with fractional-power codebooks
    (``atom(k) = g^⊛k`` for a unitary base ``g``), so rule checks reduce to
    single bindings: progression-by-``d`` holds iff ``x ⊛ g^d ≈ y``, and
    arithmetic holds iff ``x ⊛ y ≈ z``. *Stored* vectors (codebook atoms,
    step vectors, encoded panels) pass through the symbolic-precision
    quantizer; intermediate binding results stay wide, matching the
    hardware's wide MAC accumulators over narrow INT4 operands
    (Sec. IV-D / ref. [30]).

    Construction draws only one unitary base per attribute, in attribute
    order; the codebooks (atoms, step vectors and the steps' spectra) are
    built from the bases on first read, so tracing and memory accounting
    never build them. Two threads racing on that first read build
    identical values.
    """

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
        self._bases = {
            attr.name: vops.random_unitary_vector(
                block_dim, blocks=blocks, rng=gen
            ).reshape(blocks, block_dim)
            for attr in self.attributes
        }
        # The progression steps plus the arithmetic offset g^1.
        self._step_keys = tuple(dict.fromkeys([*spec.progression_steps, 1]))

    # -- codebooks ----------------------------------------------------------------

    @cached_property
    def _codebooks(self) -> dict[str, _Codebook]:
        return {attr.name: self._build_codebook(attr) for attr in self.attributes}

    def _build_codebook(self, attr: RpmAttribute) -> _Codebook:
        base = self._bases[attr.name]
        # Offset encoding atom(k) = g^(k+1): the binding identity
        # (delta vector) never appears as an atom — its lone unit
        # spike would otherwise dominate the quantization scale. Each
        # atom is quantized on its own scale (per-codeword storage).
        atoms = quantize_rows(
            np.stack([vops.bind_power(base, k + 1) for k in range(attr.n_values)]),
            self.symbolic_precision,
        )
        spectra = {
            d: np.fft.rfft(
                quantize_array(vops.bind_power(base, d), self.symbolic_precision), axis=-1
            )
            for d in self._step_keys
        }
        return _Codebook(atoms, spectra)

    @property
    def _atoms(self) -> dict[str, np.ndarray]:
        """Each attribute's quantized atoms, ``(n_values, blocks, d)``."""
        return {name: book.atoms for name, book in self._codebooks.items()}

    def atom_elements(self) -> int:
        """Stored codebook elements (for memory accounting), from shapes alone."""
        n_values = {attr.name: attr.n_values for attr in self.attributes}
        per_vector = self.blocks * self.block_dim
        return sum(n + len(self._step_keys) for n in n_values.values()) * per_vector

    # -- encoding -------------------------------------------------------------

    def encode(self, attr: RpmAttribute, pmfs: np.ndarray) -> np.ndarray:
        """``(k, n_values)`` PMFs → ``(k, blocks, d)`` VSA vectors.

        Each vector is a probability-weighted atom superposition, quantized
        on its own scale. The superposition stays one ``tensordot`` per PMF:
        a stacked one runs as a GEMM whose last bits differ.
        """
        atoms = self._codebooks[attr.name].atoms
        if pmfs.shape[1:] != (atoms.shape[0],):
            raise ConfigError(
                f"pmf shape {pmfs.shape[1:]} does not match attribute {attr.name!r} "
                f"with {atoms.shape[0]} values"
            )
        return quantize_rows(
            np.stack([np.tensordot(pmf, atoms, axes=(0, 0)) for pmf in pmfs]),
            self.symbolic_precision,
        )

    # -- rule fit -----------------------------------------------------------------

    def _row_fit(
        self,
        book: _Codebook,
        template: RuleTemplate,
        x: _Operand,
        y: _Operand,
        z: _Operand,
    ) -> np.ndarray:
        """Fit of a binding rule ``template`` on a (possibly candidate-batched) row.

        ``z`` may be ``(blocks, d)`` or ``(k, blocks, d)``. Distribute-three
        compares whole-row bundles, so :meth:`solve` scores it itself.
        """
        kind, param = template
        if kind == "constant":
            return _sim(x, y) * _sim(y, z)
        if kind == "progression":
            step = book.step_spectra[param]
            return _sim(x.bind(step), y) * _sim(y.bind(step), z)
        if kind == "arithmetic":
            # With offset atoms (atom(k) = g^(k+1)):
            #   z = x + y  ⇔  atom(x) ⊛ atom(y) = atom(z) ⊛ g,
            #   z = x − y  ⇔  atom(y) ⊛ atom(z) = atom(x) ⊛ g.
            g1 = book.step_spectra[1]
            if param > 0:
                return _sim(x.bind(y.spectrum), z.bind(g1))
            return _sim(y.bind(z.spectrum), x.bind(g1))
        raise ConfigError(f"unknown rule template {template}")

    # -- solving ---------------------------------------------------------------

    def solve(
        self,
        problem: RpmProblem,
        perception: PerceptionModel,
    ) -> tuple[int, np.ndarray]:
        """Abduce rules from rows 1-2, execute on row 3, score candidates.

        Returns ``(predicted_index, candidate_scores)``.
        """
        n_cands = len(problem.candidates)
        scores = np.zeros(n_cands)
        # The eight context panels in row-major order, then the candidates.
        panels = problem.context + problem.candidates

        for attr in problem.all_attributes:
            book = self._codebooks[attr.name]
            # Encode context grid and candidates through the perception channel.
            pmfs = perception.pmfs(attr.n_values, [p.value(attr.name) for p in panels])
            enc = self.encode(attr, pmfs)
            v = [[_Operand(enc[3 * r + c]) for c in range(3)] for r in range(2)]
            a, b, cands = _Operand(enc[6]), _Operand(enc[7]), _Operand(enc[8:])

            bundle0 = v[0][0].vec + v[0][1].vec + v[0][2].vec
            bundle1 = v[1][0].vec + v[1][1].vec + v[1][2].vec
            partial2 = a.vec + b.vec

            attr_scores = np.zeros(n_cands)
            weight_total = 0.0
            for template in rule_templates(self.spec, attr):
                # Abduction: how well does this rule explain rows 1 and 2?
                if template[0] == "distribute_three":
                    prior = float(_sim(_Operand(bundle0 / 3.0), _Operand(bundle1 / 3.0)))
                    cand_bundles = partial2[None, ...] + cands.vec
                    ref = (bundle0 + bundle1) / 2.0
                    row3 = _sim(_Operand(cand_bundles / 3.0), _Operand(ref[None, ...] / 3.0))
                else:
                    fit0 = float(self._row_fit(book, template, *v[0]))
                    fit1 = float(self._row_fit(book, template, *v[1]))
                    prior = float(np.sqrt(max(fit0, 0.0) * max(fit1, 0.0)))
                    row3 = self._row_fit(book, template, a, b, cands)
                weight = prior**self.rule_weight_power
                attr_scores += weight * np.asarray(row3)
                weight_total += weight
            if weight_total > 0:
                scores += attr_scores / weight_total

        return int(np.argmax(scores)), scores


class NvsaWorkload(RpmWorkload):
    """End-to-end NVSA: perception + VSA abduction/execution."""

    name = "nvsa"

    def __init__(self, config: NvsaConfig | None = None):
        super().__init__(config or NvsaConfig())
        cfg = self.config
        gen = make_rng(cfg.seed)
        self.reasoner = NvsaReasoner(
            attributes=self._all_attrs,
            spec=self.spec,
            blocks=cfg.blocks,
            block_dim=cfg.block_dim,
            symbolic_precision=cfg.precision.symbolic,
            rule_weight_power=cfg.rule_weight_power,
            rng=gen,
        )
        # Tracing and accuracy never read the frontend's weights, so they
        # are drawn only on first read (see WeightSource).
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
        """Predicted candidate index for one RPM problem."""
        pred, _ = self.reasoner.solve(problem, perception or self.perception)
        return pred

    # -- memory accounting -------------------------------------------------------

    def component_elements(self) -> dict[str, int]:
        """Stored elements per component (Table IV memory model)."""
        cfg = self.config
        neural = self._frontend.weight_elements()
        # Per-attribute PMF heads (512 → n_values).
        neural += sum(512 * attr.n_values + attr.n_values for attr in self._all_attrs)
        symbolic = self.reasoner.atom_elements()
        symbolic += cfg.dictionary_atoms * cfg.vector_elements
        return {"neural": neural, "symbolic": symbolic}

    # -- trace generation ----------------------------------------------------------

    def build_trace(self) -> Trace:
        """Deployment-scale execution trace of one NVSA inference.

        Structure (matching Listing 1 and the paper's DAG discussion):
        the ResNet-18 layer chain is strictly sequential (critical path);
        the per-attribute, per-rule symbolic kernels all hang off the
        perception outputs with no cross-dependencies — the parallelism
        the AdArray folding exploits.
        """
        cfg = self.config
        tracer = Tracer(self.name)
        tail = self._trace_frontend(tracer)

        blocks, d = cfg.blocks, cfg.block_dim
        vec_elems = cfg.vector_elements
        n_cands = self.spec.n_candidates

        final_scores: list[str] = []
        for attr in self._all_attrs:
            enc = self._trace_encode(tracer, self._trace_pmf(tracer, tail, attr), attr)

            rule_score_names: list[str] = []
            # NVSA abduces rules over both rows and columns of the grid.
            n_groups = 4  # two complete rows + two complete columns
            for kind, param in rule_templates(self.spec, attr):
                # Abduction: rule fit on the complete row/column groups.
                prior_bind = tracer.record_binding(
                    (enc.name,),
                    n_vectors=2 * n_groups * blocks,
                    dim=d,
                    inverse=(kind == "arithmetic" and param < 0),
                    params={"attribute": attr.name, "rule": kind, "param": param},
                )
                prior = tracer.record_simd(
                    "match_prob", (prior_bind.name, enc.name), (n_groups,),
                    flops=2 * n_groups * vec_elems,
                    bytes_read=2 * n_groups * vec_elems * tracer.element_bytes,
                )
                # Execution: complete row 3 / column 3 with each candidate.
                cand_bind = tracer.record_binding(
                    (enc.name,),
                    n_vectors=2 * n_cands * blocks,
                    dim=d,
                    inverse=(kind == "arithmetic" and param < 0),
                    params={"attribute": attr.name, "rule": kind, "param": param},
                )
                cand_match = tracer.record_simd(
                    "match_prob_multi_batched",
                    (cand_bind.name, enc.name),
                    (n_cands,),
                    flops=2 * 2 * n_cands * vec_elems,
                    bytes_read=2 * 2 * n_cands * vec_elems * tracer.element_bytes,
                )
                weighted = tracer.record_simd(
                    "mul", (prior.name, cand_match.name), (n_cands,)
                )
                rule_score_names.append(weighted.name)

            dict_match = self._trace_dictionary(tracer, enc, attr)
            attr_sum = tracer.record_simd(
                "sum", tuple(rule_score_names) + (dict_match.name,), (n_cands,)
            )
            final_scores.append(attr_sum.name)

        total = tracer.record_simd("sum", tuple(final_scores), (n_cands,))
        clamp = tracer.record_simd("clamp", (total.name,), (n_cands,))
        tracer.record_host("argmax", (clamp.name,), (1,))
        return tracer.finish()
