"""Seeded synthetic NSAI workload generator (the sweep's fuzzing substrate).

The four Table I workloads pin the toolchain to a handful of fixed
traces; this module turns scenario count into a dial. A
:class:`SynthConfig` describes a *family* of random neuro-symbolic op
DAGs over the existing trace vocabulary — ``ARRAY_NN`` GEMM layers,
``ARRAY_VSA`` blockwise bindings, ``SIMD`` similarity/reduction kernels,
``HOST`` glue — and a ``seed`` picks one member. Generation is a pure
function of the config: the same config (seed included) produces a
byte-identical trace in every process and on every platform, so the
sweep's content-addressed artifact cache and scenario fingerprints work
unchanged.

Knobs (mirroring :mod:`repro.workloads.scaling` where they overlap):

* ``n_ops`` / ``depth`` / ``fanout`` — DAG size and shape;
* ``neural_fraction`` — share of generated ops that are NN GEMMs
  (at least one GEMM is always emitted; the DSE requires it);
* ``vector_dim`` / ``blocks`` / ``max_vectors`` — VSA dimensionality;
* ``gemm_scale`` — characteristic GEMM dimension;
* ``symbolic_ratio`` — target symbolic share of the *stored* memory
  footprint, solved the same way as ``ScalableConfig.symbolic_ratio``
  (a streamed dictionary-match op materializes the extra footprint).

``synth`` is a registered workload, so every surface — ``repro compile
synth``, ``ScenarioGrid``, the artifact store — builds it by name with
config overrides; the sweep layer's ``synth:<seed-range>`` axis expands
one grid entry into hundreds of seeded scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import ConfigError
from ..nn.gemm import GemmDims
from ..trace.opnode import ExecutionUnit, OpDomain, Trace
from ..trace.tracer import Tracer
from ..utils import make_rng
from .base import NSAIWorkload

__all__ = ["SynthConfig", "SynthWorkload"]

#: SIMD kernel vocabulary the generator samples from (all kinds the
#: Table I workloads actually emit, so downstream consumers see nothing
#: new).
_SIMD_KINDS = ("match_prob_multi_batched", "softmax", "mul", "sum")


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of one synthetic-workload family member.

    ``seed`` addresses the family member; every other field shapes the
    family. All fields are JSON-able scalars, so ``config_dict()`` /
    ``fingerprint()`` and the sweep cache key work exactly as for the
    Table I workloads.
    """

    seed: int = 0
    n_ops: int = 24
    depth: int = 6
    fanout: int = 2
    neural_fraction: float = 0.5
    vector_dim: int = 256
    blocks: int = 4
    max_vectors: int = 8
    gemm_scale: int = 64
    symbolic_ratio: float = 0.2
    neural_bytes_per_element: float = 1.0   # INT8 (paper Table IV)
    symbolic_bytes_per_element: float = 0.5  # INT4

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_ops < 2:
            raise ConfigError(f"n_ops must be >= 2, got {self.n_ops}")
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.fanout < 1:
            raise ConfigError(f"fanout must be >= 1, got {self.fanout}")
        if not 0.0 <= self.neural_fraction <= 1.0:
            raise ConfigError(
                f"neural_fraction must be in [0, 1], got {self.neural_fraction}"
            )
        if self.vector_dim < 1 or self.blocks < 1 or self.max_vectors < 1:
            raise ConfigError(
                "vector_dim, blocks, and max_vectors must all be >= 1"
            )
        if self.gemm_scale < 1:
            raise ConfigError(f"gemm_scale must be >= 1, got {self.gemm_scale}")
        if not 0.0 <= self.symbolic_ratio < 1.0:
            raise ConfigError(
                f"symbolic_ratio must be in [0, 1), got {self.symbolic_ratio}"
            )
        if self.neural_bytes_per_element <= 0 or self.symbolic_bytes_per_element <= 0:
            raise ConfigError("bytes-per-element fields must be positive")

    @property
    def vector_elements(self) -> int:
        return self.blocks * self.vector_dim


@dataclass(frozen=True)
class _OpPlan:
    """One planned DAG node (everything ``build_trace`` needs to replay)."""

    level: int
    unit: ExecutionUnit
    kind: str
    gemm: GemmDims | None
    n_vectors: int           # VSA/SIMD batch size (0 for GEMM nodes)
    input_indices: tuple[int, ...]  # planned-op indices; empty = %input


class SynthWorkload(NSAIWorkload):
    """A seed-addressed random neuro-symbolic op DAG."""

    name = "synth"

    def __init__(self, config: SynthConfig | None = None):
        self.config = config or SynthConfig()

    # -- plan -----------------------------------------------------------------

    @cached_property
    def _plan(self) -> tuple[_OpPlan, ...]:
        """The generated DAG, as pure data, in topological (level) order.

        Every RNG draw happens here, in one fixed order, from a generator
        seeded only by ``config.seed`` — the determinism contract the
        artifact cache and the ``synth:<seed-range>`` sweep axis rely on.
        """
        cfg = self.config
        rng = make_rng(cfg.seed)

        # Level assignment: the first min(depth, n_ops) ops ensure every
        # level up to that bound is populated, so the DAG's effective
        # depth is min(depth, n_ops); the rest land uniformly at random.
        levels = [i % cfg.depth for i in range(min(cfg.depth, cfg.n_ops))]
        levels += [
            int(v) for v in rng.integers(0, cfg.depth, cfg.n_ops - len(levels))
        ]
        levels.sort()

        # Domain assignment: Bernoulli(neural_fraction) per op, with the
        # first op forced to a GEMM — the DSE's Phase I requires at
        # least one NN layer (extract_cost_dims), and real NSAI loops
        # start with a neural frontend anyway.
        draws = rng.random(cfg.n_ops)
        neural = [bool(d < cfg.neural_fraction) for d in draws]
        neural[0] = True

        plans: list[_OpPlan] = []
        for i in range(cfg.n_ops):
            level = levels[i]
            # Dependencies: level-0 ops read the external %input; deeper
            # ops read 1..fanout distinct earlier ops (uniform over all
            # shallower nodes, which exist by construction).
            producers = [j for j in range(i) if levels[j] < level]
            if not producers:
                inputs: tuple[int, ...] = ()
            else:
                k = int(rng.integers(1, cfg.fanout + 1))
                k = min(k, len(producers))
                picked = rng.choice(len(producers), size=k, replace=False)
                inputs = tuple(sorted(producers[int(p)] for p in picked))

            if neural[i]:
                m = int(rng.integers(1, 4 * cfg.gemm_scale + 1))
                n = int(rng.integers(1, 2 * cfg.gemm_scale + 1))
                kdim = int(rng.integers(1, 2 * cfg.gemm_scale + 1))
                plans.append(_OpPlan(
                    level=level, unit=ExecutionUnit.ARRAY_NN, kind="gemm",
                    gemm=GemmDims(m=m, n=n, k=kdim), n_vectors=0,
                    input_indices=inputs,
                ))
                continue

            n_vec = int(rng.integers(1, cfg.max_vectors + 1))
            if rng.random() < 0.6:
                kind = "binding_circular" if rng.random() < 0.5 else (
                    "inv_binding_circular"
                )
                plans.append(_OpPlan(
                    level=level, unit=ExecutionUnit.ARRAY_VSA, kind=kind,
                    gemm=None, n_vectors=n_vec * cfg.blocks,
                    input_indices=inputs,
                ))
            else:
                kind = _SIMD_KINDS[int(rng.integers(0, len(_SIMD_KINDS)))]
                plans.append(_OpPlan(
                    level=level, unit=ExecutionUnit.SIMD, kind=kind,
                    gemm=None, n_vectors=n_vec, input_indices=inputs,
                ))
        return tuple(plans)

    # -- sizing ----------------------------------------------------------------

    @property
    def neural_weight_elements(self) -> int:
        """Stored NN weights: one ``k×n`` matrix per generated GEMM."""
        return sum(
            p.gemm.weight_elements for p in self._plan if p.gemm is not None
        )

    @property
    def n_dictionary_vectors(self) -> int:
        """Dictionary size solving the stored-footprint ratio.

        Same arithmetic as :class:`~repro.workloads.scaling.
        ScalableConfig`: symbolic/(symbolic+neural) = symbolic_ratio,
        with the dictionary streamed through a SIMD match kernel rather
        than held on the array.
        """
        cfg = self.config
        r = cfg.symbolic_ratio
        if r == 0.0:
            return 0
        neural_bytes = self.neural_weight_elements * cfg.neural_bytes_per_element
        target_bytes = r / (1.0 - r) * neural_bytes
        per_vector = cfg.vector_elements * cfg.symbolic_bytes_per_element
        return max(1, int(round(target_bytes / per_vector)))

    def component_elements(self) -> dict[str, int]:
        # Stored symbolic state: the streamed dictionary plus one
        # superposition buffer (the codebook entry bindings write into).
        symbolic = (
            self.n_dictionary_vectors * self.config.vector_elements
            + self.config.vector_elements
        )
        return {"neural": self.neural_weight_elements, "symbolic": symbolic}

    # -- trace -----------------------------------------------------------------

    def build_trace(self) -> Trace:
        """Replay the plan through :class:`~repro.trace.tracer.Tracer`.

        After the planned DAG, a dictionary-match op materializes the
        ``symbolic_ratio`` footprint, and every sink feeds a ``sum`` +
        host ``argmax`` tail so the trace has the single-answer shape of
        the Table I workloads.
        """
        cfg = self.config
        tracer = Tracer(self.name)
        names: list[str] = []
        consumed: set[int] = set()
        for plan in self._plan:
            inputs = (
                tuple(names[j] for j in plan.input_indices)
                if plan.input_indices else ("%input",)
            )
            consumed.update(plan.input_indices)
            if plan.unit is ExecutionUnit.ARRAY_NN:
                assert plan.gemm is not None
                op = tracer.record(
                    kind=plan.kind,
                    domain=OpDomain.NEURAL,
                    unit=ExecutionUnit.ARRAY_NN,
                    inputs=inputs,
                    output_shape=(plan.gemm.m, plan.gemm.n),
                    gemm=plan.gemm,
                    weight_elements=plan.gemm.weight_elements,
                )
            elif plan.unit is ExecutionUnit.ARRAY_VSA:
                op = tracer.record_binding(
                    inputs,
                    n_vectors=plan.n_vectors,
                    dim=cfg.vector_dim,
                    inverse=plan.kind == "inv_binding_circular",
                )
            else:
                op = tracer.record_simd(
                    plan.kind,
                    inputs,
                    (plan.n_vectors,),
                    flops=2 * plan.n_vectors * cfg.vector_elements,
                )
            names.append(op.name)

        sinks = [names[i] for i in range(len(names)) if i not in consumed]
        n_dict = self.n_dictionary_vectors
        if n_dict > 0:
            dict_match = tracer.record_simd(
                "match_prob_multi_batched",
                (sinks[-1],),
                (n_dict,),
                flops=2 * n_dict * cfg.vector_elements,
                bytes_read=int(
                    n_dict * cfg.vector_elements * cfg.symbolic_bytes_per_element
                ),
                params={"dictionary": True},
            )
            sinks.append(dict_match.name)
        total = tracer.record_simd("sum", tuple(sinks), (1,))
        tracer.record_host("argmax", (total.name,))
        return tracer.finish()
