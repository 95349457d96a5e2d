"""Symbolic-ratio-parameterized NVSA-like workload (Fig. 6 ablation).

The paper's ablation runs "an NVSA-like workload with varying
vector-symbolic data proportions alongside a ResNet18" — the x-axis is
``symbolic memory footprint / overall memory footprint`` from 0 % to 80 %.
:class:`ScalableNsaiWorkload` builds exactly that: a fixed ResNet-18
neural half plus a symbolic half whose vector count is solved from the
requested memory ratio. A separate ``symbolic_scale`` knob multiplies the
symbolic op count for the Sec. VI scalability claim (150× symbolic growth
→ ~4× runtime).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..nn.layers import WeightSource
from ..nn.resnet import build_resnet18
from ..trace.opnode import Trace
from ..trace.tracer import Tracer
from ..utils import ceil_div, make_rng
from .base import NSAIWorkload

__all__ = ["ScalableConfig", "ScalableNsaiWorkload"]


@dataclass(frozen=True)
class ScalableConfig:
    """Parameters of the scalable NVSA-like workload.

    ``symbolic_ratio`` is the target symbolic share of the total memory
    footprint (0 ≤ r < 1). ``neural_bytes_per_element`` /
    ``symbolic_bytes_per_element`` default to the paper's INT8/INT4 mixed
    precision. ``bind_fraction`` is the share of symbolic vectors that are
    *bound* on the array (the rest are dictionary entries only read by
    SIMD match kernels) — NVSA's backend binds queries but streams large
    dictionaries.
    """

    image_size: int = 160
    batch_panels: int = 1
    resnet_width: int = 64
    vector_dim: int = 1024
    blocks: int = 4
    symbolic_ratio: float = 0.2
    symbolic_scale: float = 1.0
    bind_fraction: float = 1.0
    neural_bytes_per_element: float = 1.0   # INT8
    symbolic_bytes_per_element: float = 0.5  # INT4
    match_batch: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.symbolic_ratio < 1.0:
            raise ConfigError(f"symbolic_ratio must be in [0, 1), got {self.symbolic_ratio}")
        if self.symbolic_scale < 0:
            raise ConfigError("symbolic_scale must be >= 0")
        if not 0.0 <= self.bind_fraction <= 1.0:
            raise ConfigError("bind_fraction must be in [0, 1]")

    @property
    def vector_elements(self) -> int:
        return self.blocks * self.vector_dim


class ScalableNsaiWorkload(NSAIWorkload):
    """ResNet-18 + a symbolic half sized by memory ratio."""

    name = "scalable_nsai"

    def __init__(self, config: ScalableConfig | None = None):
        self.config = config or ScalableConfig()
        # Sizing and tracing read shapes only; weights are drawn on first
        # read (see WeightSource).
        self._frontend = build_resnet18(
            name="resnet18",
            in_channels=1,
            num_classes=512,
            base_width=self.config.resnet_width,
            rng=WeightSource(make_rng(self.config.seed)),
        )

    # -- sizing -----------------------------------------------------------------

    @property
    def neural_footprint_bytes(self) -> float:
        """Deployed neural footprint (weights at the NN precision)."""
        return self._frontend.weight_elements() * self.config.neural_bytes_per_element

    @property
    def n_symbolic_vectors(self) -> int:
        """Vector count solving symbolic/(symbolic+neural) = symbolic_ratio."""
        cfg = self.config
        r = cfg.symbolic_ratio
        if r == 0.0:
            return 0
        target_bytes = r / (1.0 - r) * self.neural_footprint_bytes
        per_vector = cfg.vector_elements * cfg.symbolic_bytes_per_element
        n = int(round(target_bytes / per_vector * cfg.symbolic_scale))
        return max(1, n)

    @property
    def symbolic_footprint_bytes(self) -> float:
        return (
            self.n_symbolic_vectors
            * self.config.vector_elements
            * self.config.symbolic_bytes_per_element
        )

    @property
    def achieved_symbolic_ratio(self) -> float:
        s = self.symbolic_footprint_bytes
        return s / (s + self.neural_footprint_bytes)

    def component_elements(self) -> dict[str, int]:
        neural = self._frontend.weight_elements()
        symbolic = self.n_symbolic_vectors * self.config.vector_elements
        return {"neural": neural, "symbolic": symbolic}

    # -- trace ---------------------------------------------------------------------

    def build_trace(self) -> Trace:
        """ResNet-18 chain plus batched VSA bind + dictionary-match groups.

        Bound vectors are grouped into batches of ``match_batch`` blockwise
        circular convolutions (ARRAY_VSA nodes); the remaining dictionary
        vectors are streamed through SIMD match kernels. All symbolic
        groups depend only on the frontend output, so they can run in
        parallel with each other (and with the next inference's NN layers
        once loop fusion applies — paper Fig. 4 step 3).
        """
        cfg = self.config
        tracer = Tracer(self.name)
        net_ops = self._frontend.describe(
            (cfg.batch_panels, 1, cfg.image_size, cfg.image_size)
        )
        tail, _ = tracer.record_network(net_ops, input_name="%panels")

        n_vec = self.n_symbolic_vectors
        n_bind = int(round(n_vec * cfg.bind_fraction))
        n_dict = n_vec - n_bind

        # Bound vectors: batches of blockwise circular convolutions.
        per_group = cfg.match_batch
        bind_groups = ceil_div(n_bind, per_group) if n_bind else 0
        remaining = n_bind
        group_names: list[str] = []
        for g in range(bind_groups):
            batch = min(per_group, remaining)
            remaining -= batch
            bind = tracer.record_binding(
                (tail.name,),
                n_vectors=batch * cfg.blocks,
                dim=cfg.vector_dim,
                params={"group": g},
            )
            match = tracer.record_simd(
                "match_prob_multi_batched",
                (bind.name,),
                (batch,),
                flops=2 * batch * cfg.vector_elements,
            )
            group_names.append(match.name)

        # Dictionary vectors: streamed similarity search on the SIMD unit.
        if n_dict > 0:
            dict_match = tracer.record_simd(
                "match_prob_multi_batched",
                (tail.name,),
                (n_dict,),
                flops=2 * n_dict * cfg.vector_elements,
                bytes_read=int(
                    n_dict * cfg.vector_elements * cfg.symbolic_bytes_per_element
                ),
                params={"dictionary": True},
            )
            group_names.append(dict_match.name)

        if group_names:
            total = tracer.record_simd("sum", tuple(group_names), (1,))
            tracer.record_host("argmax", (total.name,))
        return tracer.finish()
