"""Trace data model: operators, domains, execution units.

Every operator carries the three pieces of information the DAG frontend
consumes (paper Sec. V-B step 4-5): *what it is* (kind/domain/unit),
*what it depends on* (producer names), and *what it costs* (GEMM or VSA
dimensions for the analytical runtime models, FLOPs and byte traffic for
characterization and memory sizing).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator

from ..errors import TraceError
from ..nn.gemm import GemmDims

__all__ = ["OpDomain", "ExecutionUnit", "VsaDims", "TraceOp", "Trace"]


class OpDomain(enum.Enum):
    """Which half of the NSAI workload an operator belongs to."""

    NEURAL = "neural"
    SYMBOLIC = "symbolic"


class ExecutionUnit(enum.Enum):
    """The hardware unit an operator maps onto (paper Sec. IV)."""

    ARRAY_NN = "array_nn"     # AdArray sub-arrays in systolic GEMM mode
    ARRAY_VSA = "array_vsa"   # AdArray columns in circular-conv streaming mode
    SIMD = "simd"             # element-wise / reductions / special functions
    HOST = "host"             # negligible scalar glue executed by the CPU


@dataclass(frozen=True)
class VsaDims:
    """Cost dimensions of a VSA node (paper Eqs. 3-4).

    ``n`` is the vector quantity (``n_j``: number of independent circular
    convolutions in the node) and ``d`` the vector dimension (``d_j``).
    """

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n <= 0 or self.d <= 0:
            raise TraceError(f"VSA dims must be positive, got n={self.n}, d={self.d}")

    @property
    def flops(self) -> int:
        """MAC FLOPs of the O(d²) streaming form the hardware executes."""
        return 2 * self.n * self.d * self.d


@dataclass(frozen=True)
class TraceOp:
    """One recorded operator."""

    name: str
    kind: str
    domain: OpDomain
    unit: ExecutionUnit
    inputs: tuple[str, ...]
    output_shape: tuple[int, ...]
    gemm: GemmDims | None = None
    vsa: VsaDims | None = None
    flops: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    loop_index: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name.startswith("%"):
            raise TraceError(f"op names start with '%': got {self.name!r}")
        if self.unit is ExecutionUnit.ARRAY_NN and self.gemm is None:
            raise TraceError(f"{self.name}: ARRAY_NN ops need GEMM dims")
        if self.unit is ExecutionUnit.ARRAY_VSA and self.vsa is None:
            raise TraceError(f"{self.name}: ARRAY_VSA ops need VSA dims")
        if self.flops < 0 or self.bytes_read < 0 or self.bytes_written < 0:
            raise TraceError(f"{self.name}: negative cost counters")

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte (the roofline x-axis, Fig. 1c)."""
        return self.flops / max(1, self.total_bytes)


class Trace:
    """An ordered, validated list of :class:`TraceOp`.

    Order is execution order of the original program (a topological order
    of the dependency graph). External inputs are any dependency names not
    produced by an op in the trace (e.g. ``%input``).
    """

    def __init__(self, workload: str, ops: Iterable[TraceOp]):
        self.workload = workload
        self.ops: list[TraceOp] = list(ops)
        self._by_name = {op.name: op for op in self.ops}
        self._validate()

    def _validate(self) -> None:
        if len(self._by_name) != len(self.ops):
            names = [op.name for op in self.ops]
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise TraceError(f"duplicate op names in trace: {dupes}")
        seen: set[str] = set()
        for op in self.ops:
            for dep in op.inputs:
                if dep in self._by_name and dep not in seen:
                    raise TraceError(
                        f"{op.name} depends on {dep} before it is produced "
                        "(trace is not in execution order)"
                    )
            seen.add(op.name)

    # -- access -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Same workload, same ops in the same order (order is semantic)."""
        if not isinstance(other, Trace):
            return NotImplemented
        return self.workload == other.workload and self.ops == other.ops

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[TraceOp]:
        return iter(self.ops)

    def __getitem__(self, name: str) -> TraceOp:
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise TraceError(f"trace has no op named {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def external_inputs(self) -> list[str]:
        """Dependency names not produced inside the trace."""
        produced = set(self._by_name)
        out: list[str] = []
        for op in self.ops:
            for dep in op.inputs:
                if dep not in produced and dep not in out:
                    out.append(dep)
        return out

    # -- filters and rollups -------------------------------------------------

    def by_domain(self, domain: OpDomain) -> list[TraceOp]:
        return [op for op in self.ops if op.domain is domain]

    def by_unit(self, unit: ExecutionUnit) -> list[TraceOp]:
        return [op for op in self.ops if op.unit is unit]

    @property
    def neural_ops(self) -> list[TraceOp]:
        return self.by_domain(OpDomain.NEURAL)

    @property
    def symbolic_ops(self) -> list[TraceOp]:
        return self.by_domain(OpDomain.SYMBOLIC)

    def total_flops(self, domain: OpDomain | None = None) -> int:
        ops = self.ops if domain is None else self.by_domain(domain)
        return sum(op.flops for op in ops)

    def total_bytes(self, domain: OpDomain | None = None) -> int:
        ops = self.ops if domain is None else self.by_domain(domain)
        return sum(op.total_bytes for op in ops)

    def consumers(self, name: str) -> list[TraceOp]:
        """Ops that read the named value."""
        return [op for op in self.ops if name in op.inputs]
