"""Application topology model for API-driven interactive microservices.

This module defines the data model used across the whole reproduction:

* :class:`Component` — a deployable unit (container) with a resource profile and a
  stateful/stateless flag.
* :class:`CallSpec` / :class:`CallNode` — the call tree of a user-facing API.  Each node
  is an operation executed by a component; children are invoked with one of the three
  execution patterns identified by the paper (parallel, sequential, background) and carry
  request/response payload-size distributions, which are what Atlas later recovers as the
  *network footprint* of the API.
* :class:`ApiEndpoint` — a user-facing API: entry component, call tree and default
  request mix weight.
* :class:`Application` — a named collection of components and API endpoints with helper
  accessors (component sets per API, stateful components per API, edge enumeration).

The model is a *description* of the application; executing a request against it (and a
placement) is the job of :mod:`repro.simulator`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = [
    "ExecutionMode",
    "ResourceProfile",
    "Component",
    "PayloadSpec",
    "CallSpec",
    "CallNode",
    "ApiEndpoint",
    "Application",
]


class ExecutionMode(str, enum.Enum):
    """How a child operation is invoked relative to its siblings/parent.

    ``PARALLEL``   — runs concurrently with the preceding run of parallel siblings.
    ``SEQUENTIAL`` — starts only after all previously issued foreground children finish.
    ``BACKGROUND`` — fired after the foreground work; does not delay the parent response.
    """

    PARALLEL = "parallel"
    SEQUENTIAL = "sequential"
    BACKGROUND = "background"


@dataclass(frozen=True)
class ResourceProfile:
    """Static resource profile of a component.

    The values are interpreted by the simulator and the resource estimator:

    * ``cpu_millicores_idle`` — baseline CPU when idle.
    * ``cpu_millicores_per_rps`` — additional CPU per request/second served.
    * ``memory_mb_idle`` / ``memory_mb_per_rps`` — analogous for memory.
    * ``storage_gb`` — persistent data size (only meaningful for stateful components);
      it drives both migration disruption and cloud storage cost.
    """

    cpu_millicores_idle: float = 20.0
    cpu_millicores_per_rps: float = 8.0
    memory_mb_idle: float = 64.0
    memory_mb_per_rps: float = 0.5
    storage_gb: float = 0.0

    def expected_cpu(self, rps: float) -> float:
        """Expected CPU (millicores) when serving ``rps`` requests per second."""
        return self.cpu_millicores_idle + self.cpu_millicores_per_rps * max(rps, 0.0)

    def expected_memory(self, rps: float) -> float:
        """Expected memory (MB) when serving ``rps`` requests per second."""
        return self.memory_mb_idle + self.memory_mb_per_rps * max(rps, 0.0)


@dataclass(frozen=True)
class Component:
    """A deployable microservice component (one container image)."""

    name: str
    stateful: bool = False
    resources: ResourceProfile = field(default_factory=ResourceProfile)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("Component name must be non-empty")

    def __str__(self) -> str:  # pragma: no cover - trivial
        kind = "stateful" if self.stateful else "stateless"
        return f"{self.name} ({kind})"


@dataclass(frozen=True)
class PayloadSpec:
    """Request/response payload size distribution for one invocation edge.

    Sizes are modelled as truncated normal distributions with the given mean and
    coefficient of variation (``cv``).  The mean values are the quantities the
    network-footprint learner (Eq. 1 of the paper) attempts to recover.
    """

    request_bytes: float
    response_bytes: float
    cv: float = 0.05

    def __post_init__(self) -> None:
        if self.request_bytes < 0 or self.response_bytes < 0:
            raise ValueError("payload sizes must be non-negative")
        if self.cv < 0:
            raise ValueError("coefficient of variation must be non-negative")

    def sample(self, rng) -> Tuple[float, float]:
        """Sample concrete (request, response) byte sizes using ``rng`` (numpy Generator)."""
        req = max(0.0, rng.normal(self.request_bytes, self.cv * self.request_bytes))
        resp = max(0.0, rng.normal(self.response_bytes, self.cv * self.response_bytes))
        return req, resp


@dataclass
class CallSpec:
    """A child invocation inside a :class:`CallNode`.

    ``gap_ms`` is the local compute time the parent spends before issuing this
    invocation, measured from the point at which the child becomes eligible to start
    (end of the previous sequential step, or the common fork point for parallel
    siblings).
    """

    node: "CallNode"
    mode: ExecutionMode = ExecutionMode.SEQUENTIAL
    gap_ms: float = 0.2

    def __post_init__(self) -> None:
        if isinstance(self.mode, str):
            self.mode = ExecutionMode(self.mode)
        if self.gap_ms < 0:
            raise ValueError("gap_ms must be non-negative")


@dataclass
class CallNode:
    """An operation executed by a component when serving (part of) an API request.

    ``work_ms`` is the node's own processing time (exclusive of children and network),
    split by the simulator into a pre-children and post-children share via
    ``post_work_fraction``.  ``payload`` describes the bytes exchanged between this
    node's *parent* and this node.
    """

    component: str
    operation: str
    work_ms: float = 1.0
    payload: PayloadSpec = field(default_factory=lambda: PayloadSpec(256.0, 256.0))
    calls: List[CallSpec] = field(default_factory=list)
    post_work_fraction: float = 0.2
    work_cv: float = 0.1

    def __post_init__(self) -> None:
        if self.work_ms < 0:
            raise ValueError("work_ms must be non-negative")
        if not 0.0 <= self.post_work_fraction <= 1.0:
            raise ValueError("post_work_fraction must be within [0, 1]")

    # -- construction helpers -------------------------------------------------
    def call(
        self,
        node: "CallNode",
        mode: ExecutionMode = ExecutionMode.SEQUENTIAL,
        gap_ms: float = 0.2,
    ) -> "CallNode":
        """Append a child invocation and return ``self`` for chaining."""
        self.calls.append(CallSpec(node=node, mode=mode, gap_ms=gap_ms))
        return self

    # -- traversal helpers ----------------------------------------------------
    def walk(self) -> Iterator["CallNode"]:
        """Yield this node and all descendants in pre-order."""
        yield self
        for spec in self.calls:
            yield from spec.node.walk()

    def components(self) -> Set[str]:
        """All component names appearing in this subtree."""
        return {node.component for node in self.walk()}

    def edges(self) -> Iterator[Tuple[str, str, "CallNode", ExecutionMode]]:
        """Yield (caller, callee, callee_node, mode) for every invocation edge."""
        for spec in self.calls:
            yield self.component, spec.node.component, spec.node, spec.mode
            yield from spec.node.edges()

    def invocation_count(self, caller: str, callee: str) -> int:
        """Number of invocation edges from ``caller`` to ``callee`` in this subtree."""
        return sum(
            1 for src, dst, _node, _mode in self.edges() if src == caller and dst == callee
        )

    def depth(self) -> int:
        """Height of the call tree (a leaf has depth 1)."""
        if not self.calls:
            return 1
        return 1 + max(spec.node.depth() for spec in self.calls)

    def size(self) -> int:
        """Total number of operations (spans) produced by one request."""
        return sum(1 for _ in self.walk())

    def nominal_latency_ms(self) -> float:
        """Latency of the call tree ignoring all network transfer times.

        This mirrors the simulator's execution semantics with zero network delay and is
        useful for sanity checks and tests: the simulated latency on a single datacenter
        should be close to (slightly above) this value.
        """
        pre = self.work_ms * (1.0 - self.post_work_fraction)
        post = self.work_ms * self.post_work_fraction
        cursor = pre
        parallel_ends: List[float] = []
        for spec in self.calls:
            child_latency = spec.node.nominal_latency_ms()
            if spec.mode is ExecutionMode.PARALLEL:
                parallel_ends.append(cursor + spec.gap_ms + child_latency)
            elif spec.mode is ExecutionMode.SEQUENTIAL:
                if parallel_ends:
                    cursor = max(cursor, max(parallel_ends))
                    parallel_ends = []
                cursor = cursor + spec.gap_ms + child_latency
            else:  # BACKGROUND: does not extend the parent
                continue
        if parallel_ends:
            cursor = max(cursor, max(parallel_ends))
        return cursor + post


@dataclass
class ApiEndpoint:
    """A user-facing API endpoint (e.g. ``/composePost``)."""

    name: str
    root: CallNode
    weight: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name.startswith("/"):
            raise ValueError(f"API name must start with '/': {self.name!r}")
        if self.weight < 0:
            raise ValueError("API weight must be non-negative")

    @property
    def entry_component(self) -> str:
        """Component receiving the client request."""
        return self.root.component

    def components(self) -> Set[str]:
        return self.root.components()

    def edges(self) -> Iterator[Tuple[str, str, CallNode, ExecutionMode]]:
        return self.root.edges()

    def span_count(self) -> int:
        return self.root.size()


class Application:
    """A microservice application: components + user-facing API endpoints."""

    def __init__(
        self,
        name: str,
        components: Sequence[Component],
        apis: Sequence[ApiEndpoint],
    ) -> None:
        if not name:
            raise ValueError("Application name must be non-empty")
        self.name = name
        self._components: Dict[str, Component] = {}
        for comp in components:
            if comp.name in self._components:
                raise ValueError(f"duplicate component {comp.name!r}")
            self._components[comp.name] = comp
        self._apis: Dict[str, ApiEndpoint] = {}
        for api in apis:
            if api.name in self._apis:
                raise ValueError(f"duplicate API {api.name!r}")
            self._apis[api.name] = api
        self._validate()

    # -- validation -----------------------------------------------------------
    def _validate(self) -> None:
        known = set(self._components)
        for api in self._apis.values():
            missing = api.components() - known
            if missing:
                raise ValueError(
                    f"API {api.name} references unknown components: {sorted(missing)}"
                )

    # -- accessors --------------------------------------------------------------
    @property
    def components(self) -> List[Component]:
        """All components, in insertion order."""
        return list(self._components.values())

    @property
    def component_names(self) -> List[str]:
        return list(self._components)

    @property
    def apis(self) -> List[ApiEndpoint]:
        return list(self._apis.values())

    @property
    def api_names(self) -> List[str]:
        return list(self._apis)

    def component(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise KeyError(f"unknown component {name!r} in application {self.name!r}") from None

    def api(self, name: str) -> ApiEndpoint:
        try:
            return self._apis[name]
        except KeyError:
            raise KeyError(f"unknown API {name!r} in application {self.name!r}") from None

    def has_component(self, name: str) -> bool:
        return name in self._components

    # -- derived structure ------------------------------------------------------
    def stateful_components(self) -> List[str]:
        """Names of all stateful components."""
        return [c.name for c in self._components.values() if c.stateful]

    def stateless_components(self) -> List[str]:
        return [c.name for c in self._components.values() if not c.stateful]

    def components_of_api(self, api_name: str) -> Set[str]:
        """All components used (directly or transitively) by one API."""
        return self.api(api_name).components()

    def stateful_components_of_api(self, api_name: str) -> Set[str]:
        """Stateful components used by one API (set ``SC(A)`` in Eq. 3)."""
        stateful = set(self.stateful_components())
        return self.components_of_api(api_name) & stateful

    def apis_using_component(self, component: str) -> List[str]:
        """Names of the APIs whose call tree contains ``component``."""
        return [api.name for api in self._apis.values() if component in api.components()]

    def communication_edges(self) -> Set[Tuple[str, str]]:
        """All (caller, callee) pairs appearing in any API's call tree."""
        pairs: Set[Tuple[str, str]] = set()
        for api in self._apis.values():
            for src, dst, _node, _mode in api.edges():
                pairs.add((src, dst))
        return pairs

    def api_weights(self) -> Dict[str, float]:
        """Normalized default request-mix weights of the APIs."""
        total = sum(api.weight for api in self._apis.values())
        if total <= 0 or math.isclose(total, 0.0):
            uniform = 1.0 / max(len(self._apis), 1)
            return {name: uniform for name in self._apis}
        return {name: api.weight / total for name, api in self._apis.items()}

    def total_storage_gb(self, components: Optional[Sequence[str]] = None) -> float:
        """Total persistent data size of ``components`` (default: all stateful ones)."""
        names = components if components is not None else self.stateful_components()
        return sum(self.component(n).resources.storage_gb for n in names)

    # -- misc -------------------------------------------------------------------
    def summary(self) -> Mapping[str, object]:
        """A small dict describing the application (used in logs and examples)."""
        return {
            "name": self.name,
            "components": len(self._components),
            "stateful": len(self.stateful_components()),
            "stateless": len(self.stateless_components()),
            "apis": len(self._apis),
            "search_space": 2 ** len(self._components),
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Application(name={self.name!r}, components={len(self._components)}, "
            f"apis={len(self._apis)})"
        )
