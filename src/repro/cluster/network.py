"""Network performance model between datacenters.

The paper reports the measured characteristics of its testbed:

* intra-datacenter (collocated nodes): 0.168 ms average latency, 941 Mbps bandwidth;
* inter-datacenter (Wisconsin <-> Massachusetts): 23.015 ms latency, 921 Mbps bandwidth.

:class:`NetworkModel` stores a symmetric latency/bandwidth matrix over an arbitrary
number of locations and converts a payload size into a one-way transfer time.  It is
used both by the execution simulator (ground truth) and by Atlas's delay-injection
estimator (Eq. 2), which only needs the *difference* between the before/after link
characteristics.  :func:`default_multi_location_network` builds the dense pairwise
matrix of the built-in N-location testbed (on-prem + several cloud regions);
:func:`default_network_model`, the paper's two-location matrix, is its N = 2 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..digest import Memoized, sha_parts
from .topology import CLOUD, ON_PREM, require_finite

__all__ = [
    "LinkSpec",
    "NetworkModel",
    "default_network_model",
    "default_multi_location_network",
]

_BITS_PER_BYTE = 8.0
_MBPS_TO_BYTES_PER_MS = 1e6 / _BITS_PER_BYTE / 1e3  # 1 Mbps = 125 bytes/ms


@dataclass(frozen=True)
class LinkSpec:
    """Latency/bandwidth of the path between two locations.

    ``latency_ms`` is the *round-trip* time, matching how the paper reports its testbed
    measurements (0.168 ms intra-DC, 23.015 ms inter-DC); a one-way transfer therefore
    pays half of it plus the serialization time of the payload.
    """

    latency_ms: float
    bandwidth_mbps: float

    def __post_init__(self) -> None:
        require_finite(vars(self))
        if self.latency_ms < 0:
            raise ValueError("latency must be non-negative")
        if self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")

    @property
    def bytes_per_ms(self) -> float:
        return self.bandwidth_mbps * _MBPS_TO_BYTES_PER_MS

    def transfer_time_ms(self, payload_bytes: float) -> float:
        """One-way time to push ``payload_bytes`` over this link (half RTT + serialization)."""
        if payload_bytes < 0:
            raise ValueError("payload size must be non-negative")
        return 0.5 * self.latency_ms + payload_bytes / self.bytes_per_ms


class NetworkModel(Memoized):
    """Symmetric latency/bandwidth matrix over datacenter locations.

    Immutable after construction (the fault hooks :meth:`derive` / :meth:`degraded`
    return siblings), which is what lets it own its content digest.
    """

    _MEMOS = {"_digest": None, "_locations": None, "_prefix": None}
    #: Memo of :meth:`content_digest`; set on first use.
    _digest: Optional[str] = None
    #: Memo of :meth:`locations`; set on first use.
    _locations: Optional[Tuple[int, ...]] = None
    #: Memo of :meth:`linked_prefix`; set on first use.
    _prefix: Optional[int] = None

    def __init__(self, links: Dict[Tuple[int, int], LinkSpec]) -> None:
        self._links: Dict[Tuple[int, int], LinkSpec] = {}
        for (a, b), spec in links.items():
            self._links[self._key(a, b)] = spec

    def content_digest(self) -> str:
        """Content fingerprint of the link table, latency + bandwidth (computed once)."""
        if self._digest is None:
            self._digest = sha_parts(
                f"{a}-{b}|{link.latency_ms!r}|{link.bandwidth_mbps!r}"
                for (a, b), link in sorted(self._links.items())
            )
        return self._digest

    @staticmethod
    def _key(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    def locations(self) -> List[int]:
        """Every location id that appears in at least one link (computed once)."""
        if self._locations is None:
            seen = set()
            for a, b in self._links:
                seen.add(a)
                seen.add(b)
            self._locations = tuple(sorted(seen))
        return list(self._locations)

    def linked_prefix(self) -> int:
        """The largest ``k`` such that every pair of the ids ``0 .. k-1``, each id with
        itself included, has a link (computed once): plans over those ids never
        meet a missing link."""
        if self._prefix is None:
            size = 0
            while all(self.has_link(other, size) for other in range(size + 1)):
                size += 1
            self._prefix = size
        return self._prefix

    def has_link(self, loc_a: int, loc_b: int) -> bool:
        return self._key(loc_a, loc_b) in self._links

    def link(self, loc_a: int, loc_b: int) -> LinkSpec:
        try:
            return self._links[self._key(loc_a, loc_b)]
        except KeyError:
            raise KeyError(f"no link between locations {loc_a} and {loc_b}") from None

    def latency_ms(self, loc_a: int, loc_b: int) -> float:
        return self.link(loc_a, loc_b).latency_ms

    def bandwidth_mbps(self, loc_a: int, loc_b: int) -> float:
        return self.link(loc_a, loc_b).bandwidth_mbps

    def transfer_time_ms(self, loc_a: int, loc_b: int, payload_bytes: float) -> float:
        """One-way transfer time of a payload between two locations."""
        return self.link(loc_a, loc_b).transfer_time_ms(payload_bytes)

    def round_trip_ms(
        self, loc_a: int, loc_b: int, request_bytes: float, response_bytes: float
    ) -> float:
        """Request + response transfer time for one invocation between two locations."""
        link = self.link(loc_a, loc_b)
        return link.transfer_time_ms(request_bytes) + link.transfer_time_ms(response_bytes)

    def extra_delay_ms(
        self,
        before: Tuple[int, int],
        after: Tuple[int, int],
        request_bytes: float,
        response_bytes: float,
    ) -> float:
        """Delay Δ of Eq. 2: the additional round-trip time caused by relocating the pair.

        ``before``/``after`` are (caller location, callee location) pairs.  The latency
        term uses the round-trip difference once per invocation (γ is an RTT), and the
        serialization term covers both the request and the response payloads, matching
        the simulator's per-invocation accounting.  The result is clamped at zero:
        moving a pair onto the same datacenter never *adds* latency in the estimator.
        """
        before_link = self.link(*before)
        after_link = self.link(*after)
        total_bytes = request_bytes + response_bytes
        delta = (after_link.latency_ms - before_link.latency_ms) + total_bytes * (
            1.0 / after_link.bytes_per_ms - 1.0 / before_link.bytes_per_ms
        )
        return max(delta, 0.0)

    # -- fault hooks -----------------------------------------------------------------------
    def derive(
        self, overrides: Mapping[Tuple[int, int], LinkSpec]
    ) -> "NetworkModel":
        """A sibling network with some links replaced (the fault-injection hook).

        ``overrides`` maps (location, location) pairs — in either order — to the
        replacement :class:`LinkSpec`; every other link is carried over unchanged.
        """
        links = dict(self._links)
        for (a, b), spec in overrides.items():
            key = self._key(a, b)
            if key not in links:
                raise KeyError(f"no link between locations {a} and {b} to override")
            links[key] = spec
        return NetworkModel(links)

    def degraded(
        self,
        pairs: Optional[Sequence[Tuple[int, int]]] = None,
        latency_factor: float = 1.0,
        bandwidth_factor: float = 1.0,
        extra_latency_ms: float = 0.0,
    ) -> "NetworkModel":
        """A sibling network with scaled/penalized link characteristics.

        ``pairs`` selects which links degrade (default: every *inter*-location link);
        each selected link's round-trip latency becomes
        ``latency_ms * latency_factor + extra_latency_ms`` and its bandwidth
        ``bandwidth_mbps * bandwidth_factor``.  This is how
        :class:`~repro.quality.faults.LinkDegradation` and
        :class:`~repro.quality.faults.LocationOutage` compile into the delay
        injector: the degraded model feeds a performance scenario view whose Δ
        tables price every cross-site edge against the faulted links.
        """
        require_finite(
            {
                "latency_factor": latency_factor,
                "bandwidth_factor": bandwidth_factor,
                "extra_latency_ms": extra_latency_ms,
            }
        )
        if latency_factor < 0:
            raise ValueError("latency_factor must be non-negative")
        if bandwidth_factor <= 0:
            raise ValueError("bandwidth_factor must be positive")
        if extra_latency_ms < 0:
            raise ValueError("extra_latency_ms must be non-negative")
        if pairs is None:
            keys = [key for key in self._links if key[0] != key[1]]
        else:
            keys = []
            for a, b in pairs:
                key = self._key(a, b)
                if key in self._links and key not in keys:
                    keys.append(key)
        overrides = {}
        for key in keys:
            link = self._links[key]
            overrides[key] = LinkSpec(
                latency_ms=link.latency_ms * latency_factor + extra_latency_ms,
                bandwidth_mbps=link.bandwidth_mbps * bandwidth_factor,
            )
        return self.derive(overrides) if overrides else self


def default_network_model() -> NetworkModel:
    """The two-location network of the paper's testbed: the N = 2 case of
    :func:`default_multi_location_network`."""
    return default_multi_location_network(locations=(ON_PREM, CLOUD))


#: Round-trip latencies (ms) of the built-in three-location testbed: on-prem
#: (Wisconsin), cloud-east (Massachusetts, the paper's measured 23.015 ms) and
#: cloud-west (Oregon) — the west region is roughly twice as far from both.
_DEFAULT_3DC_LATENCIES_MS: Dict[Tuple[int, int], float] = {
    (ON_PREM, CLOUD): 23.015,
    (ON_PREM, 2): 44.5,
    (CLOUD, 2): 61.0,
}


def default_multi_location_network(
    locations: Sequence[int] = (ON_PREM, CLOUD, 2),
    intra_latency_ms: float = 0.168,
    intra_bandwidth_mbps: float = 941.0,
    inter_latencies_ms: Optional[Mapping[Tuple[int, int], float]] = None,
    inter_bandwidth_mbps: float = 921.0,
    default_inter_latency_ms: float = 44.5,
) -> NetworkModel:
    """A dense pairwise network over N locations.

    Every location gets the measured intra-DC link to itself; every location pair gets
    an inter-DC link whose latency comes from ``inter_latencies_ms`` (falling back to
    the built-in three-location table, then to ``default_inter_latency_ms``) at the
    paper's measured inter-DC bandwidth, so the links among locations 0 and 1 are
    always the paper's measured two-location testbed (:func:`default_network_model`).
    """
    latencies = dict(_DEFAULT_3DC_LATENCIES_MS)
    if inter_latencies_ms:
        for (a, b), value in inter_latencies_ms.items():
            latencies[(a, b) if a <= b else (b, a)] = value
    intra = LinkSpec(intra_latency_ms, intra_bandwidth_mbps)
    links: Dict[Tuple[int, int], LinkSpec] = {}
    ordered = sorted(set(locations))
    for i, a in enumerate(ordered):
        links[(a, a)] = intra
        for b in ordered[i + 1 :]:
            latency = latencies.get((a, b), default_inter_latency_ms)
            links[(a, b)] = LinkSpec(latency, inter_bandwidth_mbps)
    return NetworkModel(links)
