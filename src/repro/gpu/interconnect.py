"""Unified interconnect engine: topology-aware transfer routing with
shared-link contention.

The seed transfer model priced every host<->device copy against a private
point-to-point PCIe link: ``N`` concurrent uploads to ``N`` devices ran
fully parallel, each at full rate.  Real multi-GPU hosts hang every card off
one shared root complex, so concurrent transfers *contend* for the host
uplink — which is precisely why the paper's accounting of transfer cost
versus kernel time matters, and why delta packets, fused reductions and
peer-to-peer routing pay off twice on a busy host (fewer bytes *and* fewer
bytes over the shared link).

This module makes the interconnect a first-class, contended resource:

* a :class:`Link` is one physical segment (host uplink, per-device PCIe
  lane, P2P mesh edge, switch fabric) with a capacity shared by every
  transfer in flight on it;
* an :class:`InterconnectTopology` names the links and resolves, per
  (device, host-memory-kind) and per device pair, the :class:`Route` a copy
  takes — a path of links plus the per-transfer latency and rate ceiling
  (pinned/pageable and P2P pricing are link properties here, not
  :class:`~repro.gpu.device.DeviceSpec` scalars; the presets *derive* their
  links from the specs so single-transfer pricing stays bit-identical to
  the legacy :meth:`~repro.gpu.timing.GPUTimingModel.transfer_time` model);
* a :class:`TransferEngine` prices every copy by routing it over its links
  and time-sharing each link's bandwidth among overlapping transfers.

Arbitration is **progressive fair-share**: transfers submitted together in
one :meth:`TransferEngine.transfer_batch` split every shared link's
capacity equally for as long as they overlap (N concurrent uploads each see
~1/N of the uplink), while transfers committed earlier keep their grants —
a later arrival is slowed by them but cannot retroactively stretch them,
mirroring how a DMA engine honours grants it has already issued.  A
transfer's instantaneous rate is the minimum over its path of its fair
share on each link, capped by its own rate ceiling; integrating that rate
over the piecewise-constant load profile yields the duration.

An uncontended transfer therefore prices *exactly* as the legacy model
(latency + bytes/bandwidth), and every contended transfer is at least that
slow; the difference is recorded as the transfer's **contention stall**.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Sequence

from .device import DeviceSpec
from .memory import HostMemoryKind
from .streams import Timeline

__all__ = [
    "Link",
    "Route",
    "InterconnectTopology",
    "TransferRequest",
    "TransferGrant",
    "TransferEngine",
    "TOPOLOGY_PRESETS",
    "resolve_topology",
    "format_interconnect",
]

#: Directions a transfer can take over the fabric.
H2D, D2H, P2P = "h2d", "d2h", "p2p"


@dataclass(frozen=True)
class Link:
    """One physical segment of the interconnect fabric.

    ``bandwidth`` is the segment's *capacity*, shared by every transfer in
    flight on it; the per-kind fields describe how a single transfer
    experiences the segment (a pageable copy is throttled below the DMA
    capacity by the driver's bounce-buffer staging, and pays a higher
    per-operation latency than a pinned one).
    """

    name: str
    #: Capacity in bytes/s, time-shared by all concurrent transfers.
    bandwidth: float
    #: Per-transfer latency of crossing this segment, seconds.
    latency: float = 0.0
    #: Full duplex: the two directions own independent capacity.
    duplex: bool = True
    #: Shared fabric (host uplink, switch): reported in the interconnect
    #: summary and rendered as its own lane in timeline reports.
    shared: bool = False
    #: Rate ceiling for a single pageable-host crossing (bounce-buffer
    #: staging); ``None`` means the full link bandwidth.
    pageable_bandwidth: float | None = None
    #: Latency overrides per host-memory kind (``None`` -> :attr:`latency`).
    pageable_latency: float | None = None
    pinned_latency: float | None = None

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"link {self.name!r} needs positive bandwidth")
        if self.latency < 0:
            raise ValueError(f"link {self.name!r} needs non-negative latency")

    def rate_cap(self, kind: HostMemoryKind | None) -> float:
        """Per-transfer rate ceiling of one copy crossing this link."""
        if kind is HostMemoryKind.PAGEABLE and self.pageable_bandwidth is not None:
            return self.pageable_bandwidth
        return self.bandwidth

    def kind_latency(self, kind: HostMemoryKind | None) -> float:
        """Per-transfer latency contribution for a copy of this kind."""
        if kind is HostMemoryKind.PAGEABLE and self.pageable_latency is not None:
            return self.pageable_latency
        if kind is HostMemoryKind.PINNED and self.pinned_latency is not None:
            return self.pinned_latency
        return self.latency

    def channel(self, direction: str) -> str:
        """Capacity channel a transfer occupies (directions share on half duplex)."""
        return direction if self.duplex else "half"


@dataclass(frozen=True)
class Route:
    """The path one transfer takes: links crossed, latency and rate ceiling."""

    links: tuple[Link, ...]
    latency: float
    rate_cap: float

    @classmethod
    def over(cls, links: Sequence[Link], kind: HostMemoryKind | None) -> "Route":
        return cls(
            links=tuple(links),
            latency=sum(link.kind_latency(kind) for link in links),
            rate_cap=min(link.rate_cap(kind) for link in links),
        )


def _device_link(key: str, spec: DeviceSpec) -> Link:
    """The per-device PCIe lane, derived from the spec's legacy scalars.

    Capacity is the pinned (straight-DMA) rate; pageable copies are
    rate-capped at the spec's bounce-buffered figure, so a *single* transfer
    of either kind prices bit-identically to the legacy model.
    """
    return Link(
        name=f"pcie:{key}",
        bandwidth=spec.pcie_pinned_bandwidth,
        latency=spec.pcie_latency,
        pageable_bandwidth=spec.pcie_bandwidth,
        pageable_latency=spec.pcie_latency,
        pinned_latency=spec.pcie_pinned_latency,
    )


def _peer_link(src_key: str, src: DeviceSpec, dst_key: str, dst: DeviceSpec) -> Link:
    """A direct peer edge priced like the legacy ``peer_transfer_time``."""
    return Link(
        name=f"p2p:{src_key}-{dst_key}",
        bandwidth=min(src.p2p_bandwidth, dst.p2p_bandwidth),
        latency=max(src.p2p_latency, dst.p2p_latency),
    )


class InterconnectTopology:
    """Named links plus the routing tables of one host's interconnect.

    Construct directly for custom fabrics, or through the preset builders
    (:meth:`dedicated`, :meth:`shared_uplink`, :meth:`switched`,
    :meth:`nvlink`), which derive every link from the device specs so that
    uncontended pricing matches the legacy per-spec scalars exactly.
    """

    def __init__(
        self,
        name: str,
        *,
        device_keys: Sequence[str],
        host_paths: dict[str, tuple[Link, ...]],
        peer_paths: dict[tuple[str, str], tuple[Link, ...]],
        uplink: Link | None = None,
    ) -> None:
        self.name = name
        self.device_keys = list(device_keys)
        if not self.device_keys:
            raise ValueError("topology needs at least one device")
        missing = [key for key in self.device_keys if key not in host_paths]
        if missing:
            raise ValueError(f"no host path for devices {missing}")
        self._host_paths = dict(host_paths)
        self._peer_paths = dict(peer_paths)
        self.uplink = uplink
        self.links: dict[str, Link] = {}
        for path in (*host_paths.values(), *peer_paths.values()):
            for link in path:
                self.links.setdefault(link.name, link)
        if uplink is not None:
            self.links.setdefault(uplink.name, uplink)

    # ------------------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return len(self.device_keys)

    def host_route(self, device: str, kind: HostMemoryKind) -> Route:
        """The path of one host<->device copy for the given host-memory kind."""
        try:
            path = self._host_paths[device]
        except KeyError:
            raise KeyError(f"unknown device {device!r}; topology has {self.device_keys}")
        return Route.over(path, kind)

    def peer_route(self, src: str, dst: str) -> Route | None:
        """The device->device path, or ``None`` when no peer access exists."""
        path = self._peer_paths.get((src, dst))
        if path is None:
            path = self._peer_paths.get((dst, src))
        if path is None:
            return None
        return Route.over(path, None)

    def has_peer_route(self, src: str, dst: str) -> bool:
        return self.peer_route(src, dst) is not None

    def shared_links(self) -> list[Link]:
        return [link for link in self.links.values() if link.shared]

    # ------------------------------------------------------------------
    # Preset builders (derive every link from the device specs)
    # ------------------------------------------------------------------
    @staticmethod
    def _keys(specs: Sequence[DeviceSpec]) -> list[str]:
        if not specs:
            raise ValueError("topology needs at least one device")
        return [f"gpu{i}" for i in range(len(specs))]

    @classmethod
    def _pairwise_peers(
        cls, keys: Sequence[str], specs: Sequence[DeviceSpec]
    ) -> dict[tuple[str, str], tuple[Link, ...]]:
        peers: dict[tuple[str, str], tuple[Link, ...]] = {}
        for i, (ka, sa) in enumerate(zip(keys, specs)):
            for kb, sb in zip(keys[i + 1 :], specs[i + 1 :]):
                if sa.p2p_capable and sb.p2p_capable:
                    peers[(ka, kb)] = (_peer_link(ka, sa, kb, sb),)
        return peers

    @classmethod
    def dedicated(cls, specs: Sequence[DeviceSpec]) -> "InterconnectTopology":
        """Legacy model: every device owns a private host link (no uplink).

        Concurrent transfers to *different* devices never contend; transfers
        to the same device share that device's lane.  This is the default,
        keeping existing workloads' timing unchanged.
        """
        keys = cls._keys(specs)
        host_paths = {
            key: (_device_link(key, spec),) for key, spec in zip(keys, specs)
        }
        return cls(
            "dedicated",
            device_keys=keys,
            host_paths=host_paths,
            peer_paths=cls._pairwise_peers(keys, specs),
        )

    @classmethod
    def shared_uplink(
        cls,
        specs: Sequence[DeviceSpec],
        *,
        uplink_bandwidth: float | None = None,
        uplink_latency: float = 0.0,
        name: str = "shared",
    ) -> "InterconnectTopology":
        """One host root complex shared by every host<->device transfer.

        The uplink's capacity defaults to the fastest device lane, so a
        single transfer still prices exactly as on a dedicated link while
        ``N`` concurrent ones each see ``~1/N`` of the root complex.  Peer
        copies take direct P2P edges and stay off the uplink entirely —
        which is the second, larger win of peer delta routing on a
        contended host.
        """
        keys = cls._keys(specs)
        if uplink_bandwidth is None:
            uplink_bandwidth = max(spec.pcie_pinned_bandwidth for spec in specs)
        uplink = Link(
            name="uplink",
            bandwidth=uplink_bandwidth,
            latency=uplink_latency,
            shared=True,
        )
        host_paths = {
            key: (uplink, _device_link(key, spec)) for key, spec in zip(keys, specs)
        }
        return cls(
            name,
            device_keys=keys,
            host_paths=host_paths,
            peer_paths=cls._pairwise_peers(keys, specs),
            uplink=uplink,
        )

    @classmethod
    def switched(cls, specs: Sequence[DeviceSpec]) -> "InterconnectTopology":
        """Devices behind a PCIe switch whose one uplink feeds the host.

        Host transfers contend on the switch uplink (as in
        :meth:`shared_uplink`); peer copies cross the shared *switch fabric*
        instead of direct edges, so concurrent P2P transfers contend with
        each other — but still never with host traffic.
        """
        keys = cls._keys(specs)
        uplink = Link(
            name="uplink",
            bandwidth=max(spec.pcie_pinned_bandwidth for spec in specs),
            latency=0.0,
            shared=True,
        )
        capable = [spec for spec in specs if spec.p2p_capable]
        fabric = None
        if len(capable) >= 2:
            fabric = Link(
                name="switch",
                bandwidth=max(spec.p2p_bandwidth for spec in capable),
                latency=max(spec.p2p_latency for spec in capable),
                shared=True,
            )
        host_paths = {
            key: (uplink, _device_link(key, spec)) for key, spec in zip(keys, specs)
        }
        peer_paths: dict[tuple[str, str], tuple[Link, ...]] = {}
        if fabric is not None:
            for i, (ka, sa) in enumerate(zip(keys, specs)):
                for kb, sb in zip(keys[i + 1 :], specs[i + 1 :]):
                    if sa.p2p_capable and sb.p2p_capable:
                        peer_paths[(ka, kb)] = (fabric,)
        return cls(
            "switched",
            device_keys=keys,
            host_paths=host_paths,
            peer_paths=peer_paths,
            uplink=uplink,
        )

    @classmethod
    def nvlink(
        cls,
        specs: Sequence[DeviceSpec],
        *,
        peer_bandwidth: float = 25.0e9,
        peer_latency: float = 2.0e-6,
    ) -> "InterconnectTopology":
        """Shared host uplink plus an NVLink-style all-to-all peer mesh.

        Every device pair owns a dedicated fat, low-latency peer edge (the
        mesh is not a shared fabric), while host traffic still funnels
        through the one root complex — the configuration where peer delta
        routing wins the most.
        """
        keys = cls._keys(specs)
        uplink = Link(
            name="uplink",
            bandwidth=max(spec.pcie_pinned_bandwidth for spec in specs),
            latency=0.0,
            shared=True,
        )
        host_paths = {
            key: (uplink, _device_link(key, spec)) for key, spec in zip(keys, specs)
        }
        peer_paths = {
            (ka, kb): (
                Link(name=f"nvlink:{ka}-{kb}", bandwidth=peer_bandwidth, latency=peer_latency),
            )
            for i, ka in enumerate(keys)
            for kb in keys[i + 1 :]
        }
        return cls(
            "nvlink",
            device_keys=keys,
            host_paths=host_paths,
            peer_paths=peer_paths,
            uplink=uplink,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InterconnectTopology({self.name!r}, devices={self.device_keys}, "
            f"links={sorted(self.links)})"
        )


#: Named topology presets selectable from the harness and the CLI.
TOPOLOGY_PRESETS = {
    "dedicated": InterconnectTopology.dedicated,
    "shared": InterconnectTopology.shared_uplink,
    "shared-uplink": InterconnectTopology.shared_uplink,
    "switched": InterconnectTopology.switched,
    "nvlink": InterconnectTopology.nvlink,
}


def resolve_topology(
    topology: "InterconnectTopology | str | None", specs: Sequence[DeviceSpec]
) -> InterconnectTopology:
    """Resolve a topology argument (preset name, instance or ``None``).

    ``None`` selects the back-compat :meth:`InterconnectTopology.dedicated`
    model; a string picks a preset from :data:`TOPOLOGY_PRESETS`; an
    instance is validated against the pool size and returned unchanged.
    """
    if topology is None:
        return InterconnectTopology.dedicated(specs)
    if isinstance(topology, InterconnectTopology):
        if topology.num_devices != len(specs):
            raise ValueError(
                f"topology {topology.name!r} describes {topology.num_devices} devices "
                f"but the pool has {len(specs)}"
            )
        return topology
    if isinstance(topology, str):
        key = topology.lower()
        if key not in TOPOLOGY_PRESETS:
            raise ValueError(
                f"unknown topology preset {topology!r}; "
                f"available: {sorted(set(TOPOLOGY_PRESETS))}"
            )
        return TOPOLOGY_PRESETS[key](specs)
    raise TypeError(
        f"topology must be a preset name, an InterconnectTopology or None, "
        f"got {type(topology)}"
    )


@dataclass(frozen=True)
class TransferRequest:
    """One copy to be routed over the fabric."""

    device: str
    direction: str  # "h2d" | "d2h" | "p2p"
    nbytes: float
    kind: HostMemoryKind | None = HostMemoryKind.PAGEABLE
    #: Earliest simulated instant the copy can start (its stream-ordered
    #: issue time, as resolved by the caller).
    start: float = 0.0
    #: Destination device for ``direction="p2p"``.
    peer: str | None = None
    label: str = ""


@dataclass(frozen=True)
class TransferGrant:
    """The engine's answer: when the copy runs and how long it takes."""

    request: TransferRequest
    start: float
    #: Wall duration of the grant, including the route latency.
    duration: float
    #: What the same copy would cost alone on its route (the legacy price).
    dedicated: float
    #: Links crossed, in order.
    links: tuple[str, ...]

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def stall(self) -> float:
        """Extra time spent waiting on shared-link arbitration."""
        return max(0.0, self.duration - self.dedicated)


@dataclass
class _ChannelLoad:
    """Committed transfer intervals on one (link, channel), kept sorted."""

    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    nbytes: float = 0.0
    transfers: int = 0

    def probe(self, t: float) -> tuple[int, float]:
        """``(transfers in flight at t, next start or end after t, or inf)``.

        The ``k``-th smallest end never precedes the ``k``-th smallest
        start, so a start still ahead implies an end still ahead.
        """
        started = bisect_right(self.starts, t)
        ended = bisect_right(self.ends, t)
        if ended == len(self.ends):
            return started - ended, math.inf
        if started == len(self.starts):
            return started - ended, self.ends[ended]
        return started - ended, min(self.starts[started], self.ends[ended])

    def commit(self, start: float, end: float, nbytes: float) -> None:
        insort(self.starts, start)
        insort(self.ends, end)
        self.nbytes += nbytes
        self.transfers += 1

    def busy_time(self) -> float:
        """Union length of the committed intervals (the channel's busy time).

        ``starts`` and ``ends`` are kept sorted independently; pairing them
        positionally yields intervals with the same counting function (and
        therefore the same union measure) as the original set.
        """
        busy = 0.0
        cursor = float("-inf")
        for start, end in zip(self.starts, self.ends):
            if start > cursor:
                busy += end - start
                cursor = end
            elif end > cursor:
                busy += end - cursor
                cursor = end
        return busy


class _Path:
    """A resolved route with its capacity channels, cached per engine."""

    __slots__ = ("route", "channels", "links", "rate")

    def __init__(self, route: Route, direction: str) -> None:
        self.route = route
        #: ``((link name, channel), link)`` per link crossed, in path order.
        self.channels = tuple(
            ((link.name, link.channel(direction)), link) for link in route.links
        )
        self.links = tuple(link.name for link in route.links)
        #: The rate of a copy alone on every channel of the path: its cap,
        #: bounded by each link's full capacity (``bandwidth / 1``).
        self.rate = min([route.rate_cap, *(link.bandwidth for link in route.links)])


class _PricingItem:
    """Working state of one request inside the fluid arbitration."""

    __slots__ = ("request", "route", "channels", "remaining", "duration", "finished", "rate")

    def __init__(self, request: TransferRequest, path: _Path) -> None:
        self.request = request
        self.route = path.route
        self.channels = path.channels
        self.remaining = float(request.nbytes)
        self.duration = 0.0
        self.finished = self.remaining <= 0.0
        self.rate = 0.0


class TransferEngine:
    """Routes copies over an :class:`InterconnectTopology` and arbitrates
    each link's bandwidth among overlapping transfers.

    The engine is shared by every :class:`~repro.gpu.runtime.GPUContext` of
    one pool; contexts ask it to *price* a copy (given the copy's
    stream-resolved start time) and then place the returned grant on their
    own stream timelines, so the contention model composes with the
    existing event/stream machinery instead of replacing it.
    """

    def __init__(self, topology: InterconnectTopology) -> None:
        self.topology = topology
        self._loads: dict[tuple[str, str], _ChannelLoad] = {}
        #: Resolved paths per ``(direction, device, peer, kind)``.
        self._paths: dict[tuple, _Path] = {}
        #: Interconnect lanes: one stream per *shared* link, fed with the
        #: grant windows of every transfer crossing it (for timeline reports).
        self.timeline = Timeline()
        self.total_stall = 0.0
        self.stall_by_device: dict[str, float] = {}
        self.transfers = 0
        #: Transient-failure injection (see :meth:`inject_transfer_faults`):
        #: each armed fault is a ``(retries, backoff)`` pair consumed by one
        #: future host transfer.
        self._pending_faults: list[tuple[int, float]] = []
        self.retried_transfers = 0
        self.retry_time = 0.0

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _path(self, device: str, direction: str, peer: str | None, kind) -> _Path:
        """The (cached) path of one copy; routes are fixed per topology."""
        key = (direction, device, peer, kind)
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = _Path(
                self._route(device, direction, peer, kind), direction
            )
        return path

    def _route(self, device: str, direction: str, peer: str | None, kind) -> Route:
        if direction == P2P:
            if peer is None:
                raise ValueError("p2p transfer needs a destination device")
            route = self.topology.peer_route(device, peer)
            if route is None:
                raise ValueError(
                    f"no peer route between {device!r} and {peer!r} "
                    f"in topology {self.topology.name!r}"
                )
            return route
        if direction not in (H2D, D2H):
            raise ValueError(f"unknown transfer direction {direction!r}")
        kind = kind if kind is not None else HostMemoryKind.PAGEABLE
        return self.topology.host_route(device, kind)

    def has_peer_route(self, src: str, dst: str) -> bool:
        return self.topology.has_peer_route(src, dst)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def inject_transfer_faults(
        self, count: int = 1, *, retries: int = 1, backoff: float = 1.0e-3
    ) -> None:
        """Arm ``count`` transient host-transfer failures.

        Each of the next ``count`` non-empty host<->device copies priced by
        the engine fails ``retries`` times before succeeding; every failed
        attempt costs the route latency plus an exponentially growing
        backoff gap (``backoff * 2**attempt``).  The penalty extends the
        grant's duration — and therefore the issuing stream's timeline —
        but the copy still delivers its payload, so trajectories are
        unaffected: this is a *timing* fault, tallied in
        :attr:`retried_transfers` / :attr:`retry_time`.
        """
        if count < 1:
            raise ValueError(f"fault count must be >= 1, got {count}")
        if retries < 1:
            raise ValueError(f"retries must be >= 1, got {retries}")
        if backoff < 0.0:
            raise ValueError(f"backoff must be >= 0, got {backoff}")
        self._pending_faults.extend((int(retries), float(backoff)) for _ in range(count))

    def _consume_fault(self, direction: str, nbytes: float, route: Route) -> float:
        """Retry penalty for one priced copy, with a fault armed (0.0 if it spares it)."""
        if direction not in (H2D, D2H) or nbytes <= 0:
            return 0.0
        retries, backoff = self._pending_faults.pop(0)
        penalty = sum(route.latency + backoff * 2.0**i for i in range(retries))
        self.retried_transfers += retries
        self.retry_time += penalty
        return penalty

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------
    def transfer(
        self,
        device: str,
        direction: str,
        nbytes: float,
        *,
        kind: HostMemoryKind | None = HostMemoryKind.PAGEABLE,
        start: float = 0.0,
        label: str = "",
    ) -> TransferGrant:
        """Price and commit one host<->device copy."""
        return self.transfer_batch(
            [
                TransferRequest(
                    device=device,
                    direction=direction,
                    nbytes=nbytes,
                    kind=kind,
                    start=start,
                    label=label,
                )
            ]
        )[0]

    def peer_transfer(
        self, src: str, dst: str, nbytes: float, *, start: float = 0.0, label: str = ""
    ) -> TransferGrant:
        """Price and commit one device->device copy over the peer fabric."""
        return self.transfer_batch(
            [
                TransferRequest(
                    device=src,
                    direction=P2P,
                    nbytes=nbytes,
                    kind=None,
                    start=start,
                    peer=dst,
                    label=label,
                )
            ]
        )[0]

    def transfer_batch(self, requests: Sequence[TransferRequest]) -> list[TransferGrant]:
        """Price a set of copies that are in flight together.

        Requests in one batch share every common link fairly for as long as
        they overlap; previously committed transfers act as background load.
        Issue the concurrent fan-out of one step as a single batch — that is
        what makes ``N`` simultaneous uploads each see ``~1/N`` of a shared
        uplink instead of the first one grabbing the full rate.
        """
        if not requests:
            return []
        for request in requests:
            if request.nbytes < 0:
                raise ValueError(f"nbytes must be non-negative, got {request.nbytes}")
        paths = [
            self._path(request.device, request.direction, request.peer, request.kind)
            for request in requests
        ]
        items = [_PricingItem(request, path) for request, path in zip(requests, paths)]
        self._arbitrate(items)
        grants = []
        for item, path in zip(items, paths):
            request = item.request
            duration, dedicated = self._finish(
                request.direction, request.nbytes, path.route, item.duration
            )
            grant = TransferGrant(
                request=request,
                start=request.start,
                duration=duration,
                dedicated=dedicated,
                links=path.links,
            )
            self._commit(
                request.device, request.direction, request.nbytes,
                request.label, path, grant.start, grant.end, grant.stall,
            )
            grants.append(grant)
        return grants

    def transfer_at(
        self,
        device: str,
        direction: str,
        nbytes: int,
        kind: HostMemoryKind | None,
        start: float,
        *,
        peer: str | None = None,
        label: str = "",
    ) -> float:
        """Price and commit one copy that starts at ``start``; returns its duration.

        The copy is priced alone against everything committed before it,
        exactly as a one-request :meth:`transfer_batch` call — grants are
        immutable, so the copies of one step issued one by one in stream
        order need no joint arbitration.  :meth:`_walk` integrates it over
        its channels' committed boundaries with the floats
        :meth:`_arbitrate` computes for a one-item batch.  An armed
        transient fault hits the next call that moves host bytes.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        path = self._path(device, direction, peer, kind)
        duration, dedicated = self._finish(
            direction, nbytes, path.route, self._walk(path, float(nbytes), start)
        )
        self._commit(
            device, direction, nbytes, label, path,
            start, start + duration, max(0.0, duration - dedicated),
        )
        return duration

    def _walk(self, path: _Path, remaining: float, t: float) -> float:
        """Arbitrated time of ``remaining`` bytes on ``path`` alone from ``t``.

        The floats, finish threshold and round bound of a one-item
        :meth:`_arbitrate`, one round per stretch of constant load; the
        comparisons pick what ``min`` picks, without its call.
        """
        if remaining <= 0.0:
            return 0.0
        loads = self._loads
        loaded = [(loads[key], link.bandwidth) for key, link in path.channels if key in loads]
        duration = 0.0
        for _ in range(64 * 9 + 4 * sum([len(load.starts) for load, _bandwidth in loaded])):
            rate, boundary = path.rate, math.inf
            for load, bandwidth in loaded:
                active, following = load.probe(t)
                share = bandwidth / (1 + active)
                if share < rate:
                    rate = share
                if following < boundary:
                    boundary = following
            need = remaining / rate
            dt = boundary - t
            if need <= dt:
                dt = need
            if need <= dt * (1.0 + 1e-12):
                return duration + need
            duration += dt
            remaining -= rate * dt
            t += dt
        return duration + remaining / path.route.rate_cap  # pragma: no cover - backstop

    def _finish(
        self, direction: str, nbytes: float, route: Route, base: float
    ) -> tuple[float, float]:
        """A priced copy's ``(duration, dedicated)`` from its arbitrated time.

        The retry penalty of an armed fault hits the dedicated price too (a
        lone copy would retry just the same), so the stall keeps measuring
        only shared-link arbitration.
        """
        penalty = self._consume_fault(direction, nbytes, route) if self._pending_faults else 0.0
        return (
            base + route.latency + penalty,
            route.latency + float(nbytes) / route.rate_cap + penalty,
        )

    # ------------------------------------------------------------------
    def _arbitrate(self, items: list[_PricingItem]) -> None:
        """Fluid fair-share integration of one batch against committed load."""
        unfinished = [item for item in items if not item.finished]
        if not unfinished:
            return
        t = min(item.request.start for item in unfinished)
        loads = self._loads
        involved = {key for item in items for key, _link in item.channels}
        committed_events = sum(len(loads[key].starts) for key in involved if key in loads)
        max_rounds = 64 * (len(items) + 8) + 4 * committed_events
        for _ in range(max_rounds):
            if not unfinished:
                return
            active = [item for item in unfinished if item.request.start <= t]
            if not active:
                t = min(item.request.start for item in unfinished)
                continue
            # Per-channel batch load at this instant.
            batch_load: dict[tuple[str, str], int] = {}
            for item in active:
                for key, _link in item.channels:
                    batch_load[key] = batch_load.get(key, 0) + 1
            # Instantaneous rate of each active item: its rate cap, bounded
            # by its fair share of every link on its path.  Next event: a
            # batch item finishing, a pending item starting, or a committed
            # transfer entering/leaving one of our links.
            boundary = math.inf
            for item in active:
                rate = item.route.rate_cap
                for key, link in item.channels:
                    load = loads.get(key)
                    if load is None:
                        rate = min(rate, link.bandwidth / batch_load[key])
                    else:
                        in_flight, following = load.probe(t)
                        rate = min(rate, link.bandwidth / (batch_load[key] + in_flight))
                        boundary = min(boundary, following)
                item.rate = rate
            to_finish = [item.remaining / item.rate for item in active]
            dt = min(min(to_finish), boundary - t)
            for item in unfinished:
                if item.request.start > t:
                    dt = min(dt, item.request.start - t)
            if dt <= 0.0:
                dt = min(to_finish)
            threshold = dt * (1.0 + 1e-12)
            progressed = False
            for item, need in zip(active, to_finish):
                if need <= threshold:
                    item.duration += need
                    item.remaining = 0.0
                    item.finished = True
                    progressed = True
                else:
                    item.duration += dt
                    item.remaining -= item.rate * dt
            unfinished = [item for item in unfinished if not item.finished]
            t += dt
            if dt > 0.0:
                progressed = True
            if not progressed:  # pragma: no cover - numerical backstop
                break
        if unfinished:  # pragma: no cover - numerical backstop
            # Degenerate numerics: finish the stragglers at their rate caps.
            for item in unfinished:
                item.duration += item.remaining / item.route.rate_cap
                item.remaining = 0.0
                item.finished = True

    def _commit(
        self, device: str, direction: str, nbytes: float, label: str,
        path: _Path, start: float, end: float, stall: float,
    ) -> None:
        self.transfers += 1
        self.total_stall += stall
        self.stall_by_device[device] = self.stall_by_device.get(device, 0.0) + stall
        for key, link in path.channels:
            load = self._loads.get(key)
            if load is None:
                load = self._loads[key] = _ChannelLoad()
            load.commit(start, end, float(nbytes))
            if link.shared:
                stream = self.timeline.stream(link.name)
                stream.append_interval(direction, label or f"{device}:{direction}", start, end)
                stream.cursor = max(stream.cursor, end)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def link_bytes(self, link: str, direction: str | None = None) -> float:
        """Total bytes carried by ``link`` (optionally one direction only)."""
        return sum(
            load.nbytes
            for (name, channel), load in self._loads.items()
            if name == link and (direction is None or channel == direction)
        )

    def link_transfers(self, link: str, direction: str | None = None) -> int:
        return sum(
            load.transfers
            for (name, channel), load in self._loads.items()
            if name == link and (direction is None or channel == direction)
        )

    def link_busy(self, link: str) -> float:
        """Busiest channel's committed-interval union time on ``link``."""
        times = [
            load.busy_time()
            for (name, _channel), load in self._loads.items()
            if name == link
        ]
        return max(times, default=0.0)

    def uplink_busy(self) -> float:
        """Busy time of the shared host uplink (0 on dedicated fabrics)."""
        if self.topology.uplink is None:
            return 0.0
        return self.link_busy(self.topology.uplink.name)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Checkpointable arbitration state.

        The committed per-channel interval sets must round-trip exactly:
        :meth:`_ChannelLoad.probe` consults them when pricing *future*
        transfers, so a restored engine arbitrates the rest of the run
        bit-identically to an uninterrupted one.  Armed-but-unconsumed
        fault injections survive the checkpoint too.
        """
        return {
            "topology": self.topology.name,
            "loads": [
                {
                    "link": link_name,
                    "channel": channel,
                    "starts": list(load.starts),
                    "ends": list(load.ends),
                    "nbytes": load.nbytes,
                    "transfers": load.transfers,
                }
                for (link_name, channel), load in self._loads.items()
            ],
            "total_stall": self.total_stall,
            "stall_by_device": dict(self.stall_by_device),
            "transfers": self.transfers,
            "pending_faults": [list(pair) for pair in self._pending_faults],
            "retried_transfers": self.retried_transfers,
            "retry_time": self.retry_time,
            "timeline": self.timeline.snapshot(),
        }

    def restore(self, snap: dict) -> None:
        """Install a :meth:`snapshot` taken on an engine of the same topology."""
        if snap.get("topology") != self.topology.name:
            raise ValueError(
                f"checkpoint was taken on topology {snap.get('topology')!r}, "
                f"this engine routes {self.topology.name!r}"
            )
        self._loads = {
            (entry["link"], entry["channel"]): _ChannelLoad(
                starts=[float(t) for t in entry["starts"]],
                ends=[float(t) for t in entry["ends"]],
                nbytes=float(entry["nbytes"]),
                transfers=int(entry["transfers"]),
            )
            for entry in snap["loads"]
        }
        self.total_stall = float(snap["total_stall"])
        self.stall_by_device = {
            device: float(value) for device, value in snap["stall_by_device"].items()
        }
        self.transfers = int(snap["transfers"])
        self._pending_faults = [
            (int(retries), float(backoff)) for retries, backoff in snap["pending_faults"]
        ]
        self.retried_transfers = int(snap["retried_transfers"])
        self.retry_time = float(snap["retry_time"])
        self.timeline.restore(snap["timeline"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TransferEngine(topology={self.topology.name!r}, transfers={self.transfers})"


def format_interconnect(engine: TransferEngine) -> str:
    """Per-link traffic summary (the interconnect section of timeline reports)."""
    lines = [f"interconnect: topology {engine.topology.name}"]
    for name in sorted(engine.topology.links):
        link = engine.topology.links[name]
        transfers = engine.link_transfers(name)
        if not transfers:
            continue
        shared = " (shared)" if link.shared else ""
        lines.append(
            f"  link {name:<18}{shared:<9} {transfers:>6d} transfers, "
            f"{engine.link_bytes(name):>12.0f} B, busy {engine.link_busy(name) * 1e3:.4f}ms"
        )
    lines.append(
        f"  contention stall {engine.total_stall * 1e3:.4f}ms over "
        f"{engine.transfers} transfers"
    )
    return "\n".join(lines)
