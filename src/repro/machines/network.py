"""Interconnection-network models with contention.

The Paragon experiments in Section 5.1 hinge on one network phenomenon:
under dimension-ordered (X-then-Y) routing, the "straightforward" stripe
placement makes logical neighbors at row boundaries communicate across an
entire mesh row, and those long paths collide with the single-hop neighbor
traffic inside the row.  The snake placement removes the collisions by
keeping every logical neighbor at physical distance one.

The model here reproduces that mechanism:

* Topologies expose ``route(src, dst)`` returning the ordered physical
  channels a message occupies.  Channels are *undirected* (a half-duplex
  shared physical channel), which is what makes opposing neighbor traffic
  collide with row-crossing messages.  ``channel_spans(src, dst)`` names
  the same channels as a few contiguous ranges of dense channel ids,
  computed in closed form from the node coordinates.
* A message reserves its whole path for its full transfer duration
  (a conservative wormhole approximation: a blocked head blocks the whole
  worm).  Per-channel ``free_at`` bookkeeping turns simultaneous path
  overlaps into serialization delays.

Transfer time for an ``n``-byte message over ``h`` hops:

    ``latency + h * per_hop + n / bandwidth``   (+ any wait for busy channels)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CommunicationError, ConfigurationError

__all__ = ["Topology", "Mesh2D", "Torus3D", "FullyConnected", "ContentionNetwork"]


def _canonical(a: tuple, b: tuple) -> tuple:
    """Canonical undirected channel key between two node coordinates."""
    return (a, b) if a <= b else (b, a)


def _ring_channels(extent: int, wrap: bool) -> int:
    """Channels along one ring/line of ``extent`` nodes.

    A wrapping ring of extent 2 has one channel, not two: its wrap link
    and its direct link join the same node pair, so :func:`_canonical`
    gives them one key.
    """
    return extent if wrap and extent > 2 else extent - 1


def _ring_spans(base: int, start: int, end: int, extent: int, wrap: bool) -> list:
    """Channel-id spans one dimension of a dimension-ordered route covers.

    Channel ``base + i`` joins positions ``i`` and ``i + 1`` (mod
    ``extent`` when wrapping).  A wrapping walk takes the shorter way
    round, forward on ties (as :meth:`Mesh2D.route` does), and splits into
    two spans where it crosses the wrap link.
    """
    if start == end:
        return []
    if not (wrap and extent > 2):
        lo, hi = (start, end) if start < end else (end, start)
        return [(base + lo, base + hi)]
    forward = (end - start) % extent
    backward = extent - forward
    if forward > backward:
        start, forward = end, backward
    stop = start + forward
    if stop <= extent:
        return [(base + start, base + stop)]
    return [(base + start, base + extent), (base, base + stop - extent)]


class Topology:
    """Abstract interconnect topology.

    Subclasses define the node coordinate space and the deterministic route
    (an ordered channel list) between any two nodes.  Each undirected
    channel also has a dense integer id below ``num_channels``, so a route
    is a few contiguous id ranges (:meth:`channel_spans`).
    """

    num_nodes: int
    num_channels: int

    def coord(self, node: int) -> tuple:
        """Coordinate tuple of a node index."""
        raise NotImplementedError

    def route(self, src: int, dst: int) -> list:
        """Ordered list of undirected channel keys from ``src`` to ``dst``."""
        raise NotImplementedError

    def channel_spans(self, src: int, dst: int) -> list:
        """The channels of :meth:`route` as ``[(lo, hi), ...]`` half-open
        ranges of ids in ``range(num_channels)``, computed in closed form.

        Equal channel keys get equal ids, so the spans and :meth:`route`
        describe the same channel set.  Raises
        :class:`~repro.errors.CommunicationError` for an out-of-range node.
        """
        raise NotImplementedError

    def hops(self, src: int, dst: int) -> int:
        """Path length in channels."""
        return len(self.route(src, dst))

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise CommunicationError(
                f"node {node} out of range for {self.num_nodes}-node topology"
            )


class Mesh2D(Topology):
    """2-D mesh with dimension-ordered X-then-Y routing (the Paragon's
    16x4 compute mesh; we follow Figure 4 and treat it as ``width`` columns
    by ``height`` rows).

    With ``torus=True``, each dimension wraps and routes take the shorter
    direction (used to approximate richer meshes; the Paragon itself is a
    plain mesh).
    """

    def __init__(self, width: int, height: int, *, torus: bool = False) -> None:
        if width < 1 or height < 1:
            raise ConfigurationError(f"mesh dims must be >= 1, got {width}x{height}")
        self.width = width
        self.height = height
        self.torus = torus
        self.num_nodes = width * height
        # Ids: row y's X channels first (y * cx + x), then column x's Y
        # channels (y_base + x * cy + y).
        self._cx = _ring_channels(width, torus)
        self._cy = _ring_channels(height, torus)
        self._y_base = height * self._cx
        self.num_channels = self._y_base + width * self._cy

    def coord(self, node: int) -> tuple:
        self._check_node(node)
        return (node % self.width, node // self.width)

    def node_at(self, x: int, y: int) -> int:
        """Node index at mesh coordinate ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise CommunicationError(f"coordinate {(x, y)} outside {self.width}x{self.height} mesh")
        return y * self.width + x

    def _steps(self, start: int, end: int, extent: int) -> list:
        """1-D dimension walk from start to end, honoring torus wrap."""
        if start == end:
            return []
        if not self.torus:
            step = 1 if end > start else -1
            return list(range(start, end, step))
        forward = (end - start) % extent
        backward = (start - end) % extent
        if forward <= backward:
            return [(start + i) % extent for i in range(forward)]
        return [(start - i) % extent for i in range(backward)]

    def route(self, src: int, dst: int) -> list:
        sx, sy = self.coord(src)
        dx, dy = self.coord(dst)
        channels = []
        # X dimension first (the behavior Section 5.1 blames for conflicts).
        xs = self._steps(sx, dx, self.width)
        for i, x in enumerate(xs):
            nxt = xs[i + 1] if i + 1 < len(xs) else dx
            channels.append(_canonical((x, sy), (nxt, sy)))
        ys = self._steps(sy, dy, self.height)
        for i, y in enumerate(ys):
            nxt = ys[i + 1] if i + 1 < len(ys) else dy
            channels.append(_canonical((dx, y), (dx, nxt)))
        return channels

    def channel_spans(self, src: int, dst: int) -> list:
        sx, sy = self.coord(src)
        dx, dy = self.coord(dst)
        return _ring_spans(sy * self._cx, sx, dx, self.width, self.torus) + _ring_spans(
            self._y_base + dx * self._cy, sy, dy, self.height, self.torus
        )


class Torus3D(Topology):
    """3-D bidirectional torus with dimension-ordered routing (Cray T3D)."""

    def __init__(self, nx: int, ny: int, nz: int) -> None:
        if min(nx, ny, nz) < 1:
            raise ConfigurationError(f"torus dims must be >= 1, got {(nx, ny, nz)}")
        self.nx, self.ny, self.nz = nx, ny, nz
        self.num_nodes = nx * ny * nz
        # Ids: X channels per (y, z) line, then Y per (x, z), then Z per
        # (x, y); each line's channels are contiguous.
        self._cx = _ring_channels(nx, True)
        self._cy = _ring_channels(ny, True)
        self._cz = _ring_channels(nz, True)
        self._y_base = ny * nz * self._cx
        self._z_base = self._y_base + nx * nz * self._cy
        self.num_channels = self._z_base + nx * ny * self._cz

    def coord(self, node: int) -> tuple:
        self._check_node(node)
        x = node % self.nx
        y = (node // self.nx) % self.ny
        z = node // (self.nx * self.ny)
        return (x, y, z)

    @staticmethod
    def _walk(start: int, end: int, extent: int) -> list:
        if start == end:
            return []
        forward = (end - start) % extent
        backward = (start - end) % extent
        if forward <= backward:
            return [(start + i) % extent for i in range(forward + 1)]
        return [(start - i) % extent for i in range(backward + 1)]

    def route(self, src: int, dst: int) -> list:
        sx, sy, sz = self.coord(src)
        dx, dy, dz = self.coord(dst)
        channels = []
        walk = self._walk(sx, dx, self.nx)
        for a, b in zip(walk, walk[1:]):
            channels.append(_canonical((a, sy, sz), (b, sy, sz)))
        walk = self._walk(sy, dy, self.ny)
        for a, b in zip(walk, walk[1:]):
            channels.append(_canonical((dx, a, sz), (dx, b, sz)))
        walk = self._walk(sz, dz, self.nz)
        for a, b in zip(walk, walk[1:]):
            channels.append(_canonical((dx, dy, a), (dx, dy, b)))
        return channels

    def channel_spans(self, src: int, dst: int) -> list:
        sx, sy, sz = self.coord(src)
        dx, dy, dz = self.coord(dst)
        nx, ny, nz = self.nx, self.ny, self.nz
        return (
            _ring_spans((sz * ny + sy) * self._cx, sx, dx, nx, True)
            + _ring_spans(self._y_base + (sz * nx + dx) * self._cy, sy, dy, ny, True)
            + _ring_spans(self._z_base + (dy * nx + dx) * self._cz, sz, dz, nz, True)
        )


class FullyConnected(Topology):
    """Idealized crossbar: every node pair has a private channel.

    Used for single-node "machines" (the workstation baseline) and as a
    no-contention control in tests.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = num_nodes
        self.num_channels = num_nodes * (num_nodes - 1) // 2

    def coord(self, node: int) -> tuple:
        self._check_node(node)
        return (node,)

    def route(self, src: int, dst: int) -> list:
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            return []
        return [_canonical((src,), (dst,))]

    def channel_spans(self, src: int, dst: int) -> list:
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            return []
        a, b = (src, dst) if src < dst else (dst, src)
        # Row-major index of pair (a, b) in the strict upper triangle.
        cid = a * (2 * self.num_nodes - a - 1) // 2 + b - a - 1
        return [(cid, cid + 1)]


@dataclass
class ContentionNetwork:
    """Virtual-time network state: per-channel busy intervals plus the
    latency/bandwidth cost model.

    Parameters
    ----------
    topology:
        Where messages route.
    latency_s:
        Fixed per-message network latency (hardware setup).
    per_hop_s:
        Additional latency per channel traversed.
    bytes_per_s:
        Channel bandwidth.
    local_bytes_per_s:
        Memory-copy bandwidth for self-sends (src == dst), which never
        touch the network.
    """

    topology: Topology
    latency_s: float = 50e-6
    per_hop_s: float = 1e-6
    bytes_per_s: float = 40e6
    local_bytes_per_s: float = 400e6
    #: Optional fault-injection hook installed by the engine for the
    #: duration of a run: ``(src_node, dst_node, t_start) -> factor >= 1``
    #: scaling a transfer's duration (transient link degradation).
    link_slowdown: object = field(default=None, repr=False)

    _free_at: dict = field(default_factory=dict, repr=False)
    messages_sent: int = field(default=0, repr=False)
    bytes_sent: int = field(default=0, repr=False)
    total_contention_s: float = field(default=0.0, repr=False)
    #: Free time of every channel, indexed by the topology's channel ids.
    _free: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._free = [0.0] * self.topology.num_channels

    def reset(self) -> None:
        """Clear all channel busy state and traffic counters."""
        self._free_at.clear()
        self._free = [0.0] * self.topology.num_channels
        self.messages_sent = 0
        self.bytes_sent = 0
        self.total_contention_s = 0.0

    def transfer(self, src: int, dst: int, nbytes: int, t_inject: float) -> float:
        """Reserve the path for a message and return its delivery time.

        The message waits until every channel on its path is free, then
        occupies all of them for ``hops*per_hop + nbytes/bandwidth``.
        """
        if nbytes < 0:
            raise CommunicationError(f"message size must be >= 0, got {nbytes}")
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if src == dst:
            return t_inject + nbytes / self.local_bytes_per_s

        spans = self.topology.channel_spans(src, dst)
        free = self._free
        t_start = t_inject
        hops = 0
        for lo, hi in spans:
            hops += hi - lo
            busy = max(free[lo:hi])
            if busy > t_start:
                t_start = busy
        self.total_contention_s += t_start - t_inject
        duration = self.latency_s + hops * self.per_hop_s + nbytes / self.bytes_per_s
        if self.link_slowdown is not None:
            duration *= self.link_slowdown(src, dst, t_start)
        t_end = t_start + duration
        for lo, hi in spans:
            free[lo:hi] = [t_end] * (hi - lo)
        return t_end

    def _transfer_uncached(
        self, src: int, dst: int, nbytes: int, t_inject: float
    ) -> float:
        """Per-channel dict walk over :meth:`Topology.route`: the reference
        :meth:`transfer` is differentially tested against.  It keeps its
        own busy state and does not touch the traffic counters."""
        path = self.topology.route(src, dst)
        t_start = t_inject
        for channel in path:
            t_start = max(t_start, self._free_at.get(channel, 0.0))
        self.total_contention_s += t_start - t_inject
        duration = self.latency_s + len(path) * self.per_hop_s + nbytes / self.bytes_per_s
        if self.link_slowdown is not None:
            duration *= self.link_slowdown(src, dst, t_start)
        t_end = t_start + duration
        for channel in path:
            self._free_at[channel] = t_end
        return t_end
