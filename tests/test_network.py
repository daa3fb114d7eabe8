"""Tests for topologies, routing, and the contention model."""

import random

import pytest

from repro.errors import CommunicationError, ConfigurationError
from repro.machines.network import ContentionNetwork, FullyConnected, Mesh2D, Torus3D


class TestMesh2D:
    def test_coords_row_major(self):
        mesh = Mesh2D(4, 2)
        assert mesh.coord(0) == (0, 0)
        assert mesh.coord(3) == (3, 0)
        assert mesh.coord(4) == (0, 1)

    def test_node_at_inverse_of_coord(self):
        mesh = Mesh2D(4, 16)
        for node in (0, 5, 17, 63):
            assert mesh.node_at(*mesh.coord(node)) == node

    def test_route_is_x_then_y(self):
        mesh = Mesh2D(4, 4)
        # (0,0) -> (2,2): two X channels along row 0, then two Y channels.
        route = mesh.route(0, mesh.node_at(2, 2))
        assert route[0] == ((0, 0), (1, 0))
        assert route[1] == ((1, 0), (2, 0))
        assert route[2] == ((2, 0), (2, 1))
        assert route[3] == ((2, 1), (2, 2))

    def test_hop_count_is_manhattan(self):
        mesh = Mesh2D(4, 16)
        assert mesh.hops(0, mesh.node_at(3, 5)) == 3 + 5

    def test_self_route_empty(self):
        assert Mesh2D(4, 4).route(5, 5) == []

    def test_channels_undirected(self):
        mesh = Mesh2D(4, 1)
        forward = mesh.route(0, 3)
        backward = mesh.route(3, 0)
        assert set(forward) == set(backward)

    def test_torus_wraps_short_way(self):
        mesh = Mesh2D(8, 1, torus=True)
        assert mesh.hops(0, 7) == 1

    def test_bad_dims_raise(self):
        with pytest.raises(ConfigurationError):
            Mesh2D(0, 4)

    def test_bad_node_raises(self):
        with pytest.raises(CommunicationError):
            Mesh2D(2, 2).coord(4)

    def test_row_crossing_shares_channels_with_in_row_traffic(self):
        """The Section 5.1 conflict: a message from the row end to the next
        row's start traverses the same physical channels as in-row
        neighbor traffic."""
        mesh = Mesh2D(4, 16)
        crossing = set(mesh.route(mesh.node_at(0, 1), mesh.node_at(3, 0)))
        in_row = set(mesh.route(mesh.node_at(1, 1), mesh.node_at(0, 1)))
        assert crossing & in_row


class TestTorus3D:
    def test_coord_roundtrip(self):
        torus = Torus3D(8, 4, 8)
        assert torus.coord(0) == (0, 0, 0)
        assert torus.coord(8) == (0, 1, 0)
        assert torus.coord(32) == (0, 0, 1)

    def test_wraparound_distance(self):
        torus = Torus3D(8, 4, 8)
        # x: 0 -> 7 is one hop through the wrap link.
        assert torus.hops(0, 7) == 1

    def test_dimension_order(self):
        torus = Torus3D(4, 4, 4)
        route = torus.route(0, 21)  # (1,1,1)
        assert len(route) == 3

    def test_bad_dims_raise(self):
        with pytest.raises(ConfigurationError):
            Torus3D(0, 1, 1)


class TestFullyConnected:
    def test_single_hop(self):
        assert FullyConnected(4).hops(0, 3) == 1

    def test_self_route(self):
        assert FullyConnected(4).route(2, 2) == []

    def test_bad_count_raises(self):
        with pytest.raises(ConfigurationError):
            FullyConnected(0)


class TestContentionNetwork:
    def make(self, **kw):
        defaults = dict(
            topology=Mesh2D(4, 4),
            latency_s=1e-4,
            per_hop_s=1e-6,
            bytes_per_s=1e7,
        )
        defaults.update(kw)
        return ContentionNetwork(**defaults)

    def test_transfer_time_formula(self):
        net = self.make()
        t = net.transfer(0, 1, 10000, 0.0)
        assert t == pytest.approx(1e-4 + 1e-6 + 1e-3)

    def test_local_transfer_skips_network(self):
        net = self.make()
        t = net.transfer(2, 2, 4_000_000, 0.0)
        assert t == pytest.approx(0.01)  # local 400 MB/s only

    def test_contention_serializes_shared_channel(self):
        net = self.make()
        t1 = net.transfer(0, 1, 10000, 0.0)
        t2 = net.transfer(0, 1, 10000, 0.0)  # same channel, same instant
        assert t2 >= t1 + 1e-3  # waits out the first transfer

    def test_disjoint_channels_run_concurrently(self):
        net = self.make()
        t1 = net.transfer(0, 1, 10000, 0.0)
        t2 = net.transfer(2, 3, 10000, 0.0)
        assert t2 == pytest.approx(t1)

    def test_opposing_direction_also_contends(self):
        """Channels are undirected half-duplex: traffic both ways shares."""
        net = self.make()
        t1 = net.transfer(0, 1, 10000, 0.0)
        t2 = net.transfer(1, 0, 10000, 0.0)
        assert t2 >= t1 + 1e-3

    def test_counters(self):
        net = self.make()
        net.transfer(0, 1, 500, 0.0)
        net.transfer(1, 2, 700, 0.0)
        assert net.messages_sent == 2
        assert net.bytes_sent == 1200

    def test_reset(self):
        net = self.make()
        net.transfer(0, 1, 500, 0.0)
        net.reset()
        assert net.messages_sent == 0
        t = net.transfer(0, 1, 500, 0.0)
        assert t < 2e-4 + 1e-3

    def test_negative_size_raises(self):
        with pytest.raises(CommunicationError):
            self.make().transfer(0, 1, -1, 0.0)

    def test_contention_accumulator(self):
        net = self.make()
        net.transfer(0, 1, 10000, 0.0)
        net.transfer(0, 1, 10000, 0.0)
        assert net.total_contention_s > 0.0


class TestPathCachedTransfer:
    """Repeated source/destination pairs through ``transfer`` must stay
    bitwise-equivalent to the per-channel dict walk over ``route()``
    (``_transfer_uncached`` on a second network)."""

    def make_pair(self, topology_factory):
        kw = dict(latency_s=1e-4, per_hop_s=1e-6, bytes_per_s=1e7)
        net = ContentionNetwork(topology=topology_factory(), **kw)
        reference = ContentionNetwork(topology=topology_factory(), **kw)
        return net, reference

    def test_bitwise_equivalent_to_uncached_reference(self):
        net, reference = self.make_pair(lambda: Mesh2D(4, 4))
        rng = random.Random(1996)
        clock = 0.0
        total_bytes = 0
        for _ in range(500):
            src = rng.randrange(16)
            dst = rng.randrange(16)
            nbytes = rng.randrange(0, 50_000)
            clock += rng.random() * 1e-4
            total_bytes += nbytes
            got = net.transfer(src, dst, nbytes, clock)
            if src == dst:
                want = clock + nbytes / net.local_bytes_per_s
            else:
                want = reference._transfer_uncached(src, dst, nbytes, clock)
            assert got == want
        assert net.total_contention_s == reference.total_contention_s
        assert (net.messages_sent, net.bytes_sent) == (500, total_bytes)

    def test_reset_clears_contention_but_keeps_warm_paths(self):
        net, _ = self.make_pair(lambda: Mesh2D(4, 4))
        first = net.transfer(0, 5, 10_000, 0.0)
        for clock in (0.0, 1.0, 2.0):
            net.transfer(0, 5, 10_000, clock)
        assert net.total_contention_s > 0.0
        net.reset()
        assert net.total_contention_s == 0.0
        assert (net.messages_sent, net.bytes_sent) == (0, 0)
        # Channel free times are cleared, so the first post-reset transfer
        # on a pair used before costs exactly what the cold one did.
        assert net.transfer(0, 5, 10_000, 0.0) == first


#: Shapes for the differential test: plain and wrapping meshes, tori with
#: extent-1, extent-2 (wrap link == direct link) and longer rings, and
#: crossbars down to a single node.
TOPOLOGIES = {
    "mesh-4x4": lambda: Mesh2D(4, 4),
    "mesh-20x1": lambda: Mesh2D(20, 1),
    "mesh-64x32": lambda: Mesh2D(64, 32),
    "mesh-2x2-torus": lambda: Mesh2D(2, 2, torus=True),
    "mesh-7x5-torus": lambda: Mesh2D(7, 5, torus=True),
    "mesh-8x1-torus": lambda: Mesh2D(8, 1, torus=True),
    "mesh-4x2-torus": lambda: Mesh2D(4, 2, torus=True),
    "torus-2x2x2": lambda: Torus3D(2, 2, 2),
    "torus-3x1x5": lambda: Torus3D(3, 1, 5),
    "torus-8x4x8": lambda: Torus3D(8, 4, 8),
    "crossbar-1": lambda: FullyConnected(1),
    "crossbar-5": lambda: FullyConnected(5),
}


class TestChannelSpans:
    """``transfer`` reserves closed-form channel-id spans; it must match
    the per-channel dict walk over ``route()`` (``_transfer_uncached`` on a
    second network) bit for bit."""

    @pytest.mark.parametrize("make", TOPOLOGIES.values(), ids=TOPOLOGIES.keys())
    def test_transfer_matches_route_oracle(self, make):
        kw = dict(latency_s=1e-4, per_hop_s=1e-6, bytes_per_s=1e7)
        net = ContentionNetwork(topology=make(), **kw)
        oracle = ContentionNetwork(topology=make(), **kw)
        topo = net.topology
        n = topo.num_nodes
        rng = random.Random(1996)
        clock = 0.0
        for _ in range(3000):
            src = rng.randrange(n)
            dst = rng.randrange(n)
            nbytes = rng.randrange(0, 50_000)
            clock += rng.random() * 1e-4
            spans = topo.channel_spans(src, dst)
            assert sum(hi - lo for lo, hi in spans) == len(topo.route(src, dst))
            assert all(0 <= lo < hi <= topo.num_channels for lo, hi in spans)
            got = net.transfer(src, dst, nbytes, clock)
            if src == dst:
                assert got == clock + nbytes / net.local_bytes_per_s
            else:
                assert got == oracle._transfer_uncached(src, dst, nbytes, clock)
        assert net.total_contention_s == oracle.total_contention_s

        # Reset clears the channel free times, so a transfer after it costs
        # exactly what the same transfer costs on a fresh network.
        cold = ContentionNetwork(topology=make(), **kw).transfer(0, n - 1, 10_000, 0.0)
        net.reset()
        assert net.total_contention_s == 0.0
        assert net.transfer(0, n - 1, 10_000, 0.0) == cold

    @pytest.mark.parametrize(
        "make",
        [lambda: Mesh2D(4, 4), lambda: Torus3D(2, 3, 2), lambda: FullyConnected(4)],
        ids=["mesh", "torus", "crossbar"],
    )
    def test_out_of_range_node_raises(self, make):
        net = ContentionNetwork(topology=make())
        n = net.topology.num_nodes
        for src, dst in [(-1, 0), (0, -1), (n, 0), (0, n)]:
            with pytest.raises(CommunicationError):
                net.transfer(src, dst, 8, 0.0)
