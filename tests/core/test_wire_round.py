"""End-to-end tests of the on-the-wire two-layer round."""

import gc

import numpy as np
import pytest

from repro.core import Topology, two_layer_cost_from_topology
from repro.core.costs import two_layer_ft_cost_from_topology
from repro.core.latency import two_layer_round_latency_ms
from repro.core.wire_round import run_two_layer_wire_round

RNG = lambda seed=0: np.random.default_rng(seed)


def make_models(n, size=12, seed=0):
    rng = RNG(seed)
    return [rng.normal(size=size) for _ in range(n)]


class TestCorrectness:
    def test_global_average_exact(self):
        topo = Topology.by_group_size(12, 3)
        models = make_models(12)
        result = run_two_layer_wire_round(topo, models, k=2)
        assert result.outcome.ok
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), rtol=1e-10
        )

    def test_every_peer_receives_global_model(self):
        topo = Topology.by_group_size(9, 3)
        result = run_two_layer_wire_round(topo, make_models(9), k=None)
        assert result.outcome.ok

    def test_uneven_groups(self):
        topo = Topology.by_group_size(10, 3)  # 4, 3, 3
        models = make_models(10)
        result = run_two_layer_wire_round(topo, models, k=2)
        assert result.outcome.ok
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), rtol=1e-10
        )

    def test_single_group_degenerates(self):
        topo = Topology.single_group(5)
        models = make_models(5)
        result = run_two_layer_wire_round(topo, models)
        assert result.outcome.ok
        np.testing.assert_allclose(result.average, np.mean(models, axis=0))

    def test_deterministic(self):
        topo = Topology.by_group_size(9, 3)
        a = run_two_layer_wire_round(topo, make_models(9), k=2, seed=3)
        b = run_two_layer_wire_round(topo, make_models(9), k=2, seed=3)
        np.testing.assert_array_equal(a.average, b.average)
        assert a.bits_sent == b.bits_sent
        assert a.finish_time_ms == b.finish_time_ms

    def test_wrong_model_count(self):
        with pytest.raises(ValueError):
            run_two_layer_wire_round(Topology.by_group_size(6, 3), [np.ones(2)])


class TestCostValidation:
    def test_wire_bits_equal_closed_form_even_groups(self):
        size = 40
        topo = Topology.by_group_size(15, 5)
        models = make_models(15, size=size)
        result = run_two_layer_wire_round(topo, models, k=3)
        assert result.bits_sent == two_layer_ft_cost_from_topology(topo, 3, size)

    def test_wire_bits_equal_closed_form_plain(self):
        size = 25
        topo = Topology.by_group_size(12, 4)
        models = make_models(12, size=size)
        result = run_two_layer_wire_round(topo, models, k=None)
        assert result.bits_sent == two_layer_cost_from_topology(topo, size)

    def test_traffic_breakdown_by_kind(self):
        topo = Topology.by_group_size(9, 3)
        result = run_two_layer_wire_round(topo, make_models(9, size=10), k=2)
        kinds = result.bits_by_kind
        assert kinds["fed.upload"] == 2 * 10 * 32       # m-1 = 2 uploads
        assert kinds["fed.bcast"] == 2 * 10 * 32        # m-1 = 2 downs
        assert kinds["sub.bcast"] == 6 * 10 * 32        # sum (n_i - 1)
        assert "sac.share" in kinds and "sac.subtotal" in kinds


class TestSeededCodecOnWire:
    def test_seeded_bits_equal_closed_form_plain(self):
        from repro.core import two_layer_seeded_cost_from_topology

        size = 25
        topo = Topology.by_group_size(12, 4)
        models = make_models(12, size=size)
        result = run_two_layer_wire_round(
            topo, models, k=None, share_codec="seed"
        )
        assert result.outcome.ok
        assert result.bits_sent == two_layer_seeded_cost_from_topology(
            topo, None, size
        )
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), rtol=1e-10
        )

    def test_seeded_bits_equal_closed_form_ft(self):
        from repro.core import two_layer_seeded_cost_from_topology

        size = 40
        topo = Topology.by_group_size(15, 5)
        models = make_models(15, size=size)
        result = run_two_layer_wire_round(
            topo, models, k=3, share_codec="seed"
        )
        assert result.bits_sent == two_layer_seeded_cost_from_topology(
            topo, 3, size
        )

    def test_seeded_bits_equal_closed_form_uneven_groups(self):
        from repro.core import two_layer_seeded_cost_from_topology

        size = 16
        topo = Topology.by_group_size(10, 3)  # 4, 3, 3
        models = make_models(10, size=size)
        result = run_two_layer_wire_round(
            topo, models, k=None, share_codec="seed"
        )
        assert result.bits_sent == two_layer_seeded_cost_from_topology(
            topo, None, size
        )

    def test_seed_vs_seed_dense_average_bit_identical(self):
        topo = Topology.by_group_size(9, 3)
        models = make_models(9)
        a = run_two_layer_wire_round(
            topo, models, k=None, seed=5, share_codec="seed"
        )
        b = run_two_layer_wire_round(
            topo, models, k=None, seed=5, share_codec="seed-dense"
        )
        np.testing.assert_array_equal(a.average, b.average)
        assert a.bits_sent < b.bits_sent

    def test_seeded_share_traffic_is_the_only_delta(self):
        """Only the sac.share kind shrinks; every other traffic class is
        byte-identical to the dense round."""
        topo = Topology.by_group_size(12, 4)
        models = make_models(12, size=30)
        dense = run_two_layer_wire_round(topo, models, k=None, seed=2)
        seed = run_two_layer_wire_round(
            topo, models, k=None, seed=2, share_codec="seed"
        )
        for kind in ("sac.subtotal", "fed.upload", "fed.bcast", "sub.bcast"):
            assert dense.bits_by_kind[kind] == seed.bits_by_kind[kind]
        assert seed.bits_by_kind["sac.share"] < dense.bits_by_kind["sac.share"]


class TestLatencyValidation:
    def test_completion_time_tracks_latency_model(self):
        """With uplink serialization, the wire round's completion time
        matches the analytic model within 20%."""
        size = 1000
        bw = 1e6
        topo = Topology.by_group_size(9, 3)
        models = make_models(9, size=size)
        result = run_two_layer_wire_round(
            topo, models, k=2, bandwidth_bps=bw, serialize_uplink=True
        )
        assert result.outcome.ok
        predicted = two_layer_round_latency_ms(topo, 2, size, bw).total_ms
        assert result.finish_time_ms == pytest.approx(predicted, rel=0.2)

    def test_infinite_bandwidth_two_plus_three_hops(self):
        # SAC finishes after 2 hops; upload, fed bcast, sub bcast add 3.
        topo = Topology.by_group_size(9, 3)
        result = run_two_layer_wire_round(topo, make_models(9), k=2, delay_ms=15.0)
        assert result.finish_time_ms == pytest.approx(5 * 15.0)


class TestRoundTeardown:
    #: objects a round builds that hold its share buffers.
    ROUND_TYPES = {
        "_TwoLayerPeer", "SacProtocolPeer", "SeedShare",
        "Simulator", "Network", "EventQueue",
    }

    @pytest.mark.parametrize("parallel", ["off", "threads"])
    def test_finished_round_leaves_no_cyclic_garbage(self, parallel):
        """A returned round is freed by reference counting alone: with
        the collector off, a collection afterwards finds none of its
        peers, shares, simulator or network."""
        topo = Topology.by_group_size(30, 5)
        models = make_models(30, size=1000)
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            result = run_two_layer_wire_round(
                topo, models, k=3, share_codec="seed", seed=1,
                crash_at={3: 20.0}, parallel=parallel,
            )
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            found = {type(o).__name__ for o in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
        assert result.outcome.ok
        assert result.bits_by_kind["sac.recover"] > 0
        np.testing.assert_allclose(result.average, np.mean(models, axis=0))
        assert found.isdisjoint(self.ROUND_TYPES), found & self.ROUND_TYPES
