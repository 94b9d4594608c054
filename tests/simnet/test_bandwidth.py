"""Tests for the bandwidth (transfer-time) model."""

import numpy as np
import pytest

from repro.simnet import FixedLatency, Network, SimNode, Simulator


class Recorder(SimNode):
    def __init__(self, node_id, sim, network):
        super().__init__(node_id, sim, network)
        self.received = []

    def on_message(self, src, msg):
        self.received.append((self.sim.now, src, msg))


def build(bandwidth):
    sim = Simulator()
    network = Network(
        sim,
        latency=FixedLatency(10.0),
        rng=np.random.default_rng(0),
        bandwidth_bps=bandwidth,
    )
    a = Recorder(0, sim, network)
    b = Recorder(1, sim, network)
    return sim, network, a, b


class TestBandwidth:
    def test_transfer_time_added(self):
        sim, network, a, b = build(bandwidth=1_000_000.0)  # 1 Mb/s
        a.send(1, "big", size_bits=1_000_000.0)  # 1 Mb -> 1000 ms
        sim.run()
        assert b.received[0][0] == pytest.approx(10.0 + 1000.0)

    def test_zero_size_message_only_latency(self):
        sim, network, a, b = build(bandwidth=1_000.0)
        a.send(1, "ping", size_bits=0.0)
        sim.run()
        assert b.received[0][0] == pytest.approx(10.0)

    def test_none_bandwidth_ignores_size(self):
        sim, network, a, b = build(bandwidth=None)
        a.send(1, "big", size_bits=1e12)
        sim.run()
        assert b.received[0][0] == pytest.approx(10.0)

    def test_invalid_bandwidth(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Network(sim, bandwidth_bps=0.0)

    def test_sac_round_slower_on_thin_pipe(self):
        from repro.secure.protocol import run_sac_protocol

        models = [np.random.default_rng(i).normal(size=1000) for i in range(5)]
        fast = run_sac_protocol(models, k=3)
        slow = run_sac_protocol(models, k=3, bandwidth_bps=10_000_000.0)
        assert slow.outcome.ok and fast.outcome.ok
        assert slow.finish_time_ms > fast.finish_time_ms
        np.testing.assert_allclose(slow.average, fast.average, rtol=1e-9)
