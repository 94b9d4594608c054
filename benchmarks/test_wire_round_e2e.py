"""End-to-end wire validation — one full two-layer round as network actors.

Ties the whole stack together: SAC protocol actors per subgroup, the
FedAvg exchange, and the two-hop broadcast, with traffic checked against
Eq. 4/5's closed forms and completion time against the latency model.
"""

import numpy as np
import pytest
from conftest import emit

from repro.core import Topology, run_two_layer_wire_round
from repro.core.costs import two_layer_ft_cost_from_topology
from repro.core.latency import two_layer_round_latency_ms


def test_full_round_on_the_wire(benchmark):
    size = 500
    bw = 10e6
    topo = Topology.by_group_size(15, 5)
    models = [np.random.default_rng(i).normal(size=size) for i in range(15)]

    def run():
        return run_two_layer_wire_round(
            topo, models, k=3, bandwidth_bps=bw, serialize_uplink=True
        )

    result = benchmark(run)
    assert result.outcome.ok
    np.testing.assert_allclose(result.average, np.mean(models, axis=0), rtol=1e-9)

    expected_bits = two_layer_ft_cost_from_topology(topo, 3, size)
    predicted_ms = two_layer_round_latency_ms(topo, 3, size, bw).total_ms
    emit(
        "Two-layer round on the wire (N=15, n=5, k=3, 10 Mb/s uplinks):\n"
        f"  traffic : {result.bits_sent:,.0f} bits "
        f"(closed form: {expected_bits:,.0f} — exact match: "
        f"{result.bits_sent == expected_bits})\n"
        f"  duration: {result.finish_time_ms:.1f} ms "
        f"(latency model: {predicted_ms:.1f} ms)\n"
        "  breakdown: "
        + ", ".join(
            f"{kind}={bits / 1e3:.0f}kb" for kind, bits in sorted(result.bits_by_kind.items())
        )
    )
    assert result.bits_sent == expected_bits
    assert result.finish_time_ms == pytest.approx(predicted_ms, rel=0.25)
