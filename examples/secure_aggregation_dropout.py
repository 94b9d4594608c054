#!/usr/bin/env python
"""Fault-tolerant SAC surviving a mid-round dropout (the paper's Fig. 3).

Three peers run 2-out-of-3 SAC over the simulated 15 ms network.  "Alice"
(peer 0) crashes 20 ms into the round — after her share bundles are in
flight but before she can send her subtotal.  The leader detects the
missing subtotal, fetches it from a replica holder, and reconstructs the
exact 3-peer average, Alice's model included.

Run:  python examples/secure_aggregation_dropout.py
"""

import numpy as np

from repro.secure import SacAbort, sac_average
from repro.secure.protocol import run_sac_protocol


def main() -> None:
    rng = np.random.default_rng(7)
    names = ["Alice", "Bob", "Carol"]
    models = [rng.normal(loc=i, size=6) for i in range(3)]
    for name, model in zip(names, models):
        print(f"{name}'s private model: {np.round(model, 3)}")
    expected = np.mean(models, axis=0)
    print(f"True average (never revealed to any single peer): "
          f"{np.round(expected, 3)}\n")

    # ------------------------------------------------------------------
    # Plain n-out-of-n SAC aborts on any dropout (Sec. IV-C).
    try:
        sac_average(models, rng, crashed={0})
    except SacAbort as exc:
        print(f"Plain SAC: {exc} -> the round is lost, restart without Alice.\n")

    # ------------------------------------------------------------------
    # 2-out-of-3 fault-tolerant SAC on the wire, Alice crashing at t=20ms.
    result = run_sac_protocol(
        models, k=2, leader=1, crash_at={0: 20.0}, subtotal_timeout_ms=50.0
    )
    assert result.outcome.ok
    print("Fault-tolerant 2-out-of-3 SAC with Alice crashing mid-round:")
    print(f"  reconstructed average: {np.round(result.average, 3)}")
    print(f"  matches the true average: "
          f"{bool(np.allclose(result.average, expected))}")
    print(f"  subtotals recovered from replicas: {result.recovered_shares}")
    print(f"  round finished at t={result.finish_time_ms:.0f} ms "
          f"({result.messages_sent} messages, "
          f"{result.bits_sent / 1e3:.1f} kb on the wire)")


if __name__ == "__main__":
    main()
