"""Rollup retention: bounded-memory event sinks and resource accounting.

``observe(retention="rollup")`` must hold O(names + windows) memory
while still answering "how many of what, when, how long" — and the
parallel worker merge (``EventBus.absorb`` in subgroup order) must
produce bit-identical rollup state to the sequential path.
"""

import numpy as np
import pytest

from repro.core.topology import Topology
from repro.core.wire_round import run_two_layer_wire_round
from repro.obs import runtime as _runtime
from repro.obs.bus import Event
from repro.obs.metrics import SketchHistogram
from repro.obs.scale import (
    RollupCollector,
    format_resource_report,
    obs_self_accounting,
    resource_snapshot,
)


def _models(topo, seed=0, d=16):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=d) for _ in range(topo.n_peers)]


class TestRollupCollector:
    def test_counts_and_sim_ms(self):
        roll = RollupCollector()
        with _runtime.observe() as obs:
            roll.attach(obs.bus)
            obs.emit("net.send", t_ms=1.0, node=0, dst=1)
            obs.emit("net.send", t_ms=2.0, node=1, dst=0)
            obs.emit("sac.complete", t_ms=90.0, dur_ms=90.0)
        assert roll.total == 3
        assert roll.by_name == {"net.send": 2, "sac.complete": 1}
        assert roll.by_category == {"net": 2, "sac": 1}
        assert roll.sim_ms_by_name == {"sac.complete": 90.0}

    def test_windows_are_bounded_with_counted_eviction(self):
        roll = RollupCollector(window_ms=10.0, max_windows=4)
        with _runtime.observe() as obs:
            roll.attach(obs.bus)
            for i in range(100):
                obs.emit("tick", t_ms=float(i))
        assert len(roll.windows) == 4
        # 100 events over 10 windows of 10 each; 6 windows evicted.
        assert roll.evicted_window_events == 60
        assert sum(
            sum(w.values()) for w in roll.windows.values()
        ) + roll.evicted_window_events == 100

    def test_exemplars_are_bounded_and_deterministic(self):
        def run():
            roll = RollupCollector(exemplars_per_name=3, seed=5)
            with _runtime.observe() as obs:
                roll.attach(obs.bus)
                for i in range(500):
                    obs.emit("tick", t_ms=float(i), node=i % 7)
            return roll.exemplars("tick")

        first, second = run(), run()
        assert len(first) == 3
        assert first == second  # derandomized Algorithm R
        # The reservoir actually replaces: not just the first three.
        assert any(s["t_ms"] > 2.0 for s in first)

    def test_memory_is_independent_of_event_count(self):
        roll = RollupCollector(window_ms=1e9)  # single window
        with _runtime.observe() as obs:
            roll.attach(obs.bus)
            for i in range(200):
                obs.emit("tick", t_ms=float(i))
            after_200 = roll.approx_bytes()
            for i in range(2000):
                obs.emit("tick", t_ms=float(i))
        assert roll.approx_bytes() == after_200

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RollupCollector(window_ms=0)
        with pytest.raises(ValueError):
            RollupCollector(max_windows=0)

    def test_snapshot_is_jsonable(self):
        import json

        roll = RollupCollector()
        with _runtime.observe() as obs:
            roll.attach(obs.bus)
            obs.emit("tick", t_ms=1.0, dur_ms=2.0, node=0)
        json.dumps(roll.snapshot())


class TestRollupRetention:
    def test_rollup_pipeline_shape(self):
        with _runtime.observe(retention="rollup") as obs:
            obs.emit("tick", t_ms=0.0)
        assert obs.collector is None
        assert obs.events == []
        assert obs.rollup is not None
        assert obs.rollup.total == 1
        hist = obs.metrics.histogram("h_ms", "help").labels()
        assert isinstance(hist, SketchHistogram)

    def test_invalid_retention_rejected(self):
        with pytest.raises(ValueError):
            _runtime.Observability(retention="sometimes")

    def test_rollup_counts_match_full_retention(self):
        topo = Topology.by_group_size(9, 3)
        models = _models(topo)
        with _runtime.observe() as full:
            run_two_layer_wire_round(topo, models, k=2, seed=0)
        with _runtime.observe(retention="rollup") as rolled:
            run_two_layer_wire_round(topo, models, k=2, seed=0)
        by_name: dict = {}
        for e in full.events:
            by_name[e.name] = by_name.get(e.name, 0) + 1
        assert rolled.rollup.by_name == by_name
        assert rolled.rollup.total == len(full.events)

    @pytest.mark.parametrize("mode", ["threads"])
    def test_absorb_merge_aggregates_match_sequential(self, mode):
        # Workers run full retention; the parent absorbs their events
        # in subgroup order.  The parallel contract is multiset (not
        # order) equality with sequential, so every order-insensitive
        # rollup aggregate must match exactly; exemplars depend on
        # per-name arrival order and are covered by the determinism
        # test below instead.
        topo = Topology.by_group_size(9, 3)
        models = _models(topo, seed=3)
        with _runtime.observe(retention="rollup", causal=True) as seq:
            r_seq = run_two_layer_wire_round(
                topo, models, k=2, seed=3, trace_id="t:s3"
            )
        with _runtime.observe(retention="rollup", causal=True) as par:
            r_par = run_two_layer_wire_round(
                topo, models, k=2, seed=3, parallel=mode, trace_id="t:s3"
            )
        assert r_par.finish_time_ms == r_seq.finish_time_ms
        assert np.array_equal(r_par.average, r_seq.average)
        s, p = seq.rollup.snapshot(), par.rollup.snapshot()
        for key in ("total", "by_name", "by_category", "sim_ms_by_name",
                    "windows", "evicted_window_events"):
            assert p[key] == s[key], key

    def test_absorb_merge_order_is_deterministic(self):
        # The absorb order (subgroup order) is fixed, so the *entire*
        # rollup snapshot — exemplars included, the strictest ordering
        # probe — is bit-identical across threaded repeats.
        topo = Topology.by_group_size(9, 3)
        models = _models(topo, seed=3)

        def run(mode):
            with _runtime.observe(retention="rollup", causal=True) as obs:
                run_two_layer_wire_round(
                    topo, models, k=2, seed=3, parallel=mode,
                    trace_id="t:s3",
                )
            return obs.rollup.snapshot()

        first = run("threads")
        assert run("threads") == first


class TestResourceAccounting:
    def test_self_accounting_full_vs_rollup(self):
        topo = Topology.by_group_size(6, 3)
        models = _models(topo)
        with _runtime.observe() as full:
            run_two_layer_wire_round(topo, models, k=2, seed=0)
        with _runtime.observe(retention="rollup") as rolled:
            run_two_layer_wire_round(topo, models, k=2, seed=0)
        acct_full = obs_self_accounting(full)
        acct_roll = obs_self_accounting(rolled)
        assert acct_full["retention"] == "full"
        assert acct_full["events_held"] > 0
        assert acct_roll["retention"] == "rollup"
        assert acct_roll["events_held"] == 0
        assert acct_roll["rollup_events_seen"] == acct_full["events_held"]
        assert 0 < acct_roll["telemetry_bytes"] < acct_full["telemetry_bytes"]

    def test_event_approx_bytes_scale_with_payload(self):
        small = Event(seq=0, name="a", t_ms=0.0, wall_s=0.0, node=None,
                      fields={})
        big = Event(seq=1, name="a", t_ms=0.0, wall_s=0.0, node=None,
                    fields={"blob": "x" * 1000})
        assert big.approx_bytes() > small.approx_bytes() + 1000 - 1

    def test_resource_snapshot_sections(self):
        from repro.simnet.events import Simulator
        from repro.simnet.network import FixedLatency, Network

        sim = Simulator()
        network = Network(sim, latency=FixedLatency(5.0),
                          rng=np.random.default_rng(0))
        with _runtime.observe(retention="rollup") as obs:
            obs.emit("tick", t_ms=0.0)
            snap = resource_snapshot(obs=obs, sim=sim, network=network)
        assert snap["peak_rss_bytes"] is None or snap["peak_rss_bytes"] > 0
        assert snap["sim_heap"]["pending"] == 0
        assert snap["messages"] == {"in_flight": 0, "peak_in_flight": 0}
        assert snap["obs"]["retention"] == "rollup"
        report = format_resource_report(snap)
        assert "peak RSS" in report
        assert "obs [rollup]" in report

    def test_network_in_flight_peaks(self):
        topo = Topology.by_group_size(6, 3)
        models = _models(topo)
        with _runtime.observe():
            result = run_two_layer_wire_round(topo, models, k=2, seed=0)
        assert result.outcome.ok
        # The accounting is wired into Network.physical_send/deliver;
        # peaks are visible on the sim heap too.
        from repro.simnet.events import Simulator

        sim = Simulator()
        stats = sim.heap_stats()
        assert set(stats) == {"pending", "entries", "dead", "live",
                              "peak_pending", "scheduled_total",
                              "events_processed", "compactions"}
