"""Flight recorder: the ring stays bounded, typed failures and safety
violations dump incident directories with the events leading up to
them, and the dump ceiling suppresses rather than filling the disk."""

import json
import os

import numpy as np

from repro.chaos import Crash, FaultSchedule
from repro.core.topology import Topology
from repro.core.wire_round import run_two_layer_wire_round
from repro.obs import runtime as _runtime
from repro.obs.flight import FlightRecorder


def _read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


class TestRing:
    def test_ring_is_bounded(self, tmp_path):
        with _runtime.observe() as obs:
            rec = FlightRecorder(out_dir=str(tmp_path), capacity=8)
            rec.attach(obs.bus)
            for i in range(100):
                obs.emit("tick", t_ms=float(i), node=0)
        assert rec.events_seen == 100
        assert len(rec.ring) == 8
        assert [e.t_ms for e in rec.ring] == [92.0 + i for i in range(8)]
        assert not rec.incidents  # nothing triggered

    def test_happy_path_rounds_do_not_trigger(self, tmp_path):
        with _runtime.observe() as obs:
            rec = obs.attach_flight(out_dir=str(tmp_path))
            obs.emit("round.complete", t_ms=75.0, completed=True)
        assert not rec.incidents


class TestIncidents:
    def test_safety_violation_dumps_last_n_events(self, tmp_path):
        with _runtime.observe() as obs:
            rec = obs.attach_flight(out_dir=str(tmp_path), capacity=16)
            for i in range(40):
                obs.emit("tick", t_ms=float(i), node=0)
            obs.emit("chaos.safety_violation", t_ms=None,
                     outcome="completed", detail="aggregate mismatch")
        (inc_dir,) = rec.incidents
        events = _read_jsonl(os.path.join(inc_dir, "events.jsonl"))
        assert len(events) == 16
        assert events[-1]["name"] == "chaos.safety_violation"
        assert events[-1]["detail"] == "aggregate mismatch"
        manifest = json.load(open(os.path.join(inc_dir, "manifest.json")))
        assert manifest["trigger"]["name"] == "chaos.safety_violation"
        assert manifest["ring_capacity"] == 16
        # The pipeline wires its own registry in: the dump has metrics
        # and the registry counts the incident.
        assert os.path.exists(os.path.join(inc_dir, "metrics.prom"))
        assert 'flight_incidents_total{trigger="chaos.safety_violation"}' \
            in obs.metrics.render_prometheus()

    def test_retransmit_exhaustion_triggers(self, tmp_path):
        with _runtime.observe() as obs:
            rec = obs.attach_flight(out_dir=str(tmp_path))
            obs.emit("net.retransmit_exhausted", t_ms=50.0, node=2, dst=3)
        assert len(rec.incidents) == 1

    def test_max_incidents_suppresses(self, tmp_path):
        with _runtime.observe() as obs:
            rec = obs.attach_flight(out_dir=str(tmp_path), max_incidents=1)
            obs.emit("chaos.safety_violation", t_ms=None, detail="a")
            obs.emit("chaos.safety_violation", t_ms=None, detail="b")
        assert len(rec.incidents) == 1
        assert rec.suppressed == 1

    def test_link_matrix_included_when_attached(self, tmp_path):
        with _runtime.observe(causal=True) as obs:
            obs.attach_link()
            rec = obs.attach_flight(out_dir=str(tmp_path))
            obs.emit("net.retransmit_exhausted", t_ms=1.0, node=0, dst=1)
        (inc_dir,) = rec.incidents
        matrix = json.load(open(os.path.join(inc_dir, "link_matrix.json")))
        assert "pairs" in matrix

    def test_manifest_carries_resource_snapshot(self, tmp_path):
        # attach_flight wires resource_snapshot(obs=...) as the default
        # provider, so every manifest records what the pipeline held.
        with _runtime.observe() as obs:
            rec = obs.attach_flight(out_dir=str(tmp_path))
            for i in range(10):
                obs.emit("tick", t_ms=float(i))
            obs.emit("chaos.safety_violation", t_ms=None, detail="x")
        (inc_dir,) = rec.incidents
        manifest = json.load(open(os.path.join(inc_dir, "manifest.json")))
        res = manifest["resources"]
        assert res["obs"]["events_held"] >= 10
        assert res["obs"]["retention"] == "full"

    def test_manifest_critical_path_when_tracing(self, tmp_path):
        # With causal tracing on, the manifest reconstructs the causal
        # critical path over the ring window; without it there is none.
        from repro.core.topology import Topology

        topo = Topology.by_group_size(6, 3)
        rng = np.random.default_rng(0)
        models = [rng.normal(size=16) for _ in range(6)]
        victim = next(p for p in range(6) if p not in topo.leaders)
        schedule = FaultSchedule([Crash(10.0, victim)])
        with _runtime.observe(causal=True) as obs:
            rec = obs.attach_flight(out_dir=str(tmp_path / "traced"),
                                    capacity=2048)
            result = run_two_layer_wire_round(
                topo, models, k=3, seed=0, schedule=schedule,
                trace_id="doomed:s0",
            )
        assert not result.outcome.ok
        (inc_dir,) = rec.incidents
        manifest = json.load(open(os.path.join(inc_dir, "manifest.json")))
        path = manifest["critical_path"]
        assert path["trace_id"] == "doomed:s0"
        assert path["hops"]
        assert path["latency_ms"] == path["end_ms"] - path["start_ms"]
        with _runtime.observe() as obs2:
            rec2 = obs2.attach_flight(out_dir=str(tmp_path / "untraced"))
            obs2.emit("chaos.safety_violation", t_ms=None, detail="x")
        (inc2,) = rec2.incidents
        manifest2 = json.load(open(os.path.join(inc2, "manifest.json")))
        assert "critical_path" not in manifest2


class TestSizeCap:
    def _dump(self, obs, detail):
        obs.emit("chaos.safety_violation", t_ms=None, detail=detail)

    def test_total_bytes_cap_evicts_oldest(self, tmp_path):
        with _runtime.observe() as obs:
            rec = obs.attach_flight(
                out_dir=str(tmp_path), max_incidents=100,
                max_total_bytes=8_192,
            )
            # Pad the ring so each dump weighs ~4 KB on disk.
            for i in range(40):
                obs.emit("tick", t_ms=float(i), node=0, pad="x" * 64)
            for i in range(6):
                self._dump(obs, f"incident-{i}")
        assert rec.evicted  # the cap actually bit
        assert rec.total_bytes() <= 8_192
        # Oldest evicted, newest survives, nothing overlaps.
        assert all(not os.path.exists(d) for d in rec.evicted)
        assert all(os.path.exists(d) for d in rec.incidents)
        assert rec.incidents[-1].endswith("chaos_safety_violation")
        survivors = {os.path.basename(d) for d in rec.incidents}
        gone = {os.path.basename(d) for d in rec.evicted}
        assert not survivors & gone

    def test_newest_incident_survives_even_if_oversized(self, tmp_path):
        with _runtime.observe() as obs:
            rec = obs.attach_flight(
                out_dir=str(tmp_path), max_total_bytes=1,
            )
            self._dump(obs, "only")
        assert len(rec.incidents) == 1
        assert rec.total_bytes() > 1  # over budget, kept anyway

    def test_cap_validation(self, tmp_path):
        import pytest

        with pytest.raises(ValueError):
            FlightRecorder(out_dir=str(tmp_path), max_total_bytes=0)


class TestEndToEnd:
    def test_unrecoverable_round_leaves_an_incident(self, tmp_path):
        # k == group size: any crash makes the subgroup unrecoverable,
        # so the round fails typed and the recorder dumps.
        topo = Topology.by_group_size(6, 3)
        victim = next(p for p in range(6) if p not in topo.leaders)
        schedule = FaultSchedule([Crash(10.0, victim)])
        rng = np.random.default_rng(0)
        models = [rng.normal(size=16) for _ in range(6)]
        with _runtime.observe(causal=True) as obs:
            rec = obs.attach_flight(out_dir=str(tmp_path))
            result = run_two_layer_wire_round(
                topo, models, k=3, seed=0, schedule=schedule,
            )
        assert not result.outcome.ok
        (inc_dir,) = rec.incidents
        events = _read_jsonl(os.path.join(inc_dir, "events.jsonl"))
        trigger = events[-1]
        assert trigger["name"] == "round.complete"
        assert trigger["completed"] is False
        # The ring holds the causal context: the crash that caused it.
        assert any(e["name"] == "net.crash" for e in events)
