"""The campaign orchestrator: determinism, invariants, checkpoints, Raft."""

import os

import numpy as np
import pytest

from repro.campaign import (
    CampaignSchedule,
    Join,
    Leave,
    Rejoin,
    format_campaign_matrix,
    run_campaign,
    run_campaign_matrix,
    run_raft_drill,
)
from repro.core.checkpoint import load_checkpoint


class TestDeterminism:
    def test_same_seed_same_fingerprint(self):
        a = run_campaign(seed=11, profile="mixed", rounds=6, raft=False)
        b = run_campaign(seed=11, profile="mixed", rounds=6, raft=False)
        assert a.fingerprint() == b.fingerprint()
        assert np.array_equal(a.final_weights, b.final_weights)

    def test_different_seed_different_fingerprint(self):
        a = run_campaign(seed=11, profile="mixed", rounds=6, raft=False)
        b = run_campaign(seed=12, profile="mixed", rounds=6, raft=False)
        assert a.fingerprint() != b.fingerprint()

    @pytest.mark.parametrize("mode", ["threads"])
    def test_parallel_modes_bit_identical(self, mode):
        base = run_campaign(seed=5, profile="crashes", rounds=6, raft=False,
                            parallel="off")
        other = run_campaign(seed=5, profile="crashes", rounds=6, raft=False,
                             parallel=mode)
        assert base.fingerprint() == other.fingerprint()
        assert np.array_equal(base.final_weights, other.final_weights)


class TestInvariants:
    def test_no_safety_violations_across_profiles(self):
        reports = run_campaign_matrix(
            n_plans=5, rounds=6, raft=False,
        )
        assert len(reports) == 5
        for r in reports:
            assert r.safety_failures == 0
            assert r.recovery.ok, r.recovery.detail
            assert r.reshard_floor.ok, r.reshard_floor.detail

    def test_degraded_round_exposes_no_aggregate(self):
        # Drive the membership below the k-of-n floor: every round after
        # the mass exodus must be a typed degradation, and the global
        # model must stay at its last completed value.
        schedule = CampaignSchedule(
            rounds=4, initial_members=tuple(range(6)),
            churn=tuple(Leave(2, p) for p in range(1, 6)),
        )
        report = run_campaign(
            seed=0, profile="mixed", rounds=4, n_peers=6, group_size=3,
            k=3, raft=False, schedule=schedule, reshard=True,
        )
        degraded = [r for r in report.rounds if not r.outcome.ok]
        assert degraded, "exodus below the floor must degrade rounds"
        for rec in degraded:
            assert rec.status == "degrade"
            assert rec.outcome.reason
            assert rec.bits == 0.0
        # No quiesced round follows the collapse, so recovery is vacuous.
        assert report.recovery.ok

    def test_recovery_after_rejoin(self):
        # Collapse below the floor, then rejoin: the quiesced round
        # after the rejoin must complete (the recovery invariant, hit
        # for real rather than vacuously).
        schedule = CampaignSchedule(
            rounds=6, initial_members=tuple(range(6)),
            churn=(
                Leave(2, 2), Leave(2, 3), Leave(2, 4), Leave(2, 5),
                Rejoin(4, 2), Rejoin(4, 3), Rejoin(4, 4), Rejoin(4, 5),
            ),
        )
        report = run_campaign(
            seed=1, profile="mixed", rounds=6, n_peers=6, group_size=3,
            k=3, raft=False, schedule=schedule,
        )
        statuses = [r.outcome.ok for r in report.rounds]
        assert not all(statuses), "collapse rounds must degrade"
        assert statuses[4] and statuses[5], "post-rejoin rounds recover"
        assert report.recovery.ok, report.recovery.detail

    def test_static_mode_never_reshards(self):
        report = run_campaign(
            seed=2, profile="mixed", rounds=8, raft=False, reshard=False,
        )
        assert report.reshards == 0
        assert all(not r.resharded for r in report.rounds)

    def test_reshard_repairs_what_static_cannot(self):
        # One leaver breaks a k=3 group of 3; static mode stays broken
        # (degrades), resharding repairs the grouping and keeps going.
        schedule = CampaignSchedule(
            rounds=3, initial_members=tuple(range(9)),
            churn=(Leave(1, 8),),
        )
        kw = dict(
            seed=3, profile="mixed", rounds=3, n_peers=9, group_size=3,
            k=3, raft=False, schedule=schedule,
        )
        static = run_campaign(reshard=False, **kw)
        dynamic = run_campaign(reshard=True, **kw)
        assert any(not r.outcome.ok for r in static.rounds[1:])
        assert all(r.outcome.ok for r in dynamic.rounds)
        assert dynamic.reshards >= 1


class TestCheckpointThreading:
    def test_checkpoints_written_and_resumed(self, tmp_path):
        report = run_campaign(
            seed=4, profile="lossy", rounds=5, raft=False,
            checkpoint_dir=str(tmp_path),
        )
        path = os.path.join(str(tmp_path), "campaign_s4.npz")
        ckpt = load_checkpoint(path)
        assert ckpt.next_round == 5
        assert np.array_equal(ckpt.global_weights, report.final_weights)
        # The snapshot captures the final topology and stable members.
        last = report.rounds[-1]
        assert len(ckpt.members) == last.n_alive
        assert ckpt.topology.group_sizes == last.group_sizes

    def test_checkpointing_does_not_change_results(self, tmp_path):
        with_ckpt = run_campaign(
            seed=6, profile="mixed", rounds=6, raft=False,
            checkpoint_dir=str(tmp_path),
        )
        without = run_campaign(
            seed=6, profile="mixed", rounds=6, raft=False,
            checkpoint_dir=None,
        )
        assert with_ckpt.fingerprint() == without.fingerprint()


class TestRaftDrill:
    def test_drill_departure_move_and_join(self):
        rep = run_raft_drill(seed=0)
        assert rep.ok, rep.detail
        assert rep.departed_leader is not None
        assert rep.new_leader is not None
        assert rep.new_leader != rep.departed_leader
        assert rep.move_committed
        assert rep.add_committed


class TestMatrixFormatting:
    def test_matrix_table_lists_profiles_and_totals(self):
        reports = run_campaign_matrix(n_plans=2, rounds=4, raft=False)
        text = format_campaign_matrix(reports)
        assert "profile" in text
        assert "totals: 2 plan(s), 8 round(s)" in text

    def test_matrix_rejects_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown profiles"):
            run_campaign_matrix(n_plans=1, profiles=["nope"], raft=False)


class TestObservability:
    def test_campaign_metrics_and_events_emitted(self):
        from repro.obs import runtime as _runtime
        from repro.obs.serve import StatusBoard

        with _runtime.observe() as obs:
            board = StatusBoard().attach(obs.bus)
            run_campaign(seed=7, profile="mixed", rounds=4, raft=False)
            names = {e.name for e in obs.events}
            assert "campaign.round" in names
            rendered = obs.metrics.render_prometheus()
            assert "campaign_round_outcome_total" in rendered
            assert "campaign_membership_size" in rendered
        snap = board.snapshot()["campaign"]
        assert sum(snap["rounds_by_outcome"].values()) == 4
        assert snap["last_round"]["index"] == 3
        assert snap["invariant_violations"] == 0

    def test_flight_recorder_triggers_on_invariant_violation(self, tmp_path):
        from repro.obs.bus import Event
        from repro.obs.flight import FlightRecorder

        rec = FlightRecorder(out_dir=str(tmp_path))
        rec(Event(seq=0, name="campaign.round", t_ms=0.0, wall_s=0.0))
        assert not rec.incidents
        rec(Event(seq=1, name="campaign.invariant_violation", t_ms=1.0,
                  wall_s=0.0, fields={"detail": "round 3 did not recover"}))
        assert len(rec.incidents) == 1


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
