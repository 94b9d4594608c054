"""The campaign orchestrator: many FL rounds under churn + faults.

``python -m repro campaign --rounds R --plans N`` drives
:func:`run_campaign_matrix`: each plan samples a churn trajectory
(:func:`~repro.campaign.schedule.sample_campaign_schedule`) and runs
``R`` federated rounds over the evolving membership:

- *storm* rounds (every ``storm_period``-th) take the boundary churn
  and a sampled fault schedule, and run over the reliable transport
  with ``parallel='off'`` (chaos and parallel fan-out are mutually
  exclusive by the wire-round contract);
- the rounds between storms are quiesced — fault-free, churn-free —
  and run in the requested ``parallel`` mode; the :mod:`repro.par`
  determinism contract makes the campaign's sim-side results
  bit-identical across ``parallel={off,threads}``
  (:meth:`CampaignReport.fingerprint` is the proof handle);
- when churn pushes a group below the k-of-n floor or past the balance
  bound, the re-sharding planner (:mod:`repro.core.resharding`) emits a
  typed :class:`~repro.core.resharding.ReshardPlan` that is applied to
  the next round's topology (``reshard=False`` keeps the static
  grouping for the survival comparison);
- the global model threads through checkpoints
  (:mod:`repro.core.checkpoint`) between rounds, with the topology and
  stable membership snapshotted into the checkpoint metadata;
- every round is classified with the existing
  :class:`~repro.simnet.RoundOutcome` and graded by the chaos
  invariants; the cross-round invariants
  (:func:`~repro.chaos.invariants.check_eventual_recovery`,
  :func:`~repro.chaos.invariants.check_reshard_floor`) grade the
  trajectory.

Each plan also runs a two-layer Raft churn drill
(:func:`run_raft_drill`): one subgroup-leader departure recovered via
the paper's Sec. V membership change, one cross-subgroup member move,
and one brand-new peer joining — all through
``RaftNode.add_server``/``remove_server`` on the live deployment.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ..chaos.invariants import (
    InvariantVerdict,
    check_eventual_recovery,
    check_reshard_floor,
)
from ..chaos.plan import PROFILES, ChaosPlan, ChaosProfile
from ..chaos.runner import TRIAL_TRANSPORT_OPTS, _grade
from ..core.checkpoint import load_checkpoint, save_checkpoint
from ..core.resharding import (
    ReshardError,
    ReshardPlan,
    dense_topology,
    needs_reshard,
    plan_reshard,
)
from ..core.topology import Topology
from ..core.wire_round import run_two_layer_wire_round
from ..obs import runtime as _obs
from ..simnet import UNRECOVERABLE_DROPOUT, RoundOutcome
from .schedule import CampaignSchedule, Join, Leave, Rejoin, sample_campaign_schedule

#: Campaign presets: the chaos profiles with churn rates switched on.
#: Kept separate from :data:`repro.chaos.PROFILES` so single-round chaos
#: runs keep their exact sampled streams.
CAMPAIGN_PROFILES: dict[str, ChaosProfile] = {
    name: replace(p, leave_rate=0.15, join_rate=0.35, rejoin_prob=0.4)
    for name, p in PROFILES.items()
}

#: rng stream tags (the chaos runner uses 0xC4A05/15/25).
_CHURN_STREAM = 0xC4A35
_FAULT_STREAM = 0xC4A45


@dataclass(frozen=True)
class CampaignRoundRecord:
    """One campaign round's classification (see chaos TrialReport)."""

    index: int
    outcome: RoundOutcome
    status: str  # 'pass' | 'degrade' | 'fail'
    detail: str
    n_alive: int
    group_sizes: tuple[int, ...]
    quiesced: bool
    resharded: bool
    reshard_moves: int
    joins: int
    leaves: int
    rejoins: int
    bits: float = 0.0
    messages: int = 0

    @property
    def failed(self) -> bool:
        return self.status == "fail"


@dataclass(frozen=True)
class RaftDrillReport:
    """The per-plan Sec. V membership-change drill on a live deployment."""

    departed_leader: Optional[int]
    new_leader: Optional[int]
    departure_recovered: bool
    moved_peer: Optional[int]
    move_committed: bool
    added_peer: Optional[int]
    add_committed: bool
    detail: str

    @property
    def ok(self) -> bool:
        return self.departure_recovered and self.move_committed and self.add_committed


@dataclass(frozen=True)
class CampaignReport:
    """One plan's full campaign trajectory plus invariant verdicts."""

    seed: int
    profile: str
    rounds: tuple[CampaignRoundRecord, ...]
    schedule: CampaignSchedule
    recovery: InvariantVerdict
    reshard_floor: InvariantVerdict
    raft: Optional[RaftDrillReport]
    final_weights: np.ndarray
    reshards: int

    @property
    def safety_failures(self) -> int:
        return sum(1 for r in self.rounds if r.failed)

    @property
    def failed(self) -> bool:
        return (
            self.safety_failures > 0
            or not self.recovery.ok
            or not self.reshard_floor.ok
            or (self.raft is not None and not self.raft.ok)
        )

    def fingerprint(self) -> str:
        """SHA-256 over the campaign's deterministic sim-side results.

        Identical across ``parallel={off,threads}`` by the
        :mod:`repro.par` contract — the acceptance handle for campaign
        determinism.
        """
        doc = {
            "seed": self.seed,
            "profile": self.profile,
            "rounds": [
                {
                    "index": r.index,
                    "outcome": r.outcome.status,
                    "reason": r.outcome.reason,
                    "n_alive": r.n_alive,
                    "group_sizes": list(r.group_sizes),
                    "resharded": r.resharded,
                    "bits": r.bits,
                    "messages": r.messages,
                }
                for r in self.rounds
            ],
            "weights": hashlib.sha256(
                np.ascontiguousarray(self.final_weights).tobytes()
            ).hexdigest(),
        }
        return hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()
        ).hexdigest()


# ---------------------------------------------------------------------------
# membership evolution
# ---------------------------------------------------------------------------

def _apply_churn(
    groups: list[list[int]],
    events: Sequence,
) -> tuple[int, int, int]:
    """Apply boundary churn to a stable-id grouping in place.

    Leavers drop out of their group (empty groups dissolve); joiners and
    rejoiners land in the smallest group (lowest index on ties) — the
    static policy a non-resharding deployment would use.
    """
    joins = leaves = rejoins = 0
    for ev in events:
        if isinstance(ev, Leave):
            for group in groups:
                if ev.peer in group:
                    group.remove(ev.peer)
                    break
            leaves += 1
        elif isinstance(ev, (Join, Rejoin)):
            if not groups:
                groups.append([])
            target = min(range(len(groups)), key=lambda gi: (len(groups[gi]), gi))
            groups[target].append(ev.peer)
            if isinstance(ev, Join):
                joins += 1
            else:
                rejoins += 1
    groups[:] = [sorted(g) for g in groups if g]
    return joins, leaves, rejoins


def _round_models(
    seed: int, index: int, members: Sequence[int],
    global_weights: np.ndarray,
) -> list[np.ndarray]:
    """Per-peer round models: the global model plus stable-id-seeded noise.

    Seeding by (seed, round, stable id) makes each peer's contribution
    independent of membership, grouping, and execution mode — the
    determinism anchor for the campaign fingerprint.
    """
    return [
        global_weights
        + np.random.default_rng([seed, index, pid]).normal(
            size=global_weights.shape[0]
        )
        for pid in members
    ]


# ---------------------------------------------------------------------------
# the campaign runner
# ---------------------------------------------------------------------------

def run_campaign(
    seed: int = 0,
    profile: ChaosProfile | str = "mixed",
    rounds: int = 10,
    n_peers: int = 12,
    group_size: int = 4,
    k: int = 3,
    model_params: int = 32,
    parallel: str = "off",
    transport: str = "reliable",
    reshard: bool = True,
    balance_bound: int = 2,
    storm_period: int = 2,
    checkpoint_dir: str | None = None,
    schedule: CampaignSchedule | None = None,
    raft: bool = True,
) -> CampaignReport:
    """Run one seeded multi-round campaign; see the module docstring."""
    if isinstance(profile, str):
        try:
            profile = CAMPAIGN_PROFILES[profile]
        except KeyError:
            raise ValueError(
                f"unknown campaign profile {profile!r}; "
                f"expected one of {sorted(CAMPAIGN_PROFILES)}"
            ) from None
    if schedule is None:
        churn_rng = np.random.default_rng([seed, _CHURN_STREAM])
        schedule = sample_campaign_schedule(
            churn_rng, profile, rounds,
            initial_members=range(n_peers), storm_period=storm_period,
            min_alive=max(2, k),
        )
    rounds = schedule.rounds

    # Stable-id grouping, evolved boundary by boundary.
    groups: list[list[int]] = [
        [schedule.initial_members[i] for i in g] for g in
        Topology.by_group_size(len(schedule.initial_members), group_size).groups
    ]

    obs = _obs.OBS
    global_weights = np.zeros(model_params, dtype=np.float64)
    records: list[CampaignRoundRecord] = []
    reshards = 0
    floor_verdict = InvariantVerdict(True, "no reshard was needed")
    ckpt_path = (
        os.path.join(checkpoint_dir, f"campaign_s{seed}.npz")
        if checkpoint_dir is not None else None
    )

    for index in range(rounds):
        # -- between-round churn --------------------------------------------
        events = schedule.churn_at(index)
        joins, leaves, rejoins = _apply_churn(groups, events)
        members = tuple(sorted(pid for g in groups for pid in g))
        n_alive = len(members)

        # -- resume from the previous round's checkpoint --------------------
        if ckpt_path is not None and index > 0:
            ckpt = load_checkpoint(ckpt_path)
            assert ckpt.next_round == index
            global_weights = np.asarray(ckpt.global_weights)

        # -- re-sharding ----------------------------------------------------
        resharded = False
        reshard_moves = 0
        reason = needs_reshard(
            tuple(tuple(g) for g in groups), k, balance_bound
        )
        if reason is not None and reshard:
            try:
                plan: ReshardPlan = plan_reshard(
                    tuple(tuple(g) for g in groups), k, reason=reason,
                    w_params=model_params, balance_bound=balance_bound,
                )
            except ReshardError as exc:
                reason = f"unreshardable: {exc}"
            else:
                floor = check_reshard_floor(plan, k)
                if not floor.ok:
                    floor_verdict = floor
                groups = [list(g) for g in plan.groups]
                resharded = True
                reshards += 1
                reshard_moves = len(plan.moves)
                reason = None
                if obs.enabled:
                    obs.emit(
                        "campaign.reshard", t_ms=None, index=index,
                        moves=reshard_moves, groups=len(plan.groups),
                        reason=plan.reason,
                    )
                    obs.metrics.counter(
                        "campaign_reshards_total",
                        "re-sharding plans applied between campaign rounds",
                    ).inc()

        feasible = (
            bool(groups)
            and min(len(g) for g in groups) >= k
            and n_alive >= max(2, k)
            and reason is None
        )
        quiesced = schedule.quiesced(index) and feasible

        # -- the round itself -----------------------------------------------
        fault_plan: Optional[ChaosPlan] = schedule.faults.get(index)
        storm = index % storm_period == 0
        if feasible:
            grouping = tuple(tuple(g) for g in groups)
            topology = dense_topology(grouping)
            models = _round_models(seed, index, members, global_weights)
            if fault_plan is None and storm:
                fault_rng = np.random.default_rng(
                    [seed, _FAULT_STREAM, index]
                )
                max_crashes = max(0, min(topology.group_sizes) - k)
                fault_plan = ChaosPlan.sample(
                    fault_rng, profile, nodes=range(n_alive),
                    protected=topology.leaders, max_crashes=max_crashes,
                )
            has_faults = (
                fault_plan is not None and bool(fault_plan.schedule.events)
            )
            quiesced = quiesced and not has_faults
            reference = run_two_layer_wire_round(
                topology, models, k=k, seed=seed + index,
            )
            if has_faults:
                result = run_two_layer_wire_round(
                    topology, models, k=k, seed=seed + index,
                    schedule=fault_plan.schedule,
                    transport=transport,
                    transport_opts=dict(TRIAL_TRANSPORT_OPTS)
                    if transport == "reliable" else None,
                    round_timeout_ms=8_000.0,
                )
            else:
                result = run_two_layer_wire_round(
                    topology, models, k=k, seed=seed + index,
                    parallel=parallel,
                )
            status, detail = _grade(result, reference)
            outcome = result.outcome
            bits, messages = result.bits_sent, result.messages_sent
            if outcome.ok:
                global_weights = np.asarray(result.average)
        else:
            # A grouping below the k-of-n floor cannot run the round at
            # all: a typed degradation, never a hang and never output.
            outcome = RoundOutcome(
                UNRECOVERABLE_DROPOUT,
                reason or "membership below the k-of-n floor",
            )
            status = "degrade"
            detail = f"typed degradation: {outcome}"
            bits, messages = 0.0, 0

        record = CampaignRoundRecord(
            index=index, outcome=outcome, status=status, detail=detail,
            n_alive=n_alive,
            group_sizes=tuple(len(g) for g in groups),
            quiesced=quiesced, resharded=resharded,
            reshard_moves=reshard_moves,
            joins=joins, leaves=leaves, rejoins=rejoins,
            bits=bits, messages=messages,
        )
        records.append(record)

        if obs.enabled:
            obs.emit(
                "campaign.round", t_ms=None, index=index,
                outcome=outcome.status, status=status, n_alive=n_alive,
                groups=len(groups), resharded=resharded, quiesced=quiesced,
            )
            obs.metrics.counter(
                "campaign_round_outcome_total",
                "campaign rounds by outcome status",
                labels=("outcome",),
            ).labels(outcome=outcome.status).inc()
            obs.metrics.gauge(
                "campaign_membership_size",
                "alive stable peers entering the current campaign round",
            ).set(n_alive)
            obs.metrics.gauge(
                "campaign_groups",
                "subgroups in the current campaign topology",
            ).set(len(groups))

        # -- checkpoint the round boundary ----------------------------------
        if ckpt_path is not None:
            save_checkpoint(
                ckpt_path, global_weights, next_round=index + 1,
                metadata={"campaign_seed": seed, "profile": profile.name},
                topology=dense_topology(tuple(tuple(g) for g in groups))
                if groups else None,
                members=members,
            )

    recovery = check_eventual_recovery(records)
    raft_report = run_raft_drill(seed) if raft else None
    report = CampaignReport(
        seed=seed, profile=profile.name, rounds=tuple(records),
        schedule=schedule, recovery=recovery, reshard_floor=floor_verdict,
        raft=raft_report, final_weights=global_weights, reshards=reshards,
    )
    if obs.enabled and (not recovery.ok or not floor_verdict.ok):
        # The flight recorder triggers on this: a cross-round invariant
        # violation is a post-mortem-worthy incident.
        broken = recovery if not recovery.ok else floor_verdict
        obs.emit(
            "campaign.invariant_violation", t_ms=None,
            seed=seed, profile=profile.name, detail=broken.detail,
        )
    return report


# ---------------------------------------------------------------------------
# the Sec. V membership-change drill
# ---------------------------------------------------------------------------

def run_raft_drill(
    seed: int,
    n_peers: int = 9,
    n_groups: int = 3,
) -> RaftDrillReport:
    """One leader departure + one cross-group move + one join, live.

    Exercises the paper's Sec. V single-server membership change on a
    running two-layer Raft deployment: the departed subgroup leader's
    successor re-joins the FedAvg layer (and evicts the dead seat), a
    follower is re-sharded into another subgroup via
    ``remove_server``/``add_server``, and a brand-new peer joins a
    subgroup — the Raft-layer counterparts of Leave/Rejoin/Join churn.
    """
    from ..twolayer_raft.system import TwoLayerRaftSystem

    topology = Topology.by_group_count(n_peers, n_groups)
    system = TwoLayerRaftSystem(
        topology, seed=seed, remove_replaced_leaders=True
    )
    detail: list[str] = []
    system.stabilize()

    # 1. Subgroup-leader departure (Sec. V-A1 + eviction extension).
    victim = system.subgroup_leader(1)
    departure_recovered = False
    new_leader = None
    if victim is not None:
        system.depart(victim)
        try:
            system.stabilize(max_ms=60_000.0)
        except TimeoutError:
            detail.append("no re-stabilization after leader departure")
        new_leader = system.subgroup_leader(1)
        if new_leader is not None:
            deadline = system.sim.now + 30_000.0
            while system.sim.now < deadline:
                fed = system.fed_leader()
                if fed is not None:
                    members = system.fed_members_of(fed)
                    if new_leader in members and victim not in members:
                        departure_recovered = True
                        break
                system.run_for(100.0)
            if not departure_recovered:
                detail.append(
                    f"successor {new_leader} never replaced {victim} in the "
                    "FedAvg configuration"
                )
        else:
            detail.append(f"subgroup 1 has no leader after {victim} departed")
    else:
        detail.append("subgroup 1 had no unique leader to depart")

    # 2. Cross-subgroup re-shard of one follower.
    mover = next(
        (
            pid for pid in system.group_members[0]
            if not system.network.is_crashed(pid)
            and pid != system.subgroup_leader(0)
        ),
        None,
    )
    move_committed = False
    if mover is not None:
        move_committed = system.move_peer(mover, 2)
        if not move_committed:
            detail.append(f"move of {mover} to subgroup 2 did not commit")
    else:
        detail.append("no movable follower in subgroup 0")

    # 3. A brand-new peer joins subgroup 2.
    added = n_peers + 1000
    add_committed = system.add_peer(added, 2)
    if not add_committed:
        detail.append(f"join of {added} to subgroup 2 did not commit")

    return RaftDrillReport(
        departed_leader=victim,
        new_leader=new_leader,
        departure_recovered=departure_recovered,
        moved_peer=mover,
        move_committed=move_committed,
        added_peer=added,
        add_committed=add_committed,
        detail="; ".join(detail) if detail else "departure + move + join committed",
    )


# ---------------------------------------------------------------------------
# matrix front-end
# ---------------------------------------------------------------------------

def run_campaign_matrix(
    n_plans: int = 25,
    seed0: int = 0,
    profiles: Optional[Sequence[str]] = None,
    rounds: int = 10,
    parallel: str = "off",
    reshard: bool = True,
    raft: bool = True,
    checkpoint_dir: str | None = None,
    **kw,
) -> list[CampaignReport]:
    """Run ``n_plans`` seeded campaigns cycling through the profiles."""
    profiles = list(profiles or CAMPAIGN_PROFILES)
    unknown = [p for p in profiles if p not in CAMPAIGN_PROFILES]
    if unknown:
        raise ValueError(
            f"unknown profiles {unknown}; known: {sorted(CAMPAIGN_PROFILES)}"
        )
    reports: list[CampaignReport] = []
    own_tmp = checkpoint_dir is None
    tmp = tempfile.TemporaryDirectory(prefix="repro_campaign_") if own_tmp else None
    try:
        ckpt_dir = tmp.name if own_tmp else checkpoint_dir
        for i in range(n_plans):
            reports.append(
                run_campaign(
                    seed=seed0 + i, profile=profiles[i % len(profiles)],
                    rounds=rounds, parallel=parallel, reshard=reshard,
                    raft=raft, checkpoint_dir=ckpt_dir, **kw,
                )
            )
    finally:
        if tmp is not None:
            tmp.cleanup()
    return reports


def format_campaign_matrix(reports: Sequence[CampaignReport]) -> str:
    """Per-profile campaign summary plus invariant verdicts."""
    profiles: list[str] = []
    for r in reports:
        if r.profile not in profiles:
            profiles.append(r.profile)
    width = max([len(p) for p in profiles] + [7])
    lines = [
        f"{'profile'.ljust(width)}  {'plans':>5}  {'rounds':>6}  "
        f"{'pass':>5}  {'degrade':>7}  {'fail':>4}  {'reshards':>8}  "
        f"{'raft':>4}"
    ]
    lines.append("-" * len(lines[0]))
    for profile in profiles:
        sel = [r for r in reports if r.profile == profile]
        rounds = [rec for r in sel for rec in r.rounds]
        counts = {
            s: sum(1 for rec in rounds if rec.status == s)
            for s in ("pass", "degrade", "fail")
        }
        raft_ok = sum(1 for r in sel if r.raft is None or r.raft.ok)
        lines.append(
            f"{profile.ljust(width)}  {len(sel):>5}  {len(rounds):>6}  "
            f"{counts['pass']:>5}  {counts['degrade']:>7}  "
            f"{counts['fail']:>4}  {sum(r.reshards for r in sel):>8}  "
            f"{raft_ok:>3}/{len(sel)}"
        )
    lines.append("-" * len(lines[0]))
    failures = [r for r in reports if r.failed]
    lines.append(
        f"totals: {len(reports)} plan(s), "
        f"{sum(len(r.rounds) for r in reports)} round(s), "
        f"{sum(r.reshards for r in reports)} reshard(s), "
        f"{len(failures)} failed plan(s)"
    )
    for r in failures:
        causes = []
        if r.safety_failures:
            causes.append(f"{r.safety_failures} safety violation(s)")
        if not r.recovery.ok:
            causes.append(f"recovery: {r.recovery.detail}")
        if not r.reshard_floor.ok:
            causes.append(f"reshard floor: {r.reshard_floor.detail}")
        if r.raft is not None and not r.raft.ok:
            causes.append(f"raft drill: {r.raft.detail}")
        lines.append(
            f"FAIL [{r.profile} seed={r.seed}] {'; '.join(causes)}"
        )
    return "\n".join(lines)
