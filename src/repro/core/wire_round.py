"""One complete two-layer aggregation round on the simulated wire.

Every peer is a network actor: subgroups run the Alg. 4 SAC protocol
concurrently, each subgroup leader uploads its SAC average to the FedAvg
leader, the FedAvg leader computes the subgroup-size-weighted mean
(Alg. 3 line 10), pushes it back through the leaders, and the round
completes when every alive peer holds the global model.

This is the end-to-end validation piece: the measured traffic equals
:func:`repro.core.costs.two_layer_ft_cost_from_topology` bit-for-bit,
and with ``serialize_uplink=True`` the measured completion time tracks
:func:`repro.core.latency.two_layer_round_latency_ms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..fl.fedavg import fedavg
from ..obs import causal as _causal
from ..obs import runtime as _obs
from ..par import SubgroupTask, check_parallel_mode, run_jobs, run_subgroup_round
from ..secure.protocol import (
    SacProtocolPeer,
    _gone_for_good,
    classify_sac_failure,
    reliable_transport_opts,
)
from ..secure.sac import DEFAULT_BITS_PER_PARAM
from ..simnet import (
    LEADER_ISOLATED,
    OUTCOME_COMPLETED,
    TIMED_OUT,
    UNRECOVERABLE_DROPOUT,
    FixedLatency,
    Network,
    RoundOutcome,
    Simulator,
    TraceRecorder,
    check_transport,
)
from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..chaos.schedule import FaultSchedule


@dataclass(frozen=True)
class _Upload:
    """Subgroup leader -> FedAvg leader: the SAC average + group size."""

    group: int
    average: np.ndarray
    weight: float

    def size_bits(self) -> float:
        return float(np.asarray(self.average).size * DEFAULT_BITS_PER_PARAM)


@dataclass(frozen=True)
class _GlobalModel:
    average: np.ndarray

    def size_bits(self) -> float:
        return float(np.asarray(self.average).size * DEFAULT_BITS_PER_PARAM)


class _TwoLayerPeer(SacProtocolPeer):
    """SAC actor extended with the FedAvg layer's upload/broadcast roles."""

    def __init__(self, *args, round_ctx: "_RoundContext", group: int, **kw):
        super().__init__(*args, **kw)
        self.round_ctx = round_ctx
        self.group = group
        self.global_model: Optional[np.ndarray] = None
        self.global_model_time: Optional[float] = None
        # FedAvg-leader state
        self._uploads: dict[int, _Upload] = {}

    # ----------------------------------------------------- subgroup -> fed
    def on_average(self, average: np.ndarray) -> None:
        ctx = self.round_ctx
        if _obs.OBS.enabled:
            _obs.OBS.emit(
                "round.subgroup_done", t_ms=self.sim.now,
                node=self.node_id, group=self.group,
            )
            _obs.OBS.metrics.histogram(
                "subgroup_sac_complete_ms",
                "Virtual time at which each subgroup's SAC average lands.",
                labels=("group",),
            ).labels(group=str(self.group)).observe(self.sim.now)
        upload = _Upload(self.group, average, weight=float(self.n))
        if self.node_id == ctx.fed_leader:
            self._accept_upload(upload)
        else:
            self.send(
                ctx.fed_leader, upload, size_bits=upload.size_bits(),
                kind="fed.upload",
            )

    def _accept_upload(self, upload: _Upload) -> None:
        ctx = self.round_ctx
        self._uploads[upload.group] = upload
        if len(self._uploads) == ctx.n_groups:
            items = sorted(self._uploads.items())
            global_avg = fedavg(
                [u.average for _, u in items],
                weights=[u.weight for _, u in items],
            )
            if _obs.OBS.enabled:
                _obs.OBS.emit(
                    "round.fed_aggregate", t_ms=self.sim.now,
                    node=self.node_id, groups=ctx.n_groups,
                )
            msg = _GlobalModel(global_avg)
            self._adopt_global(global_avg)
            # Push down through the other subgroup leaders...
            for leader in ctx.leaders:
                if leader != self.node_id:
                    self.send(
                        leader, msg, size_bits=msg.size_bits(), kind="fed.bcast"
                    )
            # ...and to this leader's own subgroup members.
            self._relay_to_members(msg)

    # ----------------------------------------------------- fed -> subgroup
    def _relay_to_members(self, msg: _GlobalModel) -> None:
        for member in self.members:
            if member != self.node_id:
                self.send(
                    member, msg, size_bits=msg.size_bits(), kind="sub.bcast"
                )

    def _adopt_global(self, average: np.ndarray) -> None:
        if self.global_model is None:
            self.global_model = average
            self.global_model_time = self.sim.now
            self.round_ctx.done_peers.add(self.node_id)

    def on_message(self, src: int, msg) -> None:
        if isinstance(msg, _Upload):
            self._accept_upload(msg)
        elif isinstance(msg, _GlobalModel):
            first = self.global_model is None
            self._adopt_global(msg.average)
            if first and self.node_id in self.round_ctx.leaders:
                self._relay_to_members(msg)
        else:
            super().on_message(src, msg)


@dataclass
class _RoundContext:
    fed_leader: int
    leaders: tuple[int, ...]
    n_groups: int
    done_peers: set


@dataclass(frozen=True)
class WireRoundResult:
    """Outcome of one on-the-wire two-layer round.

    ``outcome`` is the typed verdict (see
    :class:`repro.simnet.RoundOutcome`); degraded rounds carry a
    ``reason`` naming the cause instead of a bare ``False``.
    """

    average: Optional[np.ndarray]
    outcome: RoundOutcome
    finish_time_ms: Optional[float]
    bits_sent: float
    messages_sent: int
    bits_by_kind: dict
    #: transport-level retransmissions this round (0 under fire-and-forget).
    retransmits: int = 0
    #: messages the network failed to deliver (link down or random loss).
    drops: int = 0
    #: simulator heap telemetry at round end (see ``Simulator.heap_stats``).
    heap_stats: dict = field(default_factory=dict)


def _check_crash_at(
    topology: Topology, crash_at: dict[int, float] | None
) -> dict[int, float]:
    crash_at = dict(crash_at or {})
    bad = [p for p in crash_at if not 0 <= p < topology.n_peers]
    if bad:
        raise ValueError(f"crash_at peer ids out of range: {sorted(bad)}")
    leaders = set(topology.leaders)
    crashed_leaders = sorted(p for p in crash_at if p in leaders)
    if crashed_leaders:
        raise ValueError(
            f"crashing subgroup leaders {crashed_leaders} needs Raft "
            "re-election (see repro.twolayer_raft), not the wire round"
        )
    return crash_at


def _classify_wire_failure(
    peers_by_group: list[list["_TwoLayerPeer"]],
    ctx: "_RoundContext",
    fed_leader_peer: "_TwoLayerPeer",
    network: Network,
) -> Optional[RoundOutcome]:
    """Early, *sound* unrecoverability check for the two-layer round.

    Crash-permanence based, like :func:`classify_sac_failure`; transient
    causes (loss, healable partitions) never trigger it.
    """
    if _gone_for_good(network, ctx.fed_leader):
        return RoundOutcome(
            UNRECOVERABLE_DROPOUT,
            reason=(
                f"FedAvg leader {ctx.fed_leader} crashed with no recovery"
                " scheduled"
            ),
        )
    for gi, group_peers in enumerate(peers_by_group):
        leader_pos = group_peers[0].leader_pos
        group_leader = group_peers[0].leader
        if group_peers[leader_pos].average is None:
            out = classify_sac_failure(group_peers, leader_pos, network)
            if out is not None:
                return RoundOutcome(
                    out.status, reason=f"subgroup {gi}: {out.reason}"
                )
        elif (
            gi not in fed_leader_peer._uploads
            and _gone_for_good(network, group_leader)
        ):
            return RoundOutcome(
                UNRECOVERABLE_DROPOUT,
                reason=(
                    f"subgroup {gi} leader {group_leader} crashed after"
                    " aggregating but before its upload reached the"
                    " FedAvg leader"
                ),
            )
    return None


def _classify_wire_timeout(
    peers: list["_TwoLayerPeer"],
    ctx: "_RoundContext",
    network: Network,
) -> RoundOutcome:
    """Name the most likely cause after the round idled to its timeout."""
    undone_alive = sorted(
        p.node_id for p in peers
        if p.node_id not in ctx.done_peers
        and not network.is_crashed(p.node_id)
    )
    partition = network._partition
    if partition is not None:
        leader_group = partition.get(ctx.fed_leader)
        cut_off = [
            pid for pid in undone_alive if partition.get(pid) != leader_group
        ]
        if cut_off or network.is_crashed(ctx.fed_leader):
            return RoundOutcome(
                LEADER_ISOLATED,
                reason=(
                    f"partition separates FedAvg leader {ctx.fed_leader}"
                    f" from alive peers {cut_off}"
                ),
            )
    reliable = network.reliable
    if reliable is not None and reliable.exhausted_undelivered:
        ex = next(
            e for e in reliable.exhausted
            if not e.delivered and not network.is_crashed(e.dst)
        )
        return RoundOutcome(
            TIMED_OUT,
            reason=(
                f"retransmit budget exhausted for {ex.kind!r}"
                f" {ex.src}->{ex.dst} with the destination alive"
            ),
        )
    return RoundOutcome(
        TIMED_OUT,
        reason=(
            f"round timeout with alive peers {undone_alive} still missing"
            " the global model"
        ),
    )


def run_two_layer_wire_round(
    topology: Topology,
    models: Sequence[np.ndarray],
    k: int | None = None,
    delay_ms: float = 15.0,
    seed: int = 0,
    bandwidth_bps: float | None = None,
    serialize_uplink: bool = False,
    subtotal_timeout_ms: float = 100.0,
    round_timeout_ms: float = 60_000.0,
    share_codec: str = "dense",
    parallel: str = "off",
    crash_at: dict[int, float] | None = None,
    loss_rate: float = 0.0,
    transport: str = "fire_and_forget",
    transport_opts: dict | None = None,
    schedule: "FaultSchedule | None" = None,
    trace_id: str | None = None,
) -> WireRoundResult:
    """Execute one full two-layer aggregation round as network actors.

    The FedAvg leader is the first subgroup's leader.  The round is
    complete when every peer that does not crash has received the global
    model.  ``share_codec="seed"`` compresses the intra-subgroup share
    exchange to PRG seeds (see :mod:`repro.secure.seedshare`); the FedAvg
    layer (uploads and broadcasts) always ships full vectors.

    ``crash_at`` maps (non-leader) peer ids to crash times in virtual ms
    — the Alg. 4 dropout scenario on the wire.

    ``parallel`` runs the ``m`` independent subgroup SAC rounds
    concurrently on threads (``"threads"``, see :mod:`repro.par`):
    per-peer seeds are spawned from the round seed in the same order as
    the sequential path, each subgroup simulates on its own clock
    starting at the shared ``t=0`` origin, and the fed layer replays
    their completions on the parent simulator — the resulting averages,
    finish times, traffic totals and observability stream are
    bit-identical to the default sequential execution (event *ordering*
    on the bus is subgroup-major rather than time-interleaved; every
    timestamp is identical, so profiles and exports agree).

    ``loss_rate``/``transport``/``transport_opts``/``schedule`` mirror
    :func:`repro.secure.protocol.run_sac_protocol`: random loss, the
    ACK/retransmit channel, and armed chaos schedules.  They couple the
    subgroups through shared network state, so they require
    ``parallel="off"``.
    """
    if len(models) != topology.n_peers:
        raise ValueError(f"expected {topology.n_peers} models")
    check_parallel_mode(parallel)
    check_transport(transport)
    crash_at = _check_crash_at(topology, crash_at)
    if transport == "reliable":
        transport_opts = reliable_transport_opts(delay_ms, transport_opts)
    if parallel != "off":
        if serialize_uplink:
            raise ValueError(
                "serialize_uplink shares one uplink schedule across all "
                "subgroups and cannot be decomposed; use parallel='off'"
            )
        if schedule is not None or loss_rate or transport != "fire_and_forget":
            raise ValueError(
                "chaos injection (schedule/loss_rate/reliable transport) "
                "couples the subgroups through shared network state and "
                "cannot be decomposed; use parallel='off'"
            )
        return _run_parallel_round(
            topology, models, k=k, delay_ms=delay_ms, seed=seed,
            bandwidth_bps=bandwidth_bps,
            subtotal_timeout_ms=subtotal_timeout_ms,
            round_timeout_ms=round_timeout_ms, share_codec=share_codec,
            parallel=parallel, crash_at=crash_at, trace_id=trace_id,
        )
    sim = Simulator()
    rng = np.random.default_rng(seed)
    trace = TraceRecorder()
    network = Network(
        sim, latency=FixedLatency(delay_ms), rng=rng, trace=trace,
        loss_rate=loss_rate,
        bandwidth_bps=bandwidth_bps, serialize_uplink=serialize_uplink,
        transport=transport, transport_opts=transport_opts,
    )
    network.trace_id = (
        trace_id if trace_id is not None else f"two_layer:s{seed}"
    )
    ctx = _RoundContext(
        fed_leader=topology.leaders[0],
        leaders=tuple(topology.leaders),
        n_groups=topology.n_groups,
        done_peers=set(),
    )
    peers: list[_TwoLayerPeer] = []
    for gi, group in enumerate(topology.groups):
        n = len(group)
        k_eff = min(k, n) if k is not None else n
        for pid in group:
            peers.append(
                _TwoLayerPeer(
                    pid, sim, network, n, k_eff, topology.leaders[gi],
                    models[pid],
                    np.random.default_rng(rng.integers(2**63)),
                    subtotal_timeout_ms,
                    members=list(group),
                    share_codec=share_codec,
                    round_ctx=ctx,
                    group=gi,
                )
            )
    for peer in peers:
        sim.schedule(0.0, peer.start_round)
    for pid, t in crash_at.items():
        sim.schedule(t, lambda pid=pid: network.crash(pid))
    if schedule is not None:
        schedule.validate_nodes(range(topology.n_peers))
        schedule.arm(sim, network)

    fed_leader_peer = next(p for p in peers if p.node_id == ctx.fed_leader)
    peers_by_group: list[list[_TwoLayerPeer]] = [
        [p for p in peers if p.group == gi]
        for gi in range(topology.n_groups)
    ]
    # Crashed peers never adopt the global model; the round is complete
    # once every *surviving* peer holds it.  Without a chaos schedule the
    # survivor set is known up front (seed semantics, zero per-event
    # cost); under chaos, crashes and recoveries move it, so membership
    # is evaluated live.
    everyone = set(range(topology.n_peers)) - set(crash_at)
    if schedule is None:
        def _done() -> bool:
            return everyone.issubset(ctx.done_peers)
    else:
        def _done() -> bool:
            return ctx.fed_leader in ctx.done_peers and all(
                p.node_id in ctx.done_peers
                or network.is_crashed(p.node_id)
                for p in peers
            )

    # Periodic god's-eye liveness check (timer-only: no messages, no
    # randomness — fault-free runs stay bit-identical to the seed).
    fatal: list[RoundOutcome] = []

    def _check_fatal() -> None:
        if _done() or fatal:
            return
        out: Optional[RoundOutcome] = None
        reliable = network.reliable
        if reliable is not None and reliable.exhausted_undelivered:
            ex = next(
                e for e in reliable.exhausted
                if not e.delivered and not network.is_crashed(e.dst)
            )
            out = RoundOutcome(
                TIMED_OUT,
                reason=(
                    f"retransmit budget exhausted for {ex.kind!r}"
                    f" {ex.src}->{ex.dst} with the destination alive"
                ),
            )
        elif not network._fault_free:
            out = _classify_wire_failure(
                peers_by_group, ctx, fed_leader_peer, network
            )
        if out is not None:
            fatal.append(out)
        else:
            sim.schedule(subtotal_timeout_ms, _check_fatal)

    sim.schedule(subtotal_timeout_ms, _check_fatal)
    with _obs.OBS.span(
        "round.two_layer", clock=lambda: sim.now,
        peers=topology.n_peers, groups=topology.n_groups,
    ):
        sim.run_while(
            lambda: not _done() and sim.now < round_timeout_ms and not fatal
        )
    completed = _done()
    if completed:
        outcome = OUTCOME_COMPLETED
    elif fatal:
        outcome = fatal[0]
    else:
        outcome = _classify_wire_timeout(peers, ctx, network)
    if _obs.OBS.enabled:
        _obs.OBS.emit(
            "round.complete", t_ms=sim.now, completed=completed,
            outcome=outcome.status,
            bits=trace.total_bits, messages=trace.total_messages,
        )
    times = [p.global_model_time for p in peers if p.global_model_time is not None]
    finish = max(times) if completed and times else None
    result = WireRoundResult(
        average=fed_leader_peer.global_model,
        outcome=outcome,
        finish_time_ms=finish,
        bits_sent=trace.total_bits,
        messages_sent=trace.total_messages,
        bits_by_kind=trace.by_kind(),
        retransmits=network.reliable.retransmits if network.reliable else 0,
        drops=trace.total_dropped,
        heap_stats=sim.heap_stats(),
    )
    # Free the round (every peer and its share buffers) on return rather
    # than at the next cyclic collection: the network and simulator drop
    # the peers, and emptying the self-rescheduling check's closure cell
    # breaks its function <-> cell cycle.
    network.close()
    del _check_fatal
    return result


def _run_parallel_round(
    topology: Topology,
    models: Sequence[np.ndarray],
    k: int | None,
    delay_ms: float,
    seed: int,
    bandwidth_bps: float | None,
    subtotal_timeout_ms: float,
    round_timeout_ms: float,
    share_codec: str,
    parallel: str,
    crash_at: dict[int, float],
    trace_id: str | None = None,
) -> WireRoundResult:
    """Parallel variant: subgroup SACs fan out, the fed layer replays.

    Bit-identity with the sequential path rests on three facts: (1) the
    per-peer generator seeds are drawn from the round seed in the same
    group-major order, so every share — and hence every subgroup average
    and completion time — is identical; (2) each subgroup's private
    simulator starts at the same ``t=0`` origin it has inside the shared
    simulator, so all timestamps agree; (3) the parent schedules each
    leader's ``on_average`` at the worker-computed completion time, so
    the fed layer sees the exact event sequence of the sequential run.
    """
    sim = Simulator()
    rng = np.random.default_rng(seed)
    trace = TraceRecorder()
    network = Network(
        sim, latency=FixedLatency(delay_ms), rng=rng, trace=trace,
        bandwidth_bps=bandwidth_bps,
    )
    tid = trace_id if trace_id is not None else f"two_layer:s{seed}"
    network.trace_id = tid
    ctx = _RoundContext(
        fed_leader=topology.leaders[0],
        leaders=tuple(topology.leaders),
        n_groups=topology.n_groups,
        done_peers=set(),
    )
    peers: list[_TwoLayerPeer] = []
    leader_peers: list[_TwoLayerPeer] = []
    tasks: list[SubgroupTask] = []
    dummy_rng = np.random.default_rng(0)  # parent peers never draw
    for gi, group in enumerate(topology.groups):
        n = len(group)
        k_eff = min(k, n) if k is not None else n
        # Same draw order as the sequential path -> same per-peer seeds.
        peer_seeds = tuple(int(rng.integers(2**63)) for _ in group)
        for pid in group:
            peer = _TwoLayerPeer(
                pid, sim, network, n, k_eff, topology.leaders[gi],
                models[pid], dummy_rng, subtotal_timeout_ms,
                members=list(group), share_codec=share_codec,
                round_ctx=ctx, group=gi,
            )
            peers.append(peer)
            if pid == topology.leaders[gi]:
                leader_peers.append(peer)
        tasks.append(
            SubgroupTask(
                group=gi,
                members=tuple(group),
                leader=topology.leaders[gi],
                k=k_eff,
                models=tuple(
                    np.asarray(models[pid], dtype=np.float64) for pid in group
                ),
                peer_seeds=peer_seeds,
                share_codec=share_codec,
                delay_ms=delay_ms,
                bandwidth_bps=bandwidth_bps,
                subtotal_timeout_ms=subtotal_timeout_ms,
                round_timeout_ms=round_timeout_ms,
                crash_at=tuple(
                    (pid, crash_at[pid]) for pid in group if pid in crash_at
                ),
                trace_id=tid,
            )
        )

    everyone = set(range(topology.n_peers)) - set(crash_at)
    with _obs.OBS.span(
        "round.two_layer", clock=lambda: sim.now,
        peers=topology.n_peers, groups=topology.n_groups,
    ):
        # Fan the m independent SAC rounds out; worker events/metrics are
        # merged into this pipeline in subgroup order by run_jobs.
        outcomes = run_jobs(run_subgroup_round, tasks, parallel)
        for outcome, leader_peer in zip(outcomes, leader_peers):
            if outcome.average is not None:
                def _replay(p=leader_peer, a=outcome.average,
                            c=outcome.finish_ctx):
                    # Re-activate the worker's final SAC delivery as the
                    # causal parent, so the fed-layer upload chains to
                    # it exactly as on the sequential path.
                    if c is not None:
                        with _causal.use(c):
                            p.on_average(a)
                    else:
                        p.on_average(a)
                sim.schedule(outcome.finish_time_ms, _replay)
        for pid, t in crash_at.items():
            # The worker already simulated (and reported) this crash; the
            # parent replays it quietly so fed-layer sends to the dead
            # peer drop exactly as they do sequentially.
            sim.schedule(t, lambda pid=pid: network.crash(pid, quiet=True))
        sim.run_while(
            lambda: not everyone.issubset(ctx.done_peers)
            and sim.now < round_timeout_ms
        )
    completed = everyone.issubset(ctx.done_peers)
    bits = trace.total_bits + sum(o.bits_sent for o in outcomes)
    messages = trace.total_messages + sum(o.messages_sent for o in outcomes)
    by_kind = trace.by_kind()
    for outcome in outcomes:
        for kind, b in outcome.bits_by_kind.items():
            by_kind[kind] = by_kind.get(kind, 0.0) + b
    fed_leader_peer = next(p for p in peers if p.node_id == ctx.fed_leader)
    if completed:
        round_outcome = OUTCOME_COMPLETED
    else:
        round_outcome = _classify_wire_timeout(peers, ctx, network)
    if _obs.OBS.enabled:
        _obs.OBS.emit(
            "round.complete", t_ms=sim.now, completed=completed,
            outcome=round_outcome.status,
            bits=bits, messages=messages,
        )
    times = [p.global_model_time for p in peers if p.global_model_time is not None]
    finish = max(times) if completed and times else None
    result = WireRoundResult(
        average=fed_leader_peer.global_model,
        outcome=round_outcome,
        finish_time_ms=finish,
        bits_sent=bits,
        messages_sent=messages,
        bits_by_kind=by_kind,
        retransmits=0,
        drops=trace.total_dropped + sum(o.dropped for o in outcomes),
        heap_stats=sim.heap_stats(),
    )
    network.close()
    return result
