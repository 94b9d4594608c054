"""SAC as a message-passing protocol on the simulated network.

The functional implementations (:mod:`.sac`, :mod:`.fault_tolerant`)
compute what SAC produces; this module executes *how* — share bundles and
subtotals as timed messages over :mod:`repro.simnet`, with peers crashing
mid-round, leader-side timeouts, and recovery fetches from replica
holders (Alg. 4 lines 17-18).  It validates three things the functional
form cannot: wall-clock behaviour, byte accounting on a real wire, and
the dropout-timing semantics of Fig. 3.

Timeline of one round (k-out-of-n, leader ``L``):

1. ``t=0``: every peer splits its model and sends each peer ``j`` the
   bundle of share indices ``j .. j+n-k (mod n)``.
2. On receiving all ``n-1`` bundles a peer computes the subtotals for its
   held indices; non-leaders send their *primary* subtotal to ``L``.
3. ``L`` assembles all ``n`` subtotals.  If some are still missing after
   ``subtotal_timeout_ms`` (crashed primaries), it fetches them from
   surviving replica holders.
4. ``L`` averages and the round completes.

A peer that crashes *before* its bundles go out makes the round
unrecoverable (its model's shares are gone); the leader reports failure
after ``round_timeout_ms`` — the caller restarts with the survivors, as
in the plain-SAC abort path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..obs import causal as _causal
from ..obs import runtime as _obs
from ..simnet import (
    LEADER_ISOLATED,
    OUTCOME_COMPLETED,
    TIMED_OUT,
    UNRECOVERABLE_DROPOUT,
    FixedLatency,
    Network,
    RoundOutcome,
    SimNode,
    Simulator,
    TraceRecorder,
    check_transport,
)
from .additive import divide

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..chaos.schedule import FaultSchedule
from .replicated import holders_of_share, shares_held_by
from .sac import DEFAULT_BITS_PER_PARAM, _check_codec
from .seedshare import SeedShare, seeded_zero_sum_shares


@dataclass(frozen=True)
class SharesBundle:
    origin: int
    #: share index -> np.ndarray (materialized) or SeedShare (compressed)
    shares: dict

    def size_bits(self) -> float:
        total = 0.0
        for v in self.shares.values():
            if isinstance(v, SeedShare):
                total += v.size_bits()
            else:
                total += float(np.asarray(v).size * DEFAULT_BITS_PER_PARAM)
        return total


@dataclass(frozen=True)
class Subtotal:
    index: int
    value: np.ndarray

    def size_bits(self) -> float:
        return float(np.asarray(self.value).size * DEFAULT_BITS_PER_PARAM)


@dataclass(frozen=True)
class RecoveryRequest:
    index: int

    def size_bits(self) -> float:
        return 64.0


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of one simulated SAC round.

    ``outcome`` is the typed verdict: ``completed`` on success,
    otherwise a degradation status with a human-readable ``reason``
    naming the cause (see :class:`repro.simnet.RoundOutcome`).
    """

    average: Optional[np.ndarray]
    outcome: RoundOutcome
    finish_time_ms: Optional[float]
    bits_sent: float
    messages_sent: int
    recovered_shares: tuple[int, ...]
    #: transport-level retransmissions this round (0 under fire-and-forget).
    retransmits: int = 0
    #: messages the network failed to deliver (link down or random loss).
    drops: int = 0

    @property
    def gigabits(self) -> float:
        return self.bits_sent / 1e9


class SacProtocolPeer(SimNode):
    """One subgroup member executing Alg. 4 on the wire.

    ``members`` lists the global network ids of the subgroup (defaulting
    to ``0..n-1``); share indices are member *positions*, so the same
    actor works standalone or embedded in a larger multi-group network.
    """

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        n: int,
        k: int,
        leader: int,
        model: np.ndarray,
        rng: np.random.Generator,
        subtotal_timeout_ms: float,
        members: list[int] | None = None,
        share_codec: str = "dense",
    ) -> None:
        super().__init__(node_id, sim, network)
        _check_codec(share_codec)
        self.share_codec = share_codec
        self.n = n
        self.k = k
        self.members = list(members) if members is not None else list(range(n))
        if len(self.members) != n:
            raise ValueError("members must list exactly n peers")
        self.position = self.members.index(node_id)
        self.leader = leader  # global id
        self.leader_pos = self.members.index(leader)
        self.model = np.asarray(model, dtype=np.float64)
        self.rng = rng
        self.subtotal_timeout_ms = subtotal_timeout_ms
        self.held = set(shares_held_by(self.position, n, k))
        self._bundles: dict[int, dict] = {}
        self._subtotals: dict[int, np.ndarray] = {}
        self._sent_primary = False
        self._recovery_pending: set[int] = set()
        self._recovery_attempts: dict[int, int] = {}
        self.recovered: set[int] = set()
        self.average: Optional[np.ndarray] = None
        self.finish_time: Optional[float] = None
        self._round_start: Optional[float] = None
        #: causal context active when the round finished (the delivery
        #: that completed the aggregate) — lets the parallel runner
        #: re-parent the fed-layer upload on the worker's last SAC hop.
        self.finish_ctx = None

    def _emit(self, name: str, **fields) -> None:
        _obs.OBS.emit(
            name, t_ms=self.sim.now, node=self.node_id,
            group=getattr(self, "group", None), **fields,
        )

    # ------------------------------------------------------------- phase 1
    def start_round(self) -> None:
        self._round_start = self.sim.now
        if _obs.OBS.enabled:
            self._emit("sac.shares_out", n=self.n, k=self.k)
        if self.share_codec == "dense":
            shares = divide(self.model, self.n, self.rng)

            def entry(idx: int, wire: bool):
                return shares[idx]
        else:
            # Residual at this peer's own index; mask shares travel as
            # PRG seeds ("seed") or the expanded vectors ("seed-dense").
            seeded = seeded_zero_sum_shares(
                self.model, self.n, self.rng, residual_index=self.position
            )

            def entry(idx: int, wire: bool):
                if wire and self.share_codec == "seed":
                    return seeded.share(idx)
                return seeded.expand(idx)

        my_bundle = {}
        for j in range(self.n):
            wire = j != self.position
            bundle = {
                idx: entry(idx, wire)
                for idx in shares_held_by(j, self.n, self.k)
            }
            if not wire:
                my_bundle = bundle
            else:
                msg = SharesBundle(self.position, bundle)
                self.send(
                    self.members[j], msg, size_bits=msg.size_bits(),
                    kind="sac.share",
                )
        self._accept_bundle(self.position, my_bundle)

    def _accept_bundle(self, origin: int, shares: dict) -> None:
        if origin in self._bundles:
            return
        self._bundles[origin] = shares
        if len(self._bundles) == self.n:
            if _obs.OBS.enabled:
                self._emit("sac.bundles_complete")
            self._compute_subtotals()

    # ------------------------------------------------------------- phase 2
    def _compute_subtotals(self) -> None:
        for idx in self.held:
            total = None
            for origin in range(self.n):
                part = self._bundles[origin][idx]
                if isinstance(part, SeedShare):
                    # The sender expanded this seed when it split its
                    # model; the memo hands back that very array.
                    part = part.expand()
                if total is None:
                    total = part.copy()
                else:
                    total += part
            self._subtotals[idx] = total
        leader_holds = set(shares_held_by(self.leader_pos, self.n, self.k))
        if (
            self.position != self.leader_pos
            and not self._sent_primary
            and self.position not in leader_holds
        ):
            # Alg. 4 lines 14-16: only the k-1 peers whose primary
            # subtotal the leader does not hold itself send theirs.
            self._sent_primary = True
            if _obs.OBS.enabled:
                self._emit("sac.subtotal_sent", index=self.position)
            msg = Subtotal(self.position, self._subtotals[self.position])
            self.send(self.leader, msg, size_bits=msg.size_bits(), kind="sac.subtotal")
        if self.position == self.leader_pos:
            # Arm the dropout detector (Alg. 4 line 17) and finish right
            # away if this peer already holds every subtotal (k = 1).
            self.set_timer(self.subtotal_timeout_ms, self._check_missing)
            self._maybe_finish()

    # ------------------------------------------------- phase 3 (leader only)
    def _check_missing(self) -> None:
        if self.average is not None:
            return
        missing = set(range(self.n)) - set(self._subtotals)
        for idx in sorted(missing):
            holders = [
                h
                for h in holders_of_share(idx, self.n, self.k)
                if h != self.position
                and not self.network.is_crashed(self.members[h])
            ]
            if not holders:
                continue
            if idx in self._recovery_pending:
                # A full timeout passed with the fetch unanswered (the
                # request or its reply was lost, or the holder crashed
                # after our liveness check): rotate to the next
                # surviving holder instead of stalling on the first one
                # forever.
                self._recovery_attempts[idx] += 1
            else:
                self._recovery_pending.add(idx)
                self._recovery_attempts.setdefault(idx, 0)
            holder = holders[self._recovery_attempts[idx] % len(holders)]
            if _obs.OBS.enabled:
                self._emit(
                    "sac.recover.request", index=idx,
                    holder=self.members[holder],
                    attempt=self._recovery_attempts[idx],
                )
                _obs.OBS.metrics.counter(
                    "sac_recoveries_total",
                    "Share-recovery fetches issued by SAC leaders.",
                ).inc()
            req = RecoveryRequest(idx)
            self.send(
                self.members[holder], req,
                size_bits=req.size_bits(), kind="sac.recover",
            )
        if missing:
            self.set_timer(self.subtotal_timeout_ms, self._check_missing)

    def _maybe_finish(self) -> None:
        if self.position != self.leader_pos or self.average is not None:
            return
        if len(self._subtotals) < self.n:
            return
        total = None
        for idx in range(self.n):
            v = self._subtotals[idx]
            if total is None:
                total = v.copy()
            else:
                total += v
        total /= self.n
        self.average = total
        self.finish_time = self.sim.now
        obs = _obs.OBS
        if obs.enabled and obs.causal:
            self.finish_ctx = _causal.current()
        if _obs.OBS.enabled:
            start = self._round_start or 0.0
            dur = self.sim.now - start
            # t_ms is the slice *start* so the Chrome exporter renders the
            # round as a [start, start+dur] bar.
            _obs.OBS.emit(
                "sac.complete", t_ms=start, node=self.node_id,
                dur_ms=dur, group=getattr(self, "group", None),
                n=self.n, k=self.k, recovered=sorted(self.recovered),
            )
            group = getattr(self, "group", None)
            _obs.OBS.metrics.histogram(
                "sac_round_ms",
                "Virtual-time duration of SAC rounds, share-out to average.",
                labels=("group",),
            ).labels(group=str(group)).observe(dur)
        self.on_average(total)

    def on_average(self, average: np.ndarray) -> None:
        """Hook for embedding protocols (e.g. the two-layer round)."""

    # -------------------------------------------------------------- inbound
    def on_message(self, src: int, msg) -> None:
        if isinstance(msg, SharesBundle):
            self._accept_bundle(msg.origin, msg.shares)
        elif isinstance(msg, Subtotal):
            if msg.index in self._recovery_pending:
                self.recovered.add(msg.index)
                self._recovery_pending.discard(msg.index)
                if _obs.OBS.enabled:
                    self._emit("sac.recover.fetched", index=msg.index, holder=src)
            self._subtotals[msg.index] = msg.value
            self._maybe_finish()
        elif isinstance(msg, RecoveryRequest):
            if msg.index in self._subtotals:
                reply = Subtotal(msg.index, self._subtotals[msg.index])
                self.send(src, reply, size_bits=reply.size_bits(), kind="sac.subtotal")
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown SAC message {type(msg).__name__}")


def _gone_for_good(network: Network, node_id: int) -> bool:
    """Crashed with no recovery scheduled (god's-eye permanence check)."""
    return network.is_crashed(node_id) and not network.may_recover(node_id)


def classify_sac_failure(
    peers: Sequence[SacProtocolPeer],
    leader_pos: int,
    network: Network,
) -> Optional[RoundOutcome]:
    """Early, *sound* unrecoverability check for one SAC group.

    Returns a typed failure only when completion is provably impossible
    from crash permanence alone — the simulated stand-in for the perfect
    failure detector a real deployment approximates with timeouts.  It
    inspects peer state (bundles, subtotals) with god's-eye access;
    transient causes (loss, partitions that may heal) never trigger it,
    so a ``None`` here just means "keep running".
    """
    leader_peer = peers[leader_pos]
    n, k = leader_peer.n, leader_peer.k
    members = leader_peer.members
    if _gone_for_good(network, members[leader_pos]):
        return RoundOutcome(
            UNRECOVERABLE_DROPOUT,
            reason=(
                f"leader {members[leader_pos]} crashed with no recovery"
                " scheduled; SAC needs Raft re-election to continue"
            ),
        )
    for idx in range(n):
        if idx in leader_peer._subtotals:
            continue
        supply_possible = False
        for h in holders_of_share(idx, n, k):
            if _gone_for_good(network, members[h]):
                continue
            holder_peer = peers[h]
            if idx in holder_peer._subtotals:
                supply_possible = True
                break
            # The holder can still compute subtotal ``idx`` iff every
            # origin's bundle either already arrived or could still be
            # resent (origin alive or recovering).  Lost-but-alive cases
            # are conservatively counted as possible; the round timeout
            # owns them.
            if all(
                o in holder_peer._bundles
                or not _gone_for_good(network, members[o])
                for o in range(n)
            ):
                supply_possible = True
                break
        if not supply_possible:
            dead_holders = sorted(
                members[h]
                for h in holders_of_share(idx, n, k)
                if _gone_for_good(network, members[h])
            )
            if dead_holders:
                reason = (
                    f"share index {idx} is lost: holders {dead_holders}"
                    " crashed and no surviving peer can reconstruct its"
                    " subtotal"
                )
            else:
                dead_origins = sorted(
                    members[o] for o in range(n)
                    if _gone_for_good(network, members[o])
                )
                reason = (
                    f"share index {idx} is lost: peers {dead_origins}"
                    " crashed before their share bundles were delivered"
                )
            return RoundOutcome(UNRECOVERABLE_DROPOUT, reason=reason)
    return None


def classify_sac_timeout(
    leader_peer: SacProtocolPeer,
    network: Network,
) -> RoundOutcome:
    """Name the most likely cause after a round idled to its timeout."""
    members = leader_peer.members
    leader_id = leader_peer.node_id
    partition = network._partition
    if partition is not None:
        leader_group = partition.get(leader_id)
        cut_off = [
            m for m in members
            if m != leader_id
            and not network.is_crashed(m)
            and partition.get(m) != leader_group
        ]
        if cut_off:
            return RoundOutcome(
                LEADER_ISOLATED,
                reason=(
                    f"partition separates leader {leader_id} from alive"
                    f" peers {cut_off}"
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
    missing = sorted(set(range(leader_peer.n)) - set(leader_peer._subtotals))
    return RoundOutcome(
        TIMED_OUT,
        reason=f"round timeout with subtotals missing for indices {missing}",
    )


def reliable_transport_opts(
    delay_ms: float, transport_opts: dict | None
) -> dict:
    """Default the reliable channel's RTO to two round trips."""
    opts = dict(transport_opts or {})
    opts.setdefault("base_rto_ms", 4.0 * delay_ms)
    return opts


def run_sac_protocol(
    models: Sequence[np.ndarray],
    k: int,
    leader: int = 0,
    delay_ms: float = 15.0,
    seed: int = 0,
    crash_at: dict[int, float] | None = None,
    subtotal_timeout_ms: float = 100.0,
    round_timeout_ms: float = 10_000.0,
    bandwidth_bps: float | None = None,
    serialize_uplink: bool = False,
    share_codec: str = "dense",
    loss_rate: float = 0.0,
    transport: str = "fire_and_forget",
    transport_opts: dict | None = None,
    schedule: "FaultSchedule | None" = None,
    trace_id: str | None = None,
) -> ProtocolResult:
    """Execute one k-out-of-n SAC round on the simulated network.

    Parameters
    ----------
    models:
        One weight vector per peer.
    crash_at:
        ``{peer_id: time_ms}`` crash injection (relative to round start).
    subtotal_timeout_ms:
        How long the leader waits for missing subtotals before fetching
        them from replica holders.
    share_codec:
        ``"dense"`` (default) ships materialized share bundles (Alg. 1
        splits); ``"seed"`` ships PRG seeds for mask shares and full
        vectors only for residual replicas; ``"seed-dense"`` materializes
        the seed-derived shares on the wire (control arm).
    loss_rate:
        Probability that any physical transmission is dropped.
    transport:
        ``"fire_and_forget"`` (seed default, bit-identical) or
        ``"reliable"`` for the ACK/retransmit channel — required for the
        round to survive a non-zero ``loss_rate`` deterministically.
    transport_opts:
        Overrides for the reliable channel (``base_rto_ms``, ``backoff``,
        ``max_attempts``); ``base_rto_ms`` defaults to ``4 * delay_ms``.
    schedule:
        Optional :class:`repro.chaos.FaultSchedule` armed on the round's
        simulator — crashes/recoveries, partition windows, loss windows
        and delay spikes all land mid-flight.
    """
    n = len(models)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 0 <= leader < n:
        raise ValueError("leader out of range")
    if crash_at and leader in crash_at:
        raise ValueError("crashing the leader needs Raft re-election, not SAC")
    check_transport(transport)
    if transport == "reliable":
        transport_opts = reliable_transport_opts(delay_ms, transport_opts)

    sim = Simulator()
    trace = TraceRecorder()
    rng = np.random.default_rng(seed)
    network = Network(
        sim, latency=FixedLatency(delay_ms), rng=rng, trace=trace,
        loss_rate=loss_rate,
        bandwidth_bps=bandwidth_bps, serialize_uplink=serialize_uplink,
        transport=transport, transport_opts=transport_opts,
    )
    network.trace_id = trace_id if trace_id is not None else f"sac:s{seed}"
    peers = [
        SacProtocolPeer(
            i, sim, network, n, k, leader, models[i],
            np.random.default_rng(rng.integers(2**63)),
            subtotal_timeout_ms,
            share_codec=share_codec,
        )
        for i in range(n)
    ]
    for peer in peers:
        sim.schedule(0.0, peer.start_round)
    for pid, t in (crash_at or {}).items():
        sim.schedule(t, lambda pid=pid: network.crash(pid))
    if schedule is not None:
        schedule.validate_nodes(range(n))
        schedule.arm(sim, network)

    leader_peer = peers[leader]
    # Periodic god's-eye liveness check: detects provably unrecoverable
    # rounds (and exhausted retransmit budgets) early instead of idling
    # to round_timeout_ms.  Timer-only — it sends no messages and draws
    # no randomness, so fault-free runs stay bit-identical to the seed.
    fatal: list[RoundOutcome] = []

    def _check_fatal() -> None:
        if leader_peer.average is not None or fatal:
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
            out = classify_sac_failure(peers, leader, network)
        if out is not None:
            fatal.append(out)
        else:
            sim.schedule(subtotal_timeout_ms, _check_fatal)

    sim.schedule(subtotal_timeout_ms, _check_fatal)
    sim.run_while(
        lambda: leader_peer.average is None
        and sim.now < round_timeout_ms
        and not fatal
    )
    if leader_peer.average is not None:
        outcome = OUTCOME_COMPLETED
    elif fatal:
        outcome = fatal[0]
    else:
        outcome = classify_sac_timeout(leader_peer, network)
    recovered = tuple(sorted(leader_peer.recovered))
    result = ProtocolResult(
        average=leader_peer.average,
        outcome=outcome,
        finish_time_ms=leader_peer.finish_time,
        bits_sent=trace.total_bits,
        messages_sent=trace.total_messages,
        recovered_shares=recovered,
        retransmits=network.reliable.retransmits if network.reliable else 0,
        drops=trace.total_dropped,
    )
    # Free the round on return, not at the next cyclic collection (see
    # Network.close); emptying the closure cell breaks _check_fatal's
    # reference to itself.
    network.close()
    del _check_fatal
    return result
