"""The complete P2P federated-learning system — aggregation over two-layer Raft.

This module glues the two halves of the paper together the way Sec. VI
describes the implementation: the **federated-learning part** (local
training + two-layer SAC/FedAvg aggregation) runs on top of the **Raft
part** (two-layer Raft on the simulated network), which supplies the
current subgroup leaders and recovers them after crashes.

Typical use::

    system = P2PFLSystem(model_factory, dataset, P2PFLConfig(...))
    system.run_rounds(5)
    system.crash_peer(system.raft.subgroup_leader(0))   # leader crash!
    system.run_rounds(5)                                # keeps training

Crashed peers neither train nor exchange shares; a subgroup whose Raft
leader is still being re-elected sits a round out (exactly the "slow
subgroup" behaviour of Fig. 8), and rejoins once two-layer Raft has
healed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core.session import _select_groups
from .core.topology import Topology
from .core.two_layer import TwoLayerAggregator
from .data.partition import peer_datasets
from .data.synthetic import Dataset
from .fl.metrics import MetricsHistory, RoundMetrics
from .fl.peer import FLPeer
from .nn.model import Sequential
from .nn.serialize import get_flat_params, set_flat_params
from .secure.errors import SacAbort
from .secure.sac import DEFAULT_BITS_PER_PARAM
from .twolayer_raft.system import TwoLayerRaftSystem


@dataclass(frozen=True)
class P2PFLConfig:
    """Configuration of the integrated system (defaults per Sec. VI)."""

    n_peers: int = 9
    group_size: int = 3
    threshold: int | None = 2
    distribution: str = "iid"
    epochs: int = 1
    batch_size: int = 50
    lr: float = 1e-4
    fraction: float = 1.0
    bits_per_param: int = DEFAULT_BITS_PER_PARAM
    #: virtual milliseconds of Raft time between FL rounds
    round_interval_ms: float = 1_000.0
    timeout_base_ms: float = 50.0
    seed: int = 0
    #: run the per-subgroup SAC rounds concurrently ("threads");
    #: bit-identical to "off" by the repro.par determinism contract
    parallel: str = "off"


class P2PFLSystem:
    """Federated learning backed by the two-layer Raft (the full paper system)."""

    def __init__(
        self,
        model_factory: Callable[[np.random.Generator], Sequential],
        dataset: Dataset,
        config: P2PFLConfig,
    ) -> None:
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.dataset = dataset
        self.topology = Topology.by_group_size(config.n_peers, config.group_size)

        # Raft backend (leader election + failover).
        self.raft = TwoLayerRaftSystem(
            self.topology,
            timeout_base_ms=config.timeout_base_ms,
            seed=config.seed,
        )
        self.raft.stabilize()

        # FL peers.
        shards = peer_datasets(
            dataset, config.n_peers, config.distribution, self.rng
        )
        self.peers = [
            FLPeer(
                pid,
                model_factory(self.rng),
                x,
                y,
                np.random.default_rng(self.rng.integers(2**63)),
                lr=config.lr,
                batch_size=config.batch_size,
            )
            for pid, (x, y) in enumerate(shards)
        ]
        self._eval_model = model_factory(self.rng)
        self.global_weights = get_flat_params(self.peers[0].model).copy()
        self.aggregator = TwoLayerAggregator(
            self.topology, k=config.threshold,
            bits_per_param=config.bits_per_param, parallel=config.parallel,
        )
        self.history = MetricsHistory()
        self._round = 0

    # ----------------------------------------------------------------- faults
    def crash_peer(self, peer_id: int) -> None:
        """Crash a peer: its Raft endpoints die and it stops training."""
        self.raft.crash(peer_id)

    def recover_peer(self, peer_id: int) -> None:
        self.raft.recover(peer_id)

    def crashed_peers(self) -> set[int]:
        return {
            pid for pid in range(self.config.n_peers)
            if self.raft.network.is_crashed(pid)
        }

    def current_leaders(self) -> list[Optional[int]]:
        """Per-subgroup Raft leaders right now (None while re-electing)."""
        return [
            self.raft.subgroup_leader(gi)
            for gi in range(self.topology.n_groups)
        ]

    # ----------------------------------------------------------------- rounds
    def run_round(self) -> RoundMetrics:
        """One communication round: Raft time advances, alive peers train,
        subgroups with a leader aggregate, the global model updates."""
        cfg = self.config
        self.raft.run_for(cfg.round_interval_ms)
        crashed = self.crashed_peers()
        leaders = self.current_leaders()

        # Local update on every alive peer.
        train_losses = []
        for peer in self.peers:
            if peer.peer_id in crashed:
                continue
            peer.set_weights(self.global_weights)
            train_losses.append(peer.local_update(epochs=cfg.epochs))
        models = [peer.get_weights() for peer in self.peers]

        # Subgroups whose Raft leader is up (and matching fraction p).
        ready = [
            gi
            for gi, leader in enumerate(leaders)
            if leader is not None and leader not in crashed
        ]
        if ready:
            selected = _select_groups(len(ready), cfg.fraction, self.rng)
            if selected is not None:
                ready = [ready[i] for i in selected]
        effective_leaders = [
            leader if leader is not None else self.topology.leaders[gi]
            for gi, leader in enumerate(leaders)
        ]

        comm_bits = 0.0
        if ready:
            try:
                result = self.aggregator.aggregate(
                    models,
                    self.rng,
                    participating_groups=ready,
                    absent=crashed,
                    leaders=effective_leaders,
                )
                self.global_weights = result.average
                comm_bits = result.bits_sent
            except SacAbort:
                pass  # every subgroup failed; keep the old global model

        set_flat_params(self._eval_model, self.global_weights)
        test_loss, test_acc = self._eval_model.evaluate(
            self.dataset.x_test, self.dataset.y_test
        )
        metrics = RoundMetrics(
            round=self._round,
            test_accuracy=test_acc,
            test_loss=test_loss,
            train_loss=float(np.mean(train_losses)) if train_losses else float("nan"),
            comm_bits=comm_bits,
        )
        self.history.append(metrics)
        self._round += 1
        return metrics

    def run_rounds(self, n: int) -> MetricsHistory:
        for _ in range(n):
            self.run_round()
        return self.history
