"""The four benchmark workloads, each a closed loop of timed units.

Every workload has the same shape:

- ``setup(seed)`` builds all inputs and program state from the workload
  seed (untimed by the loop, reported as ``setup_s``);
- ``unit(state, i)`` runs unit ``i`` (a round, or a trial set) and is the
  only timed call;
- ``check(state, i, out)`` verifies the unit's outputs and returns a list
  of failure messages (empty when the unit is correct);
- ``summary(state, outs)`` turns the units' outputs into workload
  metrics (simulated times, bits, losses).

Everything runs in this process with ``parallel="off"``.  See README.md
for why each workload exists and what each metric should move.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.chaos.scale import scale_schedule, scale_topology
from repro.core.costs import two_layer_cost_from_topology
from repro.core.topology import Topology
from repro.core.wire_round import run_two_layer_wire_round
from repro.core.xlayer_wire import run_xlayer_wire_round
from repro.data.partition import partition_iid
from repro.data.synthetic import synthetic_cifar10
from repro.fl.peer import FLPeer
from repro.nn.zoo import PAPER_CNN_PARAMS, paper_cnn_cifar10
from repro.secure.replicated import shares_held_by
from repro.twolayer_raft.scenarios import check_election_safety
from repro.twolayer_raft.system import TwoLayerRaftSystem

#: max-abs error allowed between an aggregate and the float64 mean of
#: its inputs (the protocol sums in a different order; 5.6e-16 measured).
MEAN_TOL = 1e-9

#: the Fig. 10-12 timeout bases T (timeouts ~ U(T, 2T)).
RAFT_TIMEOUT_BASES = (50.0, 100.0, 150.0, 200.0)


def _unit_seed(seed: int, i: int | None) -> int:
    """Simulator seed of unit ``i`` (``None``: set-up), from the workload seed."""
    key = [seed, 0] if i is None else [seed, 1, i]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def _mean(models) -> np.ndarray:
    acc = np.array(models[0], dtype=np.float64, copy=True)
    for m in models[1:]:
        acc += m
    acc /= len(models)
    return acc


def _check_aggregate(average, expected) -> list[str]:
    if average is None:
        return ["no aggregate produced"]
    err = float(np.max(np.abs(np.asarray(average) - expected)))
    if not err <= MEAN_TOL:
        return [f"aggregate off the float64 mean by {err:.3e} > {MEAN_TOL}"]
    return []


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


# --------------------------------------------------------------- fl_round_cnn
@dataclass
class FlState:
    peers: list
    topology: Topology
    x_test: np.ndarray
    y_test: np.ndarray
    global_weights: np.ndarray
    seed: int
    n_params: int


class FlRoundCnn:
    """Fig. 6-7: N=10 peers in two subgroups of n=5, Fig. 5 CNN, Adam at
    lr 1e-4, batch 50, one minibatch per peer per round, then a dense
    n-out-of-n two-layer wire round and a held-out evaluation."""

    name = "fl_round_cnn"
    n_peers, n_groups, batch, n_test = 10, 2, 50, 200

    def setup(self, seed: int) -> FlState:
        rng = np.random.default_rng([seed, 1])
        ds = synthetic_cifar10(
            n_train=self.n_peers * self.batch, n_test=self.n_test, rng=rng
        )
        shards = partition_iid(ds.y_train, self.n_peers, rng)
        peers = [
            FLPeer(
                pid, paper_cnn_cifar10(np.random.default_rng([seed, 1, pid])),
                ds.x_train[idx], ds.y_train[idx],
                np.random.default_rng([seed, 2, pid]),
                lr=1e-4, batch_size=self.batch,
            )
            for pid, idx in enumerate(shards)
        ]
        global_weights = peers[0].get_weights().copy()
        for peer in peers:
            peer.set_weights(global_weights)
            # Fill the im2col index caches (lazy, once per input shape).
            peer.model.forward(peer.x[:1])
        return FlState(
            peers=peers,
            topology=Topology.by_group_count(self.n_peers, self.n_groups),
            x_test=ds.x_test, y_test=ds.y_test,
            global_weights=global_weights, seed=seed,
            n_params=global_weights.size,
        )

    def unit(self, st: FlState, i: int) -> dict:
        for peer in st.peers:
            peer.set_weights(st.global_weights)
        losses = [peer.local_update(epochs=1) for peer in st.peers]
        models = [peer.get_weights() for peer in st.peers]
        res = run_two_layer_wire_round(
            st.topology, models, seed=_unit_seed(st.seed, i), parallel="off"
        )
        test_loss = test_acc = None
        if res.average is not None:
            st.global_weights = res.average
            st.peers[0].set_weights(res.average)
            test_loss, test_acc = st.peers[0].evaluate(st.x_test, st.y_test)
        return {
            "round": i, "result": res, "models": models, "train_losses": losses,
            "test_loss": test_loss, "test_acc": test_acc,
            "samples": sum(p.n_samples for p in st.peers),
        }

    def check(self, st: FlState, i: int, out: dict) -> list[str]:
        res = out["result"]
        errors = []
        if not res.outcome.ok:
            errors.append(f"round outcome {res.outcome.status}")
        errors += _check_aggregate(res.average, _mean(out["models"]))
        expected_bits = two_layer_cost_from_topology(st.topology, st.n_params)
        if res.bits_sent != expected_bits:
            errors.append(
                f"wire bits {res.bits_sent} != closed form {expected_bits}"
            )
        if not all(math.isfinite(v) for v in out["train_losses"]):
            errors.append("non-finite training loss")
        if out["test_loss"] is None or not math.isfinite(out["test_loss"]):
            errors.append("non-finite test loss")
        return errors

    def summary(self, st: FlState, outs: list[dict]) -> dict:
        # After the first round, so the loss compares across commits
        # however many rounds fit in a run.
        first = outs[0]
        return {
            "sim_round_ms": _median(o["result"].finish_time_ms for o in outs),
            "wire_gbits": _median(o["result"].bits_sent / 1e9 for o in outs),
            "test_loss": first["test_loss"] if first["round"] == 0 else None,
            "test_acc": first["test_acc"] if first["round"] == 0 else None,
            "train_samples": sum(o["samples"] for o in outs),
        }


# --------------------------------------------------------------- agg_seed_ft
@dataclass
class AggState:
    topology: Topology
    models: list
    expected: np.ndarray
    victim: int
    seed: int


class AggSeedFt:
    """Fig. 13/14: N=30 peers in six subgroups of n=5, FT-SAC with k=3 and
    the seed share codec on |w| = 1,250,858 float64 models; one subtotal
    sender crashes at t=20 ms, which forces an Alg. 4 recovery."""

    name = "agg_seed_ft"
    n_peers, n, k, crash_ms = 30, 5, 3, 20.0

    def setup(self, seed: int) -> AggState:
        rng = np.random.default_rng([seed, 3])
        topology = Topology.by_group_size(self.n_peers, self.n)
        models = [rng.normal(size=PAPER_CNN_PARAMS) for _ in range(self.n_peers)]
        # Peers whose primary subtotal the leader does not hold send it to
        # the leader; crashing one after the shares landed (t=15 ms) but
        # before its subtotal arrives forces the replica fetch.
        senders = []
        for gi, group in enumerate(topology.groups):
            lead_pos = group.index(topology.leaders[gi])
            held = set(shares_held_by(lead_pos, len(group), self.k))
            senders += [p for pos, p in enumerate(group) if pos not in held]
        return AggState(
            topology=topology, models=models, expected=_mean(models),
            victim=int(rng.choice(senders)), seed=seed,
        )

    def unit(self, st: AggState, i: int) -> dict:
        res = run_two_layer_wire_round(
            st.topology, st.models, k=self.k, share_codec="seed",
            crash_at={st.victim: self.crash_ms},
            seed=_unit_seed(st.seed, i), parallel="off",
        )
        return {"result": res}

    def check(self, st: AggState, i: int, out: dict) -> list[str]:
        res = out["result"]
        errors = []
        if not res.outcome.ok:
            errors.append(f"round outcome {res.outcome.status}")
        errors += _check_aggregate(res.average, st.expected)
        if not res.bits_by_kind.get("sac.recover"):
            errors.append("the crash did not trigger an Alg. 4 recovery")
        return errors

    def summary(self, st: AggState, outs: list[dict]) -> dict:
        return {
            "sim_round_ms": _median(o["result"].finish_time_ms for o in outs),
            # the crashed subtotal is fetched from a replica holder; the
            # round completes once every survivor holds the global model.
            "sim_recovery_ms": _median(
                o["result"].finish_time_ms - self.crash_ms for o in outs
            ),
            "wire_gbits": _median(o["result"].bits_sent / 1e9 for o in outs),
        }


# --------------------------------------------------------------- xlayer_chaos
@dataclass
class XLayerState:
    topology: object
    models: np.ndarray
    expected: np.ndarray
    schedule: object
    seed: int


class XLayerChaos:
    """``run_scale_trial`` shape: a depth-10 X-layer tree of 118,096 peers,
    d=8, 20% frame loss plus the scale fault schedule, reliable transport.

    With 12 attempts about one round in a hundred exhausts a send and
    times out (seen at seed 109, round 1); 20 attempts make that ~1e-6
    times as likely, so every round is expected to complete.
    """

    name = "xlayer_chaos"
    target_peers, depth, dim, loss_rate, max_attempts = 100_000, 10, 8, 0.2, 20

    def setup(self, seed: int) -> XLayerState:
        topology = scale_topology(self.target_peers, self.depth)
        for layer in range(1, self.depth + 1):
            topology.member_matrix(layer)  # lazy per-layer cache
        models = np.random.default_rng([seed, 4]).normal(
            size=(topology.n_peers, self.dim)
        )
        return XLayerState(
            topology=topology, models=models, expected=models.mean(axis=0),
            schedule=scale_schedule(topology), seed=seed,
        )

    def unit(self, st: XLayerState, i: int) -> dict:
        res = run_xlayer_wire_round(
            st.topology, st.models, seed=_unit_seed(st.seed, i),
            engine="wave", parallel="off", loss_rate=self.loss_rate,
            transport="reliable",
            transport_opts={"max_attempts": self.max_attempts},
            schedule=st.schedule,
        )
        return {"result": res}

    def check(self, st: XLayerState, i: int, out: dict) -> list[str]:
        res = out["result"]
        errors = []
        if not res.outcome.ok:
            errors.append(f"round outcome {res.outcome.status}")
        errors += _check_aggregate(res.average, st.expected)
        return errors

    def summary(self, st: XLayerState, outs: list[dict]) -> dict:
        return {
            "sim_round_ms": _median(o["result"].finish_time_ms for o in outs),
            "wire_gbits": _median(o["result"].bits_sent / 1e9 for o in outs),
        }


# --------------------------------------------------------------- raft_failover
@dataclass
class RaftState:
    seed: int
    topology: Topology


def _first_event(system, t0: float, kind: str, pred=lambda e: True):
    for event in system.events:
        if event.time > t0 and event.kind == kind and pred(event):
            return event
    return None


def _run_until_event(system, t0, kind, pred=lambda e: True, max_ms=60_000.0):
    deadline = t0 + max_ms
    while system.sim.now < deadline:
        event = _first_event(system, t0, kind, pred)
        if event is not None:
            return event
        system.run_for(10.0)
    return _first_event(system, t0, kind, pred)


class RaftFailover:
    """Fig. 10-12: N=25 peers in five subgroups, 15 ms delay.

    A unit is a trial set: one trial for each T in {50, 100, 150, 200} ms
    and each crash kind, so every unit does the same mix of work.  A
    trial builds a fresh two-layer Raft system, stabilizes it, settles
    for 2 s plus a random heartbeat phase, crashes a subgroup leader
    (Fig. 10/11) or the FedAvg leader (Fig. 12) and runs until the new
    subgroup leader has joined the FedAvg layer.
    """

    name = "raft_failover"
    n_peers, n_groups, settle_ms = 25, 5, 2_000.0
    kinds = ("sub", "fed")
    setup_deployments = 8

    def _build(self, st: RaftState, base: float, trial_seed: int):
        system = TwoLayerRaftSystem(
            st.topology, timeout_base_ms=base, seed=trial_seed
        )
        system.stabilize()
        return system

    def setup(self, seed: int) -> RaftState:
        st = RaftState(
            seed=seed, topology=Topology.by_group_count(self.n_peers, self.n_groups)
        )
        # Stabilized deployments for every timeout base and a few seeds:
        # the cost of bringing the system up, and a check that it does.
        rng = np.random.default_rng(_unit_seed(seed, None))
        for base in RAFT_TIMEOUT_BASES:
            for _ in range(self.setup_deployments):
                self._build(st, base, int(rng.integers(2**63)))
        return st

    def _trial(self, st: RaftState, base: float, kind: str, trial_seed: int) -> dict:
        wall0 = time.perf_counter()
        system = self._build(st, base, trial_seed)
        jitter = float(np.random.default_rng(trial_seed).uniform(0, 4 * base))
        system.run_for(self.settle_ms + jitter)
        fed_leader = system.fed_leader()
        if kind == "sub":
            gi = 0
            victim = system.subgroup_leader(gi)
            while victim is None or victim == fed_leader:
                gi = (gi + 1) % system.topology.n_groups
                victim = system.subgroup_leader(gi)
        else:
            victim = fed_leader
            gi = system.peers[victim].group_index
        t0 = system.sim.now
        wall1 = time.perf_counter()
        system.crash(victim)
        fed_elected = None
        if kind == "fed":
            fed_elected = _run_until_event(system, t0, "fed_leader")
        elected = _run_until_event(system, t0, "sub_leader", lambda e: e.group == gi)
        joined = None
        if elected is not None:
            joined = _run_until_event(
                system, t0, "joined_fedavg", lambda e: e.peer == elected.peer
            )
        wall2 = time.perf_counter()
        return {
            "system": system, "base": base, "kind": kind,
            "wall_s": wall2 - wall0, "failover_wall_s": wall2 - wall1,
            "sub_elect_ms": elected.time - t0 if elected else None,
            "join_ms": joined.time - t0 if joined else None,
            "fed_elect_ms": fed_elected.time - t0 if fed_elected else None,
        }

    def unit(self, st: RaftState, i: int) -> dict:
        plan = [(k, b) for k in self.kinds for b in RAFT_TIMEOUT_BASES]
        return {"trials": [
            self._trial(st, base, kind, _unit_seed(st.seed, i * len(plan) + j))
            for j, (kind, base) in enumerate(plan)
        ]}

    def check(self, st: RaftState, i: int, out: dict) -> list[str]:
        errors = []
        out["messages"] = out["bits"] = out["events"] = 0
        for t in out["trials"]:
            system = t.pop("system")  # drop the deployment once checked
            out["messages"] += system.trace.total_messages
            out["bits"] += system.trace.total_bits
            out["events"] += system.sim.events_processed
            where = f"T={t['base']:.0f} {t['kind']}-leader trial"
            errors += [f"{where}: {v}" for v in check_election_safety(system.events)]
            if t["sub_elect_ms"] is None:
                errors.append(f"{where}: no new subgroup leader elected")
            if t["join_ms"] is None:
                errors.append(f"{where}: new subgroup leader never joined FedAvg")
            if t["kind"] == "fed" and t["fed_elect_ms"] is None:
                errors.append(f"{where}: no new FedAvg leader elected")
        return errors

    def summary(self, st: RaftState, outs: list[dict]) -> dict:
        trials = [t for o in outs for t in o["trials"]]
        sub = [t for t in trials if t["kind"] == "sub"]
        fed = [t for t in trials if t["kind"] == "fed"]
        per_base = {}
        for base in RAFT_TIMEOUT_BASES:
            s = [t for t in sub if t["base"] == base]
            f = [t for t in fed if t["base"] == base]
            per_base[base] = {
                "n_sub": len(s), "n_fed": len(f),
                "fig10_ms": _mean_or_none(t["sub_elect_ms"] for t in s),
                "fig11_ms": _mean_or_none(t["join_ms"] for t in s),
                "fig12_ms": _mean_or_none(_full_recovery(t) for t in f),
            }
        return {
            # a trial's simulated length: crash until full recovery.
            "sim_round_ms": _median(_full_recovery(t) for t in trials),
            "sim_recovery_ms": _median(t["join_ms"] for t in sub),
            "sub_elect_ms": _median(t["sub_elect_ms"] for t in sub),
            "fed_elect_ms": _median(t["fed_elect_ms"] for t in fed),
            "wire_gbits": _median(o["bits"] / 1e9 for o in outs),
            "trials": len(trials),
            "messages_per_trial": sum(o["messages"] for o in outs) / len(trials),
            "per_base": per_base,
        }


def _full_recovery(out: dict):
    """Crash until the last of re-election(s) and FedAvg re-join."""
    parts = [out[k] for k in ("sub_elect_ms", "join_ms", "fed_elect_ms")]
    return None if None in parts[:2] else max(p for p in parts if p is not None)


def _mean_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else None


WORKLOADS = {
    w.name: w for w in (FlRoundCnn(), AggSeedFt(), XLayerChaos(), RaftFailover())
}
