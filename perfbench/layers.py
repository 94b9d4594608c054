"""Which ``repro`` functions are traced, under which span name.

Each span name belongs to one layer (the prefix before the first dot).
``install`` wraps the public entry points of every layer, plus the Raft
timer callbacks through which timer-driven work enters the raft layer.
It runs once per process; calls made before it are not traced.
"""

from __future__ import annotations

import importlib

from .spans import SpanRecorder, wrap_function, wrap_method


def _tally_expand(rec: SpanRecorder, out) -> None:
    rec.count("secure.seed_expand_values", out.size)


def install(rec: SpanRecorder) -> None:
    mod = importlib.import_module
    chaos_schedule = mod("repro.chaos.schedule")
    chaos_timeline = mod("repro.chaos.timeline")
    wire_round = mod("repro.core.wire_round")
    xlayer_wire = mod("repro.core.xlayer_wire")
    fl_fedavg = mod("repro.fl.fedavg")
    fl_peer = mod("repro.fl.peer")
    nn_layers = mod("repro.nn.layers")
    nn_model = mod("repro.nn.model")
    nn_optim = mod("repro.nn.optim")
    raft_node = mod("repro.raft.node")
    batched = mod("repro.secure.batched")
    protocol = mod("repro.secure.protocol")
    seedshare = mod("repro.secure.seedshare")
    sim_events = mod("repro.simnet.events")
    sim_network = mod("repro.simnet.network")
    tl_system = mod("repro.twolayer_raft.system")

    # nn: one span per layer kind and direction.
    for cls, span in (
        (nn_layers.Conv2D, "nn.conv2d"),
        (nn_layers.MaxPool2D, "nn.maxpool2d"),
        (nn_layers.Dense, "nn.dense"),
    ):
        wrap_method(cls, "forward", rec, f"{span}.forward")
        wrap_method(cls, "backward", rec, f"{span}.backward")
    for cls in (nn_layers.ReLU, nn_layers.Dropout, nn_layers.Flatten,
                nn_layers.Softmax):
        wrap_method(cls, "forward", rec, "nn.elementwise")
        wrap_method(cls, "backward", rec, "nn.elementwise")
    wrap_method(nn_model.Sequential, "train_batch", rec, "nn.train_batch")
    wrap_method(nn_model.Sequential, "evaluate", rec, "nn.evaluate")
    wrap_method(nn_optim.Adam, "step", rec, "nn.optim_step")

    # fl / data: the peer's round entry points and FedAvg.
    wrap_method(fl_peer.FLPeer, "local_update", rec, "fl.local_update")
    wrap_method(fl_peer.FLPeer, "set_weights", rec, "fl.weights_io")
    wrap_method(fl_peer.FLPeer, "get_weights", rec, "fl.weights_io")
    wrap_function(fl_fedavg, "fedavg", rec, "fl.fedavg")

    # secure: seed expansion, the batched share kernels, share splitting,
    # and the SAC actor's handlers (whatever share math they do inline).
    wrap_method(seedshare.SeedShare, "expand", rec, "secure.seed_expand",
                tally=_tally_expand)
    for attr, fn in list(vars(batched).items()):
        if (callable(fn) and not attr.startswith("_")
                and getattr(fn, "__module__", None) == batched.__name__):
            wrap_function(batched, attr, rec, "secure.batched")
    wrap_function(seedshare, "seeded_zero_sum_shares", rec, "secure.share_split")
    wrap_method(protocol.SacProtocolPeer, "start_round", rec, "secure.protocol")
    wrap_method(protocol.SacProtocolPeer, "on_message", rec, "secure.protocol")

    # simnet: the event loop, per-message sends and vectorized waves.
    for attr in ("run", "run_until", "run_while"):
        wrap_method(sim_events.Simulator, attr, rec, "simnet.run")
    wrap_method(sim_network.Network, "send", rec, "simnet.send")
    wrap_method(sim_network.Network, "send_batch", rec, "simnet.send_batch")

    # chaos: arming a schedule and the compiled timeline's array queries.
    wrap_method(chaos_schedule.FaultSchedule, "arm", rec, "chaos.timeline")
    for attr in ("max_loss_rate", "loss_rate_at", "crashed_at",
                 "recovery_at_or_after", "link_up_at", "extra_delay_at"):
        wrap_method(chaos_timeline.FaultTimeline, attr, rec, "chaos.timeline")

    # core: the round drivers (their self time is per-round set-up,
    # peer construction and result assembly).
    wrap_function(wire_round, "run_two_layer_wire_round", rec, "core.wire_round")
    wrap_function(xlayer_wire, "run_xlayer_wire_round", rec, "core.xlayer_round")

    # raft: message handling plus the timer entry points.
    wrap_method(raft_node.RaftNode, "handle", rec, "raft")
    for attr in ("_begin_election", "_on_follower_timeout",
                 "_run_real_election", "_on_heartbeat"):
        wrap_method(raft_node.RaftNode, attr, rec, "raft")

    # twolayer_raft: deployment, stabilization and the system plumbing.
    tl = tl_system.TwoLayerRaftSystem
    wrap_method(tl, "__init__", rec, "twolayer_raft.build")
    wrap_method(tl, "stabilize", rec, "twolayer_raft.stabilize")
    wrap_method(tl, "run_for", rec, "twolayer_raft.run_for")
    wrap_method(tl, "on_system_message", rec, "twolayer_raft.route")
    for attr in ("crash", "subgroup_leader", "fed_leader"):
        wrap_method(tl, attr, rec, "twolayer_raft.query")
    wrap_method(tl_system.PeerProcess, "on_message", rec, "twolayer_raft.route")
