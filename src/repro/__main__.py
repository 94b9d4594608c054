"""Command-line experiment runner: ``python -m repro <command> [options]``.

Regenerates any table/figure of the paper from the terminal and
optionally dumps the raw series to CSV::

    python -m repro env
    python -m repro fig6  --rounds 100 --peers 10
    python -m repro fig10 --trials 100
    python -m repro fig13
    python -m repro all   --csv out/
    python -m repro trace --trace-out out/trace.json
    python -m repro bench --bench-out BENCH_suite.json
    python -m repro bench --compare OLD.json NEW.json
    python -m repro prof --resources
    python -m repro chaos --plans 25
    python -m repro chaos --scale 100000 --loss 0.2
    python -m repro campaign --rounds 10 --plans 25
    python -m repro xlayer --peers 100000 --loss 0.2 --transport reliable
    python -m repro serve-metrics --metrics-port 9100

Each command accepts only the flags it reads;
``python -m repro <command> --help`` lists them with their defaults.

``trace`` runs the failover + wire-round observability scenario and
writes a JSONL event log, a Prometheus metrics dump, and a Chrome
``trace_event`` timeline (see ``docs/observability.md``).  The artifact
flags also work with every figure command (env, fig6..fig14, multilayer,
all, report, plan): ``--events-out``/``--metrics-out`` capture the run's
events and metrics as a side effect.

``bench`` runs the canonical profiled benchmark suite
(``repro.obs.bench``) and writes a schema-validated ``BENCH_suite.json``;
with ``--compare`` it instead diffs two artifacts and exits non-zero on
any regression — the gate future perf PRs cite for before/after numbers.

``prof`` runs the failover + wire-round workload under the phase
profiler and prints the span call tree; with ``--resources`` it also
wraps each phase in the live :class:`~repro.obs.prof.ResourceProfiler`
(tracemalloc deltas, peak RSS) and prints the process/simnet/obs
resource snapshot.

``chaos`` runs seeded fault-injection campaigns (``repro.chaos``)
against the SAC, two-layer and Raft stacks and prints the
pass/degrade/fail matrix; it exits non-zero iff any trial violates a
safety invariant (see ``docs/robustness.md``).  With ``--scale N`` it
instead runs one chaos-at-scale trial: a lossy reliable X-layer round
at ``N`` peers under the deterministic scale fault schedule
(``repro.chaos.scale``), printing transport counters and heap
telemetry.

``campaign`` runs multi-round churn campaigns (``repro.campaign``):
each seeded plan evolves the membership between rounds
(join/leave/rejoin), re-shards the subgroups when the k-of-n floor or
balance bound is violated, threads checkpoints between rounds, drives a
Sec. V membership-change drill on a live two-layer Raft deployment, and
grades the whole trajectory against the cross-round invariants; it
exits non-zero iff any plan violates safety, eventual recovery, the
reshard floor, or the Raft drill.

``serve-metrics`` runs a live chaos campaign with the full
observability stack attached — causal tracing, per-link telemetry, a
flight recorder — and serves ``/metrics`` (Prometheus) and ``/status``
(JSON) over HTTP while it runs.  ``--metrics-port`` also works on every
figure command to expose that run's metrics live.
"""

from __future__ import annotations

import argparse
import os
import sys

from .obs import get_logger, set_level

log = get_logger("repro")


#: what ``all`` runs, in print order
ALL_FIGURES = (
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "fig14", "multilayer", "env",
)


def _parent(*flags: tuple[str, dict]) -> argparse.ArgumentParser:
    """A parent parser holding ``(flag, add_argument kwargs)`` pairs.

    Built fresh for each command: argparse hands a parent's action
    objects to every child, so a shared one could not carry
    per-command defaults.
    """
    p = argparse.ArgumentParser(add_help=False)
    for flag, kw in flags:
        p.add_argument(flag, **kw)
    return p


def _artifact_flags(into: str | None = None) -> argparse.ArgumentParser:
    def path(name: str, help: str) -> dict:
        return dict(metavar="PATH", help=help,
                    default=None if into is None else os.path.join(into, name))

    return _parent(
        ("--events-out", path("events.jsonl",
                              "write the structured event log as JSONL")),
        ("--metrics-out", path("metrics.prom",
                               "write a Prometheus text metrics dump")),
        ("--trace-out", path("trace.json", "write a Chrome trace_event JSON "
                             "timeline (open in https://ui.perfetto.dev)")),
    )


def _serving_flags(port: int | None) -> argparse.ArgumentParser:
    return _parent(
        ("--metrics-port", dict(type=int, default=port, help="serve /metrics "
                                "and /status on this port while the command "
                                "runs (0 = ephemeral; None = not served)")),
        ("--serve-host", dict(default="127.0.0.1",
                              help="bind address for --metrics-port")),
    )


def _fl_flags() -> argparse.ArgumentParser:
    return _parent(
        ("--rounds", dict(type=int, help="FL communication rounds (None = "
                          "$REPRO_ROUNDS, else the figure's setting)")),
        ("--peers", dict(type=int, help="total peers (None = $REPRO_PEERS, "
                         "else the figure's setting)")),
        ("--dataset", dict(choices=["blobs", "cifar"], default="blobs",
                           help="FL workload")),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures.",
        epilog="Run 'python -m repro <command> --help' for the flags a "
        "command accepts.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="<command>")
    log_level = ("--log-level", dict(
        default="info", choices=["debug", "info", "warning", "error"],
        help="status-line verbosity",
    ))
    trials = ("--trials", dict(type=int, help="Raft trials per timeout "
                               "(None = $REPRO_TRIALS, else 25)"))
    csv = ("--csv", dict(metavar="DIR",
                         help="also write raw series as CSV into DIR"))
    seed = ("--seed", dict(type=int, default=0, help="scenario RNG seed"))
    plans = (
        ("--plans", dict(type=int, default=25,
                         help="seeded fault plans per layer")),
        ("--seed0", dict(type=int, default=0, help="first plan seed")),
        ("--profiles", dict(metavar="NAMES", help="comma-separated fault "
                            "profiles to cycle through (None = all)")),
    )
    xlayer = (
        ("--depth", dict(type=int, default=6, help="X-layer tree depth X")),
        ("--engine", dict(default="wave", choices=["wave", "scalar"],
                          help="delivery engine")),
        ("--max-attempts", dict(type=int, help="reliable-transport "
                                "retransmit budget (None = 8)")),
    )

    def parallel(default: str) -> tuple[str, dict]:
        return ("--parallel", dict(
            default=default, choices=["off", "threads"],
            help="run independent subgroups inline or on a thread pool; "
            "sim results are mode-independent",
        ))

    def transport(default: str | None, help: str) -> tuple[str, dict]:
        return ("--transport", dict(
            default=default, choices=["fire_and_forget", "reliable"],
            help=help,
        ))

    def command(name, func, help, *flags, parents=()):
        p = sub.add_parser(
            name, help=help, description=help,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
            parents=[_parent(log_level), *parents],
        )
        for flag, kw in flags:
            p.add_argument(flag, **kw)
        p.set_defaults(func=func)
        return p

    def figure(name, func, help, *flags, fl=False):
        # Figure commands can capture their run and serve it live.
        return command(name, _captured(func), help, *flags, parents=(
            *([_fl_flags()] if fl else []),
            _artifact_flags(), _serving_flags(None),
        ))

    figure("env", _run_figures, "Table I: the simulated environment")
    for name, help in (
        ("fig6", "Fig. 6: final test accuracy, two-layer vs one-layer SAC"),
        ("fig7", "Fig. 7: training loss, two-layer vs one-layer SAC"),
        ("fig8", "Fig. 8: accuracy vs fraction p of subgroups in FedAvg"),
        ("fig9", "Fig. 9: loss vs fraction p of subgroups in FedAvg"),
    ):
        figure(name, _run_figures, help, csv, fl=True)
    for name, help in (
        ("fig10", "Fig. 10: subgroup leader re-election time"),
        ("fig11", "Fig. 11: re-election plus FedAvg join time"),
        ("fig12", "Fig. 12: full recovery from a FedAvg leader crash"),
    ):
        figure(name, _run_figures, help, trials, csv)
    for name, help in (
        ("fig13", "Fig. 13: cost per aggregation vs subgroup count m"),
        ("fig14", "Fig. 14: cost per aggregation vs N, k-out-of-n settings"),
        ("multilayer", "X-layer communication cost table"),
    ):
        figure(name, _run_figures, help, csv)
    figure("all", _run_figures, "every figure and table above, in turn",
           trials, csv, fl=True)
    figure("report", _run_report, "write every figure and table to one "
           "markdown file", trials,
           ("--out", dict(default="report.md", help="output path")), fl=True)
    figure("plan", _run_plan, "enumerate feasible (n, k, m) deployment plans",
           ("--plan-peers", dict(type=int, default=30,
                                 help="total peer count")),
           ("--plan-dropouts", dict(type=int, default=1, help="mid-SAC "
                                    "dropouts to tolerate per subgroup")),
           ("--plan-bandwidth", dict(type=float, help="uplink bits/s "
                                     "(enables latency ranking)")))

    command("trace", _run_trace, "run the observability scenario and write "
            "event, metric and timeline artifacts", seed,
            parents=[_artifact_flags(into="trace_out")])
    command("bench", _run_bench, "run the profiled benchmark suite or, with "
            "--compare, gate two BENCH artifacts against each other",
            seed, parallel("threads"),
            ("--bench-out", dict(metavar="PATH", default="BENCH_suite.json",
                                 help="artifact output path")),
            ("--smoke", dict(action="store_true",
                             help="tiny scenario sizes (CI smoke mode)")),
            ("--repeats", dict(type=int, default=3, help="measured "
                               "wall-clock repeats per scenario")),
            ("--warmup", dict(type=int, default=1,
                              help="unmeasured warmup runs per scenario")),
            ("--only", dict(metavar="IDS",
                            help="comma-separated scenario ids to run")),
            ("--compare", dict(nargs=2, metavar=("OLD", "NEW"), help="diff "
                               "two BENCH artifacts and exit non-zero on "
                               "regression instead of running the suite")),
            ("--wall-tolerance", dict(type=float, default=1.5, help="with "
                                      "--compare: allowed wall-time median "
                                      "ratio NEW/OLD")),
            ("--mem-tolerance", dict(type=float, default=2.0, help="with "
                                     "--compare: allowed peak-allocation "
                                     "ratio NEW/OLD")),
            ("--top", dict(type=int, default=12,
                           help="rows in each printed top-phases table")))
    command("prof", _run_prof, "profile the failover + wire-round workload "
            "and print the span call tree", seed,
            ("--peers", dict(type=int, default=12, help="total peers")),
            ("--resources", dict(action="store_true", help="wrap each phase "
                                 "in the live resource profiler and print "
                                 "the memory/simnet snapshot")),
            ("--top", dict(type=int, default=12,
                           help="rows in the printed phase table")))
    command("xlayer", _run_xlayer, "run one X-layer round over the simulated "
            "wire and check it against the Eq. 10 closed forms",
            seed, parallel("off"), *xlayer,
            transport(None, "wire transport (None = reliable iff "
                      "--loss > 0)"),
            ("--peers", dict(type=int, default=1_000, help="requested peer "
                             "count; the tree is the smallest reaching it")),
            ("--dim", dict(type=int, default=64,
                           help="model parameters per peer")),
            ("--delay-ms", dict(type=float, default=15.0,
                                help="fixed per-hop latency in virtual ms")),
            ("--loss", dict(type=float, default=0.0,
                            help="random frame-loss probability")))
    command("chaos", _run_chaos, "run seeded fault-injection campaigns and "
            "exit non-zero on any safety violation", *plans,
            transport("reliable", "wire transport of the plan matrix"),
            ("--layers", dict(metavar="NAMES", help="comma-separated layers "
                              "to stress (None = sac,two_layer,raft)")),
            ("--scale", dict(type=int, metavar="PEERS", help="run one "
                             "chaos-at-scale X-layer trial at this peer "
                             "count instead of the plan matrix")),
            ("--loss", dict(type=float, default=0.2, help="with --scale: "
                            "random frame-loss probability")),
            seed, parallel("off"), *xlayer)
    command("campaign", _run_campaign, "run multi-round churn campaigns with "
            "re-sharding and cross-round invariants", *plans,
            transport("reliable", "wire transport"), parallel("off"),
            ("--rounds", dict(type=int, default=10,
                              help="FL rounds per campaign")),
            ("--peers", dict(type=int, default=12, help="initial peer count")),
            ("--static", dict(action="store_true", help="disable re-sharding "
                              "(leavers shrink their group; joiners fill the "
                              "smallest)")),
            ("--no-raft", dict(action="store_true", help="skip the per-plan "
                               "two-layer Raft membership-change drill")),
            ("--checkpoint-dir", dict(metavar="DIR", help="keep "
                                      "between-round checkpoints here "
                                      "(None = a temporary directory)")))
    command("serve-metrics", _run_serve, "run a live chaos campaign serving "
            "/metrics and /status over HTTP",
            ("--serve-rounds", dict(type=int, default=12,
                                    help="chaos rounds to run while serving")),
            ("--serve-interval", dict(type=float, default=0.2, help="pause "
                                      "between rounds in seconds, the scrape "
                                      "window")),
            ("--incident-dir", dict(default="incident_out", help="flight-"
                                    "recorder incident dump directory")),
            ("--seed0", dict(type=int, default=0, help="first round seed")),
            parents=[_serving_flags(0)])
    return parser


def _start_metrics_server(obs, host: str, port: int, **extra):
    """Serve ``obs`` over HTTP; ``None`` (and one error line) if the port
    is already bound."""
    from .obs.scale import resource_snapshot
    from .obs.serve import MetricsPortInUseError, MetricsServer

    try:
        server = MetricsServer(
            metrics=obs.metrics, host=host, port=port,
            resources=lambda: resource_snapshot(obs=obs), **extra,
        ).start()
    except MetricsPortInUseError as exc:
        log.error("%s", exc)
        return None
    # An ephemeral request (port 0) resolves at bind time; print the
    # chosen port on stdout so wrappers can scrape it.
    print(f"metrics port: {server.port}", flush=True)
    return server


def _captured(run):
    """Give a figure command the artifact and ``--metrics-port`` flags.

    When any is set, the command runs under a fresh observability
    pipeline (served live while it runs) whose events, metrics and
    timeline are written out afterwards.
    """

    def captured(args: argparse.Namespace) -> int:
        if not (args.events_out or args.metrics_out or args.trace_out
                or args.metrics_port is not None):
            return run(args)
        from .obs import runtime as _runtime

        obs = _runtime.Observability()
        started = False
        try:
            with _runtime.observe(obs):
                server = None
                if args.metrics_port is not None:
                    server = _start_metrics_server(
                        obs, args.serve_host, args.metrics_port
                    )
                    if server is None:
                        return 2
                    log.info("metrics live at %s/metrics", server.url)
                started = True
                try:
                    return run(args)
                finally:
                    if server is not None:
                        server.stop()
        finally:
            if started and args.events_out:
                log.info("events  -> %s", obs.write_events_jsonl(args.events_out))
            if started and args.metrics_out:
                log.info("metrics -> %s", obs.write_prometheus(args.metrics_out))
            if started and args.trace_out:
                log.info("timeline-> %s", obs.write_chrome_trace(args.trace_out))

    return captured


def _run_bench(args: argparse.Namespace) -> int:
    from .obs import bench

    if args.compare is not None:
        old = bench.load_artifact(args.compare[0])
        new = bench.load_artifact(args.compare[1])
        ok, deltas = bench.compare_artifacts(
            old, new, wall_tolerance=args.wall_tolerance,
            mem_tolerance=args.mem_tolerance,
        )
        print(bench.format_compare_report(
            ok, deltas, wall_tolerance=args.wall_tolerance,
            mem_tolerance=args.mem_tolerance,
        ))
        return 0 if ok else 1

    only = args.only.split(",") if args.only else None
    artifact = bench.run_suite(
        smoke=args.smoke, seed=args.seed,
        repeats=args.repeats, warmup=args.warmup, only=only,
        parallel=args.parallel,
    )
    path = bench.write_artifact(args.bench_out, artifact)
    print(bench.format_suite_summary(artifact))
    for sc in artifact["scenarios"]:
        top = sorted(
            sc["phases"], key=lambda p: p["self_ms"], reverse=True
        )[: args.top]
        if top:
            print(f"\n  top phases — {sc['id']}:")
            for ph in top:
                print(f"    {'/'.join(ph['path']):<46}"
                      f"self {ph['self_ms']:>9.2f} ms  "
                      f"total {ph['total_ms']:>9.2f} ms  "
                      f"{ph['bits'] / 1e6:>7.2f} Mb")
    log.info("artifact -> %s", path)
    return 0


def _run_prof(args: argparse.Namespace) -> int:
    """Profile the failover + wire-round workload; optionally resources."""
    import numpy as np

    from .core.topology import Topology
    from .core.wire_round import run_two_layer_wire_round
    from .obs import runtime as _runtime
    from .obs.prof import ResourceProfiler, profile_events
    from .obs.scale import format_resource_report, resource_snapshot
    from .twolayer_raft.system import TwoLayerRaftSystem

    n_peers = args.peers
    group_size = 4
    seed = args.seed
    rp = ResourceProfiler() if args.resources else None

    import contextlib

    def phase(name: str):
        return rp.phase(name) if rp is not None else contextlib.nullcontext()

    with _runtime.observe(causal=True) as obs:
        with phase("build"):
            topology = Topology.by_group_size(n_peers, group_size)
            system = TwoLayerRaftSystem(topology, seed=seed)
            models = [
                np.random.default_rng([seed, p]).normal(size=256)
                for p in range(n_peers)
            ]
        with phase("stabilize"):
            system.stabilize()
        with phase("failover"):
            victim = system.subgroup_leader(1)
            if victim is not None:
                system.crash(victim)
            system.stabilize()
        with phase("wire_round"):
            k = max(2, min(3, min(len(g) for g in topology.groups)))
            result = run_two_layer_wire_round(
                topology, models, k=k, seed=seed,
                trace_id=f"prof:s{seed}",
            )
        report = profile_events(obs.events)
        print(report.format_table(limit=args.top))
        print()
        print(f"wire round: {'completed' if result.outcome.ok else 'FAILED'} "
              f"in {result.finish_time_ms:.1f} sim-ms, "
              f"{result.messages_sent} messages, "
              f"{result.bits_sent / 1e6:.2f} Mb")
        if rp is not None:
            print()
            print(rp.format_table())
            print()
            # Snapshot before close() so the tracemalloc block is present.
            print(format_resource_report(resource_snapshot(
                obs=obs, sim=system.sim, network=system.network,
            )))
            rp.close()
    return 0


def _run_xlayer(args: argparse.Namespace) -> int:
    """One X-layer round over the simulated wire, pinned to Eq. 10."""
    import time

    import numpy as np

    from .core import (
        MultiLayerTopology,
        multi_layer_cost_bits,
        multi_layer_message_count,
        multi_layer_round_latency_ms,
        run_xlayer_wire_round,
    )
    from .core.costs import multi_layer_total_peers
    from .simnet import FixedLatency

    depth = args.depth
    target = args.peers
    # Smallest subgroup size whose depth-X tree reaches the requested
    # peer count (Eq. 6 grows as n (n-1)^{depth-1}).
    n = 2
    while multi_layer_total_peers(n, depth) < target:
        n += 1
    topology = MultiLayerTopology(n, depth)
    n_peers = topology.n_peers
    d = args.dim
    models = np.random.default_rng([args.seed, 7]).normal(size=(n_peers, d))

    loss = args.loss
    transport = args.transport or (
        "reliable" if loss > 0 else "fire_and_forget"
    )
    opts = (
        {"max_attempts": args.max_attempts}
        if args.max_attempts is not None else None
    )
    print(f"X-layer wire round: n={n}, depth={depth}, "
          f"N={n_peers:,} peers (requested {target:,}), "
          f"d={d}, engine={args.engine}, transport={transport}, "
          f"loss={loss:g}")
    t0 = time.perf_counter()
    result = run_xlayer_wire_round(
        topology, models, seed=args.seed,
        latency=FixedLatency(args.delay_ms), engine=args.engine,
        parallel=args.parallel,
        loss_rate=loss, transport=transport, transport_opts=opts,
    )
    wall = time.perf_counter() - t0

    print(f"\n{'layer':>5} {'method':>7} {'groups':>9} {'start ms':>10} "
          f"{'done ms':>10} {'messages':>10} {'Mb':>9}")
    for st in result.layer_stats:
        print(f"{st.layer:>5} {st.method:>7} {st.groups:>9,} "
              f"{st.start_ms:>10.1f} {st.done_ms:>10.1f} "
              f"{st.messages:>10,} {st.bits / 1e6:>9.2f}")
    bcast = result.bits_by_kind.get("xl.bcast", 0.0)
    print(f"{'bcast':>5} {'relay':>7} {'':>9} {result.agg_done_ms:>10.1f} "
          f"{result.finish_time_ms:>10.1f} {n_peers - 1:>10,} "
          f"{bcast / 1e6:>9.2f}")

    hs = result.heap_stats
    print(f"\nwall:     {wall:.2f} s — {n_peers / wall:,.0f} peers/s, "
          f"{result.messages_sent / wall:,.0f} msgs/s")
    print(f"heap:     {hs['events_processed']:,} events processed, "
          f"{hs['scheduled_total']:,} scheduled, "
          f"peak {hs['peak_pending']:,} pending, "
          f"{hs['entries']:,} entries left ({hs['dead']:,} dead), "
          f"{hs['compactions']} compactions")
    if transport == "reliable":
        print(f"transport: {result.retransmits:,} retransmits, "
              f"{result.acks:,} ACKs, "
              f"{result.duplicates:,} duplicates suppressed, "
              f"{result.exhausted:,} exhausted "
              f"({result.exhausted_undelivered:,} undelivered), "
              f"{result.dropped:,} frames dropped")
    reason = f" — {result.outcome.reason}" if result.outcome.reason else ""
    print(f"outcome:  {result.outcome.status}{reason}")

    if transport != "fire_and_forget":
        # Retransmission headers and ACK frames are honest wire traffic
        # on top of the Eq. 10 payload, so the closed forms no longer
        # gate; a completed typed outcome is the pass condition.
        return 0 if result.outcome.ok else 1

    closed_bits = multi_layer_cost_bits(n, depth, d)
    closed_msgs = multi_layer_message_count(n, depth)
    closed_ms = multi_layer_round_latency_ms(depth, args.delay_ms)
    print(f"bits:     measured {result.bits_sent / 1e9:.4f} Gb, "
          f"Eq. 10 {closed_bits / 1e9:.4f} Gb, "
          f"delta {result.bits_sent - closed_bits:+.0f}")
    print(f"messages: measured {result.messages_sent:,}, "
          f"closed form {closed_msgs:,}, "
          f"delta {result.messages_sent - closed_msgs:+d}")
    print(f"finish:   measured {result.finish_time_ms:.3f} sim-ms, "
          f"closed form {closed_ms:.3f} sim-ms, "
          f"delta {result.finish_time_ms - closed_ms:+.3f}")
    exact = (
        result.bits_sent == closed_bits
        and result.messages_sent == closed_msgs
        and result.finish_time_ms == closed_ms
    )
    print(f"closed-form match: {'exact' if exact else 'MISMATCH'}")
    return 0 if exact else 1


def _run_chaos_scale(args: argparse.Namespace) -> int:
    """One chaos-at-scale trial: lossy reliable X-layer round at N peers."""
    from .chaos.scale import run_scale_trial

    report = run_scale_trial(
        args.scale, depth=args.depth,
        loss_rate=args.loss, seed=args.seed, engine=args.engine,
        parallel=args.parallel, max_attempts=args.max_attempts,
    )
    print(f"chaos at scale: n={report.n}, depth={report.depth}, "
          f"N={report.n_peers:,} peers (requested {args.scale:,}), "
          f"loss={report.loss_rate:g}, engine={report.engine}")
    print(f"wall:     {report.wall_s:.2f} s — "
          f"{report.n_peers / report.wall_s:,.0f} peers/s")
    print(f"round:    {report.messages_sent:,} messages, "
          f"{report.bits_sent / 1e9:.3f} Gb, "
          f"finish {report.finish_ms:,.1f} sim-ms")
    print(f"transport: {report.retransmits:,} retransmits, "
          f"{report.acks:,} ACKs, "
          f"{report.duplicates:,} duplicates suppressed, "
          f"{report.exhausted:,} exhausted, "
          f"{report.dropped:,} frames dropped")
    hs = report.heap
    print(f"heap:     {hs['events_processed']:,} events processed, "
          f"{hs['scheduled_total']:,} scheduled, "
          f"peak {hs['peak_pending']:,} pending, "
          f"{hs['entries']:,} entries left ({hs['dead']:,} dead), "
          f"{hs['compactions']} compactions")
    print(f"outcome:  {report.outcome}")
    # A non-completed outcome here is still *typed* (a graded timeout is
    # the expected result of an exhausted retransmit budget), so like a
    # matrix 'degrade' it does not fail the run.
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    from .chaos import LAYERS, format_matrix, run_chaos_matrix

    if args.scale is not None:
        return _run_chaos_scale(args)
    profiles = args.profiles.split(",") if args.profiles else None
    layers = tuple(args.layers.split(",")) if args.layers else LAYERS
    reports = run_chaos_matrix(
        n_plans=args.plans, seed0=args.seed0,
        profiles=profiles, layers=layers,
        transport=args.transport,
    )
    print(format_matrix(reports))
    heaps = [r.heap for r in reports if r.heap]
    if heaps:
        print(f"heap: {sum(h['scheduled_total'] for h in heaps):,} events "
              f"scheduled, peak {max(h['peak_pending'] for h in heaps):,} "
              f"pending, {sum(h['dead'] for h in heaps):,} dead entries, "
              f"{sum(h['compactions'] for h in heaps)} compactions "
              f"across {len(heaps)} wire trials")
    return 1 if any(r.failed for r in reports) else 0


def _run_campaign(args: argparse.Namespace) -> int:
    from .campaign import format_campaign_matrix, run_campaign_matrix

    profiles = args.profiles.split(",") if args.profiles else None
    reports = run_campaign_matrix(
        n_plans=args.plans, seed0=args.seed0, profiles=profiles,
        rounds=args.rounds,
        n_peers=args.peers,
        parallel=args.parallel,
        transport=args.transport,
        reshard=not args.static,
        raft=not args.no_raft,
        checkpoint_dir=args.checkpoint_dir,
    )
    print(format_campaign_matrix(reports))
    # The determinism handle: same seeds + profiles -> same digest, in
    # every --parallel mode (compare across runs to check bit-identity).
    import hashlib as _hashlib

    digest = _hashlib.sha256(
        "".join(r.fingerprint() for r in reports).encode()
    ).hexdigest()
    print(f"campaign fingerprint: {digest}")
    return 1 if any(r.failed for r in reports) else 0


def _run_serve(args: argparse.Namespace) -> int:
    """A live chaos campaign with the full observability stack attached."""
    import time

    import numpy as np

    from .chaos.plan import PROFILES, ChaosPlan
    from .chaos.runner import TRIAL_TRANSPORT_OPTS
    from .core.topology import Topology
    from .core.wire_round import run_two_layer_wire_round
    from .obs import runtime as _runtime
    from .obs.serve import StatusBoard

    n_peers, group_size, k = 12, 4, 3
    topology = Topology.by_group_size(n_peers, group_size)
    max_crashes = max(0, min(len(g) for g in topology.groups) - k)
    profiles = list(PROFILES)

    with _runtime.observe(causal=True) as obs:
        board = StatusBoard().attach(obs.bus)
        link = obs.attach_link()
        flight = obs.attach_flight(out_dir=args.incident_dir)
        server = _start_metrics_server(
            obs, args.serve_host, args.metrics_port, status=board, link=link,
        )
        if server is None:
            return 2
        log.info("serving %s/metrics and %s/status", server.url, server.url)
        try:
            for i in range(args.serve_rounds):
                seed = args.seed0 + i
                profile = profiles[i % len(profiles)]
                rng = np.random.default_rng([seed, 0xC4A15])
                plan = ChaosPlan.sample(
                    rng, profile, nodes=range(n_peers),
                    protected=topology.leaders, max_crashes=max_crashes,
                )
                models = [
                    np.random.default_rng([seed, p]).normal(size=64)
                    for p in range(n_peers)
                ]
                result = run_two_layer_wire_round(
                    topology, models, k=k, seed=seed, schedule=plan.schedule,
                    transport="reliable",
                    transport_opts=dict(TRIAL_TRANSPORT_OPTS),
                    round_timeout_ms=8_000.0,
                    trace_id=f"round{i}:s{seed}",
                )
                link.publish(obs.metrics)
                log.info(
                    "round %d/%d [%s] %s -> %s", i + 1, args.serve_rounds,
                    profile, plan.schedule.describe(), result.outcome.status,
                )
                if args.serve_interval > 0:
                    time.sleep(args.serve_interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            log.info("interrupted; shutting down")
        finally:
            server.stop()
        print(
            f"served {board.events_seen} events over "
            f"{board.rounds_completed + board.rounds_failed} round(s): "
            f"{board.rounds_completed} completed, "
            f"{board.rounds_failed} failed, "
            f"{len(flight.incidents)} incident dump(s)"
            + (f" in {args.incident_dir}" if flight.incidents else "")
        )
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    from .obs.scenario import run_trace_scenario

    artifacts = run_trace_scenario(
        args.events_out, args.metrics_out, args.trace_out, seed=args.seed,
    )
    return 0 if artifacts.summary["bits_exact"] else 1


def _run_report(args: argparse.Namespace) -> int:
    from .experiments.report import write_report

    path = write_report(
        args.out, rounds=args.rounds, trials=args.trials,
        peers=args.peers, dataset=args.dataset,
    )
    log.info("wrote %s", path)
    return 0


def _run_plan(args: argparse.Namespace) -> int:
    from .core.planner import PlanRequirements, enumerate_plans
    from .nn.zoo import PAPER_CNN_PARAMS

    req = PlanRequirements(sac_dropouts=args.plan_dropouts)
    plans = enumerate_plans(
        args.plan_peers, PAPER_CNN_PARAMS, req,
        bandwidth_bps=args.plan_bandwidth,
    )
    print(f"Feasible plans for N={args.plan_peers} "
          f"(tolerating {args.plan_dropouts} dropout/subgroup), "
          "Fig. 5 CNN:")
    print(f"{'n':>4}{'k':>4}{'m':>4}{'Gb/round':>10}{'gain':>8}"
          f"{'latency s':>11}")
    for p in plans:
        lat = f"{p.latency_ms / 1e3:10.2f}" if p.latency_ms else f"{'-':>10}"
        print(f"{p.n:>4}{p.k:>4}{p.m:>4}{p.volume_gb:>10.2f}"
              f"{p.reduction_vs_baseline:>7.2f}x{lat:>11}")
    return 0


def _run_figures(args: argparse.Namespace) -> int:
    """Print one figure's table (``all``: every one); ``--csv`` dumps series."""
    from . import experiments as ex
    from .experiments import csv_export

    titles = {
        "fig6": "Fig. 6 — final test accuracy",
        "fig7": "Fig. 7 — training loss (see CSV for curves)",
        "fig8": "Fig. 8 — accuracy vs fraction p",
        "fig9": "Fig. 9 — loss vs fraction p (see CSV for curves)",
        "fig10": "Fig. 10 — subgroup leader re-election",
        "fig11": "Fig. 11 — re-election + FedAvg join",
        "fig12": "Fig. 12 — FedAvg leader crash, full recovery",
    }
    fl_cache: dict = {}  # figs 6/7 and 8/9 each share one set of runs
    for fig in ALL_FIGURES if args.command == "all" else [args.command]:
        csv = None
        if fig == "env":
            print(ex.format_table1())
        elif fig in ("fig6", "fig7", "fig8", "fig9"):
            run = ex.run_fig6_fig7 if fig in ("fig6", "fig7") \
                else ex.run_fig8_fig9
            if run not in fl_cache:
                fl_cache[run] = run(n_peers=args.peers, rounds=args.rounds,
                                    dataset=args.dataset)
            print(ex.format_accuracy_table(fl_cache[run], titles[fig]))
            csv = (csv_export.write_fl_runs, fl_cache[run],
                   f"{fig}_curves.csv")
        elif fig in ("fig10", "fig11", "fig12"):
            stats = getattr(ex, f"run_{fig}")(trials=args.trials)
            print(ex.format_recovery_table(stats, titles[fig]))
            csv = (csv_export.write_recovery_stats, stats,
                   f"{fig}_recovery.csv")
        else:
            run, fmt = {
                "fig13": (ex.run_fig13, ex.format_fig13),
                "fig14": (ex.run_fig14, ex.format_fig14),
                "multilayer": (ex.run_multilayer_table, ex.format_multilayer),
            }[fig]
            points = run()
            print(fmt(points))
            csv = (csv_export.write_cost_points, points, f"{fig}_costs.csv")
        if csv is not None and args.csv is not None:
            writer, data, name = csv
            log.info("[csv] wrote %s", writer(data, os.path.join(args.csv, name)))
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    set_level(args.log_level)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
