#!/usr/bin/env python3
"""Paper-scale benchmark for the ``repro`` package (see README.md).

Run from the repository root::

    python3 perfbench/run.py --workload fl_round_cnn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1     # every workload, one process each

One workload per process: set up at least three times (the median is
``setup_s``), then run units (rounds or trials) back to back for
``--seconds``: a unit starts only if, at the median unit time so far, it
would end within the budget, and at least one unit always runs.  Each unit's
outputs are checked outside the timed region, followed by a
``gc.collect()`` whose freed resident memory is ``core.round_garbage_mb``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends the
first half of the budget untraced and the second half with span wrappers
installed, and reports the per-layer metrics.  The last line of a
single-workload run's standard output is one JSON object; human-readable
lines come before it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

#: BLAS threads, pinned before numpy is imported.  One: on a 2-core x86-64
#: container a second thread left an ``fl_round_cnn`` round's wall time
#: unchanged (16.3 s) while its CPU time grew from 16 to 26 s, and that
#: spinning thread competes with the measured one.
BLAS_THREADS = 1
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")

#: set-up runs at least SETUP_MIN times and until SETUP_SECONDS have
#: passed (at most SETUP_MAX times); ``setup_s`` is the median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 50, 2.0
#: a traced unit's span self times must add up to its wall time within
#: this share of the wall time (wrapper entry/exit outside the root span).
RECONCILE_TOL = 0.01
#: workload order of the all-workloads mode.
ORDER = ("fl_round_cnn", "agg_seed_ft", "xlayer_chaos", "raft_failover")
#: the end-to-end metrics printed in the human-readable table
#: (name, unit); the JSON result carries the ones in BENCHMARK.json.
E2E_TABLE = (
    ("setup_s", "s"), ("round_s", "s"), ("train_samples_per_s", "1/s"),
    ("trials_per_s", "1/s"), ("sim_round_ms", "sim_ms"),
    ("sim_recovery_ms", "sim_ms"), ("wire_gbits", "Gb"),
    ("test_loss", "loss"), ("peak_rss_mb", "MB"), ("failed_ratio", "ratio"),
)
E2E_JSON = ("setup_s", "round_s", "wire_gbits", "peak_rss_mb")
GBIT_KEYS = ("sac.share", "sac.subtotal", "sac.recover", "sub.bcast",
             "fed.upload", "fed.bcast", "other")

_clock = time.perf_counter


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quantile(values, q: float) -> float:
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def _require_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'repro'}; run from a "
              "full checkout of the repository", file=sys.stderr)
        sys.exit(2)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))


# ------------------------------------------------------------------ one run
def _run_units(wl, state, seconds, first, units, outs, rec=None):
    """Closed loop: run unit after unit for ``seconds``.

    The next unit starts only if, taking the median unit so far as its
    length, it would end within ``seconds``; the first always runs.
    """
    start = _clock()
    i = first
    while True:
        root = None
        if rec is not None:
            rec.unit = i
            root = rec.open("unit")
        t0 = _clock()
        try:
            out, errors = wl.unit(state, i), []
        except Exception as exc:  # a unit that raises counts as failed
            traceback.print_exc()
            out, errors = None, [f"{type(exc).__name__}: {exc}"]
        wall = _clock() - t0
        if rec is not None:
            rec.close(root)
            rec.unit = -1
        if out is not None:
            try:
                errors = wl.check(state, i, out)
            except Exception as exc:
                traceback.print_exc()
                errors = [f"check raised {type(exc).__name__}: {exc}"]
            out.pop("models", None)
        before = _rss_bytes()
        gc.collect()
        units.append({
            "i": i, "wall_s": wall, "traced": rec is not None,
            "errors": errors,
            "garbage_mb": max(0, before - _rss_bytes()) / 2**20,
        })
        if not errors:
            out["traced"] = rec is not None
            outs.append(out)
        i += 1
        walls = [u["wall_s"] for u in units if u["traced"] == (rec is not None)]
        if _clock() - start + statistics.median(walls) > seconds:
            return i


def _unit_counts(out: dict) -> dict:
    """simnet counters of one unit, from the program's own result."""
    res = out.get("result")
    if res is None:  # raft trial: counters were taken off the system
        return {"events": out["events"], "messages": out["messages"],
                "retransmits": 0, "drops": 0,
                "gbits": {"other": out["bits"] / 1e9}}
    gbits = {}
    for kind, bits in res.bits_by_kind.items():
        key = kind if kind in GBIT_KEYS else "other"
        gbits[key] = gbits.get(key, 0.0) + bits / 1e9
    return {
        "events": res.heap_stats.get("events_processed", 0),
        "messages": res.messages_sent,
        "retransmits": res.retransmits,
        "drops": getattr(res, "drops", getattr(res, "dropped", 0)),
        "gbits": gbits,
    }


def _per_layer(rec, units, outs, summary) -> tuple[dict, dict]:
    from perfbench.spans import aggregate, unit_self_sums

    traced = [u for u in units if u["traced"]]
    n = len(traced)
    agg = aggregate(rec, {u["i"] for u in traced})
    self_ms = {k: v * 1e3 / n for k, v in agg["self_s"].items()}
    incl_ms = {k: v * 1e3 / n for k, v in agg["incl_s"].items()}
    calls = {k: v / n for k, v in agg["calls"].items()}

    def s(*names):
        return sum(self_ms.get(x, 0.0) for x in names)

    # Reconciliation: per traced unit, the span self times (layers plus
    # the benchmark's own glue in the root span) against the wall time.
    sums = unit_self_sums(rec)
    errs = [abs(sums.get(u["i"], 0.0) - u["wall_s"]) / u["wall_s"]
            for u in traced]
    reconcile = {"max_rel_err": max(errs), "tolerance": RECONCILE_TOL,
                 "ok": max(errs) <= RECONCILE_TOL}

    counts = [_unit_counts(o) for o in outs]
    k = max(1, len(counts))
    messages = sum(c["messages"] for c in counts)
    drops = sum(c["drops"] for c in counts)
    walls_t = [u["wall_s"] for u in traced]
    walls_u = [u["wall_s"] for u in units if not u["traced"]]
    trials = [t for o in outs if o["traced"] for t in o.get("trials", ())]

    m = {
        "nn.conv2d.forward_ms": s("nn.conv2d.forward"),
        "nn.conv2d.backward_ms": s("nn.conv2d.backward"),
        "nn.maxpool2d.forward_ms": s("nn.maxpool2d.forward"),
        "nn.maxpool2d.backward_ms": s("nn.maxpool2d.backward"),
        "nn.dense.forward_ms": s("nn.dense.forward"),
        "nn.dense.backward_ms": s("nn.dense.backward"),
        "nn.elementwise_ms": s("nn.elementwise"),
        "nn.train_batch_self_ms": s("nn.train_batch"),
        "nn.optim_step_ms": s("nn.optim_step"),
        "nn.evaluate_ms": incl_ms.get("nn.evaluate", 0.0),
        "nn.train_batches": calls.get("nn.train_batch", 0.0),
        "fl.local_update_self_ms": s("fl.local_update"),
        "fl.weights_io_ms": s("fl.weights_io"),
        "fl.fedavg_ms": s("fl.fedavg"),
        "secure.seed_expand_ms": s("secure.seed_expand"),
        "secure.seed_expand_calls": calls.get("secure.seed_expand", 0.0),
        "secure.seed_expand_mvalues":
            rec.counts.get("secure.seed_expand_values", 0.0) / 1e6 / n,
        "secure.batched_ms": s("secure.batched"),
        "secure.share_split_ms": s("secure.share_split"),
        "secure.protocol_self_ms": s("secure.protocol"),
        "simnet.run_self_ms": s("simnet.run"),
        "simnet.send_ms": s("simnet.send"),
        "simnet.send_batch_ms": s("simnet.send_batch"),
        "simnet.events": sum(c["events"] for c in counts) / k,
        "simnet.messages": messages / k,
        "simnet.retransmits": sum(c["retransmits"] for c in counts) / k,
        "simnet.drops": drops / k,
        "simnet.sim_round_ms": summary.get("sim_round_ms") or 0.0,
        "simnet.delivery_ratio":
            messages / (messages + drops) if messages + drops else 1.0,
        "chaos.timeline_ms": s("chaos.timeline"),
        "core.wire_round_ms": s("core.wire_round"),
        "core.xlayer_round_ms": s("core.xlayer_round"),
        "core.round_garbage_mb":
            statistics.fmean(u["garbage_mb"] for u in units),
        "raft.self_ms": s("raft"),
        "raft.sub_elect_ms": summary.get("sub_elect_ms") or 0.0,
        "raft.fed_elect_ms": summary.get("fed_elect_ms") or 0.0,
        "raft.messages_per_trial": summary.get("messages_per_trial", 0.0),
        "twolayer_raft.self_ms": s("twolayer_raft.build",
                                   "twolayer_raft.stabilize",
                                   "twolayer_raft.run_for",
                                   "twolayer_raft.route",
                                   "twolayer_raft.query"),
        "twolayer_raft.stabilize_ms":
            incl_ms.get("twolayer_raft.stabilize", 0.0),
        "twolayer_raft.failover_ms": 1e3 * statistics.fmean(
            [t["failover_wall_s"] for t in trials] or [0.0]),
        "twolayer_raft.trial_ms_p90": 1e3 * _quantile(
            [t["wall_s"] for t in trials] or [0.0], 0.9),
        "bench.unattributed_ms": s("unit"),
        "trace.reconcile_max_err": reconcile["max_rel_err"],
        "trace.spans_per_unit": len(rec) / n,
        "trace_overhead_ratio":
            statistics.median(walls_t) / statistics.median(walls_u),
    }
    for key in GBIT_KEYS:
        m[f"simnet.gbits.{key}"] = sum(c["gbits"].get(key, 0.0)
                                       for c in counts) / k
    return m, reconcile


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    _require_program()
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[name]
    setup_times = []
    state = None
    while len(setup_times) < SETUP_MAX and (
            len(setup_times) < SETUP_MIN or sum(setup_times) < SETUP_SECONDS
    ):
        state = None
        gc.collect()
        t0 = _clock()
        state = wl.setup(seed)
        setup_times.append(_clock() - t0)

    units: list[dict] = []
    outs: list[dict] = []
    rec = None
    if trace:
        from perfbench import layers
        from perfbench.spans import SpanRecorder

        nxt = _run_units(wl, state, seconds / 2, 0, units, outs)
        rec = SpanRecorder()
        layers.install(rec)
        _run_units(wl, state, seconds / 2, nxt, units, outs, rec)
    else:
        _run_units(wl, state, seconds, 0, units, outs)

    failed = sum(1 for u in units if u["errors"])
    walls = [u["wall_s"] for u in units]
    summary = wl.summary(state, outs) if outs else {}
    e2e = {
        "setup_s": statistics.median(setup_times),
        "round_s": statistics.median(walls),
        "round_s_p90": _quantile(walls, 0.9),
        "units": len(units),
        "sim_round_ms": summary.get("sim_round_ms"),
        "sim_recovery_ms": summary.get("sim_recovery_ms"),
        "wire_gbits": summary.get("wire_gbits"),
        "test_loss": summary.get("test_loss"),
        "peak_rss_mb": _peak_rss_mb(),
        "failed_ratio": failed / len(units),
    }
    if "train_samples" in summary:
        e2e["train_samples_per_s"] = summary["train_samples"] / sum(walls)
    if "trials" in summary:
        e2e["trials_per_s"] = summary["trials"] / sum(walls)

    correct = failed == 0 and bool(outs)
    per_layer = reconcile = None
    if trace and outs:
        per_layer, reconcile = _per_layer(rec, units, outs, summary)
        correct = correct and reconcile["ok"]

    _print_human(name, seed, e2e, summary, per_layer, reconcile, units)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if rec is not None:
        rec.write(OUT_DIR / f"{stem}.spans.tsv")
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({
            "workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "blas_threads": BLAS_THREADS,
            "setup_times_s": setup_times, "units": units, "e2e": e2e,
            "summary": summary, "per_layer": per_layer,
            "reconcile": reconcile,
        }, fh, indent=1, default=str)

    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in (per_layer or {}).items()}
    else:
        units_of = dict(E2E_TABLE)
        metrics = {k: {"value": e2e[k], "unit": units_of[k]} for k in E2E_JSON}
    result = {
        "correct": correct and all(
            m["value"] is not None for m in metrics.values()),
        "attempted": len(units),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


#: per-layer metrics in simulated milliseconds rather than wall time.
SIM_MS_LAYER_METRICS = ("raft.sub_elect_ms", "raft.fed_elect_ms",
                        "simnet.sim_round_ms")


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name in SIM_MS_LAYER_METRICS:
        return "sim_ms"
    if name.endswith(("_ms", "_ms_p90")):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_mvalues"):
        return "Mvalues"
    if name.startswith("simnet.gbits."):
        return "Gb"
    if name.endswith(("_ratio", "_err")):
        return "ratio"
    return "count"


# ------------------------------------------------------------------ output
def _fmt(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _print_human(name, seed, e2e, summary, per_layer, reconcile, units):
    print(f"workload {name}  seed {seed}  blas_threads {BLAS_THREADS}  "
          f"units {e2e['units']}")
    for metric, unit in E2E_TABLE:
        extra = ""
        if metric == "round_s":
            extra = f"  (p90 {e2e['round_s_p90']:.6g} s, n={e2e['units']})"
        print(f"  {metric:<22} {_fmt(e2e.get(metric)):>14} {unit}{extra}")
    for u in units:
        for err in u["errors"]:
            print(f"  FAILED unit {u['i']}: {err}")
    if name == "raft_failover" and summary:
        _print_paper_refs(summary["per_base"])
    if per_layer is not None:
        print("  per-layer (mean per traced unit):")
        for metric, value in per_layer.items():
            print(f"    {metric:<30} {_fmt(value):>14} {layer_unit(metric)}")
        verdict = "ok" if reconcile["ok"] else "FAILED"
        print(f"  reconcile: max |self-time sum - wall| / wall = "
              f"{reconcile['max_rel_err']:.2e} (tolerance "
              f"{reconcile['tolerance']}) {verdict}")


def _print_paper_refs(per_base: dict) -> None:
    from repro.experiments.raft_experiments import (
        PAPER_FIG10_MEANS, PAPER_FIG11_DELTAS, PAPER_FIG12_DELTAS,
    )

    print("  paper reference (means, sim ms; reported, not gated):")
    print("      T  trials  fig10 (paper)      fig11 delta (paper)"
          "  fig12 delta (paper)")
    for base, row in per_base.items():
        f10, f11, f12 = row["fig10_ms"], row["fig11_ms"], row["fig12_ms"]
        d11 = f11 - f10 if f10 is not None and f11 is not None else None
        d12 = f12 - f11 if f11 is not None and f12 is not None else None
        print(f"    {base:>4.0f} {row['n_sub']:>3}+{row['n_fed']:<3}"
              f" {_fmt(f10):>8} ({PAPER_FIG10_MEANS[base]:>7.2f})"
              f"   {_fmt(d11):>8} ({PAPER_FIG11_DELTAS[base]:>7.2f})"
              f"   {_fmt(d12):>8} ({PAPER_FIG12_DELTAS[base]:>7.2f})")


# ------------------------------------------------------------ all workloads
def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one table of all metrics."""
    _require_program()
    rows = {}
    status = 0
    for name in ORDER:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        rows[name] = json.loads(lines[-1])
        if not rows[name]["correct"]:
            status = 1
    summaries = {}
    for name in rows:
        path = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
        with open(path) as fh:
            summaries[name] = json.load(fh)["e2e"]
    print("\nend-to-end metrics:")
    print(f"  {'metric':<22} {'unit':<7}"
          + "".join(f"{n:>15}" for n in summaries))
    for metric, unit in E2E_TABLE:
        print(f"  {metric:<22} {unit:<7}" + "".join(
            f"{_fmt(s.get(metric)):>15}" for s in summaries.values()))
    print(f"overall: {'PASS' if status == 0 else 'FAIL'}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=ORDER + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
