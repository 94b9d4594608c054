"""Deterministic fan-out of independent jobs with observability capture.

The two-layer round (paper Alg. 3) treats its ``m`` subgroups as
independent — that independence is the whole point of the sharded
design, so the simulator exploits it: :func:`run_jobs` executes a list
of job descriptions under one of two modes,

- ``"off"``      — the paper-faithful inline loop (default everywhere);
- ``"threads"``  — ``ThreadPoolExecutor``; numpy kernels release the GIL,
  so batched share math overlaps across subgroups.

Determinism contract: each job carries its own RNG seed (spawned by the
caller from the round seed, in job order), so the computed *values* are
identical in both modes.  Observability is captured per job — each
worker thread runs under a private
:class:`~repro.obs.runtime.Observability` — and merged into the parent
pipeline in **job order**, so the merged event stream and metrics are
independent of scheduling order and reproducible run to run.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

from ..obs import runtime as _runtime

#: Valid values for the ``parallel=`` knob.
PARALLEL_MODES = ("off", "threads")


def check_parallel_mode(mode: str) -> str:
    if mode not in PARALLEL_MODES:
        raise ValueError(
            f"unknown parallel mode {mode!r}; expected one of {PARALLEL_MODES}"
        )
    return mode


def _call_collected(fn: Callable, item: Any, shim: Any,
                    parent: Any) -> tuple[Any, Any]:
    """Run one job on a worker thread under a private observability pipeline.

    The installed :class:`~repro.obs.runtime.ThreadLocalObservability`
    ``shim`` routes this thread's emissions to the private pipeline.  It
    copies the parent's causal-tracing flag, so span-carrying events are
    produced (or not) exactly as on the sequential path, and its
    trace-sampling config, so the per-trace keep/drop decision (a pure
    function of seed and trace id) is identical in both modes.  Workers
    always run full retention — their streams are bounded by one
    subgroup's size and raw histogram payloads merge into either parent
    mode.
    """
    sampler = parent.sampler
    obs = _runtime.Observability(
        enabled=parent.enabled, keep_events=parent.enabled,
        causal=parent.causal,
        causal_sample_rate=sampler.rate if sampler is not None else 1.0,
        causal_sample_seed=sampler.seed if sampler is not None else 0,
    )
    shim.push(obs)
    try:
        return fn(item), obs
    finally:
        shim.pop()


def run_jobs(fn: Callable, items: Sequence[Any], mode: str) -> list:
    """Execute ``fn(item)`` for every item; results in item order.

    ``mode="off"`` (or a single item) runs the plain inline loop with
    events flowing straight to the parent pipeline.  Otherwise jobs run
    on a thread pool, each under a private pipeline, and the captured
    events and metrics are merged into the parent **in item order**
    afterwards.
    """
    check_parallel_mode(mode)
    items = list(items)
    if mode == "off" or len(items) <= 1:
        return [fn(item) for item in items]
    parent = _runtime.get()
    if isinstance(parent, _runtime.ThreadLocalObservability):
        raise RuntimeError("nested parallel fan-out is not supported")
    shim = _runtime.ThreadLocalObservability(parent)
    _runtime.install(shim)
    try:
        workers = min(len(items), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as ex:
            futures = [ex.submit(_call_collected, fn, item, shim, parent)
                       for item in items]
            collected = [f.result() for f in futures]
    finally:
        _runtime.install(parent)
    for _, obs in collected:  # deterministic merge: job order, not finish order
        parent.absorb_events(list(obs.events))
        parent.metrics.merge_snapshot(obs.metrics.snapshot())
    return [value for value, _ in collected]
