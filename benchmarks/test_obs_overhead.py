"""Guard: disabled observability adds <= 5% to a wire round.

The zero-overhead-when-disabled contract (``repro.obs.runtime``) is what
lets every hot path carry instrumentation unconditionally.  This bench
compares a full two-layer wire round under the default *disabled*
pipeline against a baseline where the bus's message fan-out is bypassed
entirely (the pre-refactor direct ``trace.record`` call), taking the
minimum over interleaved repetitions so scheduler noise cancels.

Not part of tier-1 (``testpaths = ["tests"]``): timing assertions belong
here, where a flaky box doesn't block the suite.

``repro.obs.prof`` is imported below on purpose: the profiler is pure
post-processing over collected events, so merely having it importable
must not disturb the disabled path this budget guards.
"""

import time

import numpy as np
from conftest import emit

import repro.obs.prof  # noqa: F401  (must not affect the disabled path)
from repro.core.topology import Topology
from repro.core.wire_round import run_two_layer_wire_round
from repro.obs.bus import EventBus


def _round_once() -> None:
    topo = Topology.by_group_size(12, 4)
    rng = np.random.default_rng(1)
    models = [rng.normal(size=256) for _ in range(topo.n_peers)]
    result = run_two_layer_wire_round(topo, models, k=2, seed=1)
    assert result.outcome.ok


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_disabled_obs_overhead_within_5_percent():
    reps = 5
    _round_once()  # warm caches / JIT-ish effects out of the measurement

    original = EventBus.publish_message

    def direct_dispatch(self, record):
        # Pre-refactor shape: one direct call to the sole accountant.
        self._msg_subs[0](record)

    # Interleave: (baseline, instrumented) x reps, keep the min of each.
    baseline = float("inf")
    instrumented = float("inf")
    for _ in range(reps):
        EventBus.publish_message = direct_dispatch
        try:
            baseline = min(baseline, _best_of(_round_once, 1))
        finally:
            EventBus.publish_message = original
        instrumented = min(instrumented, _best_of(_round_once, 1))

    overhead = instrumented / baseline - 1.0
    emit(
        "obs disabled-path overhead\n"
        f"  baseline     {baseline * 1e3:8.2f} ms\n"
        f"  instrumented {instrumented * 1e3:8.2f} ms\n"
        f"  overhead     {overhead:+8.2%} (budget +5%)"
    )
    # 5% budget plus 2ms absolute epsilon for timer noise on tiny rounds.
    assert instrumented <= baseline * 1.05 + 2e-3
