"""Deterministic head-based trace sampling.

The contract: the keep/drop decision is a pure function of
``(seed, trace_id)`` — identical across processes, threads, and runs —
and a kept trace's causal record is bit-identical to what an unsampled
run produces for that trace.  Dropped traces carry no spans at all.
"""

import numpy as np
import pytest

from repro.core.topology import Topology
from repro.core.wire_round import run_two_layer_wire_round
from repro.obs import runtime as _runtime
from repro.obs.causal import TraceSampler, critical_paths_by_trace

RATE = 0.5
SAMPLE_SEED = 42
N_ROUNDS = 6


def _models(topo, seed, d=16):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=d) for _ in range(topo.n_peers)]


class TestTraceSampler:
    def test_decision_is_deterministic_across_instances(self):
        ids = [f"round{i}:s0" for i in range(1000)]
        a = TraceSampler(0.25, seed=7)
        b = TraceSampler(0.25, seed=7)
        kept_a = [t for t in ids if a.keep(t)]
        kept_b = [t for t in ids if b.keep(t)]
        assert kept_a == kept_b
        # Roughly 1-in-4 at rate 0.25 (binomial, generous bounds).
        assert 150 < len(kept_a) < 350

    def test_seed_changes_the_kept_set(self):
        ids = [f"round{i}" for i in range(200)]
        kept_7 = {t for t in ids if TraceSampler(0.5, seed=7).keep(t)}
        kept_8 = {t for t in ids if TraceSampler(0.5, seed=8).keep(t)}
        assert kept_7 != kept_8

    def test_rate_extremes_short_circuit(self):
        assert TraceSampler(1.0).keep("anything")
        assert not TraceSampler(0.0).keep("anything")

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            TraceSampler(-0.1)
        with pytest.raises(ValueError):
            TraceSampler(1.5)

    def test_observability_without_sampling_has_no_sampler(self):
        obs = _runtime.Observability(causal=True)
        assert obs.sampler is None
        assert obs.trace_kept("anything")
        sampled = _runtime.Observability(
            causal=True, causal_sample_rate=0.5, causal_sample_seed=1
        )
        assert sampled.sampler is not None


def _run_rounds(mode, rate):
    """N_ROUNDS two-layer rounds under one pipeline; returns (obs, finishes)."""
    topo = Topology.by_group_size(12, 4)
    finishes = {}
    with _runtime.observe(
        causal=True, causal_sample_rate=rate, causal_sample_seed=SAMPLE_SEED
    ) as obs:
        for i in range(N_ROUNDS):
            trace_id = f"round{i}:s0"
            result = run_two_layer_wire_round(
                topo, _models(topo, i), k=3, seed=i, parallel=mode,
                trace_id=trace_id,
            )
            assert result.outcome.ok
            finishes[trace_id] = result.finish_time_ms
    return obs, finishes


def _paths(obs):
    return critical_paths_by_trace(obs.events)


class TestSampledRounds:
    @pytest.fixture(scope="class")
    def unsampled(self):
        return _run_rounds("off", 1.0)

    @pytest.fixture(scope="class")
    def sampled_off(self):
        return _run_rounds("off", RATE)

    def test_only_kept_traces_carry_spans(self, sampled_off):
        obs, _ = sampled_off
        sampler = TraceSampler(RATE, seed=SAMPLE_SEED)
        traced = {e.fields["trace"] for e in obs.events
                  if "trace" in e.fields}
        expected = {f"round{i}:s0" for i in range(N_ROUNDS)
                    if sampler.keep(f"round{i}:s0")}
        assert traced == expected
        assert 0 < len(expected) < N_ROUNDS  # the rate actually bites

    def test_kept_paths_match_unsampled_run_exactly(
        self, unsampled, sampled_off
    ):
        full_obs, _ = unsampled
        samp_obs, _ = sampled_off
        full_paths = _paths(full_obs)
        samp_paths = _paths(samp_obs)
        assert set(samp_paths) < set(full_paths)
        for trace_id, path in samp_paths.items():
            ref = full_paths[trace_id]
            assert path.latency_ms == ref.latency_ms
            assert [h.span_id for h in path.hops] \
                == [h.span_id for h in ref.hops]

    def test_critical_path_latency_equals_finish_time(self, sampled_off):
        obs, finishes = sampled_off
        paths = _paths(obs)
        for trace_id, path in paths.items():
            assert path.end_ms == finishes[trace_id]

    @pytest.mark.parametrize("mode", ["threads"])
    def test_parallel_modes_keep_the_same_traces(self, mode, sampled_off):
        ref_obs, ref_finishes = sampled_off
        obs, finishes = _run_rounds(mode, RATE)
        assert finishes == ref_finishes
        ref_paths = _paths(ref_obs)
        paths = _paths(obs)
        assert set(paths) == set(ref_paths)
        for trace_id, path in paths.items():
            ref = ref_paths[trace_id]
            assert path.latency_ms == ref.latency_ms
            assert [h.span_id for h in path.hops] \
                == [h.span_id for h in ref.hops]
