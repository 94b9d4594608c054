"""Tests for the message-passing SAC protocol on the simulated network."""

import numpy as np
import pytest

from repro.secure import seedshare
from repro.secure.fault_tolerant import expected_ft_sac_bits
from repro.secure.protocol import run_sac_protocol


def make_models(n, size=8, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=size) for _ in range(n)]


class TestFailureFree:
    def test_result_equals_mean(self):
        models = make_models(5)
        result = run_sac_protocol(models, k=3)
        assert result.outcome.ok
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), rtol=1e-10
        )

    def test_wire_bits_match_closed_form(self):
        """On-the-wire payload == {n(n-1)(n-k+1) + (k-1)}|w| + small
        control overhead (Sec. VII-B), for several (n, k)."""
        for n, k in [(3, 2), (5, 3), (5, 5), (4, 4)]:
            size = 50
            models = make_models(n, size=size)
            result = run_sac_protocol(models, k=k)
            assert result.outcome.ok
            payload = expected_ft_sac_bits(n, k, size)
            assert result.bits_sent == payload  # no recovery -> no overhead

    def test_finish_time_two_hops(self):
        """Failure-free round finishes in exactly 2 network hops."""
        result = run_sac_protocol(make_models(5), k=3, delay_ms=15.0)
        assert result.finish_time_ms == pytest.approx(30.0)

    def test_k1_leader_self_sufficient_after_one_hop(self):
        # k=1: everyone holds every share; the leader needs no subtotals.
        result = run_sac_protocol(make_models(4), k=1, delay_ms=15.0)
        assert result.outcome.ok
        assert result.finish_time_ms == pytest.approx(15.0)

    def test_different_leader(self):
        models = make_models(5)
        result = run_sac_protocol(models, k=3, leader=2)
        np.testing.assert_allclose(result.average, np.mean(models, axis=0))


class TestDropouts:
    def test_dropout_after_share_phase_recovers_exact_average(self):
        """The Fig. 3 scenario on the wire: a peer crashes after its
        bundles are in flight; the leader fetches its subtotal from a
        replica holder and the average still counts the crashed model."""
        models = make_models(3, size=6)
        result = run_sac_protocol(
            models, k=2, leader=1, crash_at={0: 20.0}, subtotal_timeout_ms=50.0
        )
        assert result.outcome.ok
        np.testing.assert_allclose(
            result.average, np.mean(models, axis=0), rtol=1e-10
        )
        assert 0 in result.recovered_shares

    def test_recovery_takes_extra_time(self):
        clean = run_sac_protocol(make_models(3), k=2, leader=1)
        dirty = run_sac_protocol(
            make_models(3), k=2, leader=1, crash_at={0: 20.0},
            subtotal_timeout_ms=50.0,
        )
        assert dirty.finish_time_ms > clean.finish_time_ms

    def test_recovery_costs_extra_messages(self):
        clean = run_sac_protocol(make_models(5), k=3, leader=2)
        dirty = run_sac_protocol(
            make_models(5), k=3, leader=2, crash_at={0: 20.0},
            subtotal_timeout_ms=50.0,
        )
        assert dirty.messages_sent > clean.messages_sent

    def test_max_tolerable_dropouts(self):
        models = make_models(5, size=4)
        result = run_sac_protocol(
            models, k=3, leader=2, crash_at={0: 20.0, 4: 20.0},
            subtotal_timeout_ms=50.0, round_timeout_ms=5_000.0,
        )
        assert result.outcome.ok
        np.testing.assert_allclose(result.average, np.mean(models, axis=0))

    def test_crash_before_share_phase_fails_round(self):
        """A peer that dies before distributing shares makes the round
        unrecoverable — the caller must restart with the survivors."""
        models = make_models(3)
        result = run_sac_protocol(
            models, k=2, leader=1, crash_at={0: 0.0},
            subtotal_timeout_ms=50.0, round_timeout_ms=1_000.0,
        )
        assert not result.outcome.ok
        assert result.average is None

    def test_crashing_leader_rejected(self):
        with pytest.raises(ValueError):
            run_sac_protocol(make_models(3), k=2, leader=1, crash_at={1: 5.0})


class TestSeedCodecExpansion:
    def test_each_mask_generated_once_per_round(self, monkeypatch):
        """Seed-codec FT-SAC with an Alg. 4 recovery runs the PRG N(n-1)
        times, once per mask at its sender: holders, the recovery reply
        and the leader reuse the sender's memoised expansion."""
        n, k = 5, 3
        models = make_models(n, size=64)
        built = []
        real = seedshare._expander
        monkeypatch.setattr(
            seedshare, "_expander", lambda seed: built.append(seed) or real(seed)
        )
        # Peer 0 sends its primary subtotal to leader 2; crashing it after
        # the shares land (15 ms) forces the replica fetch.
        kw = dict(k=k, leader=2, crash_at={0: 20.0}, seed=7)
        seed_run = run_sac_protocol(models, share_codec="seed", **kw)
        assert seed_run.outcome.ok
        assert seed_run.recovered_shares == (0,)
        assert len(built) == len(set(built)) == n * (n - 1)
        dense_run = run_sac_protocol(models, share_codec="seed-dense", **kw)
        assert dense_run.recovered_shares == (0,)
        assert seed_run.average.tobytes() == dense_run.average.tobytes()


class TestValidation:
    def test_bad_k(self):
        with pytest.raises(ValueError):
            run_sac_protocol(make_models(3), k=0)
        with pytest.raises(ValueError):
            run_sac_protocol(make_models(3), k=9)

    def test_bad_leader(self):
        with pytest.raises(ValueError):
            run_sac_protocol(make_models(3), k=2, leader=7)

    def test_deterministic(self):
        a = run_sac_protocol(make_models(4), k=2, seed=5)
        b = run_sac_protocol(make_models(4), k=2, seed=5)
        np.testing.assert_array_equal(a.average, b.average)
        assert a.bits_sent == b.bits_sent
