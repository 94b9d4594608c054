"""Typed RoundOutcome and the deprecated ``completed`` compatibility."""

import numpy as np
import pytest

from repro.simnet import (
    COMPLETED,
    LEADER_ISOLATED,
    OUTCOME_COMPLETED,
    ROUND_STATUSES,
    TIMED_OUT,
    UNRECOVERABLE_DROPOUT,
    RoundOutcome,
)


class TestRoundOutcome:
    def test_statuses_are_exhaustive(self):
        assert set(ROUND_STATUSES) == {
            COMPLETED, TIMED_OUT, UNRECOVERABLE_DROPOUT, LEADER_ISOLATED,
        }

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError, match="unknown round status"):
            RoundOutcome("exploded")

    def test_ok_and_degraded_are_complements(self):
        assert OUTCOME_COMPLETED.ok and not OUTCOME_COMPLETED.degraded
        failed = RoundOutcome(TIMED_OUT, "budget gone")
        assert failed.degraded and not failed.ok

    def test_str_includes_the_reason(self):
        assert str(RoundOutcome(LEADER_ISOLATED, "partition")) == \
            "leader_isolated(partition)"
        assert str(OUTCOME_COMPLETED) == "completed"
