"""Retry policy: seeded jitter determinism and fault classification."""

import asyncio
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ServerBusyError,
    TransitionError,
    TransportError,
)
from repro.resilience import RetryPolicy
from repro.resilience import retry as retry_module


class TestClassification:
    def test_transport_faults_are_transient(self):
        policy = RetryPolicy()
        assert policy.is_transient(TransportError("reset"))
        assert policy.is_transient(ProtocolError("desync"))
        assert policy.is_transient(ConnectionResetError())
        assert policy.is_transient(ConnectionRefusedError())
        assert policy.is_transient(asyncio.TimeoutError())
        assert policy.is_transient(OSError("no route to host"))

    def test_logic_faults_are_fatal(self):
        policy = RetryPolicy()
        assert not policy.is_transient(ConfigurationError("bad id"))
        assert not policy.is_transient(TransitionError("drain open"))
        assert not policy.is_transient(ValueError("nope"))
        assert not policy.is_transient(KeyError("nope"))

    def test_cancellation_is_never_retried(self, monkeypatch):
        # A retry would defeat the cancellation — even a transient tuple
        # as broad as BaseException cannot opt it back in.
        assert not RetryPolicy().is_transient(asyncio.CancelledError())
        monkeypatch.setattr(retry_module, "TRANSIENT_ERRORS", (BaseException,))
        assert not RetryPolicy().is_transient(asyncio.CancelledError())

    def test_shed_replies_are_never_retried(self, monkeypatch):
        # A shed means some layer refused work it could not absorb; an
        # immediate retry is the retry-storm amplifier.
        policy = RetryPolicy()
        assert not policy.is_transient(ServerBusyError("SERVER_ERROR busy"))
        # Unconditional: broader transient classes cannot override it.
        monkeypatch.setattr(retry_module, "TRANSIENT_ERRORS", (Exception,))
        broad = RetryPolicy()
        assert not broad.is_transient(ServerBusyError("SERVER_ERROR busy"))
        assert broad.is_transient(TransportError("reset"))


class TestBackoff:
    def test_exponential_growth_with_cap_no_jitter(self, monkeypatch):
        monkeypatch.setattr(retry_module, "JITTER", 0.0)
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, max_delay=0.3)
        assert list(policy.delays()) == pytest.approx([0.1, 0.2, 0.3, 0.3])

    def test_seeded_jitter_is_deterministic(self, monkeypatch):
        policy = RetryPolicy(max_attempts=6)
        first = list(policy.delays())
        second = list(policy.delays())
        assert first == second
        monkeypatch.setattr(retry_module, "SEED", retry_module.SEED + 1)
        assert list(policy.delays()) != first

    def test_jitter_stays_inside_the_proportional_band(self, monkeypatch):
        monkeypatch.setattr(retry_module, "MULTIPLIER", 1.0)
        policy = RetryPolicy(max_attempts=40, base_delay=0.1, max_delay=1.0)
        for delay in policy.delays():
            assert 0.08 <= delay <= 0.12

    def test_one_attempt_means_no_sleeps(self):
        assert list(RetryPolicy(max_attempts=1).delays()) == []

    def test_backoff_rejects_negative_attempt(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff(-1)


class TestBackoffProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
        max_attempts=st.integers(min_value=1, max_value=8),
        jitter=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_total_sleep_never_exceeds_the_budget(
        self, seed, max_attempts, jitter
    ):
        """Whatever the seed draws, the realized backoff sequence fits
        inside the worst case: every capped delay at ``+jitter``."""
        policy = RetryPolicy(
            max_attempts=max_attempts, base_delay=0.01, max_delay=0.5
        )
        with mock.patch.multiple(retry_module, JITTER=jitter, SEED=seed):
            delays = list(policy.delays())
        assert len(delays) == max_attempts - 1
        assert all(delay >= 0.0 for delay in delays)
        worst = sum(
            min(0.5, 0.01 * 2.0 ** attempt) * (1.0 + jitter)
            for attempt in range(max_attempts - 1)
        )
        assert sum(delays) <= worst + 1e-12


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)
