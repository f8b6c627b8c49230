"""Resilience: retry schedules and the injectable clock.

* retry schedules are **pure functions** of (policy, key) — no RNG, no
  clock read — and the shm attach policy reproduces the pre-migration
  backoff tuple bit-exactly (the byte-identity pin lives here *and* in
  ``tests/test_runtime.py``);
* every wait flows through the injectable clock: a ``ManualClock``
  sleeps a retry schedule without sleeping real time.
"""

import hashlib

import pytest

from repro.resilience import (
    ManualClock,
    RetryPolicy,
    SystemClock,
    get_clock,
    jitter_token,
    scoped_clock,
    set_clock,
)


# --- jitter tokens and schedules ---------------------------------------------


class TestJitterToken:
    def test_hex_key_parses_directly(self):
        assert jitter_token("deadbeef" + "0" * 56) == 0xDEADBEEF

    def test_non_hex_key_hashes_deterministically(self):
        expected = int(
            hashlib.sha256(b"request-42").hexdigest()[:8], 16
        )
        assert jitter_token("request-42") == expected
        assert jitter_token("request-42") == jitter_token("request-42")

    def test_distinct_keys_spread(self):
        assert jitter_token("request-1") != jitter_token("request-2")


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError, match="base_delay"):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.0)
        with pytest.raises(ValueError, match="max_delay"):
            RetryPolicy(max_delay=-0.1)
        with pytest.raises(ValueError, match="jitter_frac"):
            RetryPolicy(jitter_frac=-0.5)

    def test_zero_base_delay_means_zero_schedule(self):
        policy = RetryPolicy(attempts=4, base_delay=0.0)
        assert policy.delays("deadbeef") == (0.0, 0.0, 0.0)

    def test_schedule_is_pure_per_key(self):
        policy = RetryPolicy(attempts=5, base_delay=0.01)
        digest = "a1b2c3d4" + "0" * 56
        assert policy.delays(digest) == policy.delays(digest)
        assert len(policy.delays(digest)) == policy.attempts - 1

    def test_nibble_jitter_formula_pinned(self):
        # The contract the shm migration leans on: retry i waits
        # base * multiplier**i * (1 + nibble_i * jitter_frac), where
        # nibble_i is bits [4i, 4i+4) of the key token.
        policy = RetryPolicy(
            attempts=4, base_delay=0.01, multiplier=2.0, jitter_frac=1.0 / 32.0
        )
        digest = "fedcba98" + "0" * 56
        token = 0xFEDCBA98
        expected = tuple(
            0.01 * 2.0 ** i * (1.0 + ((token >> (4 * i)) & 0xF) / 32.0)
            for i in range(3)
        )
        assert policy.delays(digest) == expected

    def test_max_delay_caps_before_jitter(self):
        policy = RetryPolicy(
            attempts=4,
            base_delay=1.0,
            multiplier=10.0,
            max_delay=2.0,
            jitter_frac=0.0,
        )
        assert policy.delays("deadbeef") == (1.0, 2.0, 2.0)

    def test_jitter_bounded_by_fifteen_nibble_steps(self):
        policy = RetryPolicy(attempts=6, base_delay=0.01, multiplier=2.0)
        for key in ("ffffffff" + "0" * 56, "0" * 64, "serve-req-9"):
            for i, delay in enumerate(policy.delays(key)):
                scaled = min(policy.max_delay, 0.01 * 2.0 ** i)
                assert scaled <= delay <= scaled * (1 + 15 * policy.jitter_frac)

    def test_empty_key_disables_jitter(self):
        policy = RetryPolicy(attempts=3, base_delay=0.5, multiplier=2.0)
        assert policy.delays("") == (0.5, 1.0)

    def test_allows_retry_matches_attempt_budget(self):
        policy = RetryPolicy(attempts=3)
        assert policy.allows_retry(0)
        assert policy.allows_retry(2)
        assert not policy.allows_retry(3)
        # attempts=1 means "run once, never retry" — the runner's
        # retries=0 configuration.
        assert not RetryPolicy(attempts=1).allows_retry(1)

    def test_attempts_iter_sleeps_schedule_between_attempts(self):
        clock = ManualClock()
        policy = RetryPolicy(attempts=3, base_delay=0.5, jitter_frac=0.0)
        attempts = list(policy.attempts_iter("deadbeef", clock=clock))
        assert attempts == [1, 2, 3]
        assert tuple(clock.sleeps) == policy.delays("deadbeef")

    def test_attempts_iter_lazy_success_never_sleeps(self):
        clock = ManualClock()
        policy = RetryPolicy(attempts=3, base_delay=0.5)
        for attempt in policy.attempts_iter("deadbeef", clock=clock):
            break  # first attempt succeeded
        assert clock.sleeps == []

    def test_call_returns_first_success(self):
        clock = ManualClock()
        policy = RetryPolicy(attempts=3, base_delay=0.5)
        assert policy.call(lambda: 42, clock=clock) == 42
        assert clock.sleeps == []

    def test_call_retries_then_succeeds(self):
        clock = ManualClock()
        policy = RetryPolicy(attempts=3, base_delay=0.5, jitter_frac=0.0)
        failures = iter([OSError("one"), OSError("two")])

        def flaky():
            try:
                raise next(failures)
            except StopIteration:
                return "ok"

        seen = []
        result = policy.call(
            flaky,
            key="deadbeef",
            retry_on=(OSError,),
            clock=clock,
            on_retry=lambda attempt, exc: seen.append((attempt, str(exc))),
        )
        assert result == "ok"
        assert seen == [(1, "one"), (2, "two")]
        assert tuple(clock.sleeps) == policy.delays("deadbeef")

    def test_call_final_failure_propagates(self):
        clock = ManualClock()
        policy = RetryPolicy(attempts=2, base_delay=0.1)

        def always():
            raise OSError("still down")

        with pytest.raises(OSError, match="still down"):
            policy.call(always, retry_on=(OSError,), clock=clock)
        assert len(clock.sleeps) == 1  # one backoff before the final try

    def test_call_giveup_short_circuits(self):
        clock = ManualClock()
        policy = RetryPolicy(attempts=5, base_delay=0.1)

        def vanished():
            raise FileNotFoundError("segment gone for good")

        with pytest.raises(FileNotFoundError):
            policy.call(
                vanished,
                retry_on=(OSError,),
                clock=clock,
                giveup=lambda exc: isinstance(exc, FileNotFoundError),
            )
        assert clock.sleeps == []  # no backoff was burned on a dead target

    def test_call_unlisted_exception_propagates_immediately(self):
        policy = RetryPolicy(attempts=5, base_delay=0.1)
        calls = []

        def wrong_kind():
            calls.append(1)
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            policy.call(wrong_kind, retry_on=(OSError,), clock=ManualClock())
        assert len(calls) == 1


# --- clocks ------------------------------------------------------------------


class TestClocks:
    def test_manual_clock_sleep_advances_and_records(self):
        clock = ManualClock(start=10.0)
        assert clock.monotonic() == 10.0
        clock.sleep(2.5)
        assert clock.monotonic() == 12.5
        assert clock.sleeps == [2.5]

    def test_manual_clock_ignores_nonpositive_sleep(self):
        clock = ManualClock()
        clock.sleep(0.0)
        clock.sleep(-1.0)
        assert clock.monotonic() == 0.0
        assert clock.sleeps == []

    def test_manual_clock_advance(self):
        clock = ManualClock()
        clock.advance(30.0)
        assert clock.monotonic() == 30.0
        assert clock.sleeps == []  # advance is not a sleep

    def test_scoped_clock_installs_and_restores(self):
        before = get_clock()
        manual = ManualClock()
        with scoped_clock(manual) as active:
            assert active is manual
            assert get_clock() is manual
        assert get_clock() is before

    def test_set_clock_returns_previous(self):
        manual = ManualClock()
        previous = set_clock(manual)
        try:
            assert get_clock() is manual
        finally:
            assert set_clock(previous) is manual
        assert get_clock() is previous

    def test_system_clock_is_default(self):
        assert isinstance(get_clock(), SystemClock)
