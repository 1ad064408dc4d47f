"""Token-bucket admission control."""

import pytest

from repro.serve.router import TenantRateLimiter, TokenBucket


class TestTokenBucket:
    def test_burst_then_deny_then_refill(self):
        bucket = TokenBucket(rate=1.0, burst=2.0, now=0.0)
        assert bucket.allow(now=0.0)
        assert bucket.allow(now=0.0)
        assert not bucket.allow(now=0.0)       # burst exhausted
        assert not bucket.allow(now=0.5)       # half a token refilled
        assert bucket.allow(now=2.0)           # 0.5 + 1.5 refilled = 2.0
        assert bucket.allow(now=2.0)           # ...so a second one fits
        assert not bucket.allow(now=2.0)       # and the third is denied

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3.0, now=0.0)
        for _ in range(3):
            assert bucket.allow(now=1000.0)    # long idle: only 3 tokens
        assert not bucket.allow(now=1000.0)

    def test_retry_after(self):
        bucket = TokenBucket(rate=2.0, burst=1.0, now=0.0)
        assert bucket.retry_after() == 0.0
        assert bucket.allow(now=0.0)
        assert bucket.retry_after() == pytest.approx(0.5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestTenantRateLimiter:
    def test_tenants_are_isolated(self):
        limiter = TenantRateLimiter(rate=1.0, burst=1.0)
        assert limiter.allow("a", now=0.0)
        assert not limiter.allow("a", now=0.0)   # a's bucket is empty...
        assert limiter.allow("b", now=0.0)       # ...b is untouched
        assert limiter.stats()["rejected"] == {"a": 1}

    def test_none_rate_disables_limiting(self):
        limiter = TenantRateLimiter(rate=None)
        assert all(limiter.allow("a", now=0.0) for _ in range(100))
        assert limiter.stats()["rejected"] == {}

    def test_default_burst_is_twice_rate(self):
        assert TenantRateLimiter(rate=5.0).burst == 10.0
        assert TenantRateLimiter(rate=0.25).burst == 1.0  # floor of one

    def test_retry_after_unknown_tenant(self):
        assert TenantRateLimiter(rate=1.0).retry_after("nobody") == 0.0
