"""Per-tenant admission control for the serving gateway.

:class:`TokenBucket` is the classic rate limiter — capacity
``burst`` tokens, refilled at ``rate`` tokens/second, one token per
request — and :class:`TenantRateLimiter` keeps one bucket per tenant so
a single noisy tenant cannot starve the rest.  Both take an explicit
``now`` so tests (and the simulator, should it ever serve) can drive
time deterministically.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

__all__ = ["TokenBucket", "TenantRateLimiter"]


class TokenBucket:
    """Token-bucket limiter: ``burst`` capacity, ``rate`` tokens/second."""

    def __init__(self, rate: float, burst: float,
                 now: Optional[float] = None):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be > 0")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._stamp = time.monotonic() if now is None else now
        self._lock = threading.Lock()

    def allow(self, now: Optional[float] = None) -> bool:
        """Spend one token if available; refill lazily from elapsed time."""
        now = time.monotonic() if now is None else now
        with self._lock:
            elapsed = max(0.0, now - self._stamp)
            self._stamp = now
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
            if self.tokens >= 1.0:
                self.tokens -= 1.0
                return True
            return False

    def retry_after(self) -> float:
        """Seconds until one token will be available (advisory)."""
        with self._lock:
            if self.tokens >= 1.0:
                return 0.0
            return (1.0 - self.tokens) / self.rate


class TenantRateLimiter:
    """One :class:`TokenBucket` per tenant, created on first sight.

    ``rate=None`` disables limiting entirely (every ``allow`` succeeds),
    so the gateway can keep one unconditional call site.
    """

    def __init__(self, rate: Optional[float], burst: Optional[float] = None):
        self.rate = rate
        self.burst = burst if burst is not None else (
            max(1.0, 2.0 * rate) if rate else None
        )
        self._buckets: Dict[str, TokenBucket] = {}
        self._rejected: Dict[str, int] = {}
        self._lock = threading.Lock()

    def allow(self, tenant: str, now: Optional[float] = None) -> bool:
        if self.rate is None:
            return True
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    self.rate, self.burst, now=now
                )
        ok = bucket.allow(now=now)
        if not ok:
            with self._lock:
                self._rejected[tenant] = self._rejected.get(tenant, 0) + 1
        return ok

    def retry_after(self, tenant: str) -> float:
        with self._lock:
            bucket = self._buckets.get(tenant)
        return bucket.retry_after() if bucket else 0.0

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "rate": self.rate,
                "burst": self.burst,
                "tenants": sorted(self._buckets),
                "rejected": dict(sorted(self._rejected.items())),
            }
