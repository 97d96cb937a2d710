"""Admission control: what happens to a request at the ingress queue.

Under overload something has to give; the policy decides *what*.  Each
policy sees a request at its arrival instant together with the current
ingress queue and answers one of:

- ``ADMIT`` — enqueue it;
- ``DROP``  — reject it now (counted, never spawned);
- ``WAIT``  — backpressure: the *source* blocks until the queue drains
  (the open-loop source's later offers queue up behind it; each keeps
  its scheduled arrival instant).

The stock policies cover the classic overload envelope:

==================  =====================================================
policy              degradation mode under sustained overload
==================  =====================================================
AlwaysAdmit         unbounded queue -> unbounded p99 (the baseline)
DropTail            bounded queue depth; excess requests dropped
Backpressure        bounded queue depth; sources slowed to service rate
TokenBucket         bounded *admitted rate* -> bounded p99; excess dropped
TenantFairQueue     per-tenant depth bounds; heavy tenants cannot starve
                    light ones (pairs with round-robin dequeue)
==================  =====================================================

Policies are deterministic state machines over virtual time — no RNG,
no wall clock — so an admission trace is replayable from the run's
seeds alone.
"""

from __future__ import annotations

from typing import Dict, Optional

#: admission decisions
ADMIT = "admit"
DROP = "drop"
WAIT = "wait"


class AdmissionPolicy:
    """Base policy: admit everything (the no-admission baseline)."""

    #: dequeue order hint for the server: True -> round-robin across
    #: tenants instead of global FIFO.
    fair_dequeue = False

    def admit(self, request, queue, now: float) -> str:
        """Decide one request's fate at its arrival instant."""
        return ADMIT

    def describe(self) -> str:
        """Stable one-line description (goes into the report JSON)."""
        return "always-admit"


#: alias with a name that reads as what it is in configs
AlwaysAdmit = AdmissionPolicy


class DropTail(AdmissionPolicy):
    """Bound the ingress queue: drop arrivals once it is full."""

    def __init__(self, max_depth: int) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth

    def admit(self, request, queue, now: float) -> str:
        return DROP if len(queue) >= self.max_depth else ADMIT

    def describe(self) -> str:
        return f"drop-tail(max_depth={self.max_depth})"


class Backpressure(AdmissionPolicy):
    """Bound the queue by *blocking the source* instead of dropping."""

    def __init__(self, max_depth: int) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth

    def admit(self, request, queue, now: float) -> str:
        return WAIT if len(queue) >= self.max_depth else ADMIT

    def describe(self) -> str:
        return f"backpressure(max_depth={self.max_depth})"


class TokenBucket(AdmissionPolicy):
    """Admit at most ``rate_per_s`` sustained, ``burst`` instantaneous.

    Tokens refill continuously in virtual time (lazy accounting: the
    balance is settled at each admission decision), so the admitted
    stream never exceeds the configured rate for longer than one burst
    — which is what keeps the *served* queue, and therefore p99, within
    a fixed bound no matter how hard the offered load overshoots.
    """

    def __init__(self, rate_per_s: float, burst: int = 16) -> None:
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be > 0")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate_per_ns = rate_per_s / 1e9
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last_ns = 0.0

    def admit(self, request, queue, now: float) -> str:
        self._tokens = min(
            self.burst,
            self._tokens + (now - self._last_ns) * self.rate_per_ns,
        )
        self._last_ns = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return ADMIT
        return DROP

    def describe(self) -> str:
        return (f"token-bucket(rate_per_s={self.rate_per_ns * 1e9:g}, "
                f"burst={self.burst:g})")


class TenantFairQueue(AdmissionPolicy):
    """Per-tenant depth bounds plus round-robin dequeue.

    Each tenant gets its own slice of the ingress queue
    (``max_depth * weight / total_weight``, at least 1); a tenant that
    floods only fills its own slice.  ``fair_dequeue`` makes the server
    pick tenants round-robin, so a backlogged heavy tenant cannot
    head-of-line-block a light latency-sensitive one.
    """

    fair_dequeue = True

    def __init__(self, max_depth: int,
                 weights: Optional[Dict[str, float]] = None) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.weights = dict(weights or {})

    def _tenant_cap(self, tenant: str, queue) -> int:
        weights = self.weights
        if not weights:
            tenants = queue.tenant_names() or [tenant]
            share = self.max_depth / max(1, len(tenants))
        else:
            total = sum(weights.values()) or 1.0
            share = self.max_depth * weights.get(tenant, 0.0) / total
        return max(1, int(share))

    def admit(self, request, queue, now: float) -> str:
        if queue.depth(request.tenant) >= self._tenant_cap(
                request.tenant, queue):
            return DROP
        return ADMIT

    def describe(self) -> str:
        weights = ",".join(f"{k}={v:g}"
                           for k, v in sorted(self.weights.items()))
        return (f"tenant-fair(max_depth={self.max_depth}"
                + (f", weights[{weights}]" if weights else "") + ")")
