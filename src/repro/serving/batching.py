"""The batch flush policy shared by both serving tiers' collectors.

Neural inference amortizes: one forward pass over eight padded requests costs
far less than eight passes over one request each.  :class:`BatchWindow` is
the flush policy that lets an accumulating batch fill without letting it
wait forever: a batch is dispatched when it reaches ``max_batch`` requests
*or* ``max_wait_ms`` has elapsed since its first request arrived, whichever
comes first.  The gateway core's collector
(:func:`repro.serving.gateway.collect_batch`) runs it for both serving
tiers, which see requests one at a time and need the time trigger to bound
latency under trickle traffic.  The synchronous
:meth:`~repro.serving.pipeline.Pipeline.serve` sees whole bursts, so it
splits them on size alone (:func:`repro.core.batching.group_into_batches`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelConfigError


@dataclass(frozen=True)
class BatchWindow:
    """Time/size flush policy for an accumulating batch.

    A window opens when the first item of a batch arrives and closes —
    triggering a flush — as soon as either ``max_batch`` items are pending or
    ``max_wait_ms`` milliseconds have passed since the window opened.  The
    policy is pure arithmetic over caller-supplied clocks, so it is trivially
    unit-testable apart from the asyncio collector that runs it.
    """

    max_batch: int = 8
    max_wait_ms: float = 2.0

    def __post_init__(self):
        if self.max_batch <= 0:
            raise ModelConfigError("max_batch must be positive")
        if self.max_wait_ms < 0:
            raise ModelConfigError("max_wait_ms must be non-negative")

    def closes_at(self, opened_at: float) -> float:
        """The absolute time (same clock as ``opened_at``) the window closes."""
        return opened_at + self.max_wait_ms / 1000.0

    def is_full(self, pending: int) -> bool:
        """Whether ``pending`` items alone force a flush."""
        return pending >= self.max_batch

    def should_flush(self, pending: int, opened_at: float, now: float) -> bool:
        """Whether a batch opened at ``opened_at`` must flush at ``now``."""
        return self.is_full(pending) or now >= self.closes_at(opened_at)

    def remaining_wait(self, opened_at: float, now: float) -> float:
        """Seconds the collector may still wait for more items (>= 0)."""
        return max(0.0, self.closes_at(opened_at) - now)
