"""The gateway core both serving tiers run on.

The thread-backed :class:`~repro.serving.server.Server` and the forked
:class:`~repro.serving.sharded.ShardedServer` are one machine with two
executors; this module is the machine, defined once (``docs/serving.md``,
"Gateway core"): admission in a fixed order (:meth:`Gateway.submit`), the
deployment control plane (router flips, canary guards, shadow ledger, the
per-version ``pending`` counter a drain waits on), completion and request
accounting (:meth:`Gateway.resolve`), the two work-conserving dispatch rules
(:func:`place` picks a shard, :func:`collect_batch` closes a batch) and the one
place a chunk stream meets its final response (:class:`StreamReconciler`).

A tier brings an :class:`Executor` plus whatever runs a collected batch
(threads and engines, or pipes and shard processes) and reports each job
back through :meth:`Gateway.resolve`.  The core never asks which tier it
serves: where they differ (pin spelling, cache namespace, telemetry) the
difference is an executor result.  Everything here runs on one event loop.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable
from typing import NamedTuple

from repro.deploy.router import CanaryGuard, HashRing, Router
from repro.errors import ModelConfigError
from repro.serving.batching import BatchWindow
from repro.serving.pipeline import error_code_for
from repro.serving.protocol import (
    ERROR_BACKEND,
    ERROR_CODES,
    ERROR_CORPUS_EMPTY,
    ERROR_DEADLINE,
    ERROR_INDEX_MISMATCH,
    ERROR_INVALID_REQUEST,
    ERROR_QUEUE_FULL,
    ERROR_SHARD_FAILED,
    ERROR_SHUTDOWN,
    Request,
    Response,
    ResponseChunk,
    error_response,
)


#: Per-deployment counters (``stats()["deployments"][id]["requests"]`` on the thread tier).
_DEPLOYMENT_TALLIES = (
    "routed", "completed", "cache_hits", "coalesced", "backend_error", "deadline_exceeded", "shadow_requests",
)
#: What one ``"primary->shadow"`` ledger entry accumulates.
_SHADOW_TALLIES = ("samples", "agreements", "shadow_errors", "primary_errors", "dropped", "latency_delta_ms_sum")


class Executor(NamedTuple):
    """What a serving tier supplies to the :class:`Gateway`.

    A *ticket* is the tier's own view of one request; the core reads only its
    ``key`` — the content identity as identified, the response-cache key once
    bound.
    """

    #: ``identify(request) -> (ticket, pin)``; ``pin`` is the deployment id the
    #: request names, or ``None``.  A raise rejects the request
    #: (:func:`~repro.serving.pipeline.error_code_for` picks the code).
    identify: Callable
    #: ``bind(ticket, deployment) -> ticket`` in that deployment's cache namespace.
    bind: Callable
    #: ``cached(ticket, deployment) -> Response | None`` for a bound ticket.
    cached: Callable
    #: ``enqueue(job)`` onto a lane the tier drains; raises :class:`Rejected`.
    enqueue: Callable
    #: ``response(ticket, deployment, outcome, job) -> Response`` for the job's
    #: owner, or for a coalesced follower when ``job`` is ``None``.
    response: Callable


class Rejected(Exception):
    """Raised by :attr:`Executor.enqueue`: the structured refusal to queue a job."""

    def __init__(self, code: str, detail: str):
        super().__init__(detail)
        self.code = code
        self.detail = detail


class Outcome(NamedTuple):
    """How one job ended (``error`` is ``None`` on success); ``output`` is what shadow
    comparison reads, ``payload`` whatever the executor's ``response`` needs."""

    output: str | None = None
    error: str | None = None
    detail: str | None = None
    payload: object = None


class Deployment:
    """Runtime record of one deployed version (tiers subclass it for their own state).

    ``pending`` counts jobs enqueued on it and not yet resolved — what a drain
    waits on; ``revision`` counts in-place weight swaps.
    """

    __slots__ = ("deployment_id", "tasks", "revision", "draining", "pending", "latency_ms_sum", "counts")

    def __init__(self, deployment_id: str, tasks=()):
        self.deployment_id = deployment_id
        self.tasks = set(tasks)
        self.revision = 0
        self.draining = False
        self.pending = 0
        self.latency_ms_sum = 0.0
        self.counts = dict.fromkeys(_DEPLOYMENT_TALLIES, 0)


class Job:
    """One enqueued request: ``revision`` is the weight revision it was admitted (and
    cache-keyed) under, ``on_text`` marks a streaming job, ``telemetry`` is the
    executor's to fill with placement facts for the owner's response."""

    __slots__ = ("ticket", "deployment", "revision", "future", "enqueued_at", "deadline_at", "on_text", "telemetry")

    def __init__(self, ticket, deployment: Deployment, future: asyncio.Future, enqueued_at, deadline_at, on_text):
        self.ticket = ticket
        self.deployment = deployment
        self.revision = deployment.revision
        self.future = future
        self.enqueued_at = enqueued_at
        self.deadline_at = deadline_at
        self.on_text = on_text
        self.telemetry: dict | None = None


class Gateway:
    """Admission, routing, canary/shadow and accounting over one :class:`Executor`.

    ``primary`` answers every unrouted task (a tier that swaps primaries
    assigns it); the tier sets ``stopped`` when it shuts down.
    """

    def __init__(self, executor: Executor, primary: Deployment):
        self.executor = executor
        self.primary = primary
        self.deployments: dict[str, Deployment] = {primary.deployment_id: primary}
        self.router = Router()
        # guard id -> {"guard": CanaryGuard, "completed": ..., "backend_errors": ...}
        # — the counter baseline at install time, so the guard judges only
        # traffic the canary served *while guarded*, not its whole history.
        self.guards: dict[str, dict] = {}
        self.rollbacks: list[dict] = []
        self.inflight: dict[str, asyncio.Future] = {}
        self.stopped = False
        self.counts: dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "cache_hits": 0,
            "coalesced": 0,
            **{code: 0 for code in ERROR_CODES},
        }
        self._ledger: dict[str, dict] = {}
        self._recorders: set[asyncio.Task] = set()

    # -- the deployment control plane ----------------------------------------------------
    def require(self, deployment_id: str) -> Deployment:
        """The record for ``deployment_id``; raises when it is not deployed."""
        deployment = self.deployments.get(deployment_id)
        if deployment is None:
            known = ", ".join(sorted(self.deployments))
            raise ModelConfigError(f"unknown deployment {deployment_id!r}; deployed: {known}")
        return deployment

    def check_target(self, task: str, deployment_id: str) -> Deployment:
        """The record ``task`` traffic may be sent to: deployed, not draining, serving it."""
        deployment = self.require(deployment_id)
        if deployment.draining:
            raise ModelConfigError(f"deployment {deployment_id!r} is draining and not accepting requests")
        if task not in deployment.tasks:
            raise ModelConfigError(
                f"deployment {deployment_id!r} does not serve task {task!r} "
                f"(serves: {', '.join(sorted(deployment.tasks))})"
            )
        return deployment

    def set_routes(self, task: str, weights: dict[str, float]) -> None:
        """Atomically install the weighted deployment split for ``task``."""
        for deployment_id in weights:
            self.check_target(task, deployment_id)
        self.router = self.router.with_routes(task, weights)
        self._prune_guards()

    def clear_routes(self, task: str) -> None:
        """Remove ``task``'s routes and shadow; its traffic returns to the primary."""
        self.router = self.router.without_task(task)
        self._prune_guards()

    def set_shadow(self, task: str, deployment_id: str, fraction: float) -> None:
        """Mirror ``fraction`` of ``task`` traffic to ``deployment_id`` (``<= 0`` clears)."""
        if fraction > 0:
            self.check_target(task, deployment_id)
        self.router = self.router.with_shadow(task, deployment_id, fraction)
        self._prune_guards()

    def set_canary(
        self, task: str, stable: str, canary: str, fraction: float,
        max_error_rate: float | None = None, min_requests: int = 20,
    ) -> None:
        """Split ``task`` between ``stable`` and a ``fraction`` canary; with
        ``max_error_rate``, guard it (counting from now) against ``backend_error``."""
        if not 0.0 < fraction < 1.0:
            raise ModelConfigError(f"canary fraction must be in (0, 1), got {fraction!r}")
        self.set_routes(task, {stable: 1.0 - fraction, canary: fraction})
        if max_error_rate is not None:
            counts = self.deployments[canary].counts
            self.guards[canary] = {
                "guard": CanaryGuard(deployment=canary, max_error_rate=max_error_rate, min_requests=min_requests),
                "completed": counts["completed"],
                "backend_errors": counts["backend_error"],
            }

    def retire(self, deployment_id: str) -> Deployment:
        """Unroute a non-primary version and mark it draining: nothing new lands on it.

        The tier awaits :meth:`drained`, then drops the record from ``deployments``.
        """
        deployment = self.require(deployment_id)
        if deployment is self.primary:
            raise ModelConfigError(
                f"the primary deployment {deployment_id!r} cannot be undeployed; swap or route to another version"
            )
        self.router = self.router.without(deployment_id)
        self.guards.pop(deployment_id, None)
        deployment.draining = True
        return deployment

    async def drained(self, deployment: Deployment, timeout: float | None = None) -> bool:
        """Wait until every job enqueued on ``deployment`` resolved; ``False`` on timeout."""
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        while deployment.pending > 0:
            if deadline is not None and loop.time() >= deadline:
                return False
            await asyncio.sleep(0.001)
        return True

    def _prune_guards(self) -> None:
        """Drop guards whose deployment no longer appears in any route or shadow."""
        referenced = set(self.router.deployments())
        for deployment_id in [did for did in self.guards if did not in referenced]:
            del self.guards[deployment_id]

    # -- routing -------------------------------------------------------------------------
    def route(self, task: str, key: str, pin: str | None) -> Deployment:
        """The deployment serving ``(task, key)``: pin > router > primary."""
        if pin is not None:
            return self.check_target(task, pin)
        deployment = self.deployments.get(self.router.route(task, key))
        if deployment is None or deployment.draining:
            # Unrouted, or a stale table observed mid-flip: the primary answers.
            return self.primary
        return deployment

    def _shadow_target(self, task: str, key: str, pin: str | None, primary: Deployment) -> Deployment | None:
        """The deployment to mirror this request to, if any.  Best-effort: a pinned
        request, or a sample landing on the serving, a missing, a draining or a
        non-serving version, is skipped rather than failed."""
        if pin is not None:
            return None
        deployment = self.deployments.get(self.router.shadow(task, key))
        if deployment is None or deployment is primary or deployment.draining or task not in deployment.tasks:
            return None
        return deployment

    # -- admission -----------------------------------------------------------------------
    async def submit(self, request: Request, deadline: float | None = None, on_text=None) -> Response:
        """Serve one request; always returns a :class:`Response`, never raises.

        ``deadline`` (seconds) becomes the job's ``deadline_at``, enforced by the
        executor at dispatch; ``on_text`` makes it a streaming job.
        """
        self.counts["submitted"] += 1
        if self.stopped:
            return self._reject(request, ERROR_SHUTDOWN, "server is stopped")
        executor = self.executor
        try:
            ticket, pin = executor.identify(request)
            deployment = self.route(request.task, ticket.key, pin)
        except Exception as error:  # noqa: BLE001 - submit never raises, per contract
            return self._reject(request, error_code_for(error), str(error))
        bound = executor.bind(ticket, deployment)  # what answers changed: so must the cache identity
        shadow = self._shadow_target(request.task, ticket.key, pin, deployment)

        cached = executor.cached(bound, deployment)
        if cached is not None:
            self.counts["cache_hits"] += 1
            self.counts["completed"] += 1
            deployment.counts["cache_hits"] += 1
            if shadow is not None:
                self._mirror(ticket, deployment, shadow, _settled(Outcome(output=cached.output)))
            return cached

        shared = self.inflight.get(bound.key)
        if shared is not None:
            self.counts["coalesced"] += 1
            deployment.counts["coalesced"] += 1
            if shadow is not None:
                self._mirror(ticket, deployment, shadow, shared)
            # Shielded: a cancelled follower must not cancel the owner's future.
            outcome = await asyncio.shield(shared)
            return self._account(executor.response(bound, deployment, outcome, None), outcome)

        if deadline is not None and deadline <= 0:
            return self._reject(request, ERROR_DEADLINE, "deadline expired before the request was queued")
        try:
            job = self._enqueue(bound, deployment, deadline, on_text)
        except Rejected as rejected:
            return self._reject(request, rejected.code, rejected.detail)
        if shadow is not None:
            self._mirror(ticket, deployment, shadow, job.future)
        outcome = await job.future
        return self._account(executor.response(job.ticket, deployment, outcome, job), outcome)

    def _reject(self, request: Request, code: str, detail: str) -> Response:
        self.counts[code] += 1
        return error_response(request, code, detail)

    def _account(self, response: Response, outcome: Outcome) -> Response:
        self.counts["completed" if outcome.error is None else outcome.error] += 1
        return response

    def _enqueue(self, ticket, deployment: Deployment, deadline: float | None, on_text=None) -> Job:
        loop = asyncio.get_running_loop()
        now = loop.time()
        deadline_at = None if deadline is None else now + deadline
        job = Job(ticket, deployment, loop.create_future(), now, deadline_at, on_text)
        self.executor.enqueue(job)
        deployment.pending += 1
        deployment.counts["routed"] += 1
        self.inflight[ticket.key] = job.future
        return job

    # -- completion ----------------------------------------------------------------------
    def resolve(self, job: Job, outcome: Outcome) -> None:
        """Settle ``job`` — exactly once per job, by whoever ran (or failed) it."""
        self.inflight.pop(job.ticket.key, None)
        if not job.future.done():
            job.future.set_result(outcome)
        deployment = job.deployment
        deployment.pending -= 1
        if outcome.error is None:
            deployment.counts["completed"] += 1
            deployment.latency_ms_sum += (job.future.get_loop().time() - job.enqueued_at) * 1000.0
        elif outcome.error == ERROR_BACKEND:
            deployment.counts["backend_error"] += 1
            self._maybe_revert(deployment)
        elif outcome.error == ERROR_DEADLINE:
            deployment.counts["deadline_exceeded"] += 1

    def _maybe_revert(self, deployment: Deployment) -> None:
        """Auto-revert a guarded canary whose error rate breached its threshold."""
        state = self.guards.get(deployment.deployment_id)
        if state is None:
            return
        guard: CanaryGuard = state["guard"]
        # Judge only what the canary served since the guard was installed.
        completed = deployment.counts["completed"] - state["completed"]
        backend_errors = deployment.counts["backend_error"] - state["backend_errors"]
        if not guard.should_revert(completed, backend_errors):
            return
        self.router = self.router.without(deployment.deployment_id)
        del self.guards[deployment.deployment_id]
        self.rollbacks.append(
            {
                "deployment": deployment.deployment_id,
                "error_rate": round(backend_errors / (completed + backend_errors), 4),
                "completed": completed,
                "backend_errors": backend_errors,
                "max_error_rate": guard.max_error_rate,
            }
        )

    def unsettled(self) -> list:
        """Every awaitable still owed an answer: in-flight futures and shadow recorders."""
        return [*self.inflight.values(), *self._recorders]

    # -- shadow traffic ------------------------------------------------------------------
    def _bucket(self, primary: Deployment, shadow: Deployment) -> dict:
        pair = f"{primary.deployment_id}->{shadow.deployment_id}"
        return self._ledger.setdefault(pair, dict.fromkeys(_SHADOW_TALLIES, 0))

    def _mirror(self, ticket, primary: Deployment, shadow: Deployment, primary_future: asyncio.Future) -> None:
        """Mirror one request to ``shadow`` and record the comparison.

        The duplicate takes the normal path under the shadow's cache namespace
        (coalescing with, and warming the cache for, traffic pinned there); a
        refused enqueue drops the sample (counted) rather than back-pressuring.
        """
        shadow.counts["shadow_requests"] += 1
        bound = self.executor.bind(ticket, shadow)
        cached = self.executor.cached(bound, shadow)
        if cached is not None:
            shadow_future = _settled(Outcome(output=cached.output))
        else:
            shadow_future = self.inflight.get(bound.key)
        if shadow_future is None:
            try:
                shadow_future = self._enqueue(bound, shadow, None).future
            except Rejected:
                self._bucket(primary, shadow)["dropped"] += 1
                return
        bucket = self._bucket(primary, shadow)
        recorder = asyncio.ensure_future(self._record_shadow(bucket, primary_future, shadow_future))
        self._recorders.add(recorder)
        recorder.add_done_callback(self._recorders.discard)

    @staticmethod
    async def _record_shadow(bucket: dict, primary_future: asyncio.Future, shadow_future: asyncio.Future) -> None:
        """Await both sides of one shadow pair and fold them into the ledger."""

        async def settled(future: asyncio.Future) -> tuple[Outcome, float]:
            outcome = await future
            return outcome, future.get_loop().time()

        (primary, primary_done), (shadow, shadow_done) = await asyncio.gather(
            settled(primary_future), settled(shadow_future)
        )
        if primary.error is not None or shadow.error is not None:
            # Attribute the failure to the side that actually failed: an
            # incumbent error must not read as candidate unhealthiness.
            bucket["shadow_errors"] += shadow.error is not None
            bucket["primary_errors"] += primary.error is not None
            return
        bucket["samples"] += 1
        bucket["agreements"] += primary.output == shadow.output
        bucket["latency_delta_ms_sum"] += (shadow_done - primary_done) * 1000.0

    # -- stats ---------------------------------------------------------------------------
    def request_stats(self) -> dict:
        """The ``stats()["requests"]`` block: totals plus rejected/failed by error code."""
        counts = self.counts
        return {
            "submitted": counts["submitted"],
            "completed": counts["completed"],
            "cache_hits": counts["cache_hits"],
            "coalesced": counts["coalesced"],
            "rejected": {
                "queue_full": counts[ERROR_QUEUE_FULL],
                "deadline_exceeded": counts[ERROR_DEADLINE],
                "server_stopped": counts[ERROR_SHUTDOWN],
            },
            "failed": {
                "invalid_request": counts[ERROR_INVALID_REQUEST],
                "backend_error": counts[ERROR_BACKEND],
                "shard_failed": counts[ERROR_SHARD_FAILED],
                "corpus_empty": counts[ERROR_CORPUS_EMPTY],
                "index_mismatch": counts[ERROR_INDEX_MISMATCH],
            },
        }

    def shadow_stats(self) -> dict:
        """The ``stats()["shadow"]`` block: one ``"primary->shadow"`` entry per pair."""
        shadow = {}
        for pair, bucket in sorted(self._ledger.items()):
            samples = bucket["samples"]
            shadow[pair] = {
                "samples": samples,
                "agreements": bucket["agreements"],
                "agreement_rate": round(bucket["agreements"] / samples, 4) if samples else 0.0,
                "mean_latency_delta_ms": round(bucket["latency_delta_ms_sum"] / samples, 3) if samples else 0.0,
                "shadow_errors": bucket["shadow_errors"],
                "primary_errors": bucket["primary_errors"],
                "dropped": bucket["dropped"],
            }
        return shadow


def _settled(outcome: Outcome) -> asyncio.Future:
    future = asyncio.get_running_loop().create_future()
    future.set_result(outcome)
    return future


def place(ring: HashRing, key: str, dead: set[str], busy: set[str]) -> tuple[str, bool]:
    """The live slot ``key`` queues on, and whether that diverted it from its ring owner.

    Work-conserving: an owner with work outstanding (``busy``) passes the job to
    the next idle point on the ring; once every live slot is busy the owner keeps
    it, so affinity holds under load.  A pure function of its arguments; raises
    (:class:`~repro.errors.ModelConfigError`) when ``dead`` covers every slot.
    """
    owner = ring.node(key, exclude=dead)
    if owner in busy and len(dead | busy) < len(ring.slots):
        return ring.node(key, exclude=dead | busy), True
    return owner, False


async def collect_batch(queue: asyncio.Queue, window: BatchWindow, idle: Callable[[], bool]) -> list:
    """One batch from ``queue``: a first item plus everything already queued behind it.

    ``window`` is only an upper bound on waiting for more, and applies only while
    ``idle()`` is false: a batch an idle executor could start now is never held.
    """
    loop = asyncio.get_running_loop()
    batch = [await queue.get()]
    opened_at = loop.time()
    while not window.is_full(len(batch)):
        # Drain whatever is already queued without timer machinery — under
        # bursty traffic this fills most batches for free.
        try:
            batch.append(queue.get_nowait())
            continue
        except asyncio.QueueEmpty:
            pass
        remaining = window.remaining_wait(opened_at, loop.time())
        if remaining <= 0 or idle():
            break
        try:
            batch.append(await asyncio.wait_for(queue.get(), remaining))
        except asyncio.TimeoutError:  # noqa: UP041 - not builtin TimeoutError on 3.10
            break
    return batch


class StreamReconciler:
    """Numbers one request's text deltas and reconciles them with its final response.

    Whatever the deltas were — complete, a prefix, a divergent draft, a restarted
    stream — the chunks end in exactly one final chunk and ``assemble_stream``
    reproduces ``response.output`` from them bitwise.
    """

    def __init__(self, request: Request):
        self._echo = {"task": request.task, "request_id": request.request_id, "trace": request.trace}
        self._emitted = ""
        self._seq = 0

    def delta(self, text: str, restarted: bool = False) -> ResponseChunk:
        """The next text chunk; ``restarted`` marks the first delta of a re-run stream."""
        if restarted:  # a seq-0 chunk resets assembly
            self._emitted = ""
            self._seq = 0
        self._emitted += text
        self._seq += 1
        return ResponseChunk(seq=self._seq - 1, text=text, **self._echo)

    def finish(self, response: Response) -> list[ResponseChunk]:
        """The stream's tail: any text the deltas missed, then the one final chunk."""
        tail = []
        emitted = self._emitted
        if response.error is None and response.output != emitted:
            if response.output.startswith(emitted):
                # Cache hits, coalesced duplicates and non-continuous backends
                # answer atomically: top up the missing tail.
                tail.append(self.delta(response.output[len(emitted):]))
            else:
                # The stream drafted text the final answer replaced: one
                # authoritative seq-0 chunk.
                tail.append(self.delta(response.output, restarted=True))
        tail.append(ResponseChunk(seq=self._seq, final=True, response=response, **self._echo))
        return tail
