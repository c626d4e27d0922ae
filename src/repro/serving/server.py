"""Asynchronous multi-worker serving front-end over the :class:`Pipeline`.

``Pipeline.serve`` takes a pre-collected burst: somebody else already did the
queueing.  This module is that somebody — a :class:`Server` accepts requests
one at a time (``await server.submit(request, deadline=...)``), absorbs them
into bounded queues, and drains the queues with a work-conserving collector
(:func:`~repro.serving.gateway.collect_batch`): while a worker is idle a batch
is whatever is already queued, dispatched at once; while every worker is busy
it keeps filling until ``max_batch`` requests are waiting *or* ``max_wait_ms``
has elapsed since its first request arrived.  Dispatched batches run on a
pool of worker threads over one per-task
:class:`~repro.serving.pipeline._Engine` set per deployment (engines hold no
mutable state), so encoder/decoder forward passes for different tasks (or
successive batches of one task) overlap while the event loop keeps accepting
traffic.

The division of labour keeps every output bitwise-identical to the
synchronous path: request encoding, cache lookups and postprocessing all run
on the event-loop thread through the pipeline's own ``prepare`` /
``cached_response`` / ``complete`` / ``response_from`` primitives (so the
LRU caches are never touched concurrently), and only the pure backend
forward pass (``predict_batch``) runs on worker threads.

Worker threads dispatch whole request batches, but neural decoding inside
them is *token-level*: each worker's ``predict_batch`` routes greedy
DataVisT5 traffic through the shared per-model continuous scheduler
(:mod:`~repro.serving.continuous`), so batches dispatched by different
workers merge into one live decode batch — a request admitted mid-flight
starts decoding immediately instead of waiting for the next window, and a
short request leaves as soon as its own EOS lands.  Rule-based backends
keep the request-granular micro-batcher.

Admission itself — routing, the namespaced cache probe, duplicate coalescing,
canary/shadow and request accounting — is the shared gateway core
(:mod:`repro.serving.gateway`); this module is its thread *executor*.
Admission control is structured, never exceptional — every failure is a
:class:`~repro.serving.protocol.Response` with ``error`` set, so one poisoned
request can never take down the loop or anyone else's request.

On top of the request path sits the **deployment lifecycle**
(:mod:`repro.deploy`, ``docs/deploy.md``): the server hosts any number of
versioned model deployments (``name@version``) beside its primary pipeline
and supports zero-downtime :meth:`Server.hot_swap` — new engines are admitted
via ``Pipeline.spawn_engines``, the router reference flips, and the old
version drains its in-flight requests before its engines are retired.
Response-cache keys carry the deployment identity (and weight revision), so
versions never replay or poison each other's entries.

Typical use::

    server = Server(pipeline, ServerConfig(max_batch=8, num_workers=2))
    async with server:
        responses = await server.submit_all(requests)
    print(server.stats())
"""

from __future__ import annotations

import asyncio
import copy
from collections.abc import AsyncIterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from repro import __version__, obs
from repro.core.batching import padding_efficiency
from repro.core.config import validate_precision
from repro.deploy.router import parse_ref
from repro.errors import ModelConfigError
from repro.obs.names import (
    METRIC_SERVER_BATCH_SIZE,
    METRIC_SERVER_EXECUTE_MS,
    METRIC_SERVER_QUEUE_WAIT_MS,
    SPAN_SERVER_EXECUTE,
    SPAN_SERVER_QUEUE,
    SPAN_SERVER_REQUEST,
)
from repro.obs.trace import SpanContext
from repro.serving.batching import BatchWindow
from repro.serving.gateway import (
    Deployment,
    Executor,
    Gateway,
    Job,
    Outcome,
    Rejected,
    StreamReconciler,
    collect_batch,
)
from repro.serving.pipeline import Pipeline, _Engine, _Prepared
from repro.serving.protocol import (
    ERROR_BACKEND,
    ERROR_DEADLINE,
    ERROR_QUEUE_FULL,
    SERVABLE_TASKS,
    Request,
    Response,
    ResponseChunk,
    error_response,
)

#: The deployment identity of a server's primary pipeline — the implicit
#: incumbent that serves every task the router has no explicit entry for.
DEFAULT_DEPLOYMENT = "pipeline@0"

# Fetched once at import so the request hot path never touches the registry
# lock; recording into them is a lock plus a bisect (see repro.obs.metrics).
_QUEUE_WAIT_MS = obs.METRICS.histogram(METRIC_SERVER_QUEUE_WAIT_MS)
_BATCH_SIZE = obs.METRICS.histogram(METRIC_SERVER_BATCH_SIZE)
_EXECUTE_MS = obs.METRICS.histogram(METRIC_SERVER_EXECUTE_MS)


@dataclass
class ServerConfig:
    """Knobs for the async front-end.

    ``max_batch`` / ``max_wait_ms`` parameterize the flush policy: a batch
    holds at most ``max_batch`` requests, and ``max_wait_ms`` is the upper
    bound on how long it waits to fill — paid only while every worker is
    busy; in front of an idle worker a batch is dispatched at once.
    ``queue_size`` bounds each (task, deployment) queue — submissions beyond
    it are rejected with ``queue_full`` rather than buffered without limit.
    ``num_workers`` is the number of worker threads; it also bounds how many
    batches are in flight at once, which back-pressures the collectors.
    ``precision`` overrides the DataVisT5 inference precision of
    the *primary* pipeline's worker engines (``"float64"`` / ``"float32"`` /
    ``"int8"``; ``None`` keeps the pipeline's own setting) — explicitly
    deployed versions own their precision through their manifests/pipelines
    instead, see ``docs/numerics.md`` and ``docs/deploy.md``.
    """

    max_batch: int = 8
    max_wait_ms: float = 2.0
    queue_size: int = 64
    num_workers: int = 2
    precision: str | None = None

    def __post_init__(self):
        if self.queue_size <= 0:
            raise ModelConfigError("queue_size must be positive")
        if self.num_workers <= 0:
            raise ModelConfigError("num_workers must be positive")
        if self.precision is not None:
            validate_precision(self.precision)
        # BatchWindow validates max_batch / max_wait_ms at construction time;
        # the server derives its own window from the config when it starts.
        BatchWindow(max_batch=self.max_batch, max_wait_ms=self.max_wait_ms)


class _Deployment(Deployment):
    """The gateway's deployment record plus what the thread tier runs it on.

    ``engines`` is the version's one per-task engine set, shared by every
    worker thread (engines hold no mutable state); the inherited ``revision``
    counts in-place weight swaps (:meth:`Server.set_weights`) and is part of
    the version's response-cache namespace.
    """

    __slots__ = ("pipeline", "manifest", "is_default", "engines")

    def __init__(self, deployment_id: str, pipeline: Pipeline, manifest=None, is_default: bool = False):
        # The engine keys the pipeline would spawn; refreshed by the server
        # when the real engine set is admitted (getattr keeps stub pipelines
        # in tests constructible).
        super().__init__(deployment_id, tasks=getattr(pipeline, "_engines", ()))
        self.pipeline = pipeline
        self.manifest = manifest
        self.is_default = is_default
        self.engines: dict[str, _Engine] = {}


def _predict(deployment: _Deployment, task: str, prepared: list[_Prepared]) -> list[str]:
    """The worker-thread half of a batch: one backend forward pass."""
    engine = deployment.engines.get(task)
    if engine is None:
        raise ModelConfigError(f"deployment {deployment.deployment_id!r} has no backend for task {task!r}")
    return engine.predict_batch(prepared)


def _telemetry(
    cache_hit: bool = False,
    coalesced: bool = False,
    queue_ms: float = 0.0,
    batch_size: int | None = None,
    worker: int | None = None,
    deployment: str | None = None,
) -> dict:
    """The uniform per-response telemetry dict — every key always present.

    ``batch_size`` and ``worker`` stay ``None`` for responses that never
    reached a worker (cache hits, coalesced duplicates, rejections);
    ``deployment`` is the version that answered (``None`` for requests
    rejected before routing).
    """
    return {
        "cache_hit": cache_hit,
        "coalesced": coalesced,
        "queue_ms": queue_ms,
        "batch_size": batch_size,
        "worker": worker,
        "deployment": deployment,
    }


def _merge_telemetry(existing: dict | None, serving: dict) -> dict:
    """Layer the server's :func:`_telemetry` keys over pipeline-attached telemetry.

    Multi-stage tasks attach their artifacts (``{"stages": ...}``) inside the
    pipeline; replacing the dict wholesale would silently drop them, so the
    serving keys are merged on top instead.
    """
    if not existing:
        return serving
    return {**existing, **serving}


class Server:
    """Accepts concurrent requests and serves them through batched workers.

    One :class:`Server` wraps one primary :class:`Pipeline` (the implicit
    :data:`DEFAULT_DEPLOYMENT`) plus any number of explicitly deployed model
    versions.  All coroutine methods must run on a single event loop; the
    heavy lifting (backend forward passes) is pushed to ``num_workers``
    threads.  The server starts lazily on the first :meth:`submit`, or
    eagerly via ``async with server:`` / :meth:`start`.

    The primary pipeline owns the request *life cycle* — encoding, caches,
    postprocessing — for every deployment; deployed versions contribute the
    backends that answer.  A task can therefore only be routed to versions
    that also exists on the primary pipeline's task surface.
    """

    def __init__(self, pipeline: Pipeline, config: ServerConfig | None = None):
        self.pipeline = pipeline
        self.config = config or ServerConfig()
        if self.config.precision is not None:
            # Build (and discard) one engine set now so a precision override
            # the backends cannot satisfy — int8 over unquantized weights —
            # fails here, at construction, not per request under traffic.
            pipeline.spawn_engines(precision=self.config.precision)
        self._window = BatchWindow(max_batch=self.config.max_batch, max_wait_ms=self.config.max_wait_ms)
        self._default = _Deployment(DEFAULT_DEPLOYMENT, pipeline, is_default=True)
        self._gateway = Gateway(
            Executor(self._identify, self._bind, self._cached, self._enqueue, self._response), self._default
        )
        # (task, deployment id) -> (bounded queue, the collector task draining it)
        self._lanes: dict[tuple[str, str], tuple[asyncio.Queue, asyncio.Task]] = {}
        self._dispatch_tasks: set[asyncio.Task] = set()
        self._idle_workers: asyncio.Queue | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._started = False
        # Running aggregates, not per-batch lists: a long-lived server must
        # not grow memory with uptime just to answer stats().
        self._batch_count = 0
        self._batch_size_sum = 0
        self._full_batch_count = 0
        self._batches_per_worker: dict[int, int] = {}
        self._padding_sum = 0.0
        self._queue_wait_sum = 0.0
        self._queue_wait_max = 0.0
        self._queue_wait_count = 0

    # -- lifecycle ---------------------------------------------------------------------
    async def start(self) -> None:
        """Spin up the worker pool (idempotent; implied by the first submit).

        A server is single-use: once :meth:`stop` has run, restarting would
        revive queues whose collectors are gone, so it raises instead.
        """
        if self._gateway.stopped:
            raise ModelConfigError("Server cannot be restarted after stop(); create a new Server")
        if self._started:
            return
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.num_workers, thread_name_prefix="repro-serving-worker"
        )
        self._idle_workers = asyncio.Queue()
        for worker_id in range(self.config.num_workers):
            self._idle_workers.put_nowait(worker_id)
        self._admit_engines(self._default)
        self._started = True

    async def join(self) -> None:
        """Wait until every accepted request has been answered."""
        while work := [*self._gateway.unsettled(), *self._dispatch_tasks]:
            await asyncio.gather(*work, return_exceptions=True)

    async def stop(self) -> None:
        """Drain in-flight work, then shut the collectors and workers down.

        Requests submitted after ``stop`` begins are rejected with the
        ``server_stopped`` error.
        """
        self._gateway.stopped = True
        await self.join()
        for key in list(self._lanes):
            await self._close_lane(key)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._started = False

    async def __aenter__(self) -> "Server":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- the deployment lifecycle --------------------------------------------------------
    def _admit_engines(self, deployment: _Deployment) -> None:
        """Spawn ``deployment``'s engine set (eagerly, so misconfiguration fails here).

        The primary pipeline honours the server's ``precision`` override;
        explicitly deployed versions run at their own pipeline's settings
        (their manifests are the deployment-level precision knob).
        """
        precision = self.config.precision if deployment.is_default else None
        deployment.engines = deployment.pipeline.spawn_engines(precision=precision)
        if not deployment.engines:
            raise ModelConfigError(
                f"deployment {deployment.deployment_id!r} has no configured backends"
            )
        deployment.tasks = set(deployment.engines)

    async def deploy(self, deployment_id: str, pipeline: Pipeline, manifest=None) -> None:
        """Admit a new model version; it receives no traffic until routed.

        ``deployment_id`` must be a fresh ``"name@version"`` identity;
        ``pipeline`` supplies the version's backends (typically built by
        :meth:`repro.deploy.ModelRegistry.build_pipeline`); ``manifest``, when
        given, is re-validated — fingerprint check included — before the
        version is admitted, and is echoed in ``stats()`` for provenance.
        The version's engines are spawned here, so a misconfiguration (e.g.
        int8 over unquantized weights) fails at deploy time, not under
        traffic.  Routing is a separate, atomic step (:meth:`set_routes` /
        :meth:`set_canary` / :meth:`hot_swap`).
        """
        if self._gateway.stopped:
            raise ModelConfigError("cannot deploy on a stopped server")
        name, version = parse_ref(deployment_id)
        if version is None:
            raise ModelConfigError(
                f"deployment ids must be versioned ('name@version'), got {deployment_id!r}"
            )
        if deployment_id in self._gateway.deployments:
            raise ModelConfigError(f"deployment {deployment_id!r} is already deployed")
        if manifest is not None:
            manifest.validate()
            if manifest.id != deployment_id:
                raise ModelConfigError(
                    f"manifest identity {manifest.id!r} does not match deployment id {deployment_id!r}"
                )
            manifest.verify_checkpoint()
        if not self._started:
            await self.start()
        deployment = _Deployment(deployment_id, pipeline, manifest=manifest)
        self._admit_engines(deployment)
        if manifest is not None:
            unserved = sorted(set(manifest.tasks) - deployment.tasks)
            if unserved:
                raise ModelConfigError(
                    f"manifest {manifest.id} declares tasks the pipeline does not serve: "
                    f"{', '.join(unserved)}"
                )
        self._gateway.deployments[deployment_id] = deployment

    async def undeploy(self, deployment_id: str) -> None:
        """Retire a version: unroute it, drain its in-flight work, drop its engines.

        Zero-downtime by construction: the router flips first (nothing new
        lands on the version), requests already queued or running on it are
        answered normally, and only then are its collectors cancelled and its
        engines released.  The primary pipeline cannot be undeployed — it is
        the fallback for every unrouted task.
        """
        deployment = self._gateway.retire(deployment_id)
        await self._gateway.drained(deployment)
        for key in [key for key in self._lanes if key[1] == deployment_id]:
            await self._close_lane(key)
        del self._gateway.deployments[deployment_id]

    async def _close_lane(self, key: tuple[str, str]) -> None:
        _, collector = self._lanes.pop(key)
        collector.cancel()
        try:
            await collector
        except asyncio.CancelledError:
            pass

    async def set_weights(self, deployment_id: str, pipeline: Pipeline) -> None:
        """Swap a deployed version's backends in place (same identity, new weights).

        A fresh engine set is spawned from ``pipeline`` and installed
        atomically.  The version's ``revision`` counter bumps, which
        namespaces its response-cache keys — entries produced by the old
        weights are never replayed for post-swap traffic.  A request that
        was already queued when the swap landed may be answered by the new
        weights, but its output is never written back under the old
        revision's cache namespace, so neither revision's cache is poisoned
        in either direction.  The new backends must cover every task the old
        ones served, so existing routes stay valid.  For the primary
        deployment this swaps what the workers compute; the front-end
        pipeline (encoding, caches, postprocessing) is unchanged.
        """
        deployment = self._gateway.require(deployment_id)
        if deployment.draining:
            raise ModelConfigError(f"deployment {deployment_id!r} is draining")
        if not self._started:
            await self.start()
        replacement = _Deployment(deployment.deployment_id, pipeline, is_default=deployment.is_default)
        self._admit_engines(replacement)
        missing = sorted(deployment.tasks - replacement.tasks)
        if missing:
            raise ModelConfigError(
                f"new weights for {deployment_id!r} drop served tasks: {', '.join(missing)}"
            )
        deployment.pipeline = pipeline
        deployment.engines = replacement.engines
        deployment.tasks = replacement.tasks
        deployment.revision += 1

    def set_routes(self, task: str, weights: dict[str, float]) -> None:
        """Atomically install the weighted deployment split for ``task``.

        Weights are relative (``{"model@1": 0.9, "model@2": 0.1}`` is a 10%
        canary); every referenced deployment must be deployed, not draining,
        and serve ``task``.  The new routing table replaces the old one in a
        single reference flip — requests being routed concurrently see either
        the old table or the new one, never a mixture.
        """
        self._validate_route_task(task)
        self._gateway.set_routes(task, weights)

    def clear_routes(self, task: str) -> None:
        """Remove ``task``'s explicit routes and shadow (traffic returns to the primary)."""
        self._gateway.clear_routes(task)

    def set_shadow(self, task: str, deployment_id: str, fraction: float) -> None:
        """Mirror ``fraction`` of ``task`` traffic to ``deployment_id``.

        Shadow requests are duplicates: they run on the candidate, their
        outputs are compared against the primary response, and agreement and
        latency deltas are recorded in ``stats()["shadow"]`` — the caller's
        response is never affected.  ``fraction <= 0`` clears the shadow.
        """
        if fraction > 0:
            self._validate_route_task(task)
        self._gateway.set_shadow(task, deployment_id, fraction)

    def set_canary(
        self,
        task: str,
        stable: str,
        canary: str,
        fraction: float,
        max_error_rate: float | None = None,
        min_requests: int = 20,
    ) -> None:
        """Split ``task`` between ``stable`` and a ``fraction`` canary.

        A convenience over :meth:`set_routes`: installs
        ``{stable: 1 - fraction, canary: fraction}``.  With
        ``max_error_rate`` set, a :class:`~repro.deploy.router.CanaryGuard`
        watches the canary's resolved requests and auto-reverts it (removed
        from every route, event recorded in ``stats()["rollbacks"]``) once
        its ``backend_error`` rate crosses the threshold after
        ``min_requests`` resolutions.  The guard counts from install time —
        requests the deployment served earlier (e.g. as a shadow target)
        never weigh against the canary — and is dropped automatically when a
        route change leaves the deployment unreferenced.
        """
        self._validate_route_task(task)
        self._gateway.set_canary(task, stable, canary, fraction, max_error_rate, min_requests)

    async def hot_swap(
        self,
        deployment_id: str,
        pipeline: Pipeline,
        replaces: str | None = None,
        tasks: tuple[str, ...] | None = None,
        manifest=None,
    ) -> float:
        """Deploy a version, flip its tasks to it, and retire the old version.

        The zero-downtime roll in one call: :meth:`deploy` admits the new
        engines while the old version keeps serving, :meth:`set_routes` flips
        each target task atomically, and ``replaces`` (when given) is drained
        and undeployed.  Requests in flight on the old version complete on
        it; requests routed after the flip land on the new one; nothing is
        dropped in between.  Returns the wall-clock seconds the whole swap
        took (the drain dominates).  Replacing :data:`DEFAULT_DEPLOYMENT`
        only unroutes it — the primary is the permanent fallback for
        unrouted tasks, so it is never drained (under sustained fallback
        traffic a drain would not terminate) or retired.
        """
        loop = asyncio.get_running_loop()
        began = loop.time()
        await self.deploy(deployment_id, pipeline, manifest=manifest)
        new = self._gateway.deployments[deployment_id]
        targets = tasks if tasks is not None else tuple(sorted(new.tasks & self._default.tasks))
        if not targets:
            raise ModelConfigError(
                f"deployment {deployment_id!r} shares no tasks with the primary pipeline"
            )
        for task in targets:  # validate everything before flipping anything
            self._validate_route_task(task)
            self._gateway.check_target(task, deployment_id)
        for task in targets:
            self.set_routes(task, {deployment_id: 1.0})
        if replaces is not None and replaces != deployment_id:
            old = self._gateway.require(replaces)
            if not old.is_default:
                await self.undeploy(replaces)
        return loop.time() - began

    def _validate_route_task(self, task: str) -> None:
        if task not in SERVABLE_TASKS:
            raise ModelConfigError(
                f"unknown task {task!r}; servable tasks: {', '.join(SERVABLE_TASKS)}"
            )
        # The primary pipeline prepares and postprocesses every request, so a
        # task it cannot serve cannot be routed anywhere.
        self.pipeline.backend(task)

    # -- submission --------------------------------------------------------------------
    async def submit(
        self, request: Request, deadline: float | None = None, _on_text=None
    ) -> Response:
        """Serve one request; always returns a :class:`Response`, never raises.

        ``deadline`` is a per-request latency budget in seconds, measured
        from submission.  A request still queued when its deadline passes is
        rejected with the ``deadline_exceeded`` error at dispatch time (and
        immediately when ``deadline <= 0``, unless the response cache can
        answer without queueing — a deadline bounds waiting, and cache hits
        do not wait).  A request whose batch has already reached a worker
        runs to completion.  A coalesced duplicate shares the fate of the
        request it coalesced onto.

        Admission is :meth:`repro.serving.gateway.Gateway.submit`: routing
        happens before the cache lookup — the request's cache identity hashes
        to a deployment (or ``Request.deployment`` pins one) — and the
        response-cache key is namespaced with the deployment identity so
        versions never answer for each other.

        ``_on_text`` is the streaming hook :meth:`stream` threads through to
        the worker engines (called from worker threads with text deltas);
        cache hits and coalesced duplicates answer without it, which the
        stream's final reconciliation covers.
        """
        span = self._begin_request_span(request)
        if span is None:
            return await self._submit(request, deadline, _on_text)
        request = replace(request, trace=span.context.to_wire())
        try:
            response = await self._submit(request, deadline, _on_text)
        except BaseException:
            obs.TRACES.finish(span, status="error")
            raise
        obs.TRACES.finish(span, status="ok" if response.ok else "error")
        return response

    def _begin_request_span(self, request: Request) -> "obs.Span | None":
        # A bare request starts a trace here (head sampling happens at the
        # root); a request arriving with wire context — e.g. relayed by the
        # sharded gateway — continues the caller's trace instead.
        parent = SpanContext.from_wire(request.trace)
        attrs = {"task": request.task}
        if parent is None:
            return obs.TRACES.root(SPAN_SERVER_REQUEST, attrs=attrs)
        return obs.TRACES.begin(SPAN_SERVER_REQUEST, parent, attrs=attrs)

    async def _submit(self, request: Request, deadline: float | None, _on_text) -> Response:
        if not self._started and not self._gateway.stopped:
            await self.start()
        response = await self._gateway.submit(request, deadline, _on_text)
        if response.telemetry is None:  # refused before it was routed, queued or batched
            response.telemetry = _telemetry()
        return response

    async def submit_all(self, requests: list[Request], deadline: float | None = None) -> list[Response]:
        """Submit ``requests`` concurrently; responses align with input order."""
        return list(await asyncio.gather(*(self.submit(request, deadline=deadline) for request in requests)))

    async def stream(
        self, request: Request, deadline: float | None = None
    ) -> AsyncIterator[ResponseChunk]:
        """Serve one request as a chunk stream (the async front-end of streaming).

        Yields :class:`~repro.serving.protocol.ResponseChunk` s: zero or more
        non-final chunks carrying text deltas as the backend decodes, then
        exactly one final chunk embedding the complete :class:`Response` —
        identical, telemetry aside, to what :meth:`submit` returns for the
        same request.  The stream never raises and never truncates: failures
        arrive as a terminal error chunk whose ``response.error`` is set.

        A :class:`~repro.serving.gateway.StreamReconciler` reconciles the
        deltas against the final output before the final chunk — a missing
        tail (cache hits, coalesced duplicates and non-continuous backends
        answer atomically) or a divergent draft (corpus QA streams its
        top-ranked context's answer while the merge is pending) — so
        :func:`~repro.serving.protocol.assemble_stream` over the yielded
        chunks always reproduces ``Response.output`` bitwise.
        """
        queue: asyncio.Queue = asyncio.Queue()
        loop = asyncio.get_running_loop()

        def tap(delta: str) -> None:
            # Called on a worker thread between decode steps; hop to the loop.
            loop.call_soon_threadsafe(queue.put_nowait, delta)

        # The stream owns the request span (rather than delegating to
        # submit()) so every chunk can echo the trace context: a client
        # holding a non-final chunk knows which trace it belongs to.
        span = self._begin_request_span(request)
        if span is not None:
            request = replace(request, trace=span.context.to_wire())
        chunks = StreamReconciler(request)
        submit = asyncio.ensure_future(self._submit(request, deadline, tap))
        try:
            while True:
                getter: asyncio.Future = asyncio.ensure_future(queue.get())
                done, _ = await asyncio.wait({getter, submit}, return_when=asyncio.FIRST_COMPLETED)
                if getter in done:
                    yield chunks.delta(getter.result())
                    continue
                getter.cancel()
                break
            response = await submit  # already done; submit() never raises
            if span is not None:
                obs.TRACES.finish(span, status="ok" if response.ok else "error")
                span = None
            # Taps enqueue via call_soon_threadsafe before the worker's future
            # resolves, so everything the decode produced is already here.
            while not queue.empty():
                yield chunks.delta(queue.get_nowait())
            for chunk in chunks.finish(response):
                yield chunk
        finally:
            if span is not None:  # the consumer abandoned the stream mid-flight
                obs.TRACES.finish(span, status="error")
            if not submit.done():
                submit.cancel()

    # -- the gateway's thread executor -------------------------------------------------
    def _identify(self, request: Request) -> tuple[_Prepared, str | None]:
        self.pipeline.backend(request.task)  # fail fast on unconfigured tasks
        return self.pipeline.prepare(request), request.deployment

    def _bind(self, base: _Prepared, deployment: _Deployment) -> _Prepared:
        """``base`` under the response-cache namespace of one routing decision.

        A canary (or a precision override, or a new weight revision) must
        neither replay the incumbent's cached outputs nor poison its cache
        with its own.  The primary deployment at revision 0 keeps the bare
        key (and the PR 4 ``precision`` namespacing), so a server without an
        active deployment layer shares cache entries with synchronous
        pipeline callers exactly as before.
        """
        parts = []
        if deployment.is_default and self.config.precision is not None:
            parts.append(f"precision={self.config.precision}")
        if not deployment.is_default:
            parts.append(f"deployment={deployment.deployment_id}")
        if deployment.revision:
            parts.append(f"rev={deployment.revision}")
        return base.namespaced("".join(f"|{part}" for part in parts))

    def _cached(self, prepared: _Prepared, deployment: _Deployment) -> Response | None:
        cached = self.pipeline.cached_response(prepared)
        if cached is not None:
            cached.telemetry = _merge_telemetry(
                cached.telemetry, _telemetry(cache_hit=True, deployment=deployment.deployment_id)
            )
        return cached

    def _enqueue(self, job: Job) -> None:
        """Queue ``job`` on its (task, deployment) lane, creating the lane on first use."""
        if job.on_text is not None:
            job.ticket = replace(job.ticket, on_text=job.on_text)
        task, deployment = job.ticket.request.task, job.deployment
        key = (task, deployment.deployment_id)
        if key not in self._lanes:
            queue = asyncio.Queue(maxsize=self.config.queue_size)
            collector = asyncio.get_running_loop().create_task(
                self._collect(task, deployment, queue),
                name=f"repro-serving-collect-{task}-{deployment.deployment_id}",
            )
            self._lanes[key] = (queue, collector)
        try:
            self._lanes[key][0].put_nowait(job)
        except asyncio.QueueFull:
            raise Rejected(
                ERROR_QUEUE_FULL,
                f"{task} queue for {deployment.deployment_id} is full ({self.config.queue_size} pending requests)",
            ) from None

    def _response(self, prepared: _Prepared, deployment: _Deployment, outcome: Outcome, job: Job | None) -> Response:
        """The owner's response, or a coalesced follower's when ``job`` is ``None``."""
        if outcome.error is None:
            response = self.pipeline.response_from(prepared, outcome.payload, cached=job is None)
        else:
            response = error_response(prepared.request, outcome.error, outcome.detail)
        if job is None:
            serving = _telemetry(coalesced=True, deployment=deployment.deployment_id)
        else:
            serving = _telemetry(deployment=deployment.deployment_id, **(job.telemetry or {}))
        response.telemetry = _merge_telemetry(response.telemetry, serving)
        return response

    # -- collection and dispatch -------------------------------------------------------
    async def _collect(self, task: str, deployment: _Deployment, queue: asyncio.Queue) -> None:
        """Accumulate one (task, deployment) queue into batches under the flush policy."""
        loop = asyncio.get_running_loop()
        while True:
            batch = await collect_batch(queue, self._window, idle=lambda: not self._idle_workers.empty())
            # Acquiring the worker before spawning the batch task caps the
            # number of in-flight batches at num_workers and lets the bounded
            # queue absorb (or reject) the overflow in the meantime.
            worker = await self._idle_workers.get()
            dispatch = loop.create_task(self._run_batch(task, deployment, batch, worker))
            self._dispatch_tasks.add(dispatch)
            dispatch.add_done_callback(self._dispatch_tasks.discard)

    async def _run_batch(self, task: str, deployment: _Deployment, jobs: list[Job], worker: int) -> None:
        """Run one collected batch on worker thread ``worker``; resolve every job."""
        loop = asyncio.get_running_loop()
        resolve = self._gateway.resolve
        try:
            now = loop.time()
            live: list[Job] = []
            for job in jobs:
                if job.deadline_at is not None and now > job.deadline_at:
                    waited = round((now - job.enqueued_at) * 1000.0, 3)
                    resolve(job, Outcome(error=ERROR_DEADLINE, detail=f"request waited {waited}ms, past its deadline"))
                else:
                    live.append(job)
            if not live:
                return
            for job in live:
                queue_seconds = now - job.enqueued_at
                job.telemetry = {
                    "queue_ms": round(queue_seconds * 1000.0, 3),
                    "batch_size": len(live),
                    "worker": worker,
                }
                self._queue_wait_sum += queue_seconds
                self._queue_wait_max = max(self._queue_wait_max, queue_seconds)
                self._queue_wait_count += 1
                _QUEUE_WAIT_MS.record(queue_seconds * 1000.0)
                obs.TRACES.record(
                    SPAN_SERVER_QUEUE,
                    job.ticket.trace,
                    queue_seconds,
                    attrs={"batch_size": len(live)},
                )
            _BATCH_SIZE.record(float(len(live)))
            self._batch_count += 1
            self._batch_size_sum += len(live)
            self._full_batch_count += len(live) >= self.config.max_batch
            self._batches_per_worker[worker] = self._batches_per_worker.get(worker, 0) + 1
            # Approximate: whitespace word counts of the encoded sources, not
            # tokenized lengths (backends tokenize later and may truncate).
            self._padding_sum += padding_efficiency([len(job.ticket.source.split()) for job in live])
            prepared = [job.ticket for job in live]
            execute_started = loop.time()
            try:
                outputs = await loop.run_in_executor(self._executor, _predict, deployment, task, prepared)
            except Exception as error:  # noqa: BLE001 - a backend bug must not kill the loop
                self._observe_execute(live, worker, loop.time() - execute_started, status="error")
                for job in live:
                    resolve(job, Outcome(error=ERROR_BACKEND, detail=str(error)))
                return
            self._observe_execute(live, worker, loop.time() - execute_started)
            if len(outputs) != len(live):
                detail = f"backend returned {len(outputs)} outputs for {len(live)} requests"
                for job in live:
                    resolve(job, Outcome(error=ERROR_BACKEND, detail=detail))
                return
            # Postprocessing (parse/validate/spec) and cache writes happen
            # here, back on the event-loop thread, where they are serialized.
            for job, output in zip(live, outputs):
                try:
                    # A job that out-waited a set_weights() ran on the new
                    # engines but is keyed under the old revision's cache
                    # namespace; answer it, but never cache the mismatch.
                    payload = self.pipeline.complete(
                        job.ticket, output, cache=job.revision == deployment.revision
                    )
                except Exception as error:  # noqa: BLE001 - resolve, never hang the future
                    resolve(job, Outcome(error=ERROR_BACKEND, detail=f"postprocessing failed: {error}"))
                else:
                    resolve(job, Outcome(output=payload["output"], payload=payload))
        finally:
            self._idle_workers.put_nowait(worker)

    def _observe_execute(self, live: list[Job], worker: int, execute_seconds: float, status: str = "ok") -> None:
        _EXECUTE_MS.record(execute_seconds * 1000.0)
        for job in live:
            obs.TRACES.record(
                SPAN_SERVER_EXECUTE,
                job.ticket.trace,
                execute_seconds,
                status=status,
                attrs={"worker": worker, "batch_size": len(live)},
            )

    # -- observability -----------------------------------------------------------------
    def stats(self) -> dict:
        """Serving telemetry aggregated across every request, batch and deployment.

        Returns a detached snapshot: the caller can hold, mutate or diff it
        freely while the server keeps serving — no key aliases a live
        internal counter.  Every section is built fresh here (or by a
        ``stats()`` provider that builds fresh dicts), so only the two
        subtrees that alias long-lived state — manifest payloads and the
        rollback log — are copied; the snapshot cost stays proportional to
        the data returned rather than paying a second blanket ``deepcopy``
        pass over it (``tests/test_serving_server.py`` pins the allocation
        budget at 10k deployments).  ``version`` stamps the ``repro`` package
        that produced the snapshot; ``deployments`` / ``routes`` / ``shadow``
        / ``rollbacks`` expose the deployment layer (see ``docs/deploy.md``).
        """
        gateway = self._gateway
        batches = self._batch_count
        mean_size = self._batch_size_sum / batches if batches else 0.0
        mean_padding = self._padding_sum / batches if batches else 1.0
        mean_wait = self._queue_wait_sum / self._queue_wait_count if self._queue_wait_count else 0.0
        deployments = {}
        for deployment_id, deployment in sorted(gateway.deployments.items()):
            completed = deployment.counts["completed"]
            deployments[deployment_id] = {
                "revision": deployment.revision,
                "default": deployment.is_default,
                "draining": deployment.draining,
                "tasks": sorted(deployment.tasks),
                "pending": deployment.pending,
                "requests": dict(deployment.counts),
                "mean_latency_ms": round(deployment.latency_ms_sum / completed, 3) if completed else 0.0,
                # as_dict() aliases the manifest's nested config dicts
                # (backends, metadata); deep-copy just this payload so the
                # snapshot cannot reach back into the live manifest.
                "manifest": copy.deepcopy(deployment.manifest.as_dict())
                if deployment.manifest is not None
                else None,
            }
        return {
            "version": __version__,
            "requests": gateway.request_stats(),
            "batches": {
                "count": batches,
                "mean_size": round(mean_size, 3),
                "full_batches": self._full_batch_count,
                "per_worker": dict(sorted(self._batches_per_worker.items())),
                "mean_padding_efficiency": round(mean_padding, 4),
            },
            "queue_wait_ms": {
                "mean": round(mean_wait * 1000.0, 3),
                "max": round(self._queue_wait_max * 1000.0, 3),
            },
            "deployments": deployments,
            "routes": gateway.router.describe(),
            "shadow": gateway.shadow_stats(),
            "rollbacks": [dict(entry) for entry in gateway.rollbacks],
            "pipeline": self.pipeline.stats(),
        }

    def observability(self) -> dict:
        """The process-local metrics snapshot plus any sampled trace spans.

        ``metrics`` is :meth:`repro.obs.metrics.MetricsRegistry.snapshot` of
        the process-global registry (mergeable across processes, renderable
        with :func:`repro.obs.export.prometheus_text`); ``spans`` lists every
        span currently held by the trace ring buffer as plain dicts (feed
        them to :func:`repro.obs.export.render_trace` for an ASCII tree).
        Tracing is off by default — enable it with
        :func:`repro.obs.configure` before submitting traffic.
        """
        return {
            "metrics": obs.METRICS.snapshot(),
            "spans": [span.as_dict() for span in obs.TRACES.spans()],
        }


def serve_requests(
    pipeline: Pipeline,
    requests: list[Request],
    config: ServerConfig | None = None,
    deadline: float | None = None,
) -> tuple[list[Response], dict]:
    """Run ``requests`` through a fresh :class:`Server` on a private event loop.

    A synchronous convenience for scripts and benchmarks: starts a server,
    submits everything concurrently, drains it, and returns the
    position-aligned responses plus the server's final :meth:`Server.stats`.
    Must not be called from inside a running event loop.
    """

    async def _run() -> tuple[list[Response], dict]:
        server = Server(pipeline, config)
        async with server:
            responses = await server.submit_all(requests, deadline=deadline)
        return responses, server.stats()

    return asyncio.run(_run())
