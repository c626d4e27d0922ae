"""The process-sharded serving tier: N worker processes, one gateway.

The thread-backed :class:`~repro.serving.server.Server` buys only
~1.1-1.4x over synchronous serving because the pure-python hot loops are
GIL-bound.  This module breaks out of the process: a
:class:`ShardedServer` forks ``num_shards`` **worker-shard processes**,
each of which builds its *own* :class:`~repro.serving.pipeline.Pipeline`
clones from fingerprint-verified checkpoint paths through
:class:`~repro.deploy.registry.ModelRegistry` — model weights are never
pickled across the process boundary; every shard loads and verifies the
bytes itself.

Process model
-------------

* The **gateway** (the forking process) is model-free.  Admission, duplicate
  coalescing, deployment routing, canary/shadow and accounting are the
  shared core (:mod:`repro.serving.gateway`); this module is its process
  *executor*: an exact-match response cache, per-shard batching queues, and
  a :class:`~repro.deploy.router.HashRing` that maps each request's content
  key to a stable shard slot — which a request leaves only while that shard
  is busy and another is idle (:func:`~repro.serving.gateway.place`).
* Each **shard** runs a blocking frame loop over two OS pipes (the
  length-prefixed JSON protocol of :mod:`repro.serving.transport`); its
  :class:`~repro.serving.shard_worker.ShardWorker` serves ``serve`` frames
  through ``Pipeline.serve(strict=False)`` and answers ``load`` / ``unload``
  frames for rolling deployments (:mod:`repro.serving.shard_worker`).  A
  daemon thread emits heartbeat frames so the gateway can tell a *wedged*
  shard (alive but stopped — e.g. ``SIGSTOP``) from a busy one.

Failure semantics
-----------------

Shard death is first-class, not exceptional.  The gateway detects it four
ways — pipe EOF (crash / ``kill -9``), write failure, missed heartbeats
(wedge), and a frame it cannot decode or act on (protocol violation) — then
kills and reaps the process, respawns the slot under the same
name (so the hash ring re-routes *nothing* once it is back), and **requeues**
every in-flight request.  Delivery is **at-most-once**: each request's
future resolves exactly once, results a dying shard managed to flush are
still delivered (pipe buffers survive the writer), and a request whose
requeue budget (``max_requeues``) is exhausted fails with the structured
``shard_failed`` error code rather than hanging.  Reprocessing a batch the
dead shard had already computed is safe because serving is deterministic and
side-effect free.

Rolling hot-swap (:meth:`ShardedServer.rolling_swap`) loads the new version
shard-by-shard — surviving shard crashes mid-swap, because respawned shards
load every active deployment — and only then flips the primary reference.
The old primary stays loaded (never drained) until an explicit
:meth:`~ShardedServer.undeploy`, which drains its in-flight work first.

Fault injection (``enable_fault_injection=True``) lets the chaos suite ask a
shard to ``exit`` mid-batch, ``wedge`` (stop heartbeating, simulating
``SIGSTOP`` deterministically) or ``drop_batch`` on the Nth serve frame —
see ``tests/test_serving_sharded_chaos.py`` and ``docs/sharding.md``.

Streaming
---------

:meth:`ShardedServer.stream` serves one request as an ordered sequence of
:class:`~repro.serving.protocol.ResponseChunk` (see ``docs/corpus_qa.md``).
A streaming job is dispatched as a one-request ``serve`` frame marked
``"stream": true`` (never batched — its ``chunk`` frames interleave with
other traffic on the reply pipe); the shard runs
``Pipeline.serve_streaming(strict=False)`` and emits each text delta as a
``chunk`` frame before the ordinary ``result`` frame, so chunk and result
ordering is the pipe's FIFO ordering.  If the shard dies mid-stream the job
requeues like any other: the restarted stream re-emits from ``chunk_seq`` 0
and the gateway turns that into a ``seq`` 0 reset chunk, so
:func:`~repro.serving.protocol.assemble_stream` still reproduces the final
``Response.output`` bitwise; a requeue budget exhausted mid-stream yields a
terminal ``shard_failed`` error chunk — a stream never hangs and never ends
without a final chunk.  A consumer that leaves early still gets its trace
root finished, as ``error``.
"""

from __future__ import annotations

import asyncio
import contextlib
import copy
import hashlib
import json
import os
import queue as queue_module
import signal
import threading
from collections import deque
from dataclasses import dataclass, field, replace

from repro import __version__, obs

# NOTE: repro.deploy.registry is imported lazily inside the functions that
# need it.  Importing it here would close an import cycle (serving.__init__
# -> sharded -> deploy.registry -> deploy.manifest -> serving.protocol) the
# moment repro.deploy initializes; deploy.router is a leaf and safe.
from repro.deploy.router import HashRing
from repro.errors import ModelConfigError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.names import (
    METRIC_GATEWAY_DISPATCH_MS,
    METRIC_GATEWAY_HEARTBEAT_GAP_MS,
    METRIC_GATEWAY_PLACEMENTS_DIVERTED_TOTAL,
    METRIC_GATEWAY_QUEUE_WAIT_MS,
    METRIC_GATEWAY_REQUEUES_TOTAL,
    METRIC_GATEWAY_RESPAWNS_TOTAL,
    SPAN_GATEWAY_DISPATCH,
    SPAN_GATEWAY_REQUEST,
)
from repro.obs.trace import SpanContext
from repro.serving.batching import BatchWindow
from repro.serving.cache import LRUCache
from repro.serving.gateway import (
    Deployment,
    Executor,
    Gateway,
    Job,
    Outcome,
    Rejected,
    StreamReconciler,
    collect_batch,
    place,
)
from repro.serving.protocol import (
    ERROR_INVALID_REQUEST,
    ERROR_QUEUE_FULL,
    ERROR_SHARD_FAILED,
    ERROR_SHUTDOWN,
    SERVABLE_TASKS,
    Request,
    Response,
    error_response,
)
from repro.serving.shard_worker import FAULT_MODES, run_shard
from repro.serving.transport import (
    FrameDecoder,
    TransportError,
    encode_frame,
    request_to_wire,
    write_frame,
)

# Gateway-side observability instruments, fetched once at import (both the
# gateway process and — via fork — the shard children share the names; each
# process records into its own registry).
_DISPATCH_MS = obs.METRICS.histogram(METRIC_GATEWAY_DISPATCH_MS)
_HEARTBEAT_GAP_MS = obs.METRICS.histogram(METRIC_GATEWAY_HEARTBEAT_GAP_MS)
_PLACEMENTS_DIVERTED_TOTAL = obs.METRICS.counter(METRIC_GATEWAY_PLACEMENTS_DIVERTED_TOTAL)
_QUEUE_WAIT_MS = obs.METRICS.histogram(METRIC_GATEWAY_QUEUE_WAIT_MS)
_REQUEUES_TOTAL = obs.METRICS.counter(METRIC_GATEWAY_REQUEUES_TOTAL)
_RESPAWNS_TOTAL = obs.METRICS.counter(METRIC_GATEWAY_RESPAWNS_TOTAL)


@dataclass(frozen=True)
class ShardConfig:
    """Tuning knobs for a :class:`ShardedServer`.

    ``num_shards`` worker processes are forked at :meth:`~ShardedServer.
    start`; each slot has a bounded request queue (``queue_size``, overflow
    is rejected with ``queue_full``) drained by a collector that flushes
    batches of at most ``max_batch`` with at most ``max_inflight_batches``
    un-answered frames per shard.  ``max_wait_ms`` is the upper bound on how
    long a batch waits to fill, paid only while the shard has an unanswered
    frame; a batch for an idle shard is sent at once.

    Liveness: shards emit a heartbeat every ``heartbeat_interval_ms``; a
    shard silent for ``heartbeat_timeout_ms`` is declared wedged, killed and
    respawned (up to ``respawn_attempts`` consecutive failures before the
    slot is marked broken).  A requeued request may move shards at most
    ``max_requeues`` times before failing with ``shard_failed``.

    ``drain_timeout_s`` bounds how long :meth:`~ShardedServer.undeploy` waits
    for the version's queued and in-flight work to finish before giving up
    (the version then stays deployed and the call raises, retryably).

    ``batch_deadline_ms`` (optional) bounds how long a dispatched batch may
    stay unanswered while the shard keeps heartbeating.  A healthy heartbeat
    cannot distinguish "still computing" from "computed but the reply was
    lost", so this is the only detector for swallowed results; set it well
    above the worst-case batch service time.  ``None`` disables the check —
    a heartbeat-silent shard is still caught by the wedge detector.

    ``calibrated_service_ms`` (``None`` | float | ``{task: ms}`` dict) makes
    each shard sleep that long per *non-cached, successful* response after
    computing it — a deterministic, machine-independent stand-in for heavy
    backend compute that the chaos suite uses to keep a batch in flight long
    enough to kill mid-service (the sleep releases the GIL and parallelizes
    perfectly across processes, which real numpy inference on a multi-core
    host also does).  Leave it ``None`` for production use.

    ``enable_fault_injection`` arms the ``fault`` control frame for the
    chaos tests; it must stay off outside tests.
    """

    num_shards: int = 2
    max_batch: int = 8
    max_wait_ms: float = 2.0
    queue_size: int = 256
    max_inflight_batches: int = 2
    heartbeat_interval_ms: float = 50.0
    heartbeat_timeout_ms: float = 2000.0
    max_requeues: int = 2
    batch_deadline_ms: float | None = None
    drain_timeout_s: float = 30.0
    start_timeout_s: float = 60.0
    respawn_attempts: int = 3
    ring_replicas: int = 64
    response_cache_size: int = 2048
    calibrated_service_ms: float | dict | None = None
    enable_fault_injection: bool = False

    def __post_init__(self):
        if self.num_shards < 1:
            raise ModelConfigError("num_shards must be at least 1")
        if self.queue_size < 1:
            raise ModelConfigError("queue_size must be at least 1")
        if self.max_inflight_batches < 1:
            raise ModelConfigError("max_inflight_batches must be at least 1")
        if self.heartbeat_interval_ms <= 0 or self.heartbeat_timeout_ms <= 0:
            raise ModelConfigError("heartbeat interval and timeout must be positive")
        if self.heartbeat_timeout_ms <= self.heartbeat_interval_ms:
            raise ModelConfigError("heartbeat_timeout_ms must exceed heartbeat_interval_ms")
        if self.max_requeues < 0:
            raise ModelConfigError("max_requeues must be non-negative")
        if self.batch_deadline_ms is not None and self.batch_deadline_ms <= 0:
            raise ModelConfigError("batch_deadline_ms must be positive when set")
        if self.drain_timeout_s <= 0:
            raise ModelConfigError("drain_timeout_s must be positive")
        if self.start_timeout_s <= 0:
            raise ModelConfigError("start_timeout_s must be positive")
        if self.respawn_attempts < 1:
            raise ModelConfigError("respawn_attempts must be at least 1")
        if self.calibrated_service_ms is not None and not isinstance(
            self.calibrated_service_ms, (int, float, dict)
        ):
            raise ModelConfigError(
                "calibrated_service_ms must be None, a number, or a {task: ms} dict"
            )
        BatchWindow(self.max_batch, self.max_wait_ms)  # validates both

    def window(self) -> BatchWindow:
        """The flush policy the per-shard collectors run under."""
        return BatchWindow(max_batch=self.max_batch, max_wait_ms=self.max_wait_ms)


def _with_own_spec(payload: dict) -> dict:
    """A shallow copy of a response payload holding its own deep copy of the Vega-Lite spec.

    The gateway cache entry, the owner's response and every replay must not
    share one spec dict: a caller editing its response's spec would
    otherwise edit every later hit (the tier-local twin of
    ``Pipeline.response_from``).
    """
    copied = dict(payload)
    if copied.get("vega_lite") is not None:
        copied["vega_lite"] = copy.deepcopy(copied["vega_lite"])
    return copied


class _Ticket:
    """The gateway's view of one request: its wire form and identities.

    ``route_key`` is the content identity (ring placement, router hashing);
    ``key`` starts equal to it and becomes the response-cache key once the
    ticket is bound to a deployment.  ``requeues`` counts the shard deaths
    the ticket's job has survived.
    """

    __slots__ = ("request", "wire", "route_key", "key", "requeues")

    def __init__(self, request: Request, wire: dict, route_key: str, key: str | None = None):
        self.request = request
        self.wire = wire
        self.route_key = route_key
        self.key = route_key if key is None else key
        self.requeues = 0


class _PendingBatch:
    """A serve frame in flight: its jobs and dispatch metadata.

    A streaming job (``job.on_text(chunk_seq, text)`` takes its ``chunk``
    frames) is a batch of one.  ``spans`` holds the per-job
    ``gateway.dispatch`` spans (``None`` for untraced jobs), finished when
    the result frame lands or the shard dies.
    """

    __slots__ = ("jobs", "dispatched_at", "spans")

    def __init__(self, jobs, dispatched_at=0.0, spans=None):
        self.jobs = jobs
        self.dispatched_at = dispatched_at
        self.spans = spans if spans is not None else [None] * len(jobs)


@dataclass
class _Slot:
    """The gateway's persistent view of one shard slot across respawns."""

    name: str
    generation: int = 0
    pid: int = -1
    to_fd: int = -1
    from_fd: int = -1
    alive: bool = False
    broken: bool = False
    restarts: int = 0
    dispatched: int = 0
    completed: int = 0
    requeued: int = 0
    last_heartbeat: float = 0.0
    # The newest metrics snapshot piggybacked on a heartbeat frame.  Kept
    # whole (snapshots are cumulative) and merged on demand by
    # observability(); folding each arriving heartbeat into a live registry
    # would double-count every interval.
    metrics: dict | None = None
    decoder: FrameDecoder = field(default_factory=FrameDecoder)
    outbuf: bytearray = field(default_factory=bytearray)
    writing: bool = False
    deployments: set = field(default_factory=set)
    pending: dict = field(default_factory=dict)
    waiters: dict = field(default_factory=dict)
    queue: asyncio.Queue | None = None
    inflight: asyncio.Semaphore | None = None
    ready: asyncio.Event | None = None
    ready_waiter: asyncio.Future | None = None


class ShardedServer:
    """A multiprocessing serving front-end over fingerprint-verified shards.

    Construction names the :class:`~repro.deploy.registry.ModelRegistry`
    file and the primary deployment ref; :meth:`start` forks the shards
    (each builds its own verified pipeline — nothing model-shaped crosses
    the process boundary) and :meth:`stop` tears everything down.  Use as a
    context manager for the start/stop pairing::

        with ShardedServer(registry_path, "captioner@1", config) as server:
            responses = server.serve(requests)

    Thread-safe public API (every call marshals onto the gateway's private
    event loop): :meth:`submit` / :meth:`serve` / :meth:`stream` for traffic;
    :meth:`deploy` / :meth:`rolling_swap` / :meth:`undeploy` /
    :meth:`set_routes` / :meth:`set_canary` / :meth:`set_shadow` for the
    deployment lifecycle; :meth:`inject_fault` (tests only) and
    :meth:`stats` for observability.
    """

    def __init__(self, registry_path, primary_ref: str, config: ShardConfig | None = None):
        from repro.deploy.registry import ModelRegistry

        self.config = config or ShardConfig()
        self._registry_path = str(registry_path)
        self._registry = ModelRegistry(self._registry_path)
        primary = Deployment(self._registry.get(primary_ref).id, SERVABLE_TASKS)
        self._gateway = Gateway(
            Executor(self._identify, self._bind, self._cached, self._place, self._response), primary
        )
        self._slots = [_Slot(name=f"shard-{i}") for i in range(self.config.num_shards)]
        self._ring = HashRing([s.name for s in self._slots], replicas=self.config.ring_replicas)
        self._cache = LRUCache(self.config.response_cache_size, name="gateway_response")
        self._totals = {"requeues": 0, "restarts": 0, "swaps": 0}
        self._fatal_log: deque[str] = deque(maxlen=20)
        self._gateway_fds: set[int] = set()
        self._seq = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._monitor_task: asyncio.Task | None = None
        self._collector_tasks: list[asyncio.Task] = []
        self._respawn_tasks: set[asyncio.Task] = set()
        self._started = False
        self._closed = False

    @property
    def _stopping(self) -> bool:
        return self._gateway.stopped

    # -- lifecycle ----------------------------------------------------------------------
    def start(self) -> "ShardedServer":
        """Fork and warm every shard; returns ``self`` once all are ready."""
        if self._started:
            raise ModelConfigError("ShardedServer is already started")
        if self._closed:
            raise ModelConfigError("ShardedServer cannot be restarted after stop()")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run_loop, name="sharded-gateway", daemon=True)
        self._thread.start()
        try:
            self._call(self._start_async())
        except BaseException:
            self._started = True  # let stop() tear down whatever came up
            self.stop()
            raise
        self._started = True
        return self

    def stop(self) -> None:
        """Stop shards (best-effort graceful, then ``SIGKILL``) and the gateway loop."""
        if not self._started or self._closed:
            self._closed = True
            return
        with contextlib.suppress(Exception):
            self._call(self._stop_async(), timeout=30.0)
        loop, thread = self._loop, self._thread
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=10.0)
        self._closed = True

    def __enter__(self) -> "ShardedServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- traffic ------------------------------------------------------------------------
    def submit(self, request: Request) -> Response:
        """Serve one request (blocking); errors come back as structured responses."""
        return self._call(self._submit(request))

    def serve(self, requests: list[Request]) -> list[Response]:
        """Serve a burst concurrently; responses are position-aligned with ``requests``."""
        return self._call(self._serve_async(list(requests)))

    def stream(self, request: Request):
        """Serve one request as a stream of :class:`ResponseChunk` (sync generator).

        The passthrough twin of :meth:`repro.serving.server.Server.stream`
        for the process-sharded tier: the owning shard emits token-level text
        deltas as ``chunk`` frames, and this generator relays them as
        non-final chunks before one final chunk carrying the authoritative
        :class:`Response`.  Joining the non-final texts reproduces
        ``Response.output`` **bitwise**: the deltas pass through the same
        :class:`~repro.serving.gateway.StreamReconciler` as the thread
        server's stream, and a stream that restarted on a respawned shard
        resets assembly with a ``seq`` 0 chunk.  Failures — including a shard
        killed mid-stream with the requeue budget exhausted — terminate the
        stream with a final chunk whose response carries the structured
        error code; the stream never hangs and never ends without a final
        chunk.  Feed the chunks to
        :func:`~repro.serving.protocol.assemble_stream` to recover the
        response.
        """
        if not isinstance(request, Request):
            raise ModelConfigError(f"stream() needs a Request, got {type(request).__name__}")
        if self._loop is None or self._thread is None or not self._thread.is_alive():
            raise ModelConfigError("ShardedServer is not started")
        # The generator owns the root span (not _submit) so every relayed
        # chunk can echo the trace context of the request it belongs to.
        span = None
        if request.trace is None:
            span = obs.TRACES.root(SPAN_GATEWAY_REQUEST, attrs={"task": request.task, "stream": True})
            if span is not None:
                request = replace(request, trace=span.context.to_wire())
        chunks = StreamReconciler(request)
        events: queue_module.Queue = queue_module.Queue()
        asyncio.run_coroutine_threadsafe(self._stream_submit(request, events.put), self._loop)
        try:
            while True:
                kind, value = events.get()
                if kind == "done":
                    response = value
                    break
                chunk_seq, text = value
                # chunk_seq 0 after earlier chunks: the stream's shard died and
                # the requeued job is streaming again from scratch.
                yield chunks.delta(text, restarted=chunk_seq == 0)
            if span is not None:
                obs.TRACES.finish(span, status="ok" if response.error is None else "error")
                span = None
            yield from chunks.finish(response)
        finally:
            if span is not None:  # the consumer abandoned the stream mid-flight
                obs.TRACES.finish(span, status="error")

    # -- deployment lifecycle -----------------------------------------------------------
    def deploy(self, ref: str) -> str:
        """Verify ``ref`` and load it on every shard; returns its deployment id."""
        return self._call(self._deploy_async(ref))

    def rolling_swap(self, ref: str) -> str:
        """Make ``ref`` the primary, loading it shard-by-shard first.

        The swap is rolling and lossless: each shard loads the new version
        while the others keep serving, a shard that crashes mid-swap is
        respawned with the new version included, and the primary reference
        flips only after *every* shard holds the new pipeline — so no request
        ever lands on a shard that cannot answer it.  The old primary stays
        loaded (never drained) until an explicit :meth:`undeploy`.
        """
        return self._call(self._rolling_swap_async(ref))

    def undeploy(self, ref: str) -> None:
        """Drain and unload a non-primary deployment from every shard."""
        self._call(self._undeploy_async(ref))

    def set_routes(self, task: str, weights: dict[str, float]) -> None:
        """Route ``task`` by explicit deployment weights (canary splits, A/B)."""
        self._call(self._set_routes_async(task, weights))

    def set_canary(self, task: str, ref: str, fraction: float) -> None:
        """Send ``fraction`` of ``task`` traffic to ``ref``, the rest to the primary."""
        self._call(self._set_canary_async(task, ref, fraction))

    def set_shadow(self, task: str, ref: str, fraction: float) -> None:
        """Duplicate ``fraction`` of ``task`` traffic to ``ref`` for comparison only."""
        self._call(self._set_shadow_async(task, ref, fraction))

    # -- observability / chaos ----------------------------------------------------------
    def shard_pids(self) -> dict[str, int]:
        """Live mapping of slot name -> current shard process id."""
        return {slot.name: slot.pid for slot in self._slots}

    def inject_fault(self, slot_name: str, mode: str, after: int = 1) -> None:
        """Arm a fault on one shard (``enable_fault_injection`` must be on).

        ``mode`` is one of :data:`FAULT_MODES`; the fault triggers on the
        ``after``-th serve frame the shard receives next.  Blocks until the
        shard acknowledges arming, so tests can sequence faults precisely.
        """
        if not self.config.enable_fault_injection:
            raise ModelConfigError("fault injection is disabled; set ShardConfig.enable_fault_injection")
        if mode not in FAULT_MODES:
            raise ModelConfigError(f"unknown fault mode {mode!r}; known: {', '.join(FAULT_MODES)}")
        self._call(self._inject_fault_async(slot_name, mode, after))

    def stats(self) -> dict:
        """A deep-copied snapshot of gateway and per-shard counters.

        ``requests`` mirrors the thread server's accounting (submitted /
        completed / cache_hits / coalesced plus per-error-code rejected and
        failed groups, ``shard_failed`` included); ``shards`` reports each
        slot's pid, liveness, generation, restart/dispatch/requeue counters
        and heartbeat age; ``deployments`` / ``primary`` / ``routes`` /
        ``shadow`` describe the routing stack (``shadow`` is the thread
        server's ``"primary->shadow"`` agreement ledger).

        Like every other public call, the snapshot is taken *on* the gateway
        loop, so it is internally consistent — never torn by concurrent
        mutation from in-flight traffic.
        """
        if self._loop is not None and self._thread is not None and self._thread.is_alive():
            return self._call(self._stats_async())
        # Before start() / after stop() nothing mutates concurrently; a
        # direct snapshot is safe and lets callers inspect a stopped server.
        return self._snapshot_stats(now=None)

    def observability(self) -> dict:
        """Cluster-wide metrics and the gateway's trace store.

        ``metrics`` merges the gateway's own registry snapshot with the
        newest per-shard snapshot each shard piggybacked on its heartbeat
        frames — counters add, histograms merge bucket-exact (the fixed
        :data:`~repro.obs.metrics.BUCKET_SCHEME` makes cross-process merge
        lossless), gauges adopt the last writer.  ``shards`` keeps the raw
        per-slot snapshots; ``spans`` lists every span the gateway recorded
        or ingested from shard responses (render with
        :func:`repro.obs.export.render_trace`).  A respawned shard restarts
        its counters from zero; the merge reflects the live processes, not
        lifetime totals across generations.
        """
        if self._loop is not None and self._thread is not None and self._thread.is_alive():
            return self._call(self._observability_async())
        return self._merged_observability()

    async def _observability_async(self) -> dict:
        return self._merged_observability()

    def _merged_observability(self) -> dict:
        scratch = MetricsRegistry()
        scratch.merge(obs.METRICS.snapshot())
        shards = {}
        for slot in self._slots:
            if slot.metrics is not None:
                shards[slot.name] = copy.deepcopy(slot.metrics)
                scratch.merge(slot.metrics)
        return {
            "metrics": scratch.snapshot(),
            "shards": shards,
            "spans": [span.as_dict() for span in obs.TRACES.spans()],
        }

    async def _stats_async(self) -> dict:
        return self._snapshot_stats(now=self._loop.time())

    def _snapshot_stats(self, now: float | None) -> dict:
        snapshot = {
            "version": __version__,
            "requests": self._gateway.request_stats(),
            "shards": {
                slot.name: {
                    "pid": slot.pid,
                    "alive": slot.alive,
                    "broken": slot.broken,
                    "generation": slot.generation,
                    "restarts": slot.restarts,
                    "dispatched": slot.dispatched,
                    "completed": slot.completed,
                    "requeued": slot.requeued,
                    "queued": slot.queue.qsize() if slot.queue is not None else 0,
                    "pending_batches": len(slot.pending),
                    "heartbeat_age_s": round(max(0.0, now - slot.last_heartbeat), 3)
                    if slot.alive and now is not None
                    else None,
                    "deployments": sorted(slot.deployments),
                }
                for slot in self._slots
            },
            "restarts": self._totals["restarts"],
            "requeues": self._totals["requeues"],
            "swaps": self._totals["swaps"],
            "deployments": sorted(self._gateway.deployments),
            "primary": self._gateway.primary.deployment_id,
            "routes": self._gateway.router.describe(),
            "shadow": self._gateway.shadow_stats(),
            "gateway_cache": self._cache.stats(),
            "fatal": list(self._fatal_log),
        }
        return copy.deepcopy(snapshot)

    # -- event-loop plumbing ------------------------------------------------------------
    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
        finally:
            with contextlib.suppress(Exception):
                self._loop.close()

    def _call(self, coro, timeout: float | None = None):
        """Run ``coro`` on the gateway loop from any thread and wait for it."""
        if self._loop is None or not self._thread or not self._thread.is_alive():
            coro.close()
            raise ModelConfigError("ShardedServer is not started")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    async def _start_async(self) -> None:
        window = self.config.window()
        for slot in self._slots:
            slot.queue = asyncio.Queue(maxsize=self.config.queue_size)
            slot.inflight = asyncio.Semaphore(self.config.max_inflight_batches)
            slot.ready = asyncio.Event()
            await self._respawn(slot, initial=True)
            self._collector_tasks.append(asyncio.create_task(self._collect(slot, window)))
        self._monitor_task = asyncio.create_task(self._monitor())

    async def _stop_async(self) -> None:
        self._gateway.stopped = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
        for task in list(self._respawn_tasks):
            task.cancel()
        for task in self._collector_tasks:
            task.cancel()
        for slot in self._slots:
            for batch in slot.pending.values():
                for job in batch.jobs:
                    self._fail_job(job, ERROR_SHUTDOWN, "server stopped with the request in flight")
            slot.pending.clear()
            if slot.queue is not None:
                while not slot.queue.empty():
                    self._fail_job(slot.queue.get_nowait(), ERROR_SHUTDOWN, "server stopped with the request queued")
            if slot.alive:
                with contextlib.suppress(OSError, TransportError):
                    os.set_blocking(slot.to_fd, True)
                    write_frame(slot.to_fd, {"type": "stop"})
            self._destroy_shard_process(slot)
        await asyncio.sleep(0)

    # -- forking and respawn ------------------------------------------------------------
    def _fork_shard(self, slot: _Slot) -> None:
        """Fork one shard for ``slot``; gateway-side fds become non-blocking."""
        in_read, in_write = os.pipe()
        out_read, out_write = os.pipe()
        generation = slot.generation + 1
        refs = sorted(self._gateway.deployments)
        inherited = sorted(self._gateway_fds)
        pid = os.fork()
        if pid == 0:
            # Child: keep only our two shard-side ends, drop every gateway fd
            # (ours and other shards') so a dead shard's pipes EOF correctly.
            try:
                os.close(in_write)
                os.close(out_read)
                for fd in inherited:
                    with contextlib.suppress(OSError):
                        os.close(fd)
                run_shard(slot.name, generation, self._registry_path, refs, in_read, out_write, self.config)
            finally:
                os._exit(1)
        os.close(in_read)
        os.close(out_write)
        os.set_blocking(in_write, False)
        os.set_blocking(out_read, False)
        slot.generation = generation
        slot.pid = pid
        slot.to_fd = in_write
        slot.from_fd = out_read
        slot.decoder = FrameDecoder()
        slot.outbuf = bytearray()
        slot.writing = False
        slot.deployments = set()
        slot.last_heartbeat = self._loop.time()
        slot.ready_waiter = self._loop.create_future()
        self._gateway_fds.update((in_write, out_read))
        self._loop.add_reader(out_read, self._on_readable, slot, generation)

    async def _respawn(self, slot: _Slot, initial: bool = False) -> None:
        """Bring ``slot`` up, retrying; marks the slot broken when it cannot."""
        for _attempt in range(self.config.respawn_attempts):
            if self._stopping:
                return
            try:
                self._fork_shard(slot)
            except OSError as error:
                self._fatal_log.append(f"{slot.name}: fork failed: {error}")
                await asyncio.sleep(0.05)
                continue
            try:
                await asyncio.wait_for(slot.ready_waiter, self.config.start_timeout_s)
            except (Exception, asyncio.CancelledError):
                self._destroy_shard_process(slot)
                if self._stopping:
                    return
                continue
            slot.alive = True
            slot.broken = False
            slot.last_heartbeat = self._loop.time()
            if not initial:
                slot.restarts += 1
                self._totals["restarts"] += 1
                _RESPAWNS_TOTAL.inc()
            slot.ready.set()
            return
        slot.broken = True
        self._drain_queue_of_broken_slot(slot)
        if initial:
            raise ModelConfigError(
                f"shard {slot.name} failed to start after {self.config.respawn_attempts} attempts"
            )

    def _destroy_shard_process(self, slot: _Slot) -> None:
        """Remove fd registrations, close pipes, and SIGKILL + reap the process."""
        for fd, remover in ((slot.from_fd, self._loop.remove_reader), (slot.to_fd, self._loop.remove_writer)):
            if fd >= 0:
                with contextlib.suppress(Exception):
                    remover(fd)
        for fd in (slot.to_fd, slot.from_fd):
            if fd >= 0:
                self._gateway_fds.discard(fd)
                with contextlib.suppress(OSError):
                    os.close(fd)
        slot.to_fd = slot.from_fd = -1
        slot.writing = False
        pid = slot.pid
        if pid > 0:
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.kill(pid, signal.SIGKILL)
            # SIGKILL works on SIGSTOPped processes too; reap without blocking
            # the loop (the kill guarantees the wait completes).
            self._loop.run_in_executor(None, self._reap, pid)
        slot.pid = -1

    @staticmethod
    def _reap(pid: int) -> None:
        with contextlib.suppress(ChildProcessError, OSError):
            os.waitpid(pid, 0)

    # -- shard I/O ----------------------------------------------------------------------
    def _on_readable(self, slot: _Slot, generation: int) -> None:
        if slot.generation != generation or slot.from_fd < 0:
            return
        try:
            data = os.read(slot.from_fd, 1 << 16)
        except BlockingIOError:
            return
        except OSError as error:
            self._on_shard_death(slot, generation, f"read failed: {error}")
            return
        if not data:
            self._on_shard_death(slot, generation, "pipe closed (process exited)")
            return
        try:
            messages = slot.decoder.feed(data)
        except TransportError as error:
            self._on_shard_death(slot, generation, f"protocol violation: {error}")
            return
        try:
            for message in messages:
                self._on_message(slot, generation, message)
        except Exception as error:  # noqa: BLE001 - a frame the gateway cannot act on condemns its shard
            # Well-framed but malformed content (a non-dict response, a missing
            # field, an unhashable seq).  Letting it escape into the loop would
            # drop the rest of this read and strand every unanswered batch's
            # futures; the death path requeues or fails them instead.
            self._on_shard_death(slot, generation, f"protocol violation: {type(error).__name__}: {error}")

    def _on_message(self, slot: _Slot, generation: int, message: dict) -> None:
        if slot.generation != generation:
            return
        mtype = message.get("type")
        now = self._loop.time()
        if mtype == "heartbeat" and slot.alive:
            _HEARTBEAT_GAP_MS.record((now - slot.last_heartbeat) * 1000.0)
        slot.last_heartbeat = now
        if mtype == "heartbeat":
            metrics = message.get("metrics")
            if metrics is not None:
                slot.metrics = metrics
            return
        if mtype == "ready":
            slot.deployments = set(message.get("deployments", []))
            if slot.ready_waiter is not None and not slot.ready_waiter.done():
                slot.ready_waiter.set_result(True)
            return
        if mtype == "result":
            self._resolve_batch(slot, message.get("seq"), message.get("responses") or [])
            return
        if mtype == "chunk":
            # A streaming batch holds exactly one job; chunk frames for a
            # batch no longer pending (shard died, job requeued) are stale
            # and dropped — the restarted stream re-emits from chunk_seq 0.
            batch = slot.pending.get(message.get("seq"))
            if batch is not None and batch.jobs:
                job = batch.jobs[0]
                if job.on_text is not None and (job.future is None or not job.future.done()):
                    job.on_text(int(message.get("chunk_seq", 0)), str(message.get("text", "")))
            return
        if mtype == "loaded":
            slot.deployments.add(message["deployment"])
            waiter = slot.waiters.pop(("loaded", message["ref"]), None)
            if waiter is not None and not waiter.done():
                waiter.set_result(message["deployment"])
            return
        if mtype == "load_failed":
            waiter = slot.waiters.pop(("loaded", message["ref"]), None)
            if waiter is not None and not waiter.done():
                waiter.set_exception(ModelConfigError(f"{slot.name}: {message.get('detail')}"))
            return
        if mtype == "unloaded":
            slot.deployments.discard(message["deployment"])
            return
        if mtype in ("fault_armed", "fault_rejected"):
            waiter = slot.waiters.pop(("fault", message.get("mode")), None)
            if waiter is not None and not waiter.done():
                if mtype == "fault_armed":
                    waiter.set_result(True)
                else:
                    waiter.set_exception(ModelConfigError(f"{slot.name} rejected the fault frame"))
            return
        if mtype == "fatal":
            self._fatal_log.append(f"{slot.name}: {message.get('detail')}")

    def _send(self, slot: _Slot, frame: dict) -> None:
        slot.outbuf.extend(encode_frame(frame))
        if not slot.writing:
            self._flush_writes(slot, slot.generation)

    def _flush_writes(self, slot: _Slot, generation: int) -> None:
        if slot.generation != generation or slot.to_fd < 0:
            return
        while slot.outbuf:
            try:
                written = os.write(slot.to_fd, slot.outbuf)
            except BlockingIOError:
                if not slot.writing:
                    slot.writing = True
                    self._loop.add_writer(slot.to_fd, self._flush_writes, slot, generation)
                return
            except OSError as error:
                self._on_shard_death(slot, generation, f"write failed: {error}")
                return
            del slot.outbuf[:written]
        if slot.writing:
            slot.writing = False
            with contextlib.suppress(Exception):
                self._loop.remove_writer(slot.to_fd)

    # -- death, requeue, monitoring -----------------------------------------------------
    def _on_shard_death(self, slot: _Slot, generation: int, reason: str) -> None:
        if slot.generation != generation:
            return
        if not slot.alive:
            # Died during spawn: fail the ready waiter so _respawn retries.
            if slot.ready_waiter is not None and not slot.ready_waiter.done():
                slot.ready_waiter.set_exception(ModelConfigError(f"{slot.name} died during start: {reason}"))
            return
        slot.alive = False
        slot.ready.clear()
        self._fatal_log.append(f"{slot.name} gen {generation} died: {reason}")
        pending = list(slot.pending.values())
        slot.pending.clear()
        # Control-frame waiters (load/fault acks) fail fast so a rolling swap
        # interrupted by the crash retries immediately instead of timing out.
        for waiter in slot.waiters.values():
            if not waiter.done():
                waiter.set_exception(TransportError(f"{slot.name} died: {reason}"))
        slot.waiters.clear()
        self._destroy_shard_process(slot)
        for batch in pending:
            slot.inflight.release()
            for span in batch.spans:
                obs.TRACES.finish(span, status="error")
            for job in batch.jobs:
                self._requeue_job(slot, job, reason)
        if not self._stopping:
            task = asyncio.ensure_future(self._respawn(slot))
            self._respawn_tasks.add(task)
            task.add_done_callback(self._respawn_tasks.discard)

    def _requeue_job(self, slot: _Slot, job: Job, reason: str) -> None:
        if job.future.done():
            return
        job.ticket.requeues += 1
        slot.requeued += 1
        self._totals["requeues"] += 1
        _REQUEUES_TOTAL.inc()
        if job.ticket.requeues > self.config.max_requeues:
            self._fail_job(
                job,
                ERROR_SHARD_FAILED,
                f"shard died ({reason}) and the requeue budget "
                f"({self.config.max_requeues}) is exhausted",
            )
            return
        self._enqueue(job, requeue=True)

    def _enqueue(self, job: Job, requeue: bool = False) -> None:
        """Re-place an already admitted job; a refusal fails it."""
        try:
            self._place(job, requeue)
        except Rejected as rejected:
            self._fail_job(job, rejected.code, rejected.detail)

    def _place(self, job: Job, requeue: bool = False) -> None:
        """Put ``job`` on a live slot's queue: its ring owner's, or — while the owner has
        work queued or unanswered and another live shard has none — the next idle one's."""
        key = job.ticket.route_key
        dead = {slot.name for slot in self._slots if not slot.alive}
        busy = {slot.name for slot in self._slots if slot.pending or not slot.queue.empty()}
        try:
            target_name, diverted = place(self._ring, key, dead, busy)
            if diverted:
                _PLACEMENTS_DIVERTED_TOTAL.inc()
        except ModelConfigError:
            # Every shard is down: keep the job on a *respawnable* owner so it
            # runs after the respawn instead of failing a transient total
            # outage.  A broken slot (respawn budget exhausted) never comes
            # back, so its queue would strand the job forever.
            broken = {slot.name for slot in self._slots if slot.broken}
            try:
                target_name = self._ring.node(key, exclude=broken)
            except ModelConfigError:
                raise Rejected(
                    ERROR_SHARD_FAILED, "every shard is broken; no slot can serve the request"
                ) from None
        target = next(slot for slot in self._slots if slot.name == target_name)
        try:
            target.queue.put_nowait(job)
        except asyncio.QueueFull:
            if requeue:
                raise Rejected(
                    ERROR_SHARD_FAILED, "no shard had queue capacity for the requeued request"
                ) from None
            raise Rejected(ERROR_QUEUE_FULL, f"{target.name}'s queue is full") from None

    def _drain_queue_of_broken_slot(self, slot: _Slot) -> None:
        if slot.queue is None:
            return
        while not slot.queue.empty():
            job = slot.queue.get_nowait()
            if any(s.alive for s in self._slots):
                self._enqueue(job)
            else:
                self._fail_job(job, ERROR_SHARD_FAILED, f"{slot.name} is broken and no other shard is alive")

    async def _monitor(self) -> None:
        interval = self.config.heartbeat_interval_ms / 1000.0
        timeout = self.config.heartbeat_timeout_ms / 1000.0
        deadline = (
            self.config.batch_deadline_ms / 1000.0
            if self.config.batch_deadline_ms is not None
            else None
        )
        while not self._stopping:
            await asyncio.sleep(interval)
            now = self._loop.time()
            for slot in self._slots:
                if not slot.alive:
                    continue
                if now - slot.last_heartbeat > timeout:
                    self._on_shard_death(
                        slot,
                        slot.generation,
                        f"missed heartbeats for {round(now - slot.last_heartbeat, 3)}s "
                        f"(timeout {timeout}s) — wedged",
                    )
                    continue
                if deadline is not None and slot.pending:
                    # A live heartbeat can't prove a dispatched batch will
                    # ever be answered (the reply may have been swallowed);
                    # an overdue batch condemns the shard so its jobs requeue.
                    oldest = min(batch.dispatched_at for batch in slot.pending.values())
                    if now - oldest > deadline:
                        self._on_shard_death(
                            slot,
                            slot.generation,
                            f"batch result overdue by {round(now - oldest - deadline, 3)}s "
                            f"(deadline {deadline}s) — lost reply",
                        )

    # -- collection and dispatch --------------------------------------------------------
    async def _collect(self, slot: _Slot, window: BatchWindow) -> None:
        while not self._stopping:
            await slot.ready.wait()
            groups: dict[str, list[Job]] = {}
            for item in await collect_batch(slot.queue, window, idle=lambda: not slot.pending):
                groups.setdefault(item.deployment.deployment_id, []).append(item)
            # One serve frame per unit: plain jobs share one, but every
            # streaming job is a frame of its own (its chunk frames must
            # interleave on the reply pipe, so streams never share a batch).
            # Each unit takes one inflight-semaphore slot, matching the one
            # release its result (or its shard's death) will produce.
            units: list[tuple[str, list[Job]]] = []
            for deployment, jobs in groups.items():
                plain = [job for job in jobs if job.on_text is None]
                if plain:
                    units.append((deployment, plain))
                units.extend((deployment, [job]) for job in jobs if job.on_text is not None)
            for deployment, jobs in units:
                await slot.inflight.acquire()
                if not slot.alive or self._stopping:
                    slot.inflight.release()
                    for pending_job in jobs:
                        if self._stopping:
                            self._fail_job(pending_job, ERROR_SHUTDOWN, "server stopped")
                        else:
                            self._enqueue(pending_job)
                    continue
                self._dispatch(slot, deployment, jobs)

    def _dispatch(self, slot: _Slot, deployment: str, jobs: list[Job]) -> None:
        self._seq += 1
        seq = self._seq
        # Per-job dispatch spans: each covers the frame's round trip to the
        # shard.  The wire form was encoded at admission, so a traced job's
        # wire dict is re-pointed (copy-on-write) at the dispatch span — a
        # requeue re-dispatches under a fresh span rather than a dead one.
        spans = []
        wires = []
        now = self._loop.time()
        for job in jobs:
            _QUEUE_WAIT_MS.record((now - job.enqueued_at) * 1000.0)
            span = obs.TRACES.begin(
                SPAN_GATEWAY_DISPATCH,
                SpanContext.from_wire(job.ticket.wire.get("trace")),
                attrs={"slot": slot.name, "deployment": deployment},
            )
            spans.append(span)
            if span is None:
                wires.append(job.ticket.wire)
            else:
                wire = dict(job.ticket.wire)
                wire["trace"] = span.context.to_wire()
                wires.append(wire)
        slot.pending[seq] = _PendingBatch(jobs, dispatched_at=now, spans=spans)
        slot.dispatched += len(jobs)
        self._send(
            slot,
            {
                "type": "serve",
                "seq": seq,
                "deployment": deployment,
                "requests": wires,
                # a streaming job always travels alone (see _collect)
                "stream": jobs[0].on_text is not None,
            },
        )

    def _resolve_batch(self, slot: _Slot, seq, response_dicts: list[dict]) -> None:
        batch = slot.pending.get(seq)
        if batch is None:
            return
        complete = len(response_dicts) == len(batch.jobs)
        if complete:
            # Delivered before the batch leaves slot.pending: a payload the
            # gateway cannot handle raises out of here with the batch still
            # pending, so condemning the shard (_on_readable) requeues
            # whatever was not delivered.
            for job, payload in zip(batch.jobs, response_dicts):
                self._deliver(slot, job, payload)
            slot.completed += len(batch.jobs)
        del slot.pending[seq]
        slot.inflight.release()
        _DISPATCH_MS.record((self._loop.time() - batch.dispatched_at) * 1000.0)
        for span in batch.spans:
            obs.TRACES.finish(span, status="ok" if complete else "error")
        if not complete:
            for job in batch.jobs:
                self._fail_job(
                    job,
                    ERROR_SHARD_FAILED,
                    f"{slot.name} returned {len(response_dicts)} responses for {len(batch.jobs)} requests",
                )

    # -- delivery and accounting --------------------------------------------------------
    def _deliver(self, slot: _Slot, job: Job, payload: dict) -> None:
        enriched = dict(payload)
        telemetry = dict(enriched.get("telemetry") or {})
        # Spans the shard shipped back move into the gateway's trace store —
        # they are observability payload, not response payload.
        shipped_spans = telemetry.pop("spans", None)
        if shipped_spans:
            obs.TRACES.ingest(shipped_spans)
        telemetry.update(
            {"shard": slot.name, "shard_generation": slot.generation, "requeues": job.ticket.requeues}
        )
        enriched["telemetry"] = telemetry
        try:
            response = Response.from_dict(enriched)
        except ReproError as error:
            self._fail_job(job, ERROR_SHARD_FAILED, f"undecodable shard response: {error}")
            return
        if payload.get("error") is None:
            # Cached only once it decodes, so a hit can always be replayed.
            # Shard-placement telemetry is per-delivery and must not replay,
            # but pipeline stage artifacts (corpus_qa retrieval/merge) are a
            # deterministic function of the request — keep those.
            stored = _with_own_spec(payload)
            stages = (payload.get("telemetry") or {}).get("stages")
            stored["telemetry"] = {"stages": copy.deepcopy(stages)} if stages is not None else None
            self._cache.put(job.ticket.key, stored)
        self._gateway.resolve(job, Outcome(response.output, response.error, response.detail, payload=response))

    def _fail_job(self, job: Job, code: str, detail: str) -> None:
        if not job.future.done():
            self._gateway.resolve(job, Outcome(error=code, detail=detail))

    # -- admission ----------------------------------------------------------------------
    @staticmethod
    def _routing_key(wire: dict) -> str:
        """The request's content identity: wire fields minus caller tags.

        ``trace`` is excluded alongside ``request_id``/``deployment``: trace
        context is per-submission observability metadata, and folding it in
        would break cache hits, coalescing and ring affinity for otherwise
        identical requests.
        """
        payload = {
            key: value
            for key, value in wire.items()
            if key not in ("request_id", "deployment", "trace") and value is not None
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        return hashlib.md5(canonical.encode("utf-8")).hexdigest()

    # The gateway's process executor: identify / bind / cached / response here,
    # _place (above) as its enqueue.
    def _identify(self, request: Request) -> tuple[_Ticket, str | None]:
        wire = request_to_wire(request)
        pin = request.deployment or None
        if pin is not None and pin not in self._gateway.deployments and "@" not in pin:
            # A bare-name pin means the highest deployed version of that name.
            versions = [dep for dep in self._gateway.deployments if dep.rsplit("@", 1)[0] == pin]
            if versions:
                pin = max(versions, key=lambda dep: int(dep.rsplit("@", 1)[1]))
        return _Ticket(request, wire, self._routing_key(wire)), pin

    @staticmethod
    def _bind(ticket: _Ticket, deployment: Deployment) -> _Ticket:
        return _Ticket(
            ticket.request, ticket.wire, ticket.route_key, f"{ticket.route_key}|{deployment.deployment_id}"
        )

    def _cached(self, ticket: _Ticket, deployment: Deployment) -> Response | None:
        cached = self._cache.get(ticket.key)
        if cached is None:
            return None
        return self._replay(cached, ticket.request, cached_hit=True, via="gateway_cache")

    def _response(self, ticket: _Ticket, deployment: Deployment, outcome: Outcome, job: Job | None) -> Response:
        response = outcome.payload
        if response is None:  # failed in the gateway, not answered by a shard
            response = error_response(ticket.request, outcome.error, outcome.detail)
        if job is not None:
            return response
        return self._replay(response.as_dict(), ticket.request, cached_hit=response.error is None, via="coalesced")

    async def _submit(self, request: Request, on_text=None) -> Response:
        if not isinstance(request, Request):
            # error_response() would dereference .task / .request_id on the
            # invalid object; build the structured rejection without touching it.
            self._gateway.counts["submitted"] += 1
            self._gateway.counts[ERROR_INVALID_REQUEST] += 1
            return Response(
                task="",
                output="",
                error=ERROR_INVALID_REQUEST,
                detail=f"submit() needs a Request, got {type(request).__name__}",
            )
        span = None
        if request.trace is None:
            # The gateway is the trace root; a request already carrying wire
            # context (the stream() generator roots its own) just propagates.
            span = obs.TRACES.root(SPAN_GATEWAY_REQUEST, attrs={"task": request.task})
            if span is not None:
                request = replace(request, trace=span.context.to_wire())
        try:
            response = await self._gateway.submit(request, on_text=on_text)
        except BaseException:
            obs.TRACES.finish(span, status="error")
            raise
        obs.TRACES.finish(span, status="ok" if response.error is None else "error")
        return response

    async def _stream_submit(self, request: Request, put) -> Response:
        """Run :meth:`_submit` with a chunk tap feeding ``put``; always ends
        with a ``("done", response)`` event so the sync generator never hangs."""

        def on_text(chunk_seq: int, text: str) -> None:
            put(("chunk", (chunk_seq, text)))

        try:
            response = await self._submit(request, on_text=on_text)
        except BaseException as error:  # noqa: BLE001 - the consumer must see an end
            put(
                (
                    "done",
                    error_response(
                        request, ERROR_SHARD_FAILED, f"stream failed in the gateway: {error}"
                    ),
                )
            )
            raise
        put(("done", response))
        return response

    def _replay(self, payload: dict, request: Request, cached_hit: bool, via: str) -> Response:
        replayed = _with_own_spec(payload)
        replayed["request_id"] = request.request_id
        if cached_hit:
            replayed["cached"] = True
        telemetry = {"via": via}
        stages = (payload.get("telemetry") or {}).get("stages")
        if stages is not None:
            telemetry["stages"] = copy.deepcopy(stages)
        replayed["telemetry"] = telemetry
        return Response.from_dict(replayed)

    async def _serve_async(self, requests: list[Request]) -> list[Response]:
        return list(await asyncio.gather(*(self._submit(request) for request in requests)))

    # -- deployment lifecycle internals -------------------------------------------------
    async def _load_on_slot(self, slot: _Slot, ref: str, dep_id: str) -> None:
        """Load ``ref`` on ``slot``, surviving crashes and respawns mid-load."""
        deadline = self._loop.time() + self.config.start_timeout_s * self.config.respawn_attempts
        while self._loop.time() < deadline:
            if self._stopping:
                raise ModelConfigError("server is stopping")
            if slot.broken:
                raise ModelConfigError(f"{slot.name} is broken; cannot load {ref}")
            try:
                # asyncio.TimeoutError: distinct from builtin TimeoutError on
                # 3.10, where wait_for raises the asyncio flavor.
                await asyncio.wait_for(slot.ready.wait(), 0.5)
            except asyncio.TimeoutError:
                continue
            if dep_id in slot.deployments:
                return  # a respawn already loaded it from the deployed set
            waiter = self._loop.create_future()
            slot.waiters[("loaded", ref)] = waiter
            self._send(slot, {"type": "load", "ref": ref})
            try:
                await asyncio.wait_for(waiter, self.config.start_timeout_s)
                return
            except asyncio.TimeoutError:
                slot.waiters.pop(("loaded", ref), None)
                continue  # shard went silent; loop re-checks after respawn
            except TransportError:
                continue  # shard died mid-load; the respawn carries the ref
        raise ModelConfigError(f"timed out loading {ref} on {slot.name}")

    def _fresh_registry(self):
        """Re-read the registry file: deploys reference versions registered
        after this gateway (or shard) process last loaded it."""
        from repro.deploy.registry import ModelRegistry

        self._registry = ModelRegistry(self._registry_path)
        return self._registry

    def _deployment_id(self, ref: str) -> str:
        """``ref`` as an exact id: a bare name means its latest registered version."""
        return ref if "@" in ref else self._fresh_registry().get(ref).id

    async def _deploy_async(self, ref: str) -> str:
        manifest = self._fresh_registry().verify(ref)
        dep_id = manifest.id
        deployments = self._gateway.deployments
        # Recorded before it is loaded, so a shard respawned mid-deploy carries it.
        deployments.setdefault(dep_id, Deployment(dep_id, SERVABLE_TASKS))
        try:
            for slot in self._slots:
                await self._load_on_slot(slot, dep_id, dep_id)
        except ModelConfigError:
            if dep_id != self._gateway.primary.deployment_id:
                deployments.pop(dep_id, None)
            raise
        return dep_id

    async def _rolling_swap_async(self, ref: str) -> str:
        dep_id = await self._deploy_async(ref)
        if dep_id != self._gateway.primary.deployment_id:
            self._gateway.primary = self._gateway.deployments[dep_id]
            self._totals["swaps"] += 1
        return dep_id

    async def _undeploy_async(self, ref: str) -> None:
        dep_id = self._deployment_id(ref)
        deployment = self._gateway.retire(dep_id)
        # Drain: jobs already queued on the version still dispatch (every slot
        # keeps the pipeline until the unload frame below) — bounded, so a
        # request stuck in an error/requeue cycle cannot hold this forever.
        if not await self._gateway.drained(deployment, self.config.drain_timeout_s):
            deployment.draining = False  # still loaded; let the caller retry
            raise ModelConfigError(
                f"timed out draining {dep_id} after {self.config.drain_timeout_s}s; "
                "the version stays deployed — retry undeploy once its work settles"
            )
        del self._gateway.deployments[dep_id]
        for slot in self._slots:
            if slot.alive:
                self._send(slot, {"type": "unload", "deployment": dep_id})

    async def _set_routes_async(self, task: str, weights: dict[str, float]) -> None:
        self._gateway.set_routes(task, weights)

    async def _set_canary_async(self, task: str, ref: str, fraction: float) -> None:
        dep_id = self._deployment_id(ref)
        if not 0.0 <= fraction <= 1.0:
            raise ModelConfigError(f"canary fraction must be in [0, 1], got {fraction!r}")
        if fraction <= 0.0:
            self._gateway.clear_routes(task)
        elif fraction >= 1.0:
            self._gateway.set_routes(task, {dep_id: 1.0})
        else:
            self._gateway.set_canary(task, self._gateway.primary.deployment_id, dep_id, fraction)

    async def _set_shadow_async(self, task: str, ref: str, fraction: float) -> None:
        self._gateway.set_shadow(task, self._deployment_id(ref), fraction)

    async def _inject_fault_async(self, slot_name: str, mode: str, after: int) -> None:
        slot = next((s for s in self._slots if s.name == slot_name), None)
        if slot is None:
            raise ModelConfigError(f"unknown shard slot {slot_name!r}")
        await slot.ready.wait()
        waiter = self._loop.create_future()
        slot.waiters[("fault", mode)] = waiter
        self._send(slot, {"type": "fault", "mode": mode, "after": after})
        await asyncio.wait_for(waiter, self.config.start_timeout_s)


@contextlib.contextmanager
def serve_sharded(registry_path, primary_ref: str, config: ShardConfig | None = None):
    """Context manager yielding a started :class:`ShardedServer`.

    The one-liner for tests and benchmarks::

        with serve_sharded(registry, "captioner@1", ShardConfig(num_shards=4)) as server:
            responses = server.serve(requests)
    """
    server = ShardedServer(registry_path, primary_ref, config)
    server.start()
    try:
        yield server
    finally:
        server.stop()
