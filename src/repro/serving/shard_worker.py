"""The worker-shard side of the process-sharded tier: what runs in each fork.

:func:`run_shard` is the child's frame loop — blocking reads on the request
pipe, the heartbeat thread and every ``os._exit``.  :class:`ShardWorker`
holds the shard's pipelines and armed fault and answers each frame through
an ``emit`` callable, *returning* what the loop does next, so a test can
drive every frame in-process without forking.

A ``serve`` frame ``{"seq", "deployment", "requests": [wire, ...]}`` is
answered by one ``result`` frame from ``Pipeline.serve(strict=False)``.
With ``"stream": true`` it carries exactly one request, served through
``Pipeline.serve_streaming(strict=False)`` with each text delta emitted as a
``chunk`` frame (``chunk_seq`` 0, 1, ...) before the ``result``.  ``load`` /
``unload`` / ``fault`` / ``stop`` manage deployments, chaos faults and exit.
Unknown frame types are ignored; a frame the worker cannot act on emits a
``fatal`` frame and exits 1, so the gateway respawns the shard and requeues
its work (see ``docs/sharding.md``).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time
from dataclasses import replace
from typing import TYPE_CHECKING

from repro import obs
from repro.obs.names import SPAN_SHARD_SERVE
from repro.obs.trace import SpanContext
from repro.serving.protocol import ERROR_INVALID_REQUEST, Request, Response, error_response
from repro.serving.transport import EndOfStream, TransportError, read_frame, request_from_wire, write_frame

if TYPE_CHECKING:
    from repro.serving.sharded import ShardConfig

#: Fault-injection modes a shard understands (``ShardConfig.
#: enable_fault_injection`` must be on): ``exit`` calls ``os._exit`` before
#: answering the triggering batch (a crash with work in flight), ``wedge``
#: silences the heartbeat thread and stops consuming frames (a ``SIGSTOP``
#: -shaped hang, detectable only by heartbeat timeout), ``drop_batch``
#: swallows one batch's reply and keeps going (a lost-result bug).
FAULT_MODES = ("exit", "wedge", "drop_batch")

#: What :meth:`ShardWorker.handle` returns to stop the frame loop for good
#: without exiting (the ``wedge`` fault).
WEDGE = "wedge"


def _service_sleep_s(config: ShardConfig, task: str) -> float:
    """Calibrated per-response service time for ``task``, in seconds."""
    spec = config.calibrated_service_ms
    if spec is None:
        return 0.0
    if isinstance(spec, dict):
        return float(spec.get(task, spec.get("default", 0.0))) / 1000.0
    return float(spec) / 1000.0


class ShardWorker:
    """One shard's deployments and armed fault, answering frames through ``emit``.

    Construction builds one pipeline per deployment in ``refs`` through the
    fingerprint-verifying :class:`~repro.deploy.registry.ModelRegistry` at
    ``registry_path`` (a load failure raises).  ``emit(frame)`` writes one
    reply frame; it may raise ``OSError`` once the gateway is gone.
    """

    def __init__(self, slot: str, generation: int, registry_path: str, refs, config: ShardConfig, emit):
        # Lazy: importing the registry at module level closes an import cycle
        # (see the note at the top of repro.serving.sharded).
        from repro.deploy.registry import ModelRegistry

        self.slot = slot
        self.generation = generation
        self.registry_path = registry_path
        self.config = config
        self.emit = emit
        self.fault_mode: str | None = None
        self.fault_after = 0
        registry = ModelRegistry(registry_path)
        self.pipelines = {}
        for ref in refs:
            manifest = registry.get(ref)
            if manifest.id not in self.pipelines:
                self.pipelines[manifest.id] = registry.build_pipeline(ref)

    def handle(self, frame: dict) -> int | str | None:
        """Answer one gateway frame; returns what the frame loop does next.

        ``None``: read the next frame.  An ``int``: exit with that code
        (``stop``, the ``exit`` fault, a reply pipe that is gone, or a frame
        the worker could not act on — after a ``fatal`` frame).
        :data:`WEDGE`: stop reading and heartbeating without exiting.
        """
        try:
            ftype = frame.get("type")
            if ftype == "serve":
                return self._serve(frame)
            if ftype == "load":
                self._load(frame["ref"])
            elif ftype == "unload":
                self.pipelines.pop(frame["deployment"], None)
                self.emit({"type": "unloaded", "slot": self.slot, "deployment": frame["deployment"]})
            elif ftype == "fault":
                self._arm_fault(frame.get("mode"), frame.get("after", 1))
            elif ftype == "stop":
                return 0
            return None  # unknown frame types are ignored: a newer gateway may speak more
        except OSError:
            return 0  # the reply pipe is gone: so is the gateway
        except Exception as error:  # noqa: BLE001 - one bad frame must not loop forever
            with contextlib.suppress(OSError):
                self.emit({"type": "fatal", "slot": self.slot, "detail": f"shard loop failed: {error}"})
            return 1

    def _serve(self, frame: dict) -> int | str | None:
        stream = bool(frame.get("stream", False))
        requests = [request_from_wire(payload) for payload in frame["requests"]]
        if stream and len(requests) != 1:
            raise TransportError(f"a stream frame carries one request, got {len(requests)}")
        fault = self._trigger_fault()
        if fault == "exit":
            return 13  # distinct from a clean stop (0) and a fatal frame (1)
        if fault == "wedge":
            return WEDGE
        spans, requests = self._begin_spans(requests)
        pipeline = self.pipelines.get(frame["deployment"])
        if pipeline is None:
            detail = f"deployment {frame['deployment']!r} is not loaded on shard {self.slot}"
            responses = [error_response(request, ERROR_INVALID_REQUEST, detail) for request in requests]
        elif stream:
            tap = self._chunk_tap(frame["seq"], requests[0].trace)
            responses = [pipeline.serve_streaming(requests[0], tap, strict=False)]
        else:
            responses = pipeline.serve(requests, strict=False)
        self._attach_spans(spans, responses)
        pause = sum(
            _service_sleep_s(self.config, response.task)
            for response in responses
            if response.error is None and not response.cached
        )
        if pause > 0:
            time.sleep(pause)
        if fault != "drop_batch":
            payloads = [response.as_dict() for response in responses]
            self.emit(self._frame("result", seq=frame["seq"], responses=payloads))
        return None

    def _load(self, ref: str) -> None:
        from repro.deploy.registry import ModelRegistry

        try:
            # Re-read the registry file: the version being deployed was
            # registered after this shard forked.
            fresh = ModelRegistry(self.registry_path)
            manifest = fresh.get(ref)
            if manifest.id not in self.pipelines:
                self.pipelines[manifest.id] = fresh.build_pipeline(ref)
            self.emit({"type": "loaded", "slot": self.slot, "ref": ref, "deployment": manifest.id})
        except Exception as error:  # noqa: BLE001 - any load failure is reported
            self.emit({"type": "load_failed", "slot": self.slot, "ref": ref, "detail": str(error)})

    def _arm_fault(self, mode, after) -> None:
        if self.config.enable_fault_injection and mode in FAULT_MODES:
            self.fault_mode, self.fault_after = mode, max(1, int(after))
            self.emit({"type": "fault_armed", "slot": self.slot, "mode": mode})
        else:
            self.emit({"type": "fault_rejected", "slot": self.slot, "mode": mode})

    def _frame(self, ftype: str, **fields) -> dict:
        """A reply frame stamped with this shard's slot and generation."""
        return {"type": ftype, **fields, "slot": self.slot, "generation": self.generation}

    def _trigger_fault(self) -> str | None:
        """Count one serve frame against the armed fault; its mode once it fires."""
        if self.fault_mode is None:
            return None
        self.fault_after -= 1
        if self.fault_after > 0:
            return None
        mode, self.fault_mode = self.fault_mode, None
        return mode

    def _begin_spans(self, requests: list[Request]) -> tuple[list, list[Request]]:
        # One shard.serve span per traced request; the request is re-pointed
        # at the span's context so pipeline stage spans parent under it.
        spans = [
            obs.TRACES.begin(
                SPAN_SHARD_SERVE,
                SpanContext.from_wire(request.trace),
                attrs={"slot": self.slot, "task": request.task},
            )
            for request in requests
        ]
        traced = [
            replace(request, trace=span.context.to_wire()) if span is not None else request
            for request, span in zip(requests, spans)
        ]
        return spans, traced

    @staticmethod
    def _attach_spans(spans: list, responses: list[Response]) -> None:
        # Ship each trace's finished spans back embedded in the response
        # telemetry; take() empties the local store so a span crosses the
        # pipe exactly once and the gateway's ingest is the only copy.
        for span, response in zip(spans, responses):
            if span is None:
                continue
            obs.TRACES.finish(span, status="ok" if response.error is None else "error")
            telemetry = dict(response.telemetry or {})
            telemetry["spans"] = [item.as_dict() for item in obs.TRACES.take(span.trace_id)]
            response.telemetry = telemetry

    def _chunk_tap(self, seq, trace: dict | None):
        """An ``on_text`` tap emitting each delta as the next ``chunk`` frame of ``seq``."""
        chunk_seqs = itertools.count()
        echo = {"trace": trace} if trace is not None else {}

        def on_text(delta: str) -> None:
            self.emit(self._frame("chunk", seq=seq, chunk_seq=next(chunk_seqs), text=delta, **echo))

        return on_text


def run_shard(
    slot: str, generation: int, registry_path: str, refs: list[str], in_fd: int, out_fd: int, config: ShardConfig
) -> None:
    """The worker-shard main loop.  Runs in the forked child; never returns.

    Starts the heartbeat thread, builds the :class:`ShardWorker`, reports
    ``ready``, then feeds it frames read from ``in_fd`` until EOF or a
    frame it answers with an exit.  All exits go through ``os._exit`` so the
    child never runs the parent's atexit machinery.
    """
    write_lock = threading.Lock()
    wedged = threading.Event()

    def emit(frame: dict) -> None:
        with write_lock:
            write_frame(out_fd, frame)

    def heartbeat_loop() -> None:
        # Started before model loading so a slow checkpoint load never looks
        # like a wedge.  A write failure means the gateway is gone: exit.
        while not wedged.wait(config.heartbeat_interval_ms / 1000.0):
            try:
                # Heartbeats double as the metrics uplink: each frame carries
                # the shard's cumulative registry snapshot so the gateway can
                # merge cross-process metrics without a separate channel.
                emit({"type": "heartbeat", "slot": slot, "generation": generation, "metrics": obs.METRICS.snapshot()})
            except OSError:
                os._exit(0)

    threading.Thread(target=heartbeat_loop, name="shard-heartbeat", daemon=True).start()

    try:
        worker = ShardWorker(slot, generation, registry_path, refs, config, emit)
        emit(worker._frame("ready", pid=os.getpid(), deployments=sorted(worker.pipelines)))
    except Exception as error:  # noqa: BLE001 - report any startup failure, then die
        with contextlib.suppress(OSError):
            emit({"type": "fatal", "slot": slot, "detail": f"shard startup failed: {error}"})
        os._exit(1)

    while True:
        try:
            frame = read_frame(in_fd)
        except EndOfStream:
            os._exit(0)
        except TransportError as error:
            with contextlib.suppress(OSError):
                emit({"type": "fatal", "slot": slot, "detail": f"bad frame: {error}"})
            os._exit(1)
        action = worker.handle(frame)
        if action == WEDGE:
            wedged.set()
            while True:  # pragma: no cover - killed by the gateway
                time.sleep(60.0)
        if action is not None:
            os._exit(action)
