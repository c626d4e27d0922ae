"""Request-oriented serving for the DataVisT5 reproduction.

This subsystem turns the library's task modules into one production-shaped
entry point: a :class:`Pipeline` facade serving text-to-vis, vis-to-text and
FeVisQA behind a uniform :class:`Request`/:class:`Response` protocol, with
per-task request batches amortizing neural forward passes over concurrent
requests and :class:`LRUCache` layers for parsed VQL ASTs, Vega-Lite specs,
encoder outputs and full responses.  Greedy neural decoding goes one level
deeper: the per-model :class:`ContinuousDecodeLoop`
(:mod:`~repro.serving.continuous`) batches at *token* granularity, admitting
sequences into free slots of a live paged-KV decode batch at every step and
evicting them the moment their own EOS lands.  The :mod:`~repro.serving.registry`
constructs any baseline family from a plain config dict, so serving, the
evaluation harness and the examples share one factory.

On top of the synchronous facade sit two front-ends over one gateway core
(:mod:`~repro.serving.gateway`: admission, deployment routing, canary/shadow,
coalescing and accounting, defined once — queue-full and past-deadline
rejections are error :class:`Response`\\ s, never exceptions).  The asyncio
:class:`Server` (:mod:`~repro.serving.server`) absorbs concurrent ``submit``
calls into bounded queues, batches them under a time/size
:class:`BatchWindow` flush policy, and dispatches to a pool of worker
threads, with per-request telemetry aggregated in ``Server.stats()``.

Beyond threads, the **process-sharded tier** (:mod:`~repro.serving.sharded`)
escapes the GIL entirely: a :class:`ShardedServer` forks worker processes
that each build their own fingerprint-verified pipelines, places request
keys across them with a consistent-hash ring, and treats shard death (crash,
wedge) as a first-class event — heartbeat detection, respawn, requeue,
at-most-once delivery; each child runs a
:class:`~repro.serving.shard_worker.ShardWorker`.  The wire layer (:mod:`~repro.serving.transport`) is a
length-prefixed JSON frame protocol over plain pipes.

Both front-ends also serve **token-streaming** responses: ``Server.stream``
and ``ShardedServer.stream`` yield :class:`ResponseChunk` sequences whose
joined text reproduces the non-streaming ``Response.output`` bitwise
(:func:`assemble_stream` recovers the response), and the retrieval-grounded
``corpus_qa`` task answers questions over a fingerprint-verified
:class:`~repro.datasets.corpus.CorpusIndex` — see ``docs/corpus_qa.md``.

See ``docs/architecture.md`` for the data-flow diagram and the knob
reference, and ``docs/sharding.md`` for the process model.
"""

from repro.serving.batching import BatchWindow
from repro.serving.continuous import (
    ContinuousDecodeLoop,
    DecodeTicket,
    continuous_loop_for,
    continuous_loop_stats,
    continuous_predict_batch,
)
from repro.serving.cache import LRUCache, normalize_key
from repro.serving.pipeline import Pipeline, PipelineConfig, error_code_for
from repro.serving.protocol import (
    ERROR_BACKEND,
    ERROR_CODE_MEANINGS,
    ERROR_CODES,
    ERROR_CORPUS_EMPTY,
    ERROR_DEADLINE,
    ERROR_INDEX_MISMATCH,
    ERROR_INVALID_REQUEST,
    ERROR_QUEUE_FULL,
    ERROR_SHARD_FAILED,
    ERROR_SHUTDOWN,
    MODEL_TASKS,
    SERVABLE_TASKS,
    Request,
    Response,
    ResponseChunk,
    assemble_stream,
    error_response,
)
from repro.serving.registry import (
    available_baselines,
    build_generation,
    build_text_to_vis,
    register_generation,
    register_text_to_vis,
)
from repro.serving.server import DEFAULT_DEPLOYMENT, Server, ServerConfig, serve_requests
from repro.serving.sharded import FAULT_MODES, ShardConfig, ShardedServer, serve_sharded
from repro.serving.transport import (
    FrameDecoder,
    TransportError,
    chunk_from_wire,
    chunk_to_wire,
    request_from_wire,
    request_to_wire,
    schema_from_wire,
    schema_to_wire,
)

__all__ = [
    "Pipeline",
    "PipelineConfig",
    "Server",
    "ServerConfig",
    "DEFAULT_DEPLOYMENT",
    "serve_requests",
    "ShardedServer",
    "ShardConfig",
    "serve_sharded",
    "FAULT_MODES",
    "FrameDecoder",
    "TransportError",
    "request_to_wire",
    "request_from_wire",
    "chunk_to_wire",
    "chunk_from_wire",
    "schema_to_wire",
    "schema_from_wire",
    "Request",
    "Response",
    "ResponseChunk",
    "assemble_stream",
    "error_response",
    "error_code_for",
    "MODEL_TASKS",
    "SERVABLE_TASKS",
    "ERROR_CODES",
    "ERROR_CODE_MEANINGS",
    "ERROR_INVALID_REQUEST",
    "ERROR_BACKEND",
    "ERROR_QUEUE_FULL",
    "ERROR_DEADLINE",
    "ERROR_SHUTDOWN",
    "ERROR_SHARD_FAILED",
    "ERROR_CORPUS_EMPTY",
    "ERROR_INDEX_MISMATCH",
    "BatchWindow",
    "ContinuousDecodeLoop",
    "DecodeTicket",
    "continuous_loop_for",
    "continuous_loop_stats",
    "continuous_predict_batch",
    "LRUCache",
    "normalize_key",
    "available_baselines",
    "build_text_to_vis",
    "build_generation",
    "register_text_to_vis",
    "register_generation",
]
