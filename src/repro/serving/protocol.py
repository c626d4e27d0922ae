"""The serving layer's request/response protocol.

Every task the pipeline serves — text-to-vis, vis-to-text, FeVisQA, and the
retrieval-grounded corpus-QA task — is expressed as one :class:`Request` in
and one :class:`Response` out, so callers (and the request batches) handle a
single shape regardless of task or backing model.  ``Request`` carries the
task name plus whichever payload fields that task reads; ``Response`` always
carries the generated text and, when the task produces one, the
parsed/standardized DV query and its Vega-Lite spec.

Streaming consumers receive the same response incrementally as a sequence of
:class:`ResponseChunk` values: seq-numbered partial text followed by one
final chunk embedding the full :class:`Response`.  The invariant — the
concatenated chunk texts (since the last ``seq == 0`` reset) are bitwise
equal to the non-streaming ``Response.output`` — is what
:func:`assemble_stream` checks and ``docs/corpus_qa.md`` documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.database.schema import DatabaseSchema
from repro.errors import ModelConfigError
from repro.vql.ast import DVQuery
from repro.vql.parser import parse_dv_query

#: The tasks a single :class:`~repro.core.model.DataVisT5` checkpoint serves
#: directly.  ``table_to_text`` is trainable in the core model but has no
#: interactive serving surface in the paper's Figure 1, so it is not part of
#: the protocol.
MODEL_TASKS = ("text_to_vis", "vis_to_text", "fevisqa")

#: The tasks the pipeline can serve.  ``corpus_qa`` is composite: it needs a
#: FeVisQA-capable backend *plus* a deployed :class:`~repro.datasets.corpus.
#: CorpusIndex` retrieval artifact, so checkpoint deployments declare it
#: explicitly (``MODEL_TASKS`` stays the default manifest surface).
SERVABLE_TASKS = MODEL_TASKS + ("corpus_qa",)

#: The single source of truth for the machine-readable error codes carried by
#: :attr:`Response.error`, mapping each code to when it is emitted.  The async
#: server and ``Pipeline.serve(strict=False)`` reject or fail requests with a
#: structured error response instead of raising, so one bad request can never
#: take down a burst or the serving loop.  Everything else — the ``ERROR_*``
#: constants below, :data:`ERROR_CODES`, the server's per-code counters and
#: the docs table in ``docs/serving.md`` — derives from (and is tested
#: against) this mapping; add new codes here first.
ERROR_CODE_MEANINGS = {
    "invalid_request": "the request could not be validated or encoded (bad task, missing fields, unpreparable inputs)",
    "backend_error": "the backend forward pass or postprocessing raised; other requests in the batch are unaffected",
    "queue_full": "admission control: the task's bounded queue was full at submission time",
    "deadline_exceeded": "the request's latency budget expired while it was still queued (or was <= 0 at submission and not answerable from the response cache)",
    "server_stopped": "the request arrived after Server.stop() began",
    "shard_failed": "a worker shard process died (crash or missed heartbeats) and the request's requeue budget was exhausted before another shard could answer it",
    "corpus_empty": "a corpus_qa request found no retrievable documents: the deployment's corpus index holds no documents (or retrieval produced no candidates)",
    "index_mismatch": "a corpus_qa request pinned a corpus-index fingerprint (Request.index) that does not match the deployment's loaded index",
}

ERROR_INVALID_REQUEST = "invalid_request"
ERROR_BACKEND = "backend_error"
ERROR_QUEUE_FULL = "queue_full"
ERROR_DEADLINE = "deadline_exceeded"
ERROR_SHUTDOWN = "server_stopped"
ERROR_SHARD_FAILED = "shard_failed"
ERROR_CORPUS_EMPTY = "corpus_empty"
ERROR_INDEX_MISMATCH = "index_mismatch"

ERROR_CODES = tuple(ERROR_CODE_MEANINGS)


@dataclass
class Request:
    """One unit of work for the pipeline.

    Field use per task:

    * ``text_to_vis`` — ``question`` (NL utterance) + ``schema``;
    * ``vis_to_text`` — ``chart`` (a :class:`DVQuery` or DV-query text),
      optional ``schema`` for context;
    * ``fevisqa`` — ``question`` + ``chart``, optional ``schema`` and a
      linearized result ``table``;
    * ``corpus_qa`` — ``question`` only; the serving deployment supplies the
      chart/schema/table context by retrieving it from its deployed
      :class:`~repro.datasets.corpus.CorpusIndex`.  ``index`` may pin the
      expected index fingerprint (``"sha256:<hex>"``): a deployment whose
      loaded index hashes differently answers ``index_mismatch`` instead of
      silently grounding the answer in a corpus the caller never saw.

    ``request_id`` is an opaque caller tag echoed back on the response, so
    callers can correlate batched submissions.

    ``deployment`` pins the request to one deployed model version
    (``"name@version"``) on servers running the :mod:`repro.deploy` routing
    layer, bypassing canary splits — the knob for "give me exactly the
    candidate" debugging traffic.  An unknown or draining deployment is
    rejected with ``invalid_request``; the synchronous :class:`Pipeline`
    has a single implicit version and ignores the field.

    ``trace`` is optional distributed-tracing context (a
    :meth:`repro.obs.SpanContext.to_wire` dict) propagated by the serving
    tiers so one trace can follow a request across the gateway → shard →
    pipeline → decode-loop boundary (``docs/observability.md``).  Like
    ``Response.telemetry`` it is observability metadata: excluded from
    equality, never part of cache or routing identity.
    """

    task: str
    question: str | None = None
    chart: DVQuery | str | None = None
    schema: DatabaseSchema | str | None = None
    table: str | None = None
    request_id: str | None = None
    deployment: str | None = None
    index: str | None = None
    trace: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.task not in SERVABLE_TASKS:
            raise ModelConfigError(
                f"unknown task {self.task!r}; servable tasks: {', '.join(SERVABLE_TASKS)}"
            )
        if self.task in ("text_to_vis", "fevisqa", "corpus_qa") and not self.question:
            raise ModelConfigError(f"{self.task} requests need a question")
        if self.task == "text_to_vis" and self.schema is None:
            raise ModelConfigError(
                "text_to_vis requests need a schema (a DatabaseSchema or encoded schema text)"
            )
        if self.task == "vis_to_text" and self.chart is None:
            raise ModelConfigError("vis_to_text requests need a chart (DVQuery or query text)")
        if self.index is not None:
            if self.task != "corpus_qa":
                raise ModelConfigError("Request.index (a corpus-index pin) is only meaningful for corpus_qa")
            if not isinstance(self.index, str) or not self.index.startswith("sha256:"):
                raise ModelConfigError(
                    f"Request.index must be a corpus-index fingerprint 'sha256:<hex>', got {self.index!r}"
                )
        if self.trace is not None and not isinstance(self.trace, dict):
            raise ModelConfigError(
                f"Request.trace must be a span-context dict or None, got {type(self.trace).__name__}"
            )


@dataclass
class Response:
    """What the pipeline returns for one :class:`Request`.

    ``output`` is the generated text (DV-query text, caption or answer) with
    modality tags stripped.  ``source`` is the exact encoded sequence that was
    (or would be) fed to a neural backend — useful for debugging and as the
    cache identity of the request.  ``cached`` marks responses served from the
    response cache without touching the backend.

    For text-to-vis, ``query`` is the parsed + standardized AST when the
    output parses (``None`` otherwise), ``vega_lite`` its rendered spec, and
    ``valid`` whether the query type-checks against the request schema
    (``False`` for empty or unparseable predictions).  For vis-to-text and
    FeVisQA, ``query`` echoes the request's parsed + standardized chart query
    when its text form parsed.

    ``error`` is ``None`` on success, or one of the :data:`ERROR_CODES` when
    the request was rejected (admission control) or failed (bad input, backend
    exception); ``detail`` then carries the human-readable reason.  Error
    responses have an empty ``output`` and never populate the artifacts.

    ``telemetry`` is per-request serving metadata (queue time, batch size,
    worker id...) attached by the async server.  It is excluded from equality
    comparisons so that a response produced under load compares equal to the
    same response produced synchronously.
    """

    task: str
    output: str
    source: str = ""
    cached: bool = False
    query: DVQuery | None = None
    vega_lite: dict | None = field(default=None, repr=False)
    valid: bool | None = None
    request_id: str | None = None
    error: str | None = None
    detail: str | None = None
    telemetry: dict | None = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        """Whether the request was actually answered (no structured error)."""
        return self.error is None

    def as_dict(self) -> dict:
        """A JSON-friendly view (the AST collapses to its text form).

        The inverse is :meth:`from_dict`: ``Response.from_dict(r.as_dict())``
        reconstructs an equal response, including through a JSON round trip —
        the wire format the deploy layer uses for shadow-comparison records.
        """
        return {
            "task": self.task,
            "output": self.output,
            "source": self.source,
            "cached": self.cached,
            "query": self.query.to_text() if self.query is not None else None,
            "vega_lite": self.vega_lite,
            "valid": self.valid,
            "request_id": self.request_id,
            "error": self.error,
            "detail": self.detail,
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Response":
        """Rebuild a :class:`Response` from an :meth:`as_dict` payload.

        The inverse of :meth:`as_dict`, covering every field it emits —
        error/detail/telemetry included — so responses and shadow-comparison
        records can cross process boundaries as plain JSON.  ``query`` text is
        re-parsed into its :class:`~repro.vql.ast.DVQuery`; since ``as_dict``
        serialized a parseable standardized query, the round trip is exact
        (property-tested in ``tests/test_serving_protocol_roundtrip.py``).
        Unknown keys raise :class:`~repro.errors.ModelConfigError` rather than
        being dropped, so schema drift between producer and consumer is loud.
        """
        known = {field_info.name for field_info in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ModelConfigError(f"unknown Response fields: {', '.join(unknown)}")
        if "task" not in payload or "output" not in payload:
            raise ModelConfigError("a Response payload needs at least 'task' and 'output'")
        query = payload.get("query")
        if isinstance(query, str):
            query = parse_dv_query(query) if query else None
        return cls(
            task=payload["task"],
            output=payload["output"],
            source=payload.get("source", ""),
            cached=bool(payload.get("cached", False)),
            query=query,
            vega_lite=payload.get("vega_lite"),
            valid=payload.get("valid"),
            request_id=payload.get("request_id"),
            error=payload.get("error"),
            detail=payload.get("detail"),
            telemetry=payload.get("telemetry"),
        )


@dataclass
class ResponseChunk:
    """One increment of a streamed :class:`Response`.

    A stream for one request is a sequence of chunks with consecutive
    ``seq`` numbers starting at 0.  Non-final chunks carry a non-empty
    ``text`` delta; the single final chunk (``final=True``) carries the
    complete :class:`Response` in ``response`` and an empty ``text``.  The
    stream contract (checked by :func:`assemble_stream`, property-tested in
    ``tests/test_serving_streaming.py``):

    * **bitwise reassembly** — the concatenation of the ``text`` of every
      non-final chunk since the most recent ``seq == 0`` chunk equals the
      final ``response.output`` exactly;
    * **reset on seq 0** — a non-final chunk arriving with ``seq == 0``
      restarts assembly (dropping previously buffered text).  This is how a
      stream whose shard died mid-decode restarts cleanly after a requeue,
      and how a speculative draft answer (corpus QA streams its top-ranked
      context's answer while the consistency merge is pending) is replaced
      when the merged answer diverges from it;
    * **structured termination** — a stream never ends without a final
      chunk; failures arrive as a final chunk whose ``response.error`` is
      set (a *terminal error chunk*), not as a hang or a truncated stream.

    ``task`` and ``request_id`` echo the request on every chunk so
    interleaved streams can be demultiplexed.  ``trace`` optionally echoes
    the request's distributed-tracing context (``docs/observability.md``);
    like ``Response.telemetry`` it is excluded from equality, and
    :meth:`as_dict` omits it when unset so untraced chunk dicts are
    byte-identical to the pre-tracing wire format.
    """

    task: str
    seq: int
    text: str = ""
    final: bool = False
    response: Response | None = None
    request_id: str | None = None
    trace: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.seq, int) or isinstance(self.seq, bool) or self.seq < 0:
            raise ModelConfigError(f"chunk seq must be a non-negative integer, got {self.seq!r}")
        if self.final and self.response is None:
            raise ModelConfigError("a final chunk must carry the complete Response")
        if not self.final and self.response is not None:
            raise ModelConfigError("only the final chunk may carry a Response")
        if self.trace is not None and not isinstance(self.trace, dict):
            raise ModelConfigError(
                f"chunk trace must be a span-context dict or None, got {type(self.trace).__name__}"
            )

    def as_dict(self) -> dict:
        """A JSON-friendly view; :meth:`from_dict` is the exact inverse."""
        payload = {
            "task": self.task,
            "seq": self.seq,
            "text": self.text,
            "final": self.final,
            "response": self.response.as_dict() if self.response is not None else None,
            "request_id": self.request_id,
        }
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ResponseChunk":
        """Rebuild (and re-validate) a chunk from :meth:`as_dict` output.

        Unknown keys raise :class:`~repro.errors.ModelConfigError` rather
        than being dropped, matching :meth:`Response.from_dict` strictness.
        """
        if not isinstance(payload, dict):
            raise ModelConfigError(f"chunk payload must be a dict, got {type(payload).__name__}")
        known = {field_info.name for field_info in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ModelConfigError(f"unknown ResponseChunk fields: {', '.join(unknown)}")
        missing = sorted({"task", "seq"} - set(payload))
        if missing:
            raise ModelConfigError(f"chunk payload is missing fields: {', '.join(missing)}")
        response = payload.get("response")
        if isinstance(response, dict):
            response = Response.from_dict(response)
        return cls(
            task=payload["task"],
            seq=payload["seq"],
            text=payload.get("text", ""),
            final=bool(payload.get("final", False)),
            response=response,
            request_id=payload.get("request_id"),
            trace=payload.get("trace"),
        )


def assemble_stream(chunks) -> Response:
    """Reassemble one request's chunk sequence into its :class:`Response`.

    Applies the :class:`ResponseChunk` contract: text chunks concatenate,
    a non-final ``seq == 0`` chunk resets the buffer, and the stream must end
    with exactly one final chunk.  Raises :class:`~repro.errors.
    ModelConfigError` if the stream is empty, truncated (no final chunk),
    continues past its final chunk, or the reassembled text is not bitwise
    equal to the final ``response.output`` (successful streams only — a
    terminal error chunk's empty output is returned as-is).  Returns the
    final chunk's embedded :class:`Response`.
    """
    assembled: list[str] = []
    final: Response | None = None
    seen = False
    for chunk in chunks:
        seen = True
        if final is not None:
            raise ModelConfigError("stream continued past its final chunk")
        if chunk.final:
            final = chunk.response
            continue
        if chunk.seq == 0:
            assembled = []
        assembled.append(chunk.text)
    if not seen:
        raise ModelConfigError("cannot assemble an empty stream")
    if final is None:
        raise ModelConfigError("stream ended without a final chunk (truncated)")
    text = "".join(assembled)
    if final.error is None and text != final.output:
        raise ModelConfigError(
            f"stream reassembly mismatch: chunks concatenate to {text!r} but the "
            f"final response output is {final.output!r}"
        )
    return final


def error_response(request, error: str, detail: str) -> Response:
    """A structured failure :class:`Response` for ``request``.

    Used by admission control and ``strict=False`` serving so that rejected
    or failed requests surface as data, position-aligned with their burst,
    rather than as exceptions that abort every other request in flight.
    """
    if error not in ERROR_CODES:
        raise ModelConfigError(f"unknown error code {error!r}; known codes: {', '.join(ERROR_CODES)}")
    return Response(
        task=request.task,
        output="",
        error=error,
        detail=detail,
        request_id=request.request_id,
    )
