"""The serving facade: one entry point for all three interactive tasks.

A :class:`Pipeline` owns everything a request needs on its way through the
system — schema filtration and sequence encoding, the per-task backend
(a trained :class:`~repro.core.model.DataVisT5` or any registry baseline),
micro-batching, VQL parsing/validation of predictions, Vega-Lite spec
construction — plus the LRU caches that make repeated traffic cheap:

* ``encode``   — (task, inputs) -> encoded source sequence (+ filtered schema);
* ``ast``      — DV-query text -> parsed :class:`DVQuery`;
* ``spec``     — standardized query text -> Vega-Lite spec dict;
* ``response`` — (task, normalized source) -> generated output text;
* ``render``   — chart fingerprint -> ASCII rendering (see
  :func:`repro.charts.render.render_ascii_chart`).

Single requests go through :meth:`text_to_vis` / :meth:`vis_to_text` /
:meth:`fevisqa`; concurrent bursts go through :meth:`serve`, which groups
cache misses per task and runs them through the backend in batches of at
most ``max_batch_size`` so neural backends amortize forward passes.  Batched
and sequential serving produce identical outputs (padding is fully masked);
the tests assert this bitwise.

Construction::

    # share one multi-task DataVisT5 across all three tasks
    pipeline = Pipeline.from_model(trained_model)

    # or mix-and-match registry baselines from a plain config dict
    pipeline = Pipeline.from_config({
        "text_to_vis": {"type": "retrieval", "revise": True},
        "vis_to_text": {"type": "heuristics"},
        "fevisqa": {"type": "heuristics"},
        "pipeline": {"max_batch_size": 16, "response_cache_size": 4096},
    })
"""

from __future__ import annotations

import copy
import hashlib
import time

from dataclasses import dataclass, replace

from repro import obs
from repro.obs.names import (
    METRIC_PIPELINE_MERGE_MS,
    METRIC_PIPELINE_RETRIEVE_MS,
    SPAN_PIPELINE_GENERATE,
    SPAN_PIPELINE_MERGE,
    SPAN_PIPELINE_RETRIEVE,
)
from repro.obs.trace import SpanContext
from repro.baselines.base import TextGenerationBaseline, TextToVisBaseline
from repro.charts.render import chart_fingerprint, render_ascii_chart
from repro.charts.vegalite import to_vega_lite
from repro.core.config import validate_precision
from repro.core.model import DataVisT5
from repro.database.schema import DatabaseSchema
from repro.datasets.corpus import CorpusIndex
from repro.encoding.schema_filtration import filter_schema
from repro.encoding.sequences import (
    fevisqa_input,
    strip_modality_tags,
    text_to_vis_input,
    vis_to_text_input,
)
from repro.core.batching import group_into_batches
from repro.errors import CorpusEmptyError, IndexMismatchError, ModelConfigError, ReproError, ServingStateError
from repro.serving.cache import LRUCache, normalize_key
from repro.serving.continuous import continuous_loop_stats, continuous_predict_batch
from repro.serving.protocol import (
    ERROR_BACKEND,
    ERROR_CORPUS_EMPTY,
    ERROR_INDEX_MISMATCH,
    ERROR_INVALID_REQUEST,
    MODEL_TASKS,
    Request,
    Response,
    error_response,
)
from repro.serving.registry import build_generation, build_text_to_vis
from repro.vql.ast import DVQuery
from repro.vql.parser import parse_dv_query
from repro.vql.standardize import standardize_dv_query
from repro.vql.validation import is_query_compatible

# Stage-latency histograms, fetched once so hot paths never touch the
# registry lock (docs/observability.md).
_RETRIEVE_MS = obs.METRICS.histogram(METRIC_PIPELINE_RETRIEVE_MS)
_MERGE_MS = obs.METRICS.histogram(METRIC_PIPELINE_MERGE_MS)


@dataclass
class PipelineConfig:
    """Serving knobs: batch bound, cache capacities, optional stages.

    ``max_batch_size`` bounds every micro-batch; the ``*_cache_size`` knobs
    size the individual LRU caches (0 disables one); ``filter_schemas``
    toggles n-gram schema filtration before encoding text-to-vis inputs;
    ``validate_predictions`` toggles type-checking predicted queries against
    the request schema; ``attach_specs`` toggles Vega-Lite spec construction
    on text-to-vis responses; ``use_cache`` selects KV-cached incremental
    decoding on DataVisT5 backends (``False`` falls back to the naive
    reference decoder — same outputs, for debugging and equivalence checks);
    ``precision`` selects their inference precision (``None`` defers to the
    model's own ``config.precision``; ``"float32"`` / ``"int8"`` trade exact
    float64 reproduction for throughput — see ``docs/numerics.md`` — and
    ``"int8"`` requires the backend model to be quantized already).
    With ``use_cache`` on, greedy DataVisT5 decoding runs through the
    token-level continuous scheduler (:mod:`repro.serving.continuous`) —
    sequences join and leave the live batch per step, so short requests stop
    paying for long batch-mates; rule-based backends keep request batches.
    Neither knob overrides baseline backends: neural baselines own the
    equivalent constructor knobs configured where the baseline is built
    (e.g. ``{"type": "neural", "precision": "float32"}`` in a registry
    spec), and the pipeline never mutates a backend it was handed.
    ``corpus_top_k`` is how many corpus documents the ``corpus_qa`` task
    retrieves (and answers over) per question.
    """

    max_batch_size: int = 8
    encode_cache_size: int = 512
    ast_cache_size: int = 256
    spec_cache_size: int = 256
    response_cache_size: int = 1024
    render_cache_size: int = 64
    filter_schemas: bool = True
    validate_predictions: bool = True
    attach_specs: bool = True
    use_cache: bool = True
    precision: str | None = None
    corpus_top_k: int = 3

    def __post_init__(self):
        if self.precision is not None:
            validate_precision(self.precision)
        if self.max_batch_size < 1:
            raise ModelConfigError(f"max_batch_size must be positive, got {self.max_batch_size!r}")
        if not isinstance(self.corpus_top_k, int) or isinstance(self.corpus_top_k, bool) or self.corpus_top_k < 1:
            raise ModelConfigError(f"corpus_top_k must be a positive int, got {self.corpus_top_k!r}")


@dataclass
class _Prepared:
    """A request after encoding: the backend input plus its cache identity.

    ``on_text`` is an optional streaming tap — ``on_text(delta)`` receives
    incremental tag-stripped output text while the backend decodes (DataVisT5
    continuous path only; other backends answer atomically and the stream's
    final reconciliation covers them).  ``stages`` is the mutable per-stage
    artifact dict multi-stage tasks (``corpus_qa``) fill as they run; it ends
    up under ``Response.telemetry["stages"]``.  ``trace`` is the request's
    sampled span context (or ``None``): engines parent their stage spans to
    it so one trace follows the request into the decode loop.
    """

    request: Request
    source: str
    key: str
    schema: DatabaseSchema | None = None
    chart_query: DVQuery | None = None
    on_text: object | None = None
    stages: dict | None = None
    trace: SpanContext | None = None

    def namespaced(self, suffix: str) -> "_Prepared":
        """A copy whose cache identity carries ``suffix`` (e.g. a deployment id).

        The async server derives one namespaced copy per routing decision —
        precision overrides, deployment identity, weight revisions — so
        different versions of a backend never replay or poison each other's
        response-cache entries, while the unsuffixed base key stays stable
        for routing hashes.  An empty suffix returns ``self`` unchanged.
        """
        if not suffix:
            return self
        return replace(self, key=f"{self.key}{suffix}")


class _Engine:
    """Uniform ``predict_batch(prepared) -> list[str]`` over heterogeneous backends.

    ``use_cache`` and ``precision`` apply to :class:`DataVisT5` backends only
    (baselines own their equivalent constructor knobs); ``precision=None``
    defers to the model's configured default.  ``precision="int8"`` over an
    unquantized DataVisT5 is a deployment misconfiguration and is rejected
    here, at construction, rather than surfacing as per-request failures
    once traffic arrives.  With ``use_cache``, DataVisT5 greedy decoding
    goes through the shared per-model
    :class:`~repro.serving.continuous.ContinuousDecodeLoop` — every engine
    cloned over the same backend model joins the same live token-level
    batch, whichever worker thread it belongs to; without it, the naive
    reference decoder answers.
    """

    def __init__(self, backend, task: str, use_cache: bool = True, precision: str | None = None):
        if precision == "int8" and isinstance(backend, DataVisT5) and not backend.quantized:
            raise ModelConfigError(
                f"precision='int8' for task {task!r} requires a quantized backend model; "
                "call quantize_int8() (or load an int8 checkpoint) before serving"
            )
        self.backend = backend
        self.task = task
        self.use_cache = use_cache
        self.precision = precision

    def predict_batch(self, prepared: list[_Prepared]) -> list[str]:
        """Run the backend over already-prepared requests, in order.

        Items carrying an ``on_text`` tap stream tag-stripped text deltas
        while they decode (continuous DataVisT5 path only — the naive-reference
        and baseline paths answer atomically and rely on the stream's final
        reconciliation instead).
        """
        # One pipeline.generate span per traced item, opened before the
        # backend runs so decode-step spans can parent to it; untraced items
        # cost one None check.
        generate_spans = [
            obs.TRACES.begin(
                SPAN_PIPELINE_GENERATE,
                item.trace,
                attrs={"task": self.task, "batch_size": len(prepared)},
            )
            for item in prepared
        ]
        try:
            outputs = self._predict_batch(prepared, generate_spans)
        except BaseException:
            for span in generate_spans:
                obs.TRACES.finish(span, status="error")
            raise
        for span in generate_spans:
            obs.TRACES.finish(span)
        return outputs

    def _predict_batch(self, prepared: list[_Prepared], generate_spans: list) -> list[str]:
        backend = self.backend
        if isinstance(backend, DataVisT5):
            if self.use_cache:
                on_text = None
                if any(item.on_text is not None for item in prepared):
                    def on_text(index: int, delta: str, _items=prepared) -> None:
                        tap = _items[index].on_text
                        if tap is not None:
                            tap(delta)
                outputs = continuous_predict_batch(
                    backend,
                    [item.source for item in prepared],
                    precision=self.precision,
                    on_text=on_text,
                    trace_parents=[span.context if span is not None else None for span in generate_spans],
                )
            else:
                outputs = backend.predict_batch(
                    [item.source for item in prepared], use_cache=False, precision=self.precision
                )
            return [strip_modality_tags(output) for output in outputs]
        if isinstance(backend, TextToVisBaseline):
            questions = [item.request.question for item in prepared]
            schemas = []
            for item in prepared:
                if not isinstance(item.schema, DatabaseSchema):
                    raise ModelConfigError(
                        f"{type(backend).__name__} needs a DatabaseSchema on text_to_vis requests"
                    )
                schemas.append(item.schema)
            return [strip_modality_tags(output) for output in backend.predict_many(questions, schemas)]
        if isinstance(backend, TextGenerationBaseline):
            outputs = backend.predict_many([item.source for item in prepared])
            return [strip_modality_tags(output) for output in outputs]
        raise ModelConfigError(f"unsupported backend for {self.task}: {type(backend).__name__}")


class _CorpusQAEngine:
    """The two-stage ``corpus_qa`` engine: retrieve → answer per context → merge.

    Wraps the pipeline's ``fevisqa`` :class:`_Engine` and a
    :class:`~repro.datasets.corpus.CorpusIndex`.  Retrieval already happened
    at prepare time (it is deterministic and belongs in the cache identity);
    this engine re-resolves the retrieved ``doc_id`` s against its index,
    asks the FeVisQA backend the same question once per retrieved context in
    one sub-batch, then judge-style merges the per-context answers by
    normalized majority vote (ties broken by retrieval rank, so the
    best-retrieved context wins a split decision).  Every stage writes its
    artifact into the item's ``stages`` dict, which the pipeline surfaces as
    ``Response.telemetry["stages"]``.

    A streaming tap on the item is forwarded to the *top-ranked* context's
    sub-request only — the stream drafts the best context's answer token by
    token, and the final chunk's reset/reconciliation replaces the draft
    whenever the merge picks a different answer.
    """

    def __init__(self, fevisqa_engine: _Engine, index: CorpusIndex, top_k: int):
        self.fevisqa = fevisqa_engine
        self.index = index
        self.top_k = top_k
        self.task = "corpus_qa"

    @property
    def backend(self):
        """The wrapped FeVisQA backend (what actually generates answers)."""
        return self.fevisqa.backend

    def predict_batch(self, prepared: list[_Prepared]) -> list[str]:
        """Answer each item over its retrieved contexts and merge, in order."""
        sub_items: list[_Prepared] = []
        spans: list[tuple[_Prepared, list, int, int]] = []
        for item in prepared:
            docs = [self.index.get(entry["doc_id"]) for entry in item.stages["retrieval"]["documents"]]
            start = len(sub_items)
            for rank, document in enumerate(docs):
                source = fevisqa_input(
                    item.request.question,
                    query=document.chart,
                    schema=document.schema,
                    table=document.table,
                    strict=False,
                )
                sub_items.append(
                    _Prepared(
                        request=item.request,
                        source=source,
                        key=f"{item.key}\x1fctx{rank}",
                        on_text=item.on_text if rank == 0 else None,
                        trace=item.trace,
                    )
                )
            spans.append((item, docs, start, len(docs)))
        answers = self.fevisqa.predict_batch(sub_items)
        outputs: list[str] = []
        for item, docs, start, count in spans:
            per_context = answers[start : start + count]
            merge_started = time.perf_counter()
            merged, votes = _merge_answers(per_context)
            merge_seconds = time.perf_counter() - merge_started
            _MERGE_MS.record(merge_seconds * 1000.0)
            obs.TRACES.record(
                SPAN_PIPELINE_MERGE, item.trace, merge_seconds, attrs={"contexts": count}
            )
            item.stages["contexts"] = [
                {"doc_id": document.doc_id, "answer": answer}
                for document, answer in zip(docs, per_context)
            ]
            item.stages["merge"] = {"answer": merged, "votes": votes, "strategy": "majority"}
            outputs.append(merged)
        return outputs


def _merge_answers(answers: list[str]) -> tuple[str, dict[str, int]]:
    """Majority-vote merge of per-context answers, ties broken by rank.

    Answers are grouped by whitespace-normalized, case-folded text; the
    winning group's *first-retrieved* literal answer is returned, so the
    merged output is always one of the backend's actual generations.
    """
    counts: dict[str, int] = {}
    first_rank: dict[str, int] = {}
    for rank, answer in enumerate(answers):
        key = " ".join(answer.split()).lower()
        counts[key] = counts.get(key, 0) + 1
        first_rank.setdefault(key, rank)
    winner = min(counts, key=lambda key: (-counts[key], first_rank[key]))
    return answers[first_rank[winner]], counts


class Pipeline:
    """Route text-to-vis / vis-to-text / FeVisQA requests through one facade.

    ``text_to_vis`` / ``vis_to_text`` / ``fevisqa`` accept a backend each — a
    registry baseline or a :class:`DataVisT5`; ``model`` supplies a shared
    multi-task DataVisT5 for any task without an explicit backend.  Tasks with
    no backend at all raise on first use, so a partially-configured pipeline
    is fine.
    """

    def __init__(
        self,
        text_to_vis=None,
        vis_to_text=None,
        fevisqa=None,
        model: DataVisT5 | None = None,
        config: PipelineConfig | None = None,
        corpus_index: CorpusIndex | None = None,
    ):
        self.config = config or PipelineConfig()
        self.model = model
        backends = {"text_to_vis": text_to_vis, "vis_to_text": vis_to_text, "fevisqa": fevisqa}
        self._engines: dict[str, object] = {}
        for task in MODEL_TASKS:
            backend = backends[task] if backends[task] is not None else model
            if backend is not None:
                self._engines[task] = _Engine(
                    backend, task, use_cache=self.config.use_cache, precision=self.config.precision
                )
        self.corpus_index = corpus_index
        if corpus_index is not None:
            if not isinstance(corpus_index, CorpusIndex):
                raise ModelConfigError(
                    f"corpus_index must be a CorpusIndex, got {type(corpus_index).__name__}"
                )
            if "fevisqa" not in self._engines:
                raise ModelConfigError(
                    "corpus_qa needs a fevisqa backend to answer over retrieved contexts; "
                    "configure one (or a shared model) alongside the corpus index"
                )
            self._engines["corpus_qa"] = _CorpusQAEngine(
                self._engines["fevisqa"], corpus_index, self.config.corpus_top_k
            )
        self.caches = {
            "encode": LRUCache(self.config.encode_cache_size, name="encode"),
            "ast": LRUCache(self.config.ast_cache_size, name="ast"),
            "spec": LRUCache(self.config.spec_cache_size, name="spec"),
            "response": LRUCache(self.config.response_cache_size, name="response"),
            "render": LRUCache(self.config.render_cache_size, name="render"),
        }

    # -- construction -----------------------------------------------------------------
    @classmethod
    def from_model(
        cls,
        model: DataVisT5,
        config: PipelineConfig | None = None,
        corpus_index: CorpusIndex | None = None,
    ) -> "Pipeline":
        """Serve every task from one multi-task fine-tuned DataVisT5.

        ``corpus_index`` additionally enables the retrieval-grounded
        ``corpus_qa`` task over that index (see ``docs/corpus_qa.md``).
        """
        return cls(model=model, config=config, corpus_index=corpus_index)

    @classmethod
    def from_config(cls, spec: dict) -> "Pipeline":
        """Build a pipeline from a plain config dict.

        Task keys (``text_to_vis`` / ``vis_to_text`` / ``fevisqa``) hold
        registry baseline specs (see :mod:`repro.serving.registry`); ``model``
        may hold an already-built :class:`DataVisT5`; ``corpus_index`` may
        hold a :class:`~repro.datasets.corpus.CorpusIndex` (or a path to a
        saved one) to enable ``corpus_qa``; ``pipeline`` holds
        :class:`PipelineConfig` fields.
        """
        spec = dict(spec)
        try:
            config = PipelineConfig(**spec.pop("pipeline", {}))
        except TypeError as error:
            raise ModelConfigError(f"invalid pipeline config: {error}") from None
        model = spec.pop("model", None)
        corpus_index = spec.pop("corpus_index", None)
        if isinstance(corpus_index, str):
            corpus_index = CorpusIndex.load(corpus_index)
        backends: dict[str, object] = {}
        for task, builder in (
            ("text_to_vis", build_text_to_vis),
            ("vis_to_text", build_generation),
            ("fevisqa", build_generation),
        ):
            task_spec = spec.pop(task, None)
            if task_spec is not None:
                backends[task] = task_spec if _is_backend(task_spec) else builder(task_spec)
        if spec:
            raise ModelConfigError(f"unknown pipeline config keys: {', '.join(sorted(spec))}")
        return cls(model=model, config=config, corpus_index=corpus_index, **backends)

    def backend(self, task: str):
        """The underlying model/baseline serving ``task`` (for fitting or inspection)."""
        return self._engine(task).backend

    # -- the three task entry points ---------------------------------------------------
    def text_to_vis(self, question: str, schema: DatabaseSchema | str) -> Response:
        """NL question + schema -> DV query text (+ parsed AST and Vega-Lite spec)."""
        return self.submit(Request(task="text_to_vis", question=question, schema=schema))

    def vis_to_text(self, chart: DVQuery | str, schema: DatabaseSchema | str | None = None) -> Response:
        """DV query (the chart's program) -> natural-language caption."""
        return self.submit(Request(task="vis_to_text", chart=chart, schema=schema))

    def fevisqa(
        self,
        question: str,
        chart: DVQuery | str | None = None,
        schema: DatabaseSchema | str | None = None,
        table: str | None = None,
    ) -> Response:
        """Free-form question about a chart -> answer text."""
        return self.submit(Request(task="fevisqa", question=question, chart=chart, schema=schema, table=table))

    def corpus_qa(self, question: str) -> Response:
        """Question over the deployed corpus index -> retrieval-grounded answer.

        Retrieves the ``corpus_top_k`` most similar documents, answers the
        question once per retrieved context through the FeVisQA backend, and
        returns the majority-merged answer; per-stage artifacts land under
        ``Response.telemetry["stages"]``.
        """
        return self.submit(Request(task="corpus_qa", question=question))

    # -- serving ----------------------------------------------------------------------
    def submit(self, request: Request) -> Response:
        """Serve one request (a one-element :meth:`serve` batch)."""
        return self.serve([request])[0]

    def serve(self, requests: list[Request], strict: bool = True) -> list[Response]:
        """Serve a burst of requests, batching cache misses per task.

        Responses come back position-aligned with ``requests``, in the exact
        input order, regardless of how the burst splits into cache hits,
        per-task batches and failures.  Repeats of a request already answered
        (in an earlier call, or earlier in this burst) are served from the
        response cache and marked ``cached``.

        ``strict`` controls failure behaviour.  With ``strict=True`` (the
        default) an unpreparable request or a backend exception propagates,
        aborting the burst.  With ``strict=False`` — the mode the async
        server runs in — each failing request yields a structured error
        :class:`Response` in its slot (``error`` set, ``output`` empty) while
        every other request is still answered.  A backend that returns the
        wrong number of outputs for a batch fails its task's requests the
        same way, as ``backend_error``.
        """
        return self._serve(requests, strict)

    def serve_streaming(self, request: Request, on_text, strict: bool = True) -> Response:
        """Serve one request while streaming output text deltas to ``on_text``.

        The one-request form of :meth:`serve` with the tap set on a cache
        miss.  ``on_text(delta)`` receives incremental tag-stripped text from
        the decoding thread; the returned :class:`Response` is
        bitwise-identical to :meth:`submit` for the same request (streaming
        never changes what is generated, only when the caller sees it).
        Response-cache hits and non-continuous backends answer atomically
        without calling ``on_text`` — stream assemblers reconcile against the
        final response, so the joined stream still reproduces
        ``Response.output`` exactly.  ``strict`` is :meth:`serve`'s.
        """
        return self._serve([request], strict, on_text)[0]

    # -- the request life cycle, one stage per method ----------------------------------
    # These are the serving primitives the async front-end (`repro.serving.
    # server`) drives directly, so the batched-over-threads path and the
    # synchronous path share every line of encode/cache/postprocess logic —
    # which is what makes their outputs bitwise-identical.

    def prepare(self, request: Request) -> _Prepared:
        """Encode ``request`` into its backend input and cache identity."""
        if request.task == "text_to_vis":
            prepared = self._prepare_text_to_vis(request)
        elif request.task == "vis_to_text":
            prepared = self._prepare_vis_to_text(request)
        elif request.task == "corpus_qa":
            prepared = self._prepare_corpus_qa(request)
        else:
            prepared = self._prepare_fevisqa(request)
        # Trace context rides along so engines can parent their stage spans;
        # it is never part of the cache identity.
        prepared.trace = SpanContext.from_wire(request.trace)
        return prepared

    def cached_response(self, prepared: _Prepared) -> Response | None:
        """The response-cache hit for ``prepared``, or ``None`` on a miss."""
        payload = self.caches["response"].get(prepared.key)
        if payload is None:
            return None
        return self.response_from(prepared, payload, cached=True)

    def complete(self, prepared: _Prepared, output: str, cache: bool = True) -> dict:
        """Postprocess one backend ``output`` into a payload and cache it.

        ``cache=False`` builds the payload without writing the response
        cache — the async server uses it for requests whose deployment's
        weights were swapped while they sat in the queue, so an output from
        the new weights is never stored under the old revision's namespace.
        """
        payload = self._payload(prepared, output)
        if cache:
            self.caches["response"].put(prepared.key, payload)
        return payload

    def response_from(self, prepared: _Prepared, payload: dict, cached: bool = False) -> Response:
        """Build the caller-facing :class:`Response` from a completed payload."""
        vega_lite = payload["vega_lite"]
        stages = payload.get("stages")
        return Response(
            task=prepared.request.task,
            output=payload["output"],
            source=prepared.source,
            cached=cached,
            query=payload["query"],
            # deep-copied so callers embellishing the spec (e.g. inlining
            # data values) cannot corrupt the spec cache or other responses
            vega_lite=copy.deepcopy(vega_lite) if vega_lite is not None else None,
            valid=payload["valid"],
            request_id=prepared.request.request_id,
            telemetry={"stages": copy.deepcopy(stages)} if stages else None,
        )

    def spawn_engines(self, precision: str | None = None) -> dict[str, _Engine]:
        """Fresh per-task :class:`_Engine` instances over this pipeline's backends.

        The async server spawns one set per deployment and shares it across
        its worker threads: engines hold no mutable state, and the underlying
        backends (model weights, fitted baselines) are only read, because
        inference does not mutate them.  ``precision`` overrides the engines'
        DataVisT5 inference precision (the
        :class:`~repro.serving.server.ServerConfig` knob); ``None`` keeps each
        engine's configured setting.
        """
        if precision is not None:
            validate_precision(precision)
        engines: dict[str, object] = {
            task: _Engine(
                engine.backend,
                task,
                use_cache=engine.use_cache,
                precision=precision if precision is not None else engine.precision,
            )
            for task, engine in self._engines.items()
            if isinstance(engine, _Engine)
        }
        corpus = self._engines.get("corpus_qa")
        if isinstance(corpus, _CorpusQAEngine):
            # corpus_qa wraps this set's own fevisqa engine, so the
            # precision override applies to its sub-batches too.
            engines["corpus_qa"] = _CorpusQAEngine(engines["fevisqa"], corpus.index, corpus.top_k)
        return engines

    def render_chart(self, chart, width: int = 40) -> str:
        """ASCII-render ``chart`` through the pipeline's render cache."""
        return self.caches["render"].get_or_compute(
            chart_fingerprint(chart, width), lambda: render_ascii_chart(chart, width=width)
        )

    def stats(self) -> dict:
        """Cache and continuous-scheduler counters for every stage."""
        continuous: dict[str, dict] = {}
        for task, engine in self._engines.items():
            if isinstance(engine, _Engine) and engine.use_cache and isinstance(engine.backend, DataVisT5):
                loops = continuous_loop_stats(engine.backend.model)
                if loops:
                    continuous[task] = loops
        return {
            "caches": {name: cache.stats() for name, cache in self.caches.items()},
            "continuous": continuous,
        }

    # -- internals --------------------------------------------------------------------
    def _engine(self, task: str) -> _Engine:
        engine = self._engines.get(task)
        if engine is None:
            raise ModelConfigError(
                f"no backend configured for task {task!r}; pass one to the Pipeline "
                f"constructor or supply a shared model"
            )
        return engine

    def _serve(self, requests: list[Request], strict: bool, on_text=None) -> list[Response]:
        """:meth:`serve`'s body; ``on_text`` taps every cache miss's decode."""
        responses: list[Response | None] = [None] * len(requests)
        misses: dict[str, list[tuple[int, _Prepared]]] = {}
        for index, request in enumerate(requests):
            try:
                # An unconfigured task is a misconfiguration of the request
                # against this pipeline, not a backend failure: surface it as
                # invalid_request (matching the async server's fail-fast
                # check) rather than letting the batch stage raise later.
                self._engine(request.task)
                prepared = self.prepare(request)
            except Exception as error:  # noqa: BLE001 - strict=False must contain any backend
                if strict:
                    raise
                responses[index] = error_response(request, error_code_for(error), str(error))
                continue
            cached = self.cached_response(prepared)
            if cached is not None:
                responses[index] = cached
            else:
                prepared.on_text = on_text
                misses.setdefault(request.task, []).append((index, prepared))

        for task, entries in misses.items():
            # Within one burst, identical keys hit the backend once; every
            # duplicate after the first is a cache-style fan-out.
            by_key: dict[str, list[tuple[int, _Prepared]]] = {}
            for index, prepared in entries:
                by_key.setdefault(prepared.key, []).append((index, prepared))
            unique = [group[0][1] for group in by_key.values()]
            try:
                outputs = self._predict(task, unique)
            except Exception as error:  # noqa: BLE001 - strict=False must contain any backend
                if strict:
                    raise
                for index, prepared in entries:
                    responses[index] = error_response(prepared.request, ERROR_BACKEND, str(error))
                continue
            for first, output in zip(unique, outputs):
                payload = self.complete(first, output)
                for position, (index, prepared) in enumerate(by_key[first.key]):
                    responses[index] = self.response_from(prepared, payload, cached=position > 0)
        return responses  # type: ignore[return-value]

    def _predict(self, task: str, prepared: list[_Prepared]) -> list[str]:
        """``task``'s backend outputs for ``prepared``, in order, ``max_batch_size`` at a time."""
        engine = self._engine(task)
        outputs: list[str] = []
        for batch in group_into_batches(prepared, self.config.max_batch_size):
            answered = engine.predict_batch(batch)
            if len(answered) != len(batch):
                raise ServingStateError(
                    f"the {task} backend returned {len(answered)} outputs for {len(batch)} requests"
                )
            outputs.extend(answered)
        return outputs

    def _prepare_text_to_vis(self, request: Request) -> _Prepared:
        schema = request.schema
        # Fail fast, before anything is batched: rule-based/retrieval backends
        # consume the schema object itself, so encoded schema text cannot work.
        backend = self._engine(request.task).backend
        if isinstance(backend, TextToVisBaseline) and not isinstance(schema, DatabaseSchema):
            raise ModelConfigError(
                f"{type(backend).__name__} needs a DatabaseSchema on text_to_vis requests; "
                f"encoded schema text is only usable with a DataVisT5 backend"
            )
        cache_key = normalize_key("t2v", request.question or "", _schema_identity(schema))

        def encode():
            encoding_schema = schema
            if self.config.filter_schemas and isinstance(schema, DatabaseSchema):
                encoding_schema = filter_schema(request.question, schema)
            return text_to_vis_input(request.question, encoding_schema), encoding_schema

        source, filtered = self.caches["encode"].get_or_compute(cache_key, encode)
        # Baselines see the filtered schema too, so neural and non-neural
        # backends answer from the same projected context.
        prepared_schema = filtered if isinstance(filtered, DatabaseSchema) else None
        return _Prepared(request=request, source=source, key=cache_key, schema=prepared_schema)

    def _prepare_vis_to_text(self, request: Request) -> _Prepared:
        query = self._chart_query(request.chart, request.schema)
        query_text = query.to_text() if query is not None else _chart_text(request.chart)
        cache_key = normalize_key("v2t", query_text, _schema_identity(request.schema))
        source = self.caches["encode"].get_or_compute(
            cache_key,
            lambda: vis_to_text_input(
                query if query is not None else query_text, request.schema, strict=False
            ),
        )
        schema = request.schema if isinstance(request.schema, DatabaseSchema) else None
        return _Prepared(request=request, source=source, key=cache_key, schema=schema, chart_query=query)

    def _prepare_fevisqa(self, request: Request) -> _Prepared:
        query = self._chart_query(request.chart, request.schema) if request.chart is not None else None
        query_text = query.to_text() if query is not None else _chart_text(request.chart)
        cache_key = normalize_key(
            "qa", request.question or "", query_text, _schema_identity(request.schema), request.table or ""
        )
        source = self.caches["encode"].get_or_compute(
            cache_key,
            lambda: fevisqa_input(
                request.question,
                query=query if query is not None else (query_text or None),
                schema=request.schema,
                table=request.table,
                strict=False,
            ),
        )
        schema = request.schema if isinstance(request.schema, DatabaseSchema) else None
        return _Prepared(request=request, source=source, key=cache_key, schema=schema, chart_query=query)

    def _prepare_corpus_qa(self, request: Request) -> _Prepared:
        """Run deterministic retrieval and pin the index identity into the cache key.

        Retrieval happens here, at prepare time, because it is a pure
        function of (question, index, top_k) — exactly the triple the cache
        key carries, so response-cache hits replay the same retrieval.  The
        index fingerprint in the key also means a hot-swapped index can never
        serve answers cached under the old corpus.
        """
        engine = self._engine(request.task)
        index: CorpusIndex = engine.index
        fingerprint = index.fingerprint()
        if request.index is not None and request.index != fingerprint:
            raise IndexMismatchError(
                f"request pins corpus index {request.index}, but the deployed index is {fingerprint}"
            )
        if len(index) == 0:
            raise CorpusEmptyError("the deployed corpus index holds no documents to retrieve from")
        search_started = time.perf_counter()
        results = index.search(request.question, top_k=engine.top_k)
        search_seconds = time.perf_counter() - search_started
        _RETRIEVE_MS.record(search_seconds * 1000.0)
        obs.TRACES.record(
            SPAN_PIPELINE_RETRIEVE,
            SpanContext.from_wire(request.trace),
            search_seconds,
            attrs={"top_k": engine.top_k, "results": len(results)},
        )
        if not results:
            raise CorpusEmptyError("retrieval returned no documents for the question")
        cache_key = normalize_key("corpus_qa", request.question or "", fingerprint, str(engine.top_k))
        stages = {
            "retrieval": {
                "index_fingerprint": fingerprint,
                "top_k": engine.top_k,
                "documents": [
                    {"doc_id": document.doc_id, "score": score} for document, score in results
                ],
            }
        }
        return _Prepared(request=request, source=request.question, key=cache_key, stages=stages)

    def _chart_query(self, chart: DVQuery | str | None, schema) -> DVQuery | None:
        """Parse (with the AST cache) and standardize the chart's DV query.

        Returns ``None`` when the text does not parse or the query does not
        standardize against ``schema`` — model output is untrusted, so both
        failure modes must yield an invalid response rather than crash the
        burst.  AST inputs are standardized too, so text and AST forms of the
        same chart share one cache identity.
        """
        if chart is None:
            return None
        try:
            if isinstance(chart, DVQuery):
                parsed = chart
            else:
                parsed = self.caches["ast"].get_or_compute(
                    normalize_key(chart), lambda: parse_dv_query(chart)
                )
            if isinstance(schema, DatabaseSchema):
                parsed = standardize_dv_query(parsed, schema=schema)
        except ReproError:
            return None
        return parsed

    def _payload(self, prepared: _Prepared, output: str) -> dict:
        """Everything derivable from one backend output, cached as a unit.

        Response-cache hits replay the parsed query, validation verdict and
        Vega-Lite spec without recomputing them.
        """
        payload: dict = {"output": output, "query": None, "valid": None, "vega_lite": None}
        if prepared.request.task == "text_to_vis":
            # Standardize and validate against the caller's full schema, not
            # the n-gram-filtered projection the backend predicted from.
            schema = prepared.request.schema
            full_schema = schema if isinstance(schema, DatabaseSchema) else None
            query = self._chart_query(output, full_schema) if output else None
            payload["query"] = query
            if query is not None:
                if self.config.validate_predictions and full_schema is not None:
                    payload["valid"] = is_query_compatible(query, full_schema)
                if self.config.attach_specs:
                    try:
                        payload["vega_lite"] = self.caches["spec"].get_or_compute(
                            normalize_key(query.to_text()), lambda: to_vega_lite(query)
                        )
                    except ReproError:
                        payload["vega_lite"] = None
            else:
                # empty and unparseable predictions are both invalid
                payload["valid"] = False
        elif prepared.chart_query is not None:
            # generation tasks echo back the parsed + standardized chart query
            payload["query"] = prepared.chart_query
        if prepared.stages:
            # per-stage artifacts (corpus_qa retrieval/contexts/merge) are part
            # of the cached payload, so cache hits replay their telemetry too
            payload["stages"] = copy.deepcopy(prepared.stages)
        return payload


def error_code_for(error: Exception) -> str:
    """The structured error code a request-stage exception maps to.

    Shared by the sync pipeline (``serve(strict=False)``), the async server
    and the sharded tier, so the same failure carries the same code no matter
    which front-end surfaced it.  Backend-stage failures are mapped to
    ``backend_error`` by their callers; everything else here is a property of
    the request or the deployment it targeted.
    """
    if isinstance(error, CorpusEmptyError):
        return ERROR_CORPUS_EMPTY
    if isinstance(error, IndexMismatchError):
        return ERROR_INDEX_MISMATCH
    return ERROR_INVALID_REQUEST


def _chart_text(chart: DVQuery | str | None) -> str:
    """The text form of a chart input for cache keys and lenient encoding."""
    if chart is None:
        return ""
    return chart.to_text() if isinstance(chart, DVQuery) else str(chart)


def _is_backend(value) -> bool:
    return isinstance(value, (DataVisT5, TextToVisBaseline, TextGenerationBaseline))


def _schema_identity(schema) -> str:
    """A cache identity covering the schema's full structure.

    The digest spans table names, column names and types, and foreign keys,
    so two schemas that share a name but differ anywhere in structure never
    collide in the encode/response caches.  It is memoized on the schema
    object — schemas are treated as immutable once they enter the serving
    layer — so repeat requests cost one attribute read, not a re-hash.
    """
    if schema is None:
        return ""
    if isinstance(schema, DatabaseSchema):
        cached = getattr(schema, "_serving_identity", None)
        if cached is not None:
            return cached
        structure = ";".join(
            f"{table.name}:{','.join(f'{column.name}/{column.ctype.value}' for column in table.columns)}"
            for table in schema.tables
        )
        links = ";".join(
            f"{fk.source_table}.{fk.source_column}>{fk.target_table}.{fk.target_column}"
            for fk in schema.foreign_keys
        )
        digest = hashlib.md5(f"{structure}|{links}".encode("utf-8")).hexdigest()[:16]
        identity = f"{schema.name}#{digest}"
        schema._serving_identity = identity
        return identity
    return str(schema)
