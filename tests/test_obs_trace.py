"""Tracing: span lifecycle, the ring store, propagation, and the end-to-end tree.

The acceptance bar for the observability layer: a single streamed
``corpus_qa`` request through a real forked-shard :class:`ShardedServer`
must reconstruct, in the gateway's trace store, one tree containing the
gateway, shard-dispatch, pipeline-stage and decode-step spans — one
``trace_id`` throughout, every parent link resolving — every streamed
chunk must echo the trace context, and the shard's heartbeat-piggybacked
metrics must merge into :meth:`ShardedServer.observability`.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro import obs
from repro.core.config import DataVisT5Config
from repro.core.model import DataVisT5
from repro.datasets.corpus import CorpusDocument, CorpusIndex
from repro.deploy.registry import ModelRegistry
from repro.obs.export import render_trace, span_tree
from repro.obs.names import (
    METRIC_CONTINUOUS_TOKENS_TOTAL,
    SPAN_DECODE_STEP,
    SPAN_GATEWAY_DISPATCH,
    SPAN_GATEWAY_REQUEST,
    SPAN_PIPELINE_GENERATE,
    SPAN_PIPELINE_MERGE,
    SPAN_PIPELINE_RETRIEVE,
    SPAN_SHARD_SERVE,
)
from repro.obs.trace import Span, SpanContext, TraceStore, current_context
from repro.serving.protocol import Request, assemble_stream
from repro.serving.sharded import ShardConfig, ShardedServer


@pytest.fixture()
def tracing():
    """Tracing on for the test, global obs state restored afterwards."""
    obs.TRACES.clear()
    obs.configure(tracing=True, sample_rate=1.0)
    try:
        yield obs.TRACES
    finally:
        obs.configure(tracing=False, sample_rate=1.0)
        obs.TRACES.clear()


class TestSpanContext:
    def test_wire_round_trip(self):
        context = SpanContext(trace_id="a" * 32, span_id="b" * 16, sampled=False)
        assert SpanContext.from_wire(context.to_wire()) == context

    def test_none_stays_none(self):
        assert SpanContext.from_wire(None) is None

    def test_span_dict_round_trip(self):
        span = Span(
            name="x", trace_id="t" * 32, span_id="s" * 16, parent_id="p" * 16,
            start=1.5, duration_s=0.25, status="error", attrs={"k": 1},
        )
        assert Span.from_dict(span.as_dict()) == span


class TestTraceStore:
    def test_disabled_store_starts_no_roots(self):
        store = TraceStore(enabled=False)
        assert store.root("r") is None

    def test_sample_rate_zero_drops_every_root(self):
        store = TraceStore(enabled=True, sample_rate=0.0)
        assert all(store.root("r") is None for _ in range(20))

    def test_root_ids_are_otel_shaped(self):
        store = TraceStore(enabled=True)
        span = store.root("r", attrs={"task": "t"})
        assert len(span.trace_id) == 32 and len(span.span_id) == 16
        assert span.parent_id is None and span.attrs == {"task": "t"}

    def test_children_inherit_the_trace_even_when_disabled_locally(self):
        # a forked shard must keep recording for a gateway-started trace
        store = TraceStore(enabled=False)
        parent = SpanContext(trace_id="t" * 32, span_id="p" * 16)
        child = store.begin("c", parent)
        assert child.trace_id == parent.trace_id and child.parent_id == parent.span_id

    def test_unsampled_and_absent_parents_yield_none(self):
        store = TraceStore(enabled=True)
        assert store.begin("c", None) is None
        assert store.begin("c", SpanContext("t" * 32, "p" * 16, sampled=False)) is None
        assert store.begin("c", SpanContext("", "")) is None
        assert store.record("c", None, 0.1) is None

    def test_finish_stamps_duration_and_commits(self):
        store = TraceStore(enabled=True)
        span = store.root("r")
        assert len(store) == 0  # unfinished spans are not in the ring
        store.finish(span, status="bogus")
        assert len(store) == 1
        assert span.duration_s is not None and span.duration_s >= 0.0
        assert span.status == "error"  # unknown statuses coerce to error
        store.finish(None)  # no-op by contract

    def test_record_is_a_one_call_finished_child(self):
        store = TraceStore(enabled=True)
        root = store.root("r")
        child = store.record("c", root.context, 0.125, status="ok", attrs={"step": 3})
        assert child.duration_s == 0.125 and child.parent_id == root.span_id
        assert store.spans(root.trace_id) == [child]

    def test_ring_capacity_keeps_the_newest_spans(self):
        store = TraceStore(capacity=3, enabled=True)
        for index in range(5):
            store.finish(store.root("r", attrs={"i": index}))
        assert [span.attrs["i"] for span in store.spans()] == [2, 3, 4]
        store.set_capacity(2)
        assert [span.attrs["i"] for span in store.spans()] == [3, 4]

    def test_take_removes_exactly_one_trace(self):
        store = TraceStore(enabled=True)
        first, second = store.root("a"), store.root("b")
        store.finish(first)
        store.finish(second)
        taken = store.take(first.trace_id)
        assert [span.span_id for span in taken] == [first.span_id]
        assert [span.span_id for span in store.spans()] == [second.span_id]

    def test_ingest_adopts_foreign_span_dicts(self):
        store = TraceStore(enabled=False)
        store.ingest([Span(name="x", trace_id="t" * 32, span_id="s" * 16).as_dict()])
        assert len(store) == 1 and store.spans()[0].name == "x"

    def test_span_contextmanager_nests_and_restores(self):
        store = TraceStore(enabled=True)
        assert current_context() is None
        with store.span("outer") as outer:
            assert current_context().span_id == outer.span_id
            with store.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert current_context() is None
        assert {span.name for span in store.spans()} == {"outer", "inner"}

    def test_span_contextmanager_marks_errors(self):
        store = TraceStore(enabled=True)
        with pytest.raises(ValueError):
            with store.span("failing"):
                raise ValueError("boom")
        assert store.spans()[0].status == "error"


def _register_corpus_deployment(scratch: Path):
    documents = [
        CorpusDocument(
            doc_id=f"doc-{index}",
            title=f"metric{index} by region",
            chart=f"bar chart showing metric{index} grouped by region",
            schema=None,
            table=f"region | metric{index}",
        )
        for index in range(4)
    ]
    index = CorpusIndex(documents)
    config = DataVisT5Config.from_preset(
        "tiny", max_input_length=64, max_target_length=16, max_decode_length=8, seed=0
    )
    model = DataVisT5.from_corpus([document.text() for document in documents], config=config, max_vocab_size=400)
    registry_path = scratch / "registry.json"
    manifest = ModelRegistry(registry_path).register_checkpoint(
        "obs-trace", model, scratch / "ckpt", corpus_index=index
    )
    return registry_path, manifest.id


@pytest.mark.slow
class TestEndToEndTrace:
    def test_sharded_streamed_corpus_qa_reconstructs_one_full_tree(self, tracing, tmp_path):
        registry_path, ref = _register_corpus_deployment(tmp_path)
        config = ShardConfig(num_shards=1, heartbeat_timeout_ms=10000.0)
        with ShardedServer(registry_path, ref, config) as server:
            request = Request(task="corpus_qa", question="what does the bar chart of metric1 show")
            chunks = list(server.stream(request))
            response = assemble_stream(chunks)
            # Shard counters ride the heartbeat, so poll until a post-decode
            # beat has landed before reading the merged snapshot.
            deadline = time.monotonic() + 5.0
            while True:
                observed = server.observability()
                shard_tokens = observed["shards"].get("shard-0", {}).get("counters", {}).get(
                    METRIC_CONTINUOUS_TOKENS_TOTAL, 0
                )
                if shard_tokens > 0 or time.monotonic() >= deadline:
                    break
                time.sleep(config.heartbeat_interval_ms / 1000.0)
        assert response.error is None, (response.error, response.detail)

        # the shard's decoded-token count reached the gateway and was merged
        assert shard_tokens > 0
        assert observed["metrics"]["counters"][METRIC_CONTINUOUS_TOKENS_TOTAL] >= shard_tokens

        # every streamed chunk echoes the trace context
        assert chunks and all(chunk.trace is not None for chunk in chunks)
        trace_ids = {chunk.trace["trace_id"] for chunk in chunks}
        assert len(trace_ids) == 1
        trace_id = trace_ids.pop()

        spans = obs.TRACES.spans(trace_id)
        names = {span.name for span in spans}
        # the acceptance set: gateway, shard dispatch, pipeline stages, decode steps
        assert {
            SPAN_GATEWAY_REQUEST,
            SPAN_GATEWAY_DISPATCH,
            SPAN_SHARD_SERVE,
            SPAN_PIPELINE_RETRIEVE,
            SPAN_PIPELINE_GENERATE,
            SPAN_PIPELINE_MERGE,
            SPAN_DECODE_STEP,
        } <= names

        # one consistent tree: a single root, every parent link resolves
        assert all(span.trace_id == trace_id for span in spans)
        ids = {span.span_id for span in spans}
        roots = [span for span in spans if span.parent_id is None]
        assert len(roots) == 1 and roots[0].name == SPAN_GATEWAY_REQUEST
        assert all(span.parent_id in ids for span in spans if span.parent_id is not None)
        assert span_tree(spans, trace_id) is not None
        assert render_trace(spans, trace_id).startswith(SPAN_GATEWAY_REQUEST)

        # every finished span is timed and terminal
        assert all(span.duration_s is not None and span.status == "ok" for span in spans)

    def test_abandoned_sharded_stream_keeps_its_root_as_an_error(self, tracing, tmp_path):
        registry_path, ref = _register_corpus_deployment(tmp_path)
        config = ShardConfig(num_shards=1, heartbeat_timeout_ms=10000.0)
        with ShardedServer(registry_path, ref, config) as server:
            stream = server.stream(Request(task="corpus_qa", question="what does the bar chart of metric3 show"))
            first = next(stream)
            stream.close()  # the consumer leaves after one chunk
            assert not first.final
            trace_id = first.trace["trace_id"]
            # The job runs on after the consumer leaves; its shard spans land
            # with the result frame.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if SPAN_GATEWAY_DISPATCH in {span.name for span in obs.TRACES.spans(trace_id)}:
                    break
                time.sleep(0.01)
        spans = obs.TRACES.spans(trace_id)
        assert {SPAN_GATEWAY_DISPATCH, SPAN_SHARD_SERVE, SPAN_DECODE_STEP} <= {span.name for span in spans}
        roots = [span for span in spans if span.parent_id is None]
        assert [(root.name, root.status) for root in roots] == [(SPAN_GATEWAY_REQUEST, "error")]
        ids = {span.span_id for span in spans}
        assert all(span.parent_id in ids for span in spans if span.parent_id is not None)

    def test_untraced_requests_stay_untraced(self, tmp_path):
        # tracing is off by default: no spans recorded, no trace on the wire
        obs.TRACES.clear()
        registry_path, ref = _register_corpus_deployment(tmp_path)
        config = ShardConfig(num_shards=1, heartbeat_timeout_ms=10000.0)
        with ShardedServer(registry_path, ref, config) as server:
            request = Request(task="corpus_qa", question="what does the bar chart of metric2 show")
            chunks = list(server.stream(request))
        assert assemble_stream(chunks).error is None
        assert all(chunk.trace is None for chunk in chunks)
        assert len(obs.TRACES) == 0
