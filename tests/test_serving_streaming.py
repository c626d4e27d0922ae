"""Streaming equivalence suite: chunks reassemble to the sync response, bitwise.

The streaming contract has two halves.  The pure half is
:func:`~repro.serving.protocol.assemble_stream` — text chunks concatenate, a
non-final ``seq == 0`` chunk resets the buffer, and a stream must terminate
in exactly one final chunk — property-tested here without any model.  The
live half is the :meth:`~repro.serving.server.Server.stream` front-end over
a real retrieval-grounded ``corpus_qa`` pipeline: for *every* request —
fresh, cached, drafted-then-merged, or failing — the concatenation of the
streamed deltas must equal the non-streaming ``Response.output`` bitwise,
and failures must arrive as a terminal error chunk rather than a hang or a
truncated stream.  Random traces are drawn with Hypothesis from the corpus
vocabulary so cache hits, empty retrievals and divergent drafts all occur.
"""

from __future__ import annotations

import asyncio
import inspect

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DataVisT5Config
from repro.core.model import DataVisT5
from repro.datasets.corpus import CorpusDocument, CorpusIndex
from repro.errors import CorpusEmptyError, ModelConfigError
from repro.serving import (
    ERROR_BACKEND,
    ERROR_CORPUS_EMPTY,
    ERROR_INDEX_MISMATCH,
    Pipeline,
    PipelineConfig,
    Request,
    Response,
    ResponseChunk,
    Server,
    ServerConfig,
    ShardedServer,
    assemble_stream,
)
from repro.serving.gateway import StreamReconciler

# -- the pure reassembly contract -------------------------------------------------------

text = st.text(max_size=60)


def final_chunk(output: str, seq: int, error: str | None = None) -> ResponseChunk:
    response = Response(task="corpus_qa", output="" if error else output, error=error, detail=error)
    return ResponseChunk(task="corpus_qa", seq=seq, final=True, response=response)


def split_chunks(draw, output: str, start_seq: int = 0) -> list[ResponseChunk]:
    chunks, seq, remaining = [], start_seq, output
    while remaining:
        take = draw(st.integers(1, len(remaining)))
        chunks.append(ResponseChunk(task="corpus_qa", seq=seq, text=remaining[:take]))
        remaining = remaining[take:]
        seq += 1
    return chunks


class TestAssembleStream:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), output=text)
    def test_any_chunking_reassembles_bitwise(self, data, output):
        chunks = split_chunks(data.draw, output)
        response = assemble_stream(chunks + [final_chunk(output, len(chunks))])
        assert response.output == output

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), draft=text.filter(bool), output=text.filter(bool))
    def test_seq_zero_resets_the_buffer(self, data, draft, output):
        # a discarded draft followed by a seq-0 restart must leave no trace
        abandoned = split_chunks(data.draw, draft)
        replacement = split_chunks(data.draw, output)
        stream = abandoned + replacement + [final_chunk(output, len(replacement))]
        assert assemble_stream(stream).output == output

    def test_error_streams_skip_the_bitwise_check(self):
        # a terminal error chunk's empty output is returned as-is, even when
        # deltas were already streamed before the failure landed
        draft = ResponseChunk(task="corpus_qa", seq=0, text="partial ")
        response = assemble_stream([draft, final_chunk("", 1, error=ERROR_BACKEND)])
        assert response.error == ERROR_BACKEND
        assert response.output == ""

    def test_malformed_streams_raise(self):
        with pytest.raises(ModelConfigError, match="empty stream"):
            assemble_stream([])
        with pytest.raises(ModelConfigError, match="truncated"):
            assemble_stream([ResponseChunk(task="corpus_qa", seq=0, text="no final")])
        with pytest.raises(ModelConfigError, match="past its final chunk"):
            assemble_stream([final_chunk("", 0), ResponseChunk(task="corpus_qa", seq=1, text="x")])
        with pytest.raises(ModelConfigError, match="reassembly mismatch"):
            assemble_stream(
                [ResponseChunk(task="corpus_qa", seq=0, text="aaa"), final_chunk("bbb", 1)]
            )


class TestStreamReconciler:
    """The one reconciler both ``stream()`` front-ends hand their deltas to."""

    @settings(max_examples=300, deadline=None)
    @given(
        deltas=st.lists(st.tuples(st.booleans(), text), max_size=8),
        ending=st.sampled_from(["complete", "prefix", "divergent", "empty", "error"]),
        extra=text,
    )
    def test_any_delta_sequence_ends_in_one_final_chunk_and_reassembles(self, deltas, ending, extra):
        request = Request(task="corpus_qa", question="q", request_id="r-1")
        reconciler = StreamReconciler(request)
        emitted = ""
        chunks = []
        for restarted, delta in deltas:  # ``restarted``: a requeued stream's chunk_seq 0
            emitted = delta if restarted else emitted + delta
            chunks.append(reconciler.delta(delta, restarted=restarted))
        output = {"complete": emitted, "prefix": emitted + extra, "divergent": extra, "empty": ""}.get(ending, "")
        error = ERROR_BACKEND if ending == "error" else None
        response = Response(task="corpus_qa", output=output, error=error, detail=error, request_id="r-1")
        chunks += reconciler.finish(response)

        assert [chunk.final for chunk in chunks] == [False] * (len(chunks) - 1) + [True]
        assert assemble_stream(chunks) is response  # and so bitwise-equal: assemble_stream checks the text
        assert all((chunk.task, chunk.request_id) == ("corpus_qa", "r-1") for chunk in chunks)
        assert chunks[0].seq == 0
        for before, after in zip(chunks, chunks[1:]):
            assert after.seq == before.seq + 1 or (after.seq == 0 and not after.final)

    def test_both_front_ends_use_it(self):
        for front_end in (Server.stream, ShardedServer.stream):
            assert "StreamReconciler(" in inspect.getsource(front_end)


# -- the live corpus-QA streaming front-end ---------------------------------------------

DOC_SPECS = (
    ("bar", "revenue", "region"),
    ("line", "temperature", "quarter"),
    ("scatter", "latency", "platform"),
    ("pie", "enrollment", "department"),
    ("area", "rainfall", "cohort"),
    ("heatmap", "throughput", "species"),
)
VOCABULARY = tuple(sorted({word for spec in DOC_SPECS for word in spec} | {"peak", "chart", "highest"}))


@pytest.fixture(scope="module")
def corpus_env() -> dict:
    documents = [
        CorpusDocument(
            doc_id=f"doc-{i}",
            title=f"{metric} by {dim}",
            chart=f"{chart} chart showing {metric} grouped by {dim} with the peak highlighted",
            table=f"{dim} | {metric}",
        )
        for i, (chart, metric, dim) in enumerate(DOC_SPECS)
    ]
    index = CorpusIndex(documents)
    config = DataVisT5Config.from_preset(
        "tiny", max_input_length=64, max_target_length=16, max_decode_length=12, seed=0
    )
    model = DataVisT5.from_corpus([d.text() for d in documents], config=config, max_vocab_size=400)
    pipeline = Pipeline.from_model(model, config=PipelineConfig(), corpus_index=index)
    return {"documents": documents, "index": index, "model": model, "pipeline": pipeline}


def assert_well_formed(chunks: list[ResponseChunk], request: Request) -> None:
    """The per-chunk contract: demux echo, consecutive seq (modulo resets), one final."""
    assert chunks, "a stream must never be empty"
    assert chunks[-1].final and chunks[-1].response is not None
    assert all(not chunk.final for chunk in chunks[:-1])
    expected_seq = 0
    for chunk in chunks[:-1]:
        assert chunk.task == request.task
        assert chunk.request_id == request.request_id
        if chunk.seq == 0:
            expected_seq = 0  # a reset restarts the count
        assert chunk.seq == expected_seq
        expected_seq += 1


def stream_and_compare(server: Server, request: Request):
    """One request through both front-ends; returns (chunks, streamed, sync)."""

    async def drive():
        chunks = [chunk async for chunk in server.stream(request)]
        sync = await server.submit(request)
        return chunks, sync

    return drive()


class TestServerStreaming:
    def test_reassembly_equals_sync_over_a_seeded_trace(self, corpus_env):
        documents = corpus_env["documents"]
        questions = [f"what does the {doc.title} chart show" for doc in documents[:4]]
        questions += ["highest peak overall", questions[0]]  # repeat: a cached stream

        async def drive() -> None:
            async with Server(corpus_env["pipeline"], ServerConfig(num_workers=2)) as server:
                for i, question in enumerate(questions):
                    request = Request(task="corpus_qa", question=question, request_id=f"t-{i}")
                    chunks = [chunk async for chunk in server.stream(request)]
                    assert_well_formed(chunks, request)
                    streamed = assemble_stream(chunks)
                    sync = await server.submit(request)
                    assert streamed.error is None and sync.error is None
                    assert streamed.output == sync.output
                    stages = (streamed.telemetry or {}).get("stages")
                    assert stages and stages["retrieval"]["documents"]

        asyncio.run(drive())

    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_reassembly_equals_sync_over_random_traces(self, corpus_env, data):
        words = st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=6)
        questions = data.draw(st.lists(words.map(" ".join), min_size=1, max_size=3))

        async def drive() -> None:
            async with Server(corpus_env["pipeline"], ServerConfig(num_workers=2)) as server:
                for question in questions:
                    request = Request(task="corpus_qa", question=question)
                    chunks = [chunk async for chunk in server.stream(request)]
                    assert_well_formed(chunks, request)
                    streamed = assemble_stream(chunks)
                    sync = await server.submit(request)
                    assert streamed.error is None and sync.error is None
                    assert streamed.output == sync.output

        asyncio.run(drive())

    def test_index_mismatch_is_a_terminal_error_chunk(self, corpus_env):
        request = Request(
            task="corpus_qa", question="what is the peak", index="sha256:" + "0" * 64
        )

        async def drive() -> Response:
            async with Server(corpus_env["pipeline"], ServerConfig(num_workers=1)) as server:
                chunks = [chunk async for chunk in server.stream(request)]
                assert chunks[-1].final
                return assemble_stream(chunks)

        response = asyncio.run(drive())
        assert response.error == ERROR_INDEX_MISMATCH
        assert corpus_env["index"].fingerprint() in (response.detail or "")

    def test_matching_index_pin_streams_normally(self, corpus_env):
        request = Request(
            task="corpus_qa", question="pinned peak question", index=corpus_env["index"].fingerprint()
        )

        async def drive() -> Response:
            async with Server(corpus_env["pipeline"], ServerConfig(num_workers=1)) as server:
                return assemble_stream([chunk async for chunk in server.stream(request)])

        assert asyncio.run(drive()).error is None


class TestPipelineStreaming:
    def test_serve_streaming_matches_submit(self, corpus_env):
        pipeline = corpus_env["pipeline"]
        deltas: list[str] = []
        request = Request(task="corpus_qa", question="temperature by quarter peak")
        streamed = pipeline.serve_streaming(request, deltas.append)
        assert streamed.error is None
        assert streamed.output == pipeline.submit(request).output
        # the draft streamed during decode grounds in the top-ranked context;
        # the merge may replace it, but something must have streamed
        assert deltas

    def test_strict_false_contains_an_empty_corpus(self, corpus_env):
        empty = Pipeline.from_model(
            corpus_env["model"], config=PipelineConfig(), corpus_index=CorpusIndex([])
        )
        request = Request(task="corpus_qa", question="anything at all")
        response = empty.serve_streaming(request, lambda delta: None, strict=False)
        assert response.error == ERROR_CORPUS_EMPTY
        with pytest.raises(CorpusEmptyError):
            empty.serve_streaming(request, lambda delta: None)
