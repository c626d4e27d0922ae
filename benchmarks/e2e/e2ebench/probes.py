"""Direct probes of single layers, and the metrics read off a traced phase.

A probe calls one layer's public functions with the workload's own inputs and
times each call; it is how layers that run inside forked shard processes (wire
codec, in-shard pipeline) and layers too quick to isolate inside a request are
measured.  ``span_metrics`` turns whatever spans a traced phase recorded into
the per-layer numbers; a layer that recorded none reads zero.
"""

from __future__ import annotations

import time

from e2ebench.fixtures import TASKS
from e2ebench.stats import mean, percentile


def _timed_us(function, arguments) -> list[float]:
    """Microseconds of ``function(argument)`` for each argument, one call each."""
    samples = []
    for argument in arguments:
        started = time.perf_counter()
        function(argument)
        samples.append((time.perf_counter() - started) * 1e6)
    return samples


def transport_probe(requests: list, responses: list) -> dict:
    """Wire-codec cost of the frames the sharded tier sends for these requests."""
    from repro.serving.protocol import Response, ResponseChunk
    from repro.serving.transport import (
        FrameDecoder,
        chunk_from_wire,
        chunk_to_wire,
        encode_frame,
        request_from_wire,
        request_to_wire,
    )

    def frame(request) -> bytes:
        return encode_frame({"type": "serve", "seq": 1, "deployment": "viz@1", "requests": [request_to_wire(request)]})

    def unframe(data: bytes):
        (message,) = FrameDecoder().feed(data)
        return [request_from_wire(payload) for payload in message["requests"]]

    def response_round_trip(response):
        data = encode_frame({"type": "result", "seq": 1, "responses": [response.as_dict()]})
        (message,) = FrameDecoder().feed(data)
        return [Response.from_dict(payload) for payload in message["responses"]]

    def chunk_round_trip(chunk):
        (message,) = FrameDecoder().feed(encode_frame({"type": "chunk", "chunk": chunk_to_wire(chunk)}))
        return chunk_from_wire(message["chunk"])

    frames = [frame(request) for request in requests]
    chunks = [
        ResponseChunk(task=response.task, seq=position, text=response.output[:24] or "x")
        for position, response in enumerate(responses)
    ]
    return {
        "transport.request_encode_us_p50": percentile(_timed_us(frame, requests), 50),
        "transport.request_decode_us_p50": percentile(_timed_us(unframe, frames), 50),
        "transport.response_roundtrip_us_p50": percentile(_timed_us(response_round_trip, responses), 50),
        "transport.chunk_roundtrip_us_p50": percentile(_timed_us(chunk_round_trip, chunks), 50),
        "transport.frame_bytes_mean": mean(len(data) for data in frames),
    }


def twin_serve(twin, requests: list, tracer) -> tuple[list[float], list]:
    """Serve ``requests`` one by one through the in-process twin pipeline.

    Returns each request's cold solo service time in milliseconds and the
    responses.  With the layer wrappers installed this is what attributes
    the time a forked shard spends to its pipeline, tokenizer and ``nn``
    layers; the rest of a sharded round trip is gateway and transport.
    """
    times, responses = [], []
    for request in requests:
        started = time.perf_counter()
        with tracer.span("twin.submit", "serving.pipeline", task=request.task):
            responses.append(twin.submit(request))
        times.append((time.perf_counter() - started) * 1000.0)
    return times, responses


def cached_response_probe(twin, requests: list) -> float:
    """p50 microseconds of a response-cache hit on a pipeline that just served ``requests``."""
    prepared = [twin.prepare(request) for request in requests]
    return percentile(_timed_us(twin.cached_response, prepared), 50)


def decoder_flops_per_token(config, history: float, source: float) -> float:
    """Multiply-adds x2 of one decoder token, computed from tensor shapes (not measured).

    Per layer: four self-attention projections, scores and mix over
    ``history`` cached positions, two cross-attention projections (K/V of the
    source are cached), scores and mix over ``source`` positions, and the
    feed-forward pair; then the tied LM head.
    """
    d, d_ff = config.d_model, config.d_ff
    layer = 4 * 2 * d * d + 2 * 2 * history * d + 2 * 2 * d * d + 2 * 2 * source * d + 2 * 2 * d * d_ff
    return config.num_decoder_layers * layer + 2 * d * config.vocab_size


def span_metrics(tracer, config=None, source_length: float = 0.0) -> dict:
    """Per-layer metrics of the in-process layers, from a traced phase's spans."""
    step_s = tracer.total_s("nn.step")
    steps = len(tracer.durations_ms("nn.step"))
    gathered = tracer.values("nn.attend_rows", "bytes")
    row_steps = sum(tracer.values("nn.step", "rows"))
    metrics = {
        "nn.admit_ms_p50": percentile(tracer.durations_ms("nn.admit"), 50),
        "nn.step_ms_p50": percentile(tracer.durations_ms("nn.step"), 50),
        "nn.step_rows_mean": row_steps / steps if steps else 0.0,
        "nn.attend_rows_share": tracer.total_s("nn.attend_rows") / step_s if step_s else 0.0,
        "nn.lm_head_share": tracer.total_s("nn.lm_logits") / step_s if step_s else 0.0,
        "nn.kv_bytes_gathered_per_step": sum(gathered) / steps if steps else 0.0,
        "nn.flops_per_token": 0.0,
        "core.decode_us_per_request": mean(tracer.durations_ms("core.decode")) * 1000.0,
        "pipeline.cached_response_us_p50": percentile(tracer.durations_ms("pipeline.cached_response"), 50) * 1000.0,
        "pipeline.retrieve_us_p50": percentile(tracer.durations_ms("pipeline.retrieve"), 50) * 1000.0,
        "cache.get_us_p50": percentile(tracer.durations_ms("cache.get"), 50) * 1000.0,
        "cache.put_us_p50": percentile(tracer.durations_ms("cache.put"), 50) * 1000.0,
        "deploy.route_us_p50": (
            percentile(tracer.durations_ms("deploy.route"), 50)
            + percentile(tracer.durations_ms("deploy.ring_node"), 50)
        )
        * 1000.0,
    }
    for beams, name in ((1, "nn.generate_greedy_us_per_token"), (4, "nn.generate_beam_us_per_token")):
        tokens = sum(span["tokens"] for span in tracer.spans if span["name"] == "nn.generate" and span["beams"] == beams)
        metrics[name] = tracer.total_s("nn.generate", beams=beams) * 1e6 / tokens if tokens else 0.0
    texts = sum(tracer.values("core.batch_encode", "texts"))
    metrics["core.encode_us_per_request"] = tracer.total_s("core.batch_encode") * 1e6 / texts if texts else 0.0
    for task in TASKS:
        metrics[f"pipeline.prepare_us_p50.{task}"] = (
            percentile(tracer.durations_ms("pipeline.prepare", task=task), 50) * 1000.0
        )
    if config is not None and row_steps:
        # Mean cached history per row-step, from the bytes the arena gathered:
        # K and V, per layer, of d_model float64 values per position.
        history = sum(gathered) / (row_steps * config.num_decoder_layers * 2 * config.d_model * 8)
        metrics["nn.flops_per_token"] = decoder_flops_per_token(config, history, source_length)
    return metrics


def loop_stats(pipeline_stats: dict) -> dict | None:
    """The one decode loop behind a pipeline's DataVisT5 engines, from ``Pipeline.stats()``."""
    return next((loop for loops in pipeline_stats["continuous"].values() for loop in loops.values()), None)


def continuous_metrics(before: dict | None, after: dict | None) -> dict:
    """Scheduler and arena counters of one decode loop over a phase (``stats()`` deltas)."""
    if after is None:
        return {}
    before = before or {"steps": 0, "tap_errors": 0}
    from repro import obs
    from repro.obs.names import METRIC_CONTINUOUS_ADMISSION_WAIT_MS, METRIC_CONTINUOUS_TOKENS_TOTAL

    steps = after["steps"] - before["steps"]
    tokens = obs.METRICS.counter(METRIC_CONTINUOUS_TOKENS_TOTAL).value
    arena = after["arena"]
    allocations = arena["page_reuses"] + arena["fresh_allocations"]
    return {
        "continuous.steps": steps,
        "continuous.slot_occupancy": tokens / (steps * after["max_slots"]) if steps else 0.0,
        "continuous.peak_active": after["peak_active"],
        "continuous.admission_wait_ms_p50": obs.METRICS.histogram(METRIC_CONTINUOUS_ADMISSION_WAIT_MS).quantile(0.5),
        "continuous.tap_errors": after["tap_errors"] - before["tap_errors"],
        "nn.arena_pages_high_water": arena["pages_high_water"],
        "nn.arena_page_reuse_ratio": arena["page_reuses"] / allocations if allocations else 0.0,
        "nn.arena_pages_in_use_end": arena["pages_in_use"],
    }


def step_agreement(tracer) -> float:
    """Outside-timed ``PagedDecodeBatch.step`` p50 over the ``continuous.step_ms`` histogram's p50."""
    from repro import obs
    from repro.obs.names import METRIC_CONTINUOUS_STEP_MS

    inside = obs.METRICS.histogram(METRIC_CONTINUOUS_STEP_MS).quantile(0.5)
    return percentile(tracer.durations_ms("nn.step"), 50) / inside if inside else 0.0
