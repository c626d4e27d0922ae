"""The traced run's span recorder and the wrappers it installs.

All spans are recorded from outside ``src/``: the benchmark wraps public
methods of the layers (on their classes, in its own process) for the length
of one traced phase and restores them afterwards.  A span holds name, layer,
start, end, the span that caused it and the request it belongs to; spans stay
in memory until the run ends and are then written to one JSON file.

The causing span is tracked in a :class:`contextvars.ContextVar`, which
follows a request through its own asyncio task; work handed to a worker
thread starts a new root there.  A task created while some request's span was
open inherits that span for its whole life, so a parent that has already
ended is not recorded as a parent.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Records spans and owns the wrappers that produce them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar("e2e_span", default=None)
        self._installed: list[tuple[object, str, object]] = []
        self._recording = True

    @contextmanager
    def paused(self):
        """Drop the spans of the ``with`` body (probes that must not mix with traffic)."""
        self._recording = False
        try:
            yield
        finally:
            self._recording = True

    @contextmanager
    def span(self, name: str, layer: str, request=None, **attrs):
        """Record one span around the ``with`` body; yields the span's dict."""
        if not self._recording:
            yield {}
            return
        parent = self._current.get()
        if parent is not None and parent["end"] is not None:
            parent = None
        record = {
            "id": next(self._ids),
            "name": name,
            "layer": layer,
            "parent": parent["id"] if parent is not None else None,
            "request": request if request is not None else (parent["request"] if parent is not None else None),
            "thread": threading.get_ident(),
            "start": self.clock(),
            "end": None,
        }
        record.update(attrs)
        token = self._current.set(record)
        try:
            yield record
        finally:
            record["end"] = self.clock()
            self._current.reset(token)
            self.spans.append(record)

    def wrap(self, owner, attribute: str, name: str, layer: str, before=None, after=None) -> None:
        """Replace ``owner.attribute`` with a version that records a span per call.

        ``before(*args, **kwargs)`` and ``after(result, *args, **kwargs)`` may
        each return a dict of attributes to store on the span (sizes, counts,
        flags); both see the call's own arguments, ``self`` included.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before is not None else {}
            with tracer.span(name, layer, **attrs) as record:
                result = original(*args, **kwargs)
                if after is not None:
                    record.update(after(result, *args, **kwargs))
                return result

        setattr(owner, attribute, traced)
        self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def durations_ms(self, name: str, **where) -> list[float]:
        """Durations of every finished span called ``name`` whose attributes match ``where``."""
        return [
            (span["end"] - span["start"]) * 1000.0
            for span in self.spans
            if span["name"] == name and all(span.get(key) == value for key, value in where.items())
        ]

    def total_s(self, name: str, **where) -> float:
        return sum(self.durations_ms(name, **where)) / 1000.0

    def values(self, name: str, attribute: str) -> list:
        return [span[attribute] for span in self.spans if span["name"] == name and attribute in span]

    def write(self, path: Path, header: dict) -> None:
        """Write the spans (times relative to the first span) beside ``header``."""
        origin = min((span["start"] for span in self.spans), default=0.0)
        spans = [
            {**span, "start": round(span["start"] - origin, 7), "end": round(span["end"] - origin, 7)}
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": spans}) + "\n", encoding="utf-8")


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry points of every in-process layer.

    ``nn``: encoder admission, decode step, attention over paged rows, the LM
    head, whole ``generate`` calls.  ``serving.continuous``: one ``run`` per
    engine batch.  ``tokenization``: encode and decode.  ``serving.pipeline``
    and ``datasets.corpus``: the request life-cycle stages and retrieval.
    ``serving.cache``: every LRU get and put.  ``deploy``: routing decisions.
    Forked shard processes are out of reach; their layers are measured through
    an in-process twin pipeline instead.
    """
    from repro.datasets.corpus import CorpusIndex
    from repro.deploy.router import HashRing, Router
    from repro.nn.attention import MultiHeadAttention
    from repro.nn.transformer import PagedDecodeBatch, T5Model
    from repro.serving.cache import LRUCache
    from repro.serving.continuous import ContinuousDecodeLoop
    from repro.serving.pipeline import Pipeline
    from repro.tokenization.tokenizer import DataVisTokenizer

    def step_rows(batch, *args, **kwargs):
        return {"rows": batch.active_count}

    def gathered(attention, q, keys, values, masks=None, position_biases=None):
        # Self-attention passes position biases and reads histories gathered
        # from the arena; cross-attention reads the stored projections.
        if position_biases is None:
            return {"self_attention": False}
        return {"self_attention": True, "bytes": sum(k.nbytes + v.nbytes for k, v in zip(keys, values))}

    def generate_mode(model, input_ids, max_length=None, num_beams=1, **kwargs):
        return {"beams": num_beams}

    def generated_tokens(result, model, *args, **kwargs):
        return {"tokens": int((result != model.config.pad_id).sum())}

    def encoded_texts(tokenizer, texts, *args, **kwargs):
        return {"texts": len(texts)}

    def prepared_task(pipeline, request):
        return {"task": request.task}

    def cache_name(cache, *args, **kwargs):
        return {"cache": cache.name}

    tracer.wrap(PagedDecodeBatch, "admit", "nn.admit", "nn")
    tracer.wrap(PagedDecodeBatch, "step", "nn.step", "nn", before=step_rows)
    tracer.wrap(MultiHeadAttention, "attend_rows", "nn.attend_rows", "nn", before=gathered)
    tracer.wrap(T5Model, "lm_logits", "nn.lm_logits", "nn")
    tracer.wrap(T5Model, "generate", "nn.generate", "nn", before=generate_mode, after=generated_tokens)
    tracer.wrap(ContinuousDecodeLoop, "run", "continuous.run", "serving.continuous")
    tracer.wrap(DataVisTokenizer, "batch_encode", "core.batch_encode", "tokenization", before=encoded_texts)
    tracer.wrap(DataVisTokenizer, "decode", "core.decode", "tokenization")
    tracer.wrap(Pipeline, "prepare", "pipeline.prepare", "serving.pipeline", before=prepared_task)
    tracer.wrap(Pipeline, "cached_response", "pipeline.cached_response", "serving.pipeline")
    tracer.wrap(Pipeline, "complete", "pipeline.complete", "serving.pipeline")
    tracer.wrap(CorpusIndex, "search", "pipeline.retrieve", "datasets.corpus")
    tracer.wrap(LRUCache, "get", "cache.get", "serving.cache", before=cache_name)
    tracer.wrap(LRUCache, "put", "cache.put", "serving.cache", before=cache_name)
    tracer.wrap(Router, "route", "deploy.route", "deploy")
    tracer.wrap(HashRing, "node", "deploy.ring_node", "deploy")
