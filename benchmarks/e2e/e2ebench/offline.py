"""The two offline, closed workloads: ``decode_burst`` and ``eval_batch``.

Both drive the ``nn`` layer with no gateway, pipe or cache in the way — one
through the paged arena and the token scheduler, the other through lock-step
``DecodeCache`` batches and beam reorder — so a gain on one decode path that
costs the other shows.
"""

from __future__ import annotations

import os
import random
import time

import numpy as np

from e2ebench import probes
from e2ebench.fixtures import RequestFactory, ServingFixture, build_decode_model, decode_rows
from e2ebench.loadgen import Record
from e2ebench.oracle import visible_tokens
from e2ebench.stats import percentile
from e2ebench.workload import Workload

ORACLE_SAMPLE = 8


class DecodeBurst(Workload):
    """Saturated bursts of token rows through one ``ContinuousDecodeLoop``.

    Each burst submits every row at once, so 8 slots serve 64 rows and a
    row's latency includes its wait for a slot.  Three rows in four decode 8
    tokens and the fourth 64: short rows must not wait for long ones.
    """

    name = "decode_burst"
    limits = (2000.0, 2500.0)
    slots = 8
    budgets = (8, 8, 8, 64)

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        self.rows_per_burst = 8 if smoke else 64
        if smoke:
            self.budgets = (4, 4, 4, 16)
        self.bursts_done = 0
        self.source_tokens = 0
        self.rows_decoded = 0
        self.model = None
        self.loop = None

    def setup(self) -> None:
        from repro.serving.continuous import ContinuousDecodeLoop

        self.model = build_decode_model()
        self.loop = ContinuousDecodeLoop(self.model, max_slots=self.slots, page_size=16)
        self.bursts_done = 0

    def warm(self) -> None:
        # The first burst pays for BLAS start-up, arena growth and the
        # position-bias memo (759 tok/s against 1250-1310 afterwards).
        self._burst(-1)

    def _budget(self, position: int) -> int:
        return self.budgets[position % len(self.budgets)]

    def _burst(self, number: int) -> list[Record]:
        rows = decode_rows(self.seed, number, self.rows_per_burst)
        self.source_tokens += sum(len(row) for row in rows)
        self.rows_decoded += len(rows)
        records = [
            Record(index=number * self.rows_per_burst + position, kind=f"budget{self._budget(position)}")
            for position in range(len(rows))
        ]
        clock = time.perf_counter
        started = clock()
        with self.client_span("loadgen.burst", number):
            tickets = [
                self.loop.submit(
                    row,
                    max_length=self._budget(position),
                    on_token=lambda _token, r=records[position]: r.stamps.append(clock()),
                )
                for position, row in enumerate(rows)
            ]
            self.loop.drive(tickets)
        for record, ticket in zip(records, tickets):
            record.due = record.sent = started
            record.first = record.stamps[0]
            record.done = record.stamps[-1]
            record.output = ticket.result
            record.tokens = len(ticket.result)
        return records

    def phase(self, seconds: float):
        records: list[Record] = []
        started = time.perf_counter()
        self.stats_before = self.loop.stats()
        while not records or time.perf_counter() - started < seconds:
            records += self._burst(self.bursts_done)
            self.bursts_done += 1
        return records, time.perf_counter() - started

    def verify(self, records: list[Record]) -> None:
        for record in records:
            budget = self._budget(record.index % self.rows_per_burst)
            if record.tokens != budget:
                record.fail(f"decoded {record.tokens} tokens, budget {budget}")
        sample = random.Random(f"oracle-{self.seed}").sample(records, min(ORACLE_SAMPLE, len(records)))
        for record in sample:
            burst, position = divmod(record.index, self.rows_per_burst)
            row = decode_rows(self.seed, burst, self.rows_per_burst)[position]
            oracle = self.model.generate(row[None], max_length=self._budget(position), use_cache=False)[0]
            if not np.array_equal(record.output, oracle):
                record.fail("row differs from its solo use_cache=False decode")

    def layers(self, records: list[Record], tracer) -> dict:
        metrics = probes.span_metrics(tracer, self.model.config, self.source_tokens / self.rows_decoded)
        metrics.update(probes.continuous_metrics(self.stats_before, self.loop.stats()))
        metrics["obs.step_ms_agreement"] = probes.step_agreement(tracer)
        return metrics


class EvalBatch(Workload):
    """``DataVisT5.predict_batch`` the way the evaluator and a beam sweep call it.

    Groups of eight serving-format sources, each decoded three ways in turn:
    one greedy batch of 8, eight greedy batches of 1 (what
    ``evaluation/evaluator.py`` does), two beam-4 batches of 4.  A record is
    one sequence; its latency is that of the call that decoded it.
    """

    name = "eval_batch"
    limits = (1500.0, 1500.0)
    group = 8

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        self.fixture = None
        if smoke:
            self.group = 4
        self.sources: list[str] = []
        self.groups_done = 0
        self.call_steps_ms: list[float] = []

    def setup(self) -> None:
        self.fixture = ServingFixture(self.out_dir / f"work-{self.name}-{os.getpid()}")
        factory = RequestFactory(self.fixture, self.seed)
        wanted = 16 if self.smoke else 96
        self.sources, number = [], 0
        while len(self.sources) < wanted:
            request = factory.request(number)
            number += 1
            if request.task != "corpus_qa":  # its source is retrieved inside the pipeline
                self.sources.append(self.fixture.pipeline.prepare(request).source)
        self.groups_done = 0
        self.call_steps_ms = []

    def close(self) -> None:
        if self.fixture is not None:
            self.fixture.close()
            self.fixture = None

    def warm(self) -> None:
        self._group(0, record=False)

    def _call(self, kind: str, first: int, sources: list[str], beams: int, records) -> None:
        started = time.perf_counter()
        with self.client_span(f"loadgen.{kind}", first):
            outputs = self.fixture.model.predict_batch(sources, num_beams=beams)
        done = time.perf_counter()
        if records is None:
            return
        tokens = [visible_tokens(output) for output in outputs]
        self.call_steps_ms.append((done - started) * 1000.0 / max(1, max(tokens)))
        for offset, (output, count) in enumerate(zip(outputs, tokens)):
            records.append(
                Record(
                    index=first + offset, kind=kind, due=started, sent=started, first=done, done=done,
                    output=output, tokens=count,
                )
            )

    def _group(self, number: int, record: bool = True) -> list[Record]:
        start = (number * self.group) % len(self.sources)
        sources = self.sources[start : start + self.group]
        records = [] if record else None
        self._call("greedy8", start, sources, 1, records)
        for offset, source in enumerate(sources):
            self._call("greedy1", start + offset, [source], 1, records)
        half = self.group // 2
        self._call("beam4", start, sources[:half], 4, records)
        self._call("beam4", start + half, sources[half:], 4, records)
        return records or []

    def phase(self, seconds: float):
        records: list[Record] = []
        started = time.perf_counter()
        while not records or time.perf_counter() - started < seconds:
            records += self._group(self.groups_done)
            self.groups_done += 1
        return records, time.perf_counter() - started

    def adjust(self, metrics: dict) -> None:
        # predict_batch returns whole sequences, so the first token is seen
        # when the call returns, and the time between tokens of a sequence is
        # the call's time per lock-step decode step.
        metrics["token_gap_p50_ms"] = percentile(self.call_steps_ms, 50)

    def verify(self, records: list[Record]) -> None:
        model = self.fixture.model
        batched = {record.index: record.output for record in records if record.kind == "greedy8"}
        for record in records:
            if record.kind == "greedy1" and record.output != batched[record.index]:
                record.fail("greedy batch-of-1 output differs from its batch-of-8 output")
        rng = random.Random(f"oracle-{self.seed}")
        greedy = [record for record in records if record.kind == "greedy8"]
        for record in rng.sample(greedy, min(ORACLE_SAMPLE, len(greedy))):
            if model.predict_batch([self.sources[record.index]], use_cache=False)[0] != record.output:
                record.fail("greedy output differs from its use_cache=False decode")
        beams = [record for record in records if record.kind == "beam4"]
        for record in rng.sample(beams, min(2, len(beams))):
            oracle = model.predict_batch([self.sources[record.index]], num_beams=4, use_cache=False)[0]
            if oracle != record.output:
                record.fail("beam output differs from its use_cache=False decode")

    def layers(self, records: list[Record], tracer) -> dict:
        tokenizer = self.fixture.model.tokenizer
        source = sum(len(tokenizer.encode(text, max_length=96)) for text in self.sources) / len(self.sources)
        metrics = probes.span_metrics(tracer)
        # No paged steps here, so the history is the mean of a 32-token decode.
        metrics["nn.flops_per_token"] = probes.decoder_flops_per_token(self.fixture.model.model.config, 16.0, source)
        return metrics
