"""The three serving workloads: ``thread_open``, ``sharded_closed``, ``repeat_heavy``.

All three send the same four-task mix of unique requests from
:class:`~e2ebench.fixtures.RequestFactory`; half the mix is streamed.  They
differ in what does the work: queueing and batching on the thread tier, the
wire and the gateway loop on the sharded tier, and the gateway's hit path
alone when every request repeats.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import os
import random
import threading
import time

from e2ebench import probes
from e2ebench.fixtures import STREAMED_TASKS, RequestFactory, ServingFixture
from e2ebench.loadgen import Record, build_schedule, closed_loop, open_loop
from e2ebench.oracle import check_serving, response_view, visible_tokens
from e2ebench.stats import mean, percentile
from e2ebench.workload import Workload

#: Warm-up and probe requests are numbered from here, far above any number a
#: timed phase reaches, so they never share a cache entry with timed traffic.
WARM_BASE = 10_000_000
PROBE_BASE = 20_000_000
PROBE_REQUESTS = 24


def _finish_record(record: Record, response, chunks=None) -> None:
    """Fill a record from the response (and chunk stream) the client received."""
    from repro.errors import ModelConfigError
    from repro.serving.protocol import assemble_stream

    if chunks is not None:
        try:
            response = assemble_stream(chunks)
        except ModelConfigError as error:
            record.fail(f"stream did not reassemble: {error}")
            return
    record.output = response
    record.tokens = visible_tokens(response.output)
    record.telemetry = response.telemetry or {}
    record.cached = bool(response.cached)


class _ServingWorkload(Workload):
    """What the three serving workloads share: fixture, factory, oracle, twin probes."""

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        self.fixture: ServingFixture | None = None
        self.factory: RequestFactory | None = None
        self.next_number = 0
        self.phases_done = 0
        self.probes = 4 if smoke else PROBE_REQUESTS

    def setup(self) -> None:
        self.fixture = ServingFixture(self.out_dir / f"work-{self.name}-{os.getpid()}")
        self.factory = RequestFactory(self.fixture, self.seed)
        self.next_number = 0
        self.phases_done = 0

    def close(self) -> None:
        if self.fixture is not None:
            self.fixture.close()
            self.fixture = None

    def verify(self, records: list[Record]) -> None:
        check_serving(self.fixture, self.factory, records)

    def digest_output(self, record: Record):
        return response_view(record.output) if record.output is not None else None

    def twin_sample(self, records: list[Record]) -> list:
        """A seeded sample of the phase's own requests, for the twin and the probes."""
        numbers = sorted({record.index for record in records})
        sample = random.Random(f"twin-{self.seed}").sample(numbers, min(self.probes, len(numbers)))
        return [self.factory.request(number) for number in sample]

    def overhead_probe(self, submit) -> tuple[float, float]:
        """One cold request at a time through ``submit``, then through an in-process twin.

        Returns the p50 of the differences — what the serving tier adds to
        ``Pipeline.submit`` when nothing else is in flight — and the twin's
        mean service time, both in milliseconds.
        """
        twin = self.fixture.twin()
        differences, solo = [], []
        for number in range(self.probes):
            request = self.factory.request(PROBE_BASE + self.phases_done * 1000 + number)
            started = time.perf_counter()
            submit(request)
            through_tier = (time.perf_counter() - started) * 1000.0
            started = time.perf_counter()
            twin.submit(request)
            solo.append((time.perf_counter() - started) * 1000.0)
            differences.append(through_tier - solo[-1])
        return percentile(differences, 50), mean(solo)

    def twin_layers(self, tracer, requests: list) -> tuple[dict, list]:
        """Pipeline, tokenizer and ``nn`` numbers from an in-process twin.

        The twin serves ``requests`` one at a time with the wrappers on; the
        spans it leaves are what ``span_metrics`` reads for the layers that
        ran inside shard processes.  Returns the metrics and the responses.
        """
        twin = self.fixture.twin()
        times, responses = probes.twin_serve(twin, requests, tracer)
        stats = twin.stats()
        metrics = probes.span_metrics(tracer, self.fixture.model.model.config, source_length=96.0)
        metrics.update(probes.continuous_metrics(None, probes.loop_stats(stats)))
        metrics["pipeline.cached_response_us_p50"] = probes.cached_response_probe(twin, requests)
        metrics["pipeline.serve_ms_per_request"] = mean(times)
        metrics["pipeline.encode_cache_hit_rate"] = stats["caches"]["encode"]["hit_rate"]
        metrics["pipeline.response_cache_hit_rate"] = stats["caches"]["response"]["hit_rate"]
        metrics["deploy.build_pipeline_s"] = self.fixture.build_pipeline_s
        return metrics, responses


class ThreadOpen(_ServingWorkload):
    """Open loop on one asyncio thread against the thread ``Server``.

    Three fixed-rate phases run back to back, each drained before the next
    starts.  Latency percentiles are those of ``mid``, the longest phase;
    throughput and the SLO share cover all three.  The rates are about 12,
    19 and 56 % of the ~43 req/s the thread tier sustains for this mix on
    two cores.  ``mid`` sits that low on purpose: the host's own speed
    drifts by 15-30 % for minutes at a time, and an open loop turns a drift
    in capacity into a larger one in queueing.  In sixteen interleaved pairs
    of runs, ``mid`` at 16 req/s spread its p90 by 34 % of the median (one
    run at 2.2 times it); at 8 req/s by 15 %.  ``hi`` is where the queue
    shows, and is kept short of saturation so that a slow host does not push
    a third of the run's requests past the SLO.
    """

    name = "thread_open"
    limits = (100.0, 250.0)
    rates = (("lo", 5.0, 0.15), ("mid", 8.0, 0.7), ("hi", 24.0, 0.15))
    repeat_share = 0.15

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        self.loop: asyncio.AbstractEventLoop | None = None
        self.thread: threading.Thread | None = None
        self.server = None
        self.backlog_s = 0.0

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result()

    def setup(self) -> None:
        from repro.serving.server import Server, ServerConfig

        super().setup()
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, name="thread-open-loop", daemon=True)
        self.thread.start()
        self.server = Server(self.fixture.pipeline, ServerConfig())
        self._call(self.server.start())

    def stop(self) -> None:
        if self.loop is None:
            return
        self._call(self.server.stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join()
        self.loop.close()
        self.loop = self.thread = self.server = None

    async def _send(self, number: int, phase: str, due: float, sent: float) -> Record:
        request = self.factory.request(number)
        record = Record(index=number, kind=request.task, phase=phase, due=due, sent=sent)
        clock = time.perf_counter
        with self.client_span("loadgen.request", number):
            if request.task in STREAMED_TASKS:
                chunks = []
                async for chunk in self.server.stream(request):
                    record.stamps.append(clock())
                    chunks.append(chunk)
                record.first = record.stamps[0]
                record.done = clock()
                _finish_record(record, None, chunks)
            else:
                response = await self.server.submit(request)
                record.done = clock()
                _finish_record(record, response)
        return record

    def warm(self) -> None:
        async def run():
            for number in range(8 if self.smoke else 32):
                await self._send(WARM_BASE + number, "warm", time.perf_counter(), time.perf_counter())

        self._call(run())

    def phase(self, seconds: float):
        phases = [(name, rate, seconds * share) for name, rate, share in self.rates]
        schedule = build_schedule(f"{self.seed}-{self.phases_done}", phases, self.repeat_share)
        base = self.next_number
        self.next_number += len(schedule)
        self.phases_done += 1
        self.loop_stats_before = probes.loop_stats(self.fixture.pipeline.stats())

        async def run():
            records: list[Record] = []
            timed = 0.0
            for name, _rate, window in phases:
                arrivals = [arrival for arrival in schedule if arrival.phase == name]
                started = time.perf_counter()
                records += await open_loop(
                    [arrival.offset for arrival in arrivals],
                    lambda position, due, sent: self._send(base + arrivals[position].request, name, due, sent),
                )
                makespan = time.perf_counter() - started
                timed += makespan
                if name == "hi":
                    self.backlog_s = max(0.0, makespan - window)
            return records, timed

        return self._call(run())

    def latency_of(self, record: Record) -> bool:
        return record.phase == "mid"

    def layers(self, records: list[Record], tracer) -> dict:
        # In process, so the wrappers saw the live traffic itself; the probes
        # that follow must not add their spans to it.
        metrics = probes.span_metrics(tracer, self.fixture.model.model.config, source_length=96.0)
        pipeline_stats = self.fixture.pipeline.stats()
        metrics.update(probes.continuous_metrics(self.loop_stats_before, probes.loop_stats(pipeline_stats)))
        metrics["obs.step_ms_agreement"] = probes.step_agreement(tracer)
        with tracer.paused():
            overhead, serve_ms = self.overhead_probe(lambda request: self._call(self.server.submit(request)))
        worked = [r for r in records if r.ok and r.telemetry.get("batch_size")]
        hits = [r for r in records if r.ok and r.telemetry.get("cache_hit")]
        coalesced = [r for r in records if r.ok and r.telemetry.get("coalesced")]
        rejected = [
            r for r in records if r.output is not None and r.output.error in ("queue_full", "deadline_exceeded")
        ]
        by_phase = {name: [r for r in records if r.ok and r.phase == name] for name, _, _ in self.rates}
        meeting = [
            rate
            for name, rate, _ in self.rates
            if by_phase[name]
            and percentile([r.latency_ms for r in by_phase[name]], 90) <= self.limits[1]
            and percentile([r.ttft_ms for r in by_phase[name] if r.first is not None], 90) <= self.limits[0]
        ]
        metrics.update(
            {
                "pipeline.serve_ms_per_request": serve_ms,
                "pipeline.encode_cache_hit_rate": pipeline_stats["caches"]["encode"]["hit_rate"],
                "pipeline.response_cache_hit_rate": pipeline_stats["caches"]["response"]["hit_rate"],
                "cache.evictions": sum(cache["evictions"] for cache in pipeline_stats["caches"].values()),
                "deploy.build_pipeline_s": self.fixture.build_pipeline_s,
                "server.queue_ms_p50": percentile([r.telemetry["queue_ms"] for r in worked], 50),
                "server.queue_ms_p90": percentile([r.telemetry["queue_ms"] for r in worked], 90),
                "server.batch_size_mean": mean(r.telemetry["batch_size"] for r in worked),
                "server.cache_hit_share": len(hits) / len(records),
                "server.coalesced_share": len(coalesced) / len(records),
                "server.hit_us_p50": percentile([r.latency_ms * 1000.0 for r in hits], 50),
                "server.rejected_share": len(rejected) / len(records),
                "server.roundtrip_overhead_ms_p50": overhead,
                "loadgen.backlog_s": self.backlog_s,
                "loadgen.max_rate_rps": max(meeting, default=0.0),
                "loadgen.lo_latency_p50_ms": percentile([r.latency_ms for r in by_phase["lo"]], 50),
                "loadgen.hi_latency_p50_ms": percentile([r.latency_ms for r in by_phase["hi"]], 50),
            }
        )
        metrics["loadgen.unattributed_share"] = _unattributed(
            percentile([r.latency_ms for r in by_phase["mid"]], 50),
            serve_ms + metrics["server.queue_ms_p50"] + max(overhead, 0.0),
        )
        return metrics


def _unattributed(latency_ms: float, attributed_ms: float) -> float:
    """Share of the median latency that no layer's own measured cost accounts for."""
    if latency_ms <= 0:
        return 0.0
    return max(0.0, 1.0 - attributed_ms / latency_ms)


class _ShardedWorkload(_ServingWorkload):
    """A ``ShardedServer`` with the default ``ShardConfig`` and two client threads."""

    clients = 2

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        self.server = None
        self.start_s = 0.0

    def setup(self) -> None:
        from repro.serving.sharded import ShardConfig, ShardedServer

        super().setup()
        started = time.perf_counter()
        self.server = ShardedServer(self.fixture.registry_path, self.fixture.ref, ShardConfig()).start()
        self.start_s = time.perf_counter() - started

    def stop(self) -> None:
        if self.server is None:
            return
        self.server.stop()
        self.server = None
        # stop() kills the shards and reaps them on a pool thread; wait here
        # until none is left, so the run has waited for every process it
        # started and the children's peak RSS is complete when it is read.
        while True:
            try:
                os.waitpid(-1, 0)
            except ChildProcessError:
                return

    def _serve(self, number: int) -> Record:
        request = self.factory.request(number)
        record = Record(index=number, kind=request.task)
        clock = time.perf_counter
        record.due = record.sent = clock()
        with self.client_span("loadgen.request", number):
            if request.task in STREAMED_TASKS:
                chunks = []
                for chunk in self.server.stream(request):
                    record.stamps.append(clock())
                    chunks.append(chunk)
                record.first = record.stamps[0]
                record.done = clock()
                _finish_record(record, None, chunks)
            else:
                response = self.server.submit(request)
                record.done = clock()
                _finish_record(record, response)
        return record

    def _gateway_layers(self, records: list[Record], tracer, stats_before: dict) -> dict:
        """Gateway, transport and deploy numbers of the traced phase, plus the twin's."""
        from repro import obs
        from repro.obs.names import METRIC_GATEWAY_DISPATCH_MS, METRIC_GATEWAY_HEARTBEAT_GAP_MS

        stats = self.server.stats()
        dispatch = obs.METRICS.histogram(METRIC_GATEWAY_DISPATCH_MS)
        dispatch_p50, dispatches = dispatch.quantile(0.5), dispatch.count
        dispatched = [
            stats["shards"][name]["dispatched"] - stats_before["shards"][name]["dispatched"]
            for name in stats["shards"]
        ]
        counts = {
            key: stats["requests"][key] - stats_before["requests"][key]
            for key in ("submitted", "cache_hits", "coalesced")
        }
        misses = [r for r in records if r.ok and not r.cached]
        hits = [r for r in records if r.ok and r.cached]
        requests = self.twin_sample(records)
        metrics, responses = self.twin_layers(tracer, requests)
        metrics.update(probes.transport_probe(requests, responses))
        # The probe's own spans are dropped; the twin's above are the attribution.
        with tracer.paused():
            overhead, _ = self.overhead_probe(self.server.submit)
        metrics.update(
            {
                "cache.evictions": stats["gateway_cache"]["evictions"],
                "server.cache_hit_share": counts["cache_hits"] / counts["submitted"] if counts["submitted"] else 0.0,
                "server.coalesced_share": counts["coalesced"] / counts["submitted"] if counts["submitted"] else 0.0,
                "sharded.start_s": self.start_s,
                "sharded.roundtrip_overhead_ms_p50": overhead,
                "sharded.queue_ms_p50": (
                    max(0.0, percentile([r.latency_ms for r in misses], 50) - dispatch_p50) if misses else 0.0
                ),
                "sharded.batch_size_mean": sum(dispatched) / dispatches if dispatches else 0.0,
                "sharded.dispatch_ms_p50": dispatch_p50,
                "sharded.dispatch_imbalance": max(dispatched) / mean(dispatched) if sum(dispatched) else 0.0,
                "sharded.heartbeat_gap_ms_p99": obs.METRICS.histogram(METRIC_GATEWAY_HEARTBEAT_GAP_MS).quantile(0.99),
                "sharded.hit_us_p50": percentile([r.latency_ms * 1000.0 for r in hits], 50),
                "sharded.requeues": stats["requeues"],
                "sharded.restarts": stats["restarts"],
            }
        )
        if misses:
            attributed = max(overhead, 0.0) + metrics["pipeline.serve_ms_per_request"]
        else:  # a pure hit path: routing, the cache lookup and the wire view of the request
            attributed = (
                metrics["deploy.route_us_p50"] + metrics["cache.get_us_p50"] + metrics["transport.request_encode_us_p50"]
            ) / 1000.0
        metrics["loadgen.unattributed_share"] = _unattributed(
            percentile([r.latency_ms for r in records if r.ok], 50), attributed
        )
        return metrics


class ShardedClosed(_ShardedWorkload):
    """Closed loop of all-unique requests: every one crosses the wire to a shard and back."""

    name = "sharded_closed"
    limits = (100.0, 250.0)

    def warm(self) -> None:
        count = 8 if self.smoke else 32
        self.server.serve([self.factory.request(WARM_BASE + number) for number in range(count)])

    def phase(self, seconds: float):
        base = self.next_number
        self.stats_before = self.server.stats()
        started = time.perf_counter()
        records = closed_loop(
            self.clients, seconds, lambda client, turn: self._serve(base + turn * self.clients + client)
        )
        elapsed = time.perf_counter() - started
        self.next_number = max(record.index for record in records) + 1
        self.phases_done += 1
        return records, elapsed

    def layers(self, records: list[Record], tracer) -> dict:
        return self._gateway_layers(records, tracer, self.stats_before)


class RepeatHeavy(_ShardedWorkload):
    """Closed loop of Zipf-distributed repeats over a pre-served working set.

    Every timed request is a gateway cache hit, so ``nn`` does no work at
    all: the dashboard-refresh extreme, and the workload on which every
    decode optimisation should change nothing.
    """

    name = "repeat_heavy"
    limits = (5.0, 10.0)
    zipf_exponent = 1.1

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        self.working_set = 16 if smoke else 512
        weights = [1.0 / (rank + 1) ** self.zipf_exponent for rank in range(self.working_set)]
        self.cumulative = [running / sum(weights) for running in itertools.accumulate(weights)]

    def prime(self) -> None:
        # Served once, here, so the timed phase finds all of it in the
        # gateway's 2048-entry cache.
        requests = [self.factory.request(number) for number in range(self.working_set)]
        for start in range(0, len(requests), 64):
            self.server.serve(requests[start : start + 64])

    def warm(self) -> None:
        for number in range(min(64, self.working_set)):
            self._serve(number)

    def phase(self, seconds: float):
        self.stats_before = self.server.stats()
        draws = [random.Random(f"zipf-{self.seed}-{self.phases_done}-{client}") for client in range(self.clients)]

        def serve(client: int, _turn: int) -> Record:
            rank = bisect.bisect_left(self.cumulative, draws[client].random())
            return self._serve(min(rank, self.working_set - 1))

        started = time.perf_counter()
        records = closed_loop(self.clients, seconds, serve)
        elapsed = time.perf_counter() - started
        self.phases_done += 1
        return records, elapsed

    def verify(self, records: list[Record]) -> None:
        # One oracle answer per working-set entry; the first response seen for
        # an entry is compared with it field by field and every later one
        # with that first response.
        first: dict[int, Record] = {}
        later: list[Record] = []
        for record in records:
            if record.index in first:
                later.append(record)
            else:
                first[record.index] = record
        check_serving(self.fixture, self.factory, list(first.values()))
        for record in later:
            if not record.cached:
                record.fail("a repeat of a pre-served request missed the gateway cache")
            elif not first[record.index].ok or record.output != first[record.index].output:
                record.fail("replayed response differs from the first response for the same request")

    def layers(self, records: list[Record], tracer) -> dict:
        return self._gateway_layers(records, tracer, self.stats_before)
