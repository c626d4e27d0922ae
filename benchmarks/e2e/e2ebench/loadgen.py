"""Load generation: seeded arrival schedules, an open loop, a closed loop.

The open loop takes its clock and its sleep as arguments so the smoke test
can drive it on virtual time: latency is counted from the moment a request
was *due*, never from when the generator got round to sending it, and how
late the generator ran is reported beside it (``send_lag``).

Nothing here imports ``repro``; a workload passes in the callable that sends
one request and gets a :class:`Record` back.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from dataclasses import dataclass, field

from e2ebench.stats import mean, percentile

#: Arrival gaps are Erlang-``ARRIVAL_SHAPE`` (the sum of that many exponential
#: stages), not plain exponential.  A phase lasts a few seconds and holds
#: 50-250 arrivals; with exponential gaps the luck of one seed's bursts moved
#: the phase's p90 by 30 % between seeds, which no regression bound survives.
#: Four stages halve the gap's coefficient of variation and keep the schedule
#: open-loop, seeded and bursty enough to queue.
ARRIVAL_SHAPE = 4


@dataclass
class Record:
    """What the load generator saw of one request (or decode row, or call).

    Times are clock readings in seconds.  ``due`` is when the request was
    scheduled to be sent (equal to ``sent`` in a closed loop), ``first`` when
    its first token or chunk arrived (``None`` when the request is not
    streamed), ``stamps`` every token/chunk arrival.  ``output`` is what the
    oracle compares; ``ok`` turns false on an error response, a broken stream
    or an oracle mismatch.
    """

    index: int
    kind: str = ""
    phase: str = ""
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    first: float | None = None
    stamps: list = field(default_factory=list)
    tokens: int = 0
    output: object = None
    ok: bool = True
    detail: str = ""
    telemetry: dict | None = None
    cached: bool = False

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def ttft_ms(self) -> float | None:
        return None if self.first is None else (self.first - self.due) * 1000.0

    def gaps_ms(self) -> list[float]:
        """Gaps between consecutive token/chunk arrivals, in milliseconds."""
        return [(b - a) * 1000.0 for a, b in zip(self.stamps, self.stamps[1:])]

    def fail(self, detail: str) -> None:
        self.ok = False
        self.detail = self.detail or detail


def arrival_offsets(rng: random.Random, rate: float, duration: float) -> list[float]:
    """Seeded arrival offsets (seconds from phase start) at ``rate`` per second.

    The count is fixed at ``round(rate * duration)`` so every seed offers the
    same load; the gaps are Erlang draws rescaled to fill the window exactly.
    """
    count = max(1, round(rate * duration))
    gaps = [
        sum(rng.expovariate(rate * ARRIVAL_SHAPE) for _ in range(ARRIVAL_SHAPE))
        for _ in range(count + 1)
    ]
    scale = duration / sum(gaps)
    offsets, clock = [], 0.0
    for gap in gaps[:count]:
        clock += gap * scale
        offsets.append(clock)
    return offsets


@dataclass(frozen=True)
class Arrival:
    """One scheduled send: which phase, when, and which request it carries.

    ``request`` indexes the workload's request list.  A repeat carries the
    index of an earlier arrival's request, so it can hit a cache or coalesce
    with a request still in flight.
    """

    phase: str
    offset: float
    request: int
    repeat: bool


#: Repeats are dealt in blocks of this many arrivals, so every stretch of a
#: phase carries the same share of cache hits whatever the seed.
REPEAT_BLOCK = 20


def build_schedule(
    seed, phases: list[tuple[str, float, float]], repeat_share: float, recent: int = 16
) -> list[Arrival]:
    """The whole open-loop schedule for ``seed``: one list, phase after phase.

    ``phases`` holds ``(name, rate_per_s, duration_s)``.  In every block of
    ``REPEAT_BLOCK`` arrivals a fixed ``repeat_share`` of them, at seeded
    positions, repeat one of the ``recent`` most recent requests instead of
    carrying a new one.
    """
    rng = random.Random(f"schedule-{seed}")
    schedule: list[Arrival] = []
    fresh = 0
    history: list[int] = []
    repeats: set[int] = set()
    for name, rate, duration in phases:
        for offset in arrival_offsets(rng, rate, duration):
            position = len(schedule) % REPEAT_BLOCK
            if position == 0:
                repeats = set(rng.sample(range(REPEAT_BLOCK), round(repeat_share * REPEAT_BLOCK)))
            if history and position in repeats:
                schedule.append(Arrival(name, offset, rng.choice(history[-recent:]), True))
                continue
            schedule.append(Arrival(name, offset, fresh, False))
            history.append(fresh)
            fresh += 1
    return schedule


async def open_loop(offsets, send, clock=time.perf_counter, sleep=asyncio.sleep) -> list[Record]:
    """Send request ``i`` at ``start + offsets[i]`` whatever the system is doing.

    ``send(i, due, sent)`` is a coroutine returning the request's
    :class:`Record`; it is started as its own task, so a slow response never
    delays the next send.  Returns the records in schedule order once every
    request has completed.
    """
    start = clock()
    tasks = []
    for position, offset in enumerate(offsets):
        due = start + offset
        delay = due - clock()
        if delay > 0:
            await sleep(delay)
        tasks.append(asyncio.ensure_future(send(position, due, clock())))
    return list(await asyncio.gather(*tasks))


def closed_loop(clients: int, seconds: float, serve_one, clock=time.perf_counter) -> list[Record]:
    """``clients`` threads, each sending its next request when the last returned.

    ``serve_one(client, turn)`` serves the client's ``turn``-th request and
    returns its :class:`Record`.  Every client stops starting new requests
    once ``seconds`` have passed; the records come back grouped by client in
    the order served.
    """
    per_client: list[list[Record]] = [[] for _ in range(clients)]
    errors: list[BaseException] = []
    deadline = clock() + seconds

    def run(client: int) -> None:
        turn = 0
        try:
            while clock() < deadline:
                per_client[client].append(serve_one(client, turn))
                turn += 1
        except BaseException as error:  # noqa: BLE001 - re-raised on the caller's thread below
            errors.append(error)

    threads = [threading.Thread(target=run, args=(client,), name=f"loadgen-{client}") for client in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [record for records in per_client for record in records]


def summarize(records: list[Record], seconds: float, limits: tuple[float, float], latency_of=None) -> dict:
    """The end-to-end metrics every workload reports, from its records.

    ``seconds`` is the timed span the records were collected in.  ``limits``
    is ``(ttft_limit_ms, latency_limit_ms)``: a request meets them when it
    succeeded, finished within the latency limit and — if streamed — saw its
    first token within the TTFT limit; failures miss by definition.
    ``latency_of`` narrows the latency/TTFT/gap percentiles to some records
    (``thread_open`` reports its ``mid`` phase) without touching the rest.
    """
    ok = [record for record in records if record.ok]
    timed = [record for record in ok if latency_of is None or latency_of(record)]
    ttft_limit, latency_limit = limits
    met = sum(
        1
        for record in ok
        if record.latency_ms <= latency_limit and (record.first is None or record.ttft_ms <= ttft_limit)
    )
    streamed = [record for record in timed if record.first is not None]
    return {
        "requests_per_s": len(ok) / seconds,
        "tokens_per_s": sum(record.tokens for record in ok) / seconds,
        "latency_p50_ms": percentile([record.latency_ms for record in timed], 50),
        "latency_p90_ms": percentile([record.latency_ms for record in timed], 90),
        "ttft_p50_ms": percentile([record.ttft_ms for record in streamed], 50),
        "token_gap_p50_ms": percentile([gap for record in streamed for gap in record.gaps_ms()], 50),
        "slo_met_share": met / len(records) if records else 0.0,
        "ok_share": len(ok) / len(records) if records else 0.0,
    }


def loadgen_metrics(records: list[Record]) -> dict:
    """The load generator's own per-layer counters, common to every workload."""
    ok = [record for record in records if record.ok]
    return {
        "loadgen.sent": len(records),
        "loadgen.succeeded": len(ok),
        "loadgen.failed": len(records) - len(ok),
        "loadgen.send_lag_ms_p99": percentile([(record.sent - record.due) * 1000.0 for record in records], 99),
        "loadgen.latency_p99_ms": percentile([record.latency_ms for record in ok], 99),
        "loadgen.output_tokens_mean": mean(record.tokens for record in ok),
    }
