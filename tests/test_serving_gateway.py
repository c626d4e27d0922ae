"""The gateway core over a scripted in-memory executor: no threads, no forks.

``repro.serving.gateway`` must not care what runs a batch.  This suite proves
the seam by driving the whole admit → route → cache → coalesce → enqueue →
mirror → resolve machine with a fake tier — a dict for a cache, a list for a
lane, and a ``run()`` the test calls by hand — and checks after every
scenario that each job's future resolved exactly once and no deployment is
left with pending work.  The two dispatch rules the core owns are pinned the
same way: ``collect_batch`` over a plain queue and an idle predicate, ``place``
(and ``ShardedServer._place`` over it) over a table of slot states.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from types import SimpleNamespace

import pytest

from repro import obs
from repro.deploy.router import HashRing
from repro.errors import ModelConfigError
from repro.obs.names import METRIC_GATEWAY_PLACEMENTS_DIVERTED_TOTAL
from repro.serving.batching import BatchWindow
from repro.serving.gateway import Deployment, Executor, Gateway, Outcome, Rejected, collect_batch, place
from repro.serving.protocol import ERROR_BACKEND, ERROR_DEADLINE, ERROR_QUEUE_FULL, ERROR_SHUTDOWN
from repro.serving.protocol import Request, Response, error_response
from repro.serving.sharded import ShardedServer, _Slot


class FakeTier:
    """A bounded list lane and a dict cache; ``run`` plays the dispatcher."""

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self.cache: dict[str, str] = {}
        self.lane: list = []
        self.jobs: list = []
        hooks = Executor(self.identify, self.bind, self.cached, self.enqueue, self.response)
        self.gateway = Gateway(hooks, Deployment("base@1", {"fevisqa"}))
        self.gateway.deployments["cand@1"] = Deployment("cand@1", {"fevisqa"})

    def identify(self, request):
        return SimpleNamespace(request=request, key=request.question), request.deployment

    def bind(self, ticket, deployment):
        return SimpleNamespace(request=ticket.request, key=f"{ticket.key}|{deployment.deployment_id}")

    def cached(self, ticket, deployment):
        output = self.cache.get(ticket.key)
        return None if output is None else Response(task="fevisqa", output=output, cached=True)

    def enqueue(self, job):
        if len(self.lane) >= self.capacity:
            raise Rejected(ERROR_QUEUE_FULL, "the lane is full")
        self.lane.append(job)
        self.jobs.append(job)

    def response(self, ticket, deployment, outcome, job):
        if outcome.error is not None:
            return error_response(ticket.request, outcome.error, outcome.detail)
        return Response(task="fevisqa", output=outcome.output, cached=job is None)

    def run(self, broken: str | None = None) -> None:
        """Dispatch everything queued; jobs on deployment ``broken`` fail in the backend."""
        while self.lane:
            job = self.lane.pop(0)
            assert not job.future.done(), "a job must be resolved exactly once"
            if job.deployment.deployment_id == broken:
                self.gateway.resolve(job, Outcome(error=ERROR_BACKEND, detail="exploded"))
            else:
                self.cache[job.ticket.key] = f"answer to {job.ticket.request.question}"
                self.gateway.resolve(job, Outcome(output=self.cache[job.ticket.key]))

    async def serve(self, questions, broken: str | None = None, **submit):
        """Submit ``questions`` concurrently, let them queue, dispatch, collect."""
        waiting = [asyncio.ensure_future(self.gateway.submit(ask(question), **submit)) for question in questions]
        await asyncio.sleep(0)
        self.run(broken)
        responses = await asyncio.gather(*waiting)
        await asyncio.gather(*self.gateway.unsettled())
        return responses

    def assert_settled(self) -> None:
        assert all(job.future.done() for job in self.jobs)
        assert not self.gateway.inflight
        assert sum(deployment.pending for deployment in self.gateway.deployments.values()) == 0


def ask(question: str, **fields) -> Request:
    return Request(task="fevisqa", question=question, **fields)


def scenario(body):
    """Run ``body(tier)`` on a private loop; the core must need no thread to do it."""
    tier, threads = FakeTier(), threading.active_count()
    asyncio.run(body(tier))
    tier.assert_settled()
    assert threading.active_count() == threads
    return tier.gateway.request_stats()


def test_submit_coalesce_and_cache_hit():
    async def body(tier):
        first, duplicate = await tier.serve(["how many bars ?", "how many bars ?"])
        assert len(tier.jobs) == 1  # the duplicate rode the owner's future
        assert first.output == duplicate.output == "answer to how many bars ?"
        assert (first.cached, duplicate.cached) == (False, True)
        (hit,) = await tier.serve(["how many bars ?"])
        assert hit.cached and hit.output == first.output and len(tier.jobs) == 1

    stats = scenario(body)
    assert (stats["submitted"], stats["completed"], stats["coalesced"], stats["cache_hits"]) == (3, 3, 1, 1)


def test_refusals_are_structured_and_leave_nothing_behind():
    async def body(tier):
        tier.capacity = 1
        kept, refused = await tier.serve(["first ?", "second ?"])
        assert kept.ok and refused.error == ERROR_QUEUE_FULL
        (late,) = await tier.serve(["third ?"], deadline=0)
        unknown = await tier.gateway.submit(ask("pinned ?", deployment="ghost@9"))
        assert late.error == ERROR_DEADLINE and unknown.error == "invalid_request" and "ghost@9" in unknown.detail
        tier.gateway.stopped = True
        (closed,) = await tier.serve(["fourth ?"])
        assert closed.error == ERROR_SHUTDOWN and len(tier.jobs) == 1  # only "first ?" ever queued

    stats = scenario(body)
    assert stats["rejected"] == {"queue_full": 1, "deadline_exceeded": 1, "server_stopped": 1}
    assert stats["failed"]["invalid_request"] == 1 and stats["completed"] == 1


def test_shadow_mirrors_misses_hits_and_followers():
    async def body(tier):
        tier.gateway.set_shadow("fevisqa", "cand@1", 1.0)
        await tier.serve(["q ?", "q ?"])  # owner + coalesced follower, both mirrored
        await tier.serve(["q ?"])  # a cache hit, mirrored against the shadow's own cache
        assert [job.deployment.deployment_id for job in tier.jobs] == ["base@1", "cand@1"]
        ledger = tier.gateway.shadow_stats()["base@1->cand@1"]
        assert (ledger["samples"], ledger["agreement_rate"], ledger["dropped"]) == (3, 1.0, 0)
        assert tier.gateway.deployments["cand@1"].counts["shadow_requests"] == 3

    assert scenario(body)["completed"] == 3  # shadow jobs never count as requests


def test_guarded_canary_reverts_and_traffic_returns_to_the_primary():
    async def body(tier):
        gateway = tier.gateway
        gateway.set_canary("fevisqa", "base@1", "cand@1", 0.5, max_error_rate=0.2, min_requests=2)
        during = await tier.serve([f"during {index} ?" for index in range(16)], broken="cand@1")
        assert {response.error for response in during} == {None, ERROR_BACKEND}
        (rollback,) = gateway.rollbacks
        assert rollback["deployment"] == "cand@1" and rollback["error_rate"] > 0.2
        assert gateway.guards == {} and "cand@1" not in gateway.router.deployments()
        after = await tier.serve([f"after {index} ?" for index in range(8)], broken="cand@1")
        assert all(response.ok for response in after)

    scenario(body)


# -- collection: the window is an upper bound paid only in front of a busy executor -----
def collect_all(items, window: BatchWindow, idle, arrivals=()):
    """Every batch ``collect_batch`` cuts from ``items`` (+ timed ``arrivals``), and the seconds it took."""

    async def body():
        loop, queue = asyncio.get_running_loop(), asyncio.Queue()
        for item in items:
            queue.put_nowait(item)
        for delay, item in arrivals:
            loop.call_later(delay, queue.put_nowait, item)
        started, batches = loop.time(), []
        while sum(map(len, batches)) < len(items) + len(arrivals):
            batches.append(await collect_batch(queue, window, idle))
        return batches, loop.time() - started

    return asyncio.run(body())


def test_collect_in_front_of_an_idle_executor_takes_what_is_queued_and_does_not_wait():
    hour = BatchWindow(max_batch=4, max_wait_ms=3_600_000.0)
    batches, seconds = collect_all(range(3), hour, idle=lambda: True)
    assert batches == [[0, 1, 2]] and seconds < 1.0  # everything queued, none of the hour
    batches, _ = collect_all(range(10), hour, idle=lambda: True)
    assert batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]  # max_batch still cuts; no drop, no reorder


def test_collect_behind_a_busy_executor_waits_the_window_and_stops_at_max_batch():
    window = BatchWindow(max_batch=3, max_wait_ms=40.0)
    batches, seconds = collect_all([0], window, idle=lambda: False)
    assert batches == [[0]] and seconds >= 0.035  # nobody came: the whole window
    # company arriving inside the window joins the batch; the fourth item is the next batch's
    batches, _ = collect_all([0], window, idle=lambda: False, arrivals=[(0.002, 1), (0.004, 2), (0.006, 3)])
    assert batches == [[0, 1, 2], [3]]
    batches, _ = collect_all(range(10), window, idle=lambda: False)
    assert [item for batch in batches for item in batch] == list(range(10)) and max(map(len, batches)) == 3


def test_collect_asks_the_predicate_only_once_the_queue_is_empty():
    asked = []
    batches, _ = collect_all(range(5), BatchWindow(max_batch=8, max_wait_ms=50.0), idle=lambda: asked.append(1) or True)
    assert batches == [[0, 1, 2, 3, 4]] and len(asked) == 1


# -- placement: a busy owner passes the job to an idle ring successor --------------------
SLOTS = ("shard-0", "shard-1", "shard-2")
RING = HashRing(SLOTS)
KEYS = [f"key-{index}" for index in range(40)]


def subsets(names):
    return [set(chosen) for size in range(len(names) + 1) for chosen in itertools.combinations(names, size)]


def test_place_table():
    for key in KEYS:
        owner = RING.node(key)
        second = RING.node(key, exclude={owner})
        third = RING.node(key, exclude={owner, second})
        assert place(RING, key, set(), set()) == (owner, False)
        assert place(RING, key, set(), {second, third}) == (owner, False)  # an idle owner keeps its key
        assert place(RING, key, set(), {owner}) == (second, True)  # busy owner, idle peers: ring successor
        assert place(RING, key, set(), {owner, second}) == (third, True)  # ... the next *idle* one
        assert place(RING, key, set(), set(SLOTS)) == (owner, False)  # everyone busy: affinity under load
        assert place(RING, key, {owner}, set()) == (second, False)  # a dead owner's heir is not a diversion
        assert place(RING, key, {owner}, {second}) == (third, True)
        assert place(RING, key, {owner}, {second, third}) == (second, False)
        assert place(RING, key, {owner, third}, {second}) == (second, False)  # the only live slot, busy or not


def test_place_never_picks_a_dead_slot_prefers_idle_and_is_a_pure_function():
    for key, dead, busy in itertools.product(KEYS[:8], subsets(SLOTS), subsets(SLOTS)):
        if dead == set(SLOTS):
            with pytest.raises(ModelConfigError):
                place(RING, key, dead, busy)
            continue
        target, diverted = place(RING, key, dead, busy)
        assert target not in dead
        assert target not in busy or set(SLOTS) <= dead | busy  # a busy pick means nobody live was idle
        assert diverted == (target != RING.node(key, exclude=dead))
        assert place(RING, key, set(dead), set(busy)) == (target, diverted)


def slot_tier(dead=(), broken=()):
    """A ``ShardedServer`` that never saw a registry, a loop or a fork: just slots and a ring."""
    tier = ShardedServer.__new__(ShardedServer)
    tier._ring = RING
    tier._slots = [
        _Slot(name=name, alive=name not in dead and name not in broken, broken=name in broken, queue=asyncio.LifoQueue())
        for name in SLOTS
    ]
    return tier, {slot.name: slot for slot in tier._slots}


def placed(tier, key: str, requeue: bool = False) -> str:
    """Place a job for ``key`` and take it straight back off (the queues are LIFO); the slot it was on."""
    job = SimpleNamespace(ticket=SimpleNamespace(route_key=key))
    sizes = [slot.queue.qsize() for slot in tier._slots]
    tier._place(job, requeue)
    (slot,) = [slot for slot, size in zip(tier._slots, sizes) if slot.queue.qsize() > size]
    assert slot.queue.get_nowait() is job
    return slot.name


def test_sharded_placement_reads_busy_from_queue_and_pending_on_admit_and_requeue():
    diverted = obs.METRICS.counter(METRIC_GATEWAY_PLACEMENTS_DIVERTED_TOTAL)
    for key in KEYS[:12]:
        tier, slots = slot_tier()
        owner = RING.node(key)
        second = RING.node(key, exclude={owner})
        third = RING.node(key, exclude={owner, second})
        start = diverted.value
        assert placed(tier, key) == placed(tier, key, requeue=True) == owner and diverted.value == start
        slots[owner].queue.put_nowait("a job waiting for its collector")
        assert placed(tier, key) == placed(tier, key, requeue=True) == second and diverted.value == start + 2
        slots[second].pending[7] = "a frame the shard has not answered"
        assert placed(tier, key) == placed(tier, key, requeue=True) == third
        slots[third].pending[8] = "another"
        assert placed(tier, key) == placed(tier, key, requeue=True) == owner and diverted.value == start + 4


def test_sharded_placement_never_uses_a_dead_or_broken_slot():
    for key in KEYS[:12]:
        owner = RING.node(key)
        second = RING.node(key, exclude={owner})
        third = RING.node(key, exclude={owner, second})
        tier, slots = slot_tier(dead={owner}, broken={second})
        assert placed(tier, key) == placed(tier, key, requeue=True) == third
        slots[third].pending[1] = "busy, and still the only shard there is"
        assert placed(tier, key) == placed(tier, key, requeue=True) == third
        # total outage: wait on a slot that will respawn, never on the broken one
        tier, _ = slot_tier(dead={owner, third}, broken={second})
        assert placed(tier, key) == owner
        tier, _ = slot_tier(broken=set(SLOTS))
        with pytest.raises(Rejected):
            placed(tier, key)
