"""The gateway core over a scripted in-memory executor: no threads, no forks.

``repro.serving.gateway`` must not care what runs a batch.  This suite proves
the seam by driving the whole admit → route → cache → coalesce → enqueue →
mirror → resolve machine with a fake tier — a dict for a cache, a list for a
lane, and a ``run()`` the test calls by hand — and checks after every
scenario that each job's future resolved exactly once and no deployment is
left with pending work.
"""

from __future__ import annotations

import asyncio
import threading
from types import SimpleNamespace

from repro.serving.gateway import Deployment, Executor, Gateway, Outcome, Rejected
from repro.serving.protocol import ERROR_BACKEND, ERROR_DEADLINE, ERROR_QUEUE_FULL, ERROR_SHUTDOWN
from repro.serving.protocol import Request, Response, error_response


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
