"""Tests for the asyncio serving front-end (``repro.serving.server``).

The headline property: firing 100+ overlapping ``submit()`` calls — mixed
tasks, duplicate cache-hitting requests, some past-deadline — produces
responses bitwise-equal to synchronous ``Pipeline.serve`` on the same
inputs, drops nothing, and rejects with structured errors rather than
exceptions.  The rest of the suite covers admission control (queue bounds,
deadlines, shutdown), coalescing, backend-failure containment, telemetry,
and the :class:`BatchWindow` flush policy.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.baselines import GENERATION_BASELINES
from repro.datasets import generate_nvbench
from repro.errors import ModelConfigError
from repro.serving import (
    ERROR_BACKEND,
    ERROR_DEADLINE,
    ERROR_INVALID_REQUEST,
    ERROR_QUEUE_FULL,
    ERROR_SHUTDOWN,
    BatchWindow,
    Pipeline,
    Request,
    Server,
    ServerConfig,
)


# -- fixtures -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def nvbench(small_pool):
    return generate_nvbench(small_pool, examples_per_database=6, seed=0)


def _pipeline(small_pool, nvbench, **overrides) -> Pipeline:
    pipeline = Pipeline.from_config(
        {
            "text_to_vis": {"type": "retrieval", "revise": True},
            "vis_to_text": {"type": "heuristics"},
            "fevisqa": {"type": "heuristics"},
            "pipeline": overrides,
        }
    )
    pipeline.backend("text_to_vis").fit(nvbench.examples, small_pool)
    return pipeline


def _mixed_requests(small_pool, nvbench, count: int) -> list[Request]:
    """``count`` mixed-task requests cycling over the nvbench examples."""
    requests: list[Request] = []
    examples = nvbench.examples
    index = 0
    while len(requests) < count:
        example = examples[index % len(examples)]
        schema = small_pool.get(example.db_id).schema
        kind = index % 3
        if kind == 0:
            requests.append(Request(task="text_to_vis", question=example.question, schema=schema))
        elif kind == 1:
            requests.append(Request(task="vis_to_text", chart=example.query, schema=schema))
        else:
            requests.append(
                Request(task="fevisqa", question="How many parts are there ?", chart=example.query, schema=schema)
            )
        index += 1
    return requests


class _SlowCaption(GENERATION_BASELINES["heuristics"]):
    """A generation backend that burns wall-clock per batch (worker-side)."""

    def __init__(self, delay: float = 0.03):
        super().__init__()
        self.delay = delay

    def predict_many(self, sources):
        time.sleep(self.delay)
        return super().predict_many(sources)


class _ExplodingCaption(GENERATION_BASELINES["heuristics"]):
    def predict_many(self, sources):
        raise ModelConfigError("backend exploded")


def _comparable(response) -> dict:
    """A response's content, minus scheduling-dependent fields.

    ``cached`` depends on which duplicate won the race under concurrency and
    ``telemetry`` on queue/batch/worker placement, so equality with the
    synchronous path is over everything else.
    """
    payload = response.as_dict()
    payload.pop("cached")
    payload.pop("telemetry")
    return payload


# -- the concurrency stress property ----------------------------------------------------


class TestStress:
    def test_100_overlapping_submits_match_synchronous_serve(self, small_pool, nvbench):
        base = _mixed_requests(small_pool, nvbench, 40)
        # duplicates: every request again (cache/coalescing pressure), plus a
        # third copy of a handful, interleaved to overlap in flight.
        valid = base + base + base[:20]
        assert len(valid) >= 100
        # past-deadline submissions use questions no valid request shares, so
        # they can never be answered from the response cache by accident.
        doomed = [
            Request(task="fevisqa", question=f"doomed question {index} ?", chart=base[0].chart)
            for index in range(8)
        ]

        async def drive():
            server = Server(
                _pipeline(small_pool, nvbench),
                ServerConfig(max_batch=4, max_wait_ms=2.0, queue_size=512, num_workers=2),
            )
            async with server:
                tasks = [asyncio.create_task(server.submit(request)) for request in valid]
                tasks += [asyncio.create_task(server.submit(request, deadline=0)) for request in doomed]
                responses = await asyncio.gather(*tasks)
            return responses, server.stats()

        responses, stats = asyncio.run(drive())

        # no request is dropped, every slot holds a Response
        assert len(responses) == len(valid) + len(doomed)
        answered, rejected = responses[: len(valid)], responses[len(valid) :]

        # rejections are structured errors, not exceptions and not blanks
        assert [r.error for r in rejected] == [ERROR_DEADLINE] * len(doomed)
        assert all(not r.ok and r.output == "" and r.detail for r in rejected)

        # answered responses are bitwise-equal to the synchronous pipeline
        sync = _pipeline(small_pool, nvbench).serve(valid)
        assert [_comparable(r) for r in answered] == [_comparable(r) for r in sync]
        assert all(r.ok for r in answered)

        # accounting adds up: everything submitted is either completed or rejected
        counts = stats["requests"]
        assert counts["submitted"] == len(valid) + len(doomed)
        assert counts["completed"] == len(valid)
        assert counts["rejected"]["deadline_exceeded"] == len(doomed)
        assert counts["cache_hits"] + counts["coalesced"] > 0
        assert stats["batches"]["count"] > 0
        assert 0 < stats["batches"]["mean_padding_efficiency"] <= 1

    def test_telemetry_attached_per_request(self, small_pool, nvbench):
        requests = _mixed_requests(small_pool, nvbench, 12)

        async def drive():
            server = Server(_pipeline(small_pool, nvbench), ServerConfig(max_batch=4, num_workers=2))
            async with server:
                return await server.submit_all(requests)

        responses = asyncio.run(drive())
        for response in responses:
            assert response.telemetry is not None
            if not response.telemetry["cache_hit"] and not response.telemetry["coalesced"]:
                assert response.telemetry["queue_ms"] >= 0
                assert response.telemetry["batch_size"] >= 1
                assert response.telemetry["worker"] in (0, 1)


# -- admission control ------------------------------------------------------------------


class TestAdmissionControl:
    def test_queue_full_rejections_are_structured(self, small_pool, nvbench):
        pipeline = Pipeline(vis_to_text=_SlowCaption(0.02))
        requests = [
            Request(task="vis_to_text", chart=example.query)
            for example in nvbench.examples[:10]
        ]

        async def drive():
            server = Server(pipeline, ServerConfig(max_batch=2, queue_size=2, num_workers=1))
            async with server:
                return await server.submit_all(requests), server.stats()

        responses, stats = asyncio.run(drive())
        completed = [r for r in responses if r.ok]
        rejected = [r for r in responses if not r.ok]
        assert len(completed) + len(rejected) == len(requests)
        assert completed and rejected
        assert all(r.error == ERROR_QUEUE_FULL for r in rejected)
        assert stats["requests"]["rejected"]["queue_full"] == len(rejected)

    def test_deadline_expires_while_queued(self, small_pool, nvbench):
        pipeline = Pipeline(vis_to_text=_SlowCaption(0.08))
        first, second = (
            Request(task="vis_to_text", chart=example.query) for example in nvbench.examples[:2]
        )

        async def drive():
            server = Server(pipeline, ServerConfig(max_batch=1, max_wait_ms=0.0, queue_size=8, num_workers=1))
            async with server:
                blocker = asyncio.create_task(server.submit(first))
                await asyncio.sleep(0.01)  # let the blocker reach the worker
                doomed = await server.submit(second, deadline=0.02)
                ok = await blocker
            return ok, doomed

        ok, doomed = asyncio.run(drive())
        assert ok.ok
        assert doomed.error == ERROR_DEADLINE
        assert "deadline" in doomed.detail

    def test_non_positive_deadline_rejected_immediately(self, small_pool, nvbench):
        pipeline = _pipeline(small_pool, nvbench)
        request = Request(task="vis_to_text", chart=nvbench.examples[0].query)

        async def drive():
            async with Server(pipeline) as server:
                return await server.submit(request, deadline=0)

        assert asyncio.run(drive()).error == ERROR_DEADLINE

    def test_submit_after_stop_rejected(self, small_pool, nvbench):
        pipeline = _pipeline(small_pool, nvbench)
        request = Request(task="vis_to_text", chart=nvbench.examples[0].query)

        async def drive():
            server = Server(pipeline)
            async with server:
                inside = await server.submit(request)
            after = await server.submit(request)
            # a stopped server is single-use: restarting raises rather than
            # silently reviving queues without collectors
            try:
                await server.start()
                restarted = None
            except ModelConfigError as error:
                restarted = error
            return inside, after, restarted

        inside, after, restarted = asyncio.run(drive())
        assert inside.ok
        assert after.error == ERROR_SHUTDOWN
        assert after.telemetry is not None and not after.telemetry["cache_hit"]
        assert restarted is not None

    def test_unpreparable_request_is_structured_not_raised(self, small_pool, nvbench):
        # a rule-based text-to-vis backend cannot consume encoded schema text;
        # the synchronous strict path raises, the server answers with an error
        pipeline = _pipeline(small_pool, nvbench)
        request = Request(task="text_to_vis", question="show me a chart", schema="| db | t : t.c")

        async def drive():
            async with Server(pipeline) as server:
                return await server.submit(request)

        response = asyncio.run(drive())
        assert response.error == ERROR_INVALID_REQUEST
        assert "DatabaseSchema" in response.detail

    def test_unconfigured_task_is_structured_not_raised(self, small_pool, nvbench):
        pipeline = Pipeline.from_config({"vis_to_text": {"type": "heuristics"}})
        schema = small_pool.get(nvbench.examples[0].db_id).schema

        async def drive():
            async with Server(pipeline) as server:
                return await server.submit(
                    Request(task="text_to_vis", question="show me a chart", schema=schema)
                )

        response = asyncio.run(drive())
        assert response.error == ERROR_INVALID_REQUEST
        assert "no backend configured" in response.detail


# -- failure containment and coalescing ---------------------------------------------------


class TestFailureContainment:
    def test_backend_exception_becomes_error_response_and_loop_survives(self, small_pool, nvbench):
        exploding = Pipeline(vis_to_text=_ExplodingCaption(), fevisqa=GENERATION_BASELINES["heuristics"]())
        chart = nvbench.examples[0].query

        async def drive():
            async with Server(exploding, ServerConfig(max_batch=2)) as server:
                broken = await server.submit(Request(task="vis_to_text", chart=chart))
                # the loop and workers are still alive for other tasks
                alive = await server.submit(
                    Request(task="fevisqa", question="What type is this chart ?", chart=chart)
                )
            return broken, alive, server.stats()

        broken, alive, stats = asyncio.run(drive())
        assert broken.error == ERROR_BACKEND
        assert "exploded" in broken.detail
        assert alive.ok
        assert stats["requests"]["failed"]["backend_error"] == 1

    def test_concurrent_duplicates_coalesce_onto_one_forward_pass(self, small_pool, nvbench):
        pipeline = Pipeline(vis_to_text=_SlowCaption(0.02))
        request = Request(task="vis_to_text", chart=nvbench.examples[0].query)

        async def drive():
            server = Server(pipeline, ServerConfig(max_batch=8, queue_size=16, num_workers=1))
            async with server:
                responses = await asyncio.gather(*(server.submit(request) for _ in range(5)))
            return responses, server.stats()

        responses, stats = asyncio.run(drive())
        assert all(r.ok for r in responses)
        assert len({r.output for r in responses}) == 1
        assert stats["requests"]["coalesced"] == 4
        # exactly one request reached a worker, in a batch of one
        assert stats["batches"]["count"] == 1
        assert stats["batches"]["mean_size"] == 1
        assert sum(1 for r in responses if not r.cached) == 1


# -- the flush policy ---------------------------------------------------------------------


class TestBatchWindow:
    def test_size_trigger(self):
        window = BatchWindow(max_batch=4, max_wait_ms=1000.0)
        assert not window.should_flush(3, opened_at=0.0, now=0.0)
        assert window.should_flush(4, opened_at=0.0, now=0.0)

    def test_time_trigger(self):
        window = BatchWindow(max_batch=100, max_wait_ms=5.0)
        assert not window.should_flush(1, opened_at=0.0, now=0.004)
        assert window.should_flush(1, opened_at=0.0, now=0.005)
        assert window.remaining_wait(opened_at=0.0, now=0.002) == pytest.approx(0.003)
        assert window.remaining_wait(opened_at=0.0, now=0.009) == 0.0

    def test_validation(self):
        with pytest.raises(ModelConfigError):
            BatchWindow(max_batch=0)
        with pytest.raises(ModelConfigError):
            BatchWindow(max_batch=1, max_wait_ms=-1.0)
        with pytest.raises(ModelConfigError):
            ServerConfig(num_workers=0)
        with pytest.raises(ModelConfigError):
            ServerConfig(queue_size=0)


class TestStatsSnapshotCost:
    """``Server.stats()`` must stay a targeted-copy snapshot, not a blanket deepcopy."""

    def test_allocation_is_bounded_at_10k_deployments(self):
        import tracemalloc

        from repro.serving import server as server_module

        pipeline_stub = type("PipelineStub", (), {"stats": lambda self: {}})()
        srv = Server(pipeline_stub)  # type: ignore[arg-type]
        for index in range(10_000):
            name = f"viz@{index}"
            srv._gateway.deployments[name] = server_module._Deployment(name, pipeline_stub)
        tracemalloc.start()
        snapshot = srv.stats()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Measured ~7 MB for the snapshot itself; a blanket deepcopy pass
        # over the result roughly doubles that (~15 MB peak).  10 MB gives
        # headroom over the former and fails on the latter.
        assert peak < 10 * 1024 * 1024, f"stats() peak allocation {peak / 1e6:.1f} MB"
        assert len(snapshot["deployments"]) == 10_001  # 10k + the default deployment

    def test_snapshot_is_detached_from_live_state(self):
        from repro.serving.server import DEFAULT_DEPLOYMENT

        pipeline_stub = type("PipelineStub", (), {"stats": lambda self: {}})()
        srv = Server(pipeline_stub)  # type: ignore[arg-type]
        srv._gateway.rollbacks.append({"deployment": "viz@1", "reason": "canary"})
        snapshot = srv.stats()
        snapshot["requests"]["submitted"] = 999
        snapshot["deployments"][DEFAULT_DEPLOYMENT]["requests"]["completed"] = 999
        snapshot["rollbacks"][0]["reason"] = "mutated"
        snapshot["rollbacks"].append({"x": 1})
        assert srv._gateway.counts["submitted"] == 0
        assert srv._gateway.deployments[DEFAULT_DEPLOYMENT].counts["completed"] == 0
        assert srv._gateway.rollbacks == [{"deployment": "viz@1", "reason": "canary"}]
