"""Tests for the Server's deployment lifecycle (``repro.deploy`` + server).

The headline properties: a hot-swap under concurrent traffic drops nothing
and keeps incumbent responses bitwise-identical; canary routing is
deterministic per request key; response caches are namespaced per
deployment identity (and weight revision) so versions never answer for each
other; shadow traffic records agreement without ever touching the caller's
response; and a forced-unhealthy canary auto-reverts.  Backends are fast
rule-based baselines so the suite exercises scheduling, not matrix math.
"""

from __future__ import annotations

import asyncio
import time

import pytest

import repro
from repro.baselines import GENERATION_BASELINES
from repro.datasets import generate_nvbench
from repro.deploy import DeploymentManifest
from repro.errors import ModelConfigError
from repro.serving import (
    DEFAULT_DEPLOYMENT,
    ERROR_BACKEND,
    ERROR_INVALID_REQUEST,
    Pipeline,
    Request,
    Server,
    ServerConfig,
)


# -- fixtures and helpers ----------------------------------------------------------------


@pytest.fixture(scope="module")
def nvbench(small_pool):
    return generate_nvbench(small_pool, examples_per_database=6, seed=0)


class _TaggedCaption(GENERATION_BASELINES["heuristics"]):
    """A heuristics captioner whose outputs carry a version marker."""

    def __init__(self, tag: str):
        super().__init__()
        self.tag = tag

    def predict_many(self, sources):
        return [f"{output} [{self.tag}]" for output in super().predict_many(sources)]


class _SlowCaption(GENERATION_BASELINES["heuristics"]):
    """A captioner that burns wall-clock per batch (worker-side)."""

    def __init__(self, delay: float = 0.03):
        super().__init__()
        self.delay = delay

    def predict_many(self, sources):
        time.sleep(self.delay)
        return super().predict_many(sources)


class _ExplodingCaption(GENERATION_BASELINES["heuristics"]):
    def predict_many(self, sources):
        raise ModelConfigError("canary exploded")


def _primary() -> Pipeline:
    backend = GENERATION_BASELINES["heuristics"]()
    return Pipeline(vis_to_text=backend, fevisqa=backend)


def _candidate(backend) -> Pipeline:
    return Pipeline(vis_to_text=backend, fevisqa=backend)


def _chart_requests(nvbench, count: int) -> list[Request]:
    """``count`` unique vis_to_text requests over the nvbench charts."""
    examples = nvbench.examples
    return [
        Request(task="vis_to_text", chart=examples[index % len(examples)].query, request_id=f"r{index}")
        for index in range(min(count, len(examples)))
    ]


def _question_requests(count: int, chart, salt: str = "") -> list[Request]:
    """``count`` unique fevisqa requests (distinct questions, shared chart)."""
    return [
        Request(task="fevisqa", question=f"how many {salt} parts in group {index} ?", chart=chart)
        for index in range(count)
    ]


def _run(coro):
    return asyncio.run(coro)


# -- routing -----------------------------------------------------------------------------


class TestDeployRouting:
    def test_routed_traffic_lands_on_the_deployed_version(self, nvbench):
        requests = _chart_requests(nvbench, 12)

        async def drive():
            async with Server(_primary(), ServerConfig(max_batch=4)) as server:
                await server.deploy("captioner@2", _candidate(_TaggedCaption("v2")))
                server.set_routes("vis_to_text", {"captioner@2": 1.0})
                responses = await server.submit_all(requests)
            return responses, server.stats()

        responses, stats = _run(drive())
        assert all(response.ok for response in responses)
        assert all(response.output.endswith("[v2]") for response in responses)
        assert all(response.telemetry["deployment"] == "captioner@2" for response in responses)
        deployed = stats["deployments"]["captioner@2"]["requests"]
        assert deployed["routed"] == len(requests)
        assert deployed["completed"] == len(requests)

    def test_unrouted_tasks_stay_on_the_primary(self, nvbench):
        chart = nvbench.examples[0].query

        async def drive():
            async with Server(_primary()) as server:
                await server.deploy("captioner@2", _candidate(_TaggedCaption("v2")))
                server.set_routes("vis_to_text", {"captioner@2": 1.0})
                return await server.submit(Request(task="fevisqa", question="how many ?", chart=chart))

        response = _run(drive())
        assert response.ok
        assert response.telemetry["deployment"] == DEFAULT_DEPLOYMENT
        assert "[v2]" not in response.output

    def test_pinned_requests_bypass_the_canary_split(self, nvbench):
        chart = nvbench.examples[0].query

        async def drive():
            async with Server(_primary()) as server:
                await server.deploy("captioner@2", _candidate(_TaggedCaption("v2")))
                # no routes at all: only the pin reaches the candidate
                pinned = await server.submit(
                    Request(task="vis_to_text", chart=chart, deployment="captioner@2")
                )
                unpinned = await server.submit(Request(task="vis_to_text", chart=chart))
                unknown = await server.submit(
                    Request(task="vis_to_text", chart=chart, deployment="ghost@9")
                )
            return pinned, unpinned, unknown

        pinned, unpinned, unknown = _run(drive())
        assert pinned.ok and pinned.output.endswith("[v2]")
        assert pinned.telemetry["deployment"] == "captioner@2"
        assert unpinned.ok and not unpinned.output.endswith("[v2]")
        assert unknown.error == ERROR_INVALID_REQUEST
        assert "ghost@9" in unknown.detail

    def test_canary_split_is_deterministic_per_request_key(self, nvbench):
        requests = _question_requests(40, nvbench.examples[0].query)

        async def drive():
            async with Server(_primary(), ServerConfig(max_batch=4)) as server:
                await server.deploy("candidate@1", _candidate(_TaggedCaption("v2")))
                server.set_canary("fevisqa", DEFAULT_DEPLOYMENT, "candidate@1", 0.5)
                first = await server.submit_all(requests)
                second = await server.submit_all(requests)  # the retries
            return first, second

        first, second = _run(drive())
        assignments = [response.telemetry["deployment"] for response in first]
        assert set(assignments) == {DEFAULT_DEPLOYMENT, "candidate@1"}  # both sides got traffic
        # every retry lands on the version that served it the first time
        assert [response.telemetry["deployment"] for response in second] == assignments
        assert all(response.telemetry["cache_hit"] for response in second)

    def test_response_caches_are_namespaced_per_deployment(self, nvbench):
        request = Request(task="vis_to_text", chart=nvbench.examples[0].query)

        async def drive():
            async with Server(_primary()) as server:
                incumbent = await server.submit(request)
                await server.deploy("captioner@2", _candidate(_TaggedCaption("v2")))
                server.set_routes("vis_to_text", {"captioner@2": 1.0})
                candidate = await server.submit(request)
                server.clear_routes("vis_to_text")
                replay = await server.submit(request)
            return incumbent, candidate, replay

        incumbent, candidate, replay = _run(drive())
        # the candidate neither replays the incumbent's cached output...
        assert not candidate.cached
        assert candidate.output.endswith("[v2]")
        # ...nor poisons the incumbent's cache entry
        assert replay.cached
        assert replay.output == incumbent.output

    def test_route_validation(self, nvbench):
        async def drive():
            async with Server(_primary()) as server:
                with pytest.raises(ModelConfigError, match="unknown deployment"):
                    server.set_routes("vis_to_text", {"ghost@1": 1.0})
                with pytest.raises(ModelConfigError, match="unknown task"):
                    server.set_routes("table_to_text", {DEFAULT_DEPLOYMENT: 1.0})
                with pytest.raises(ModelConfigError, match="no backend configured"):
                    server.set_routes("text_to_vis", {DEFAULT_DEPLOYMENT: 1.0})
                await server.deploy("captioner@2", Pipeline(vis_to_text=_TaggedCaption("v2")))
                with pytest.raises(ModelConfigError, match="does not serve"):
                    server.set_routes("fevisqa", {"captioner@2": 1.0})

        _run(drive())

    def test_deploy_validation(self, nvbench):
        async def drive():
            async with Server(_primary()) as server:
                with pytest.raises(ModelConfigError, match="versioned"):
                    await server.deploy("unversioned", _candidate(_TaggedCaption("x")))
                await server.deploy("captioner@2", _candidate(_TaggedCaption("x")))
                with pytest.raises(ModelConfigError, match="already deployed"):
                    await server.deploy("captioner@2", _candidate(_TaggedCaption("x")))
                with pytest.raises(ModelConfigError, match="does not match"):
                    await server.deploy(
                        "captioner@3",
                        _candidate(_TaggedCaption("x")),
                        manifest=DeploymentManifest(
                            name="captioner", version=4, tasks=("vis_to_text",),
                            backends={"vis_to_text": {"type": "heuristics"}},
                        ),
                    )
                with pytest.raises(ModelConfigError, match="cannot be undeployed"):
                    await server.undeploy(DEFAULT_DEPLOYMENT)

        _run(drive())

    def test_manifest_is_echoed_in_stats(self, nvbench):
        manifest = DeploymentManifest(
            name="captioner",
            version=2,
            tasks=("vis_to_text",),
            backends={"vis_to_text": {"type": "heuristics"}},
        )

        async def drive():
            async with Server(_primary()) as server:
                await server.deploy("captioner@2", Pipeline(vis_to_text=_TaggedCaption("v2")), manifest=manifest)
                return server.stats()

        stats = _run(drive())
        assert stats["deployments"]["captioner@2"]["manifest"] == manifest.as_dict()
        assert stats["version"] == repro.__version__


# -- hot swap and drain ------------------------------------------------------------------


class TestHotSwap:
    def test_hot_swap_under_concurrent_load_drops_nothing(self, nvbench):
        requests = _question_requests(60, nvbench.examples[0].query)

        async def drive():
            server = Server(_primary(), ServerConfig(max_batch=4, queue_size=256))
            async with server:
                pending = [asyncio.create_task(server.submit(request)) for request in requests[:30]]
                await asyncio.sleep(0)  # let the first wave start queueing
                swap_seconds = await server.hot_swap("incumbent@2", _primary())
                pending += [asyncio.create_task(server.submit(request)) for request in requests[30:]]
                responses = await asyncio.gather(*pending)
            return responses, swap_seconds, server.stats()

        responses, swap_seconds, stats = _run(drive())
        # zero dropped, zero errored
        assert len(responses) == len(requests)
        assert all(response.ok for response in responses)
        # weight-identical versions: outputs bitwise-equal across the flip
        sync = _primary().serve(requests)
        assert [response.output for response in responses] == [response.output for response in sync]
        # traffic actually flipped
        served_by = {response.telemetry["deployment"] for response in responses}
        assert "incumbent@2" in served_by
        assert swap_seconds >= 0.0
        assert stats["routes"]["fevisqa"]["weights"] == {"incumbent@2": 1.0}

    def test_post_swap_traffic_lands_on_the_new_version(self, nvbench):
        chart = nvbench.examples[0].query

        async def drive():
            async with Server(_primary()) as server:
                await server.hot_swap("tagged@2", _candidate(_TaggedCaption("v2")))
                return await server.submit(Request(task="vis_to_text", chart=chart))

        response = _run(drive())
        assert response.ok
        assert response.telemetry["deployment"] == "tagged@2"
        assert response.output.endswith("[v2]")

    def test_hot_swap_retires_the_version_it_replaces(self, nvbench):
        probes = _question_requests(8, nvbench.examples[0].query, salt="probe")

        async def drive():
            async with Server(_primary()) as server:
                await server.deploy("incumbent@1", _primary())
                server.set_routes("fevisqa", {"incumbent@1": 1.0})
                before = await server.submit_all(probes)
                await server.hot_swap("incumbent@2", _primary(), replaces="incumbent@1")
                after = await server.submit_all(probes)
            return before, after, server.stats()

        before, after, stats = _run(drive())
        assert "incumbent@1" not in stats["deployments"]  # drained and retired
        assert all(response.telemetry["deployment"] == "incumbent@2" for response in after)
        # fresh computes in the new version's cache namespace, not replays —
        # and still bitwise-equal to what the incumbent answered
        assert not any(response.cached for response in after)
        assert [response.output for response in after] == [response.output for response in before]

    def test_undeploy_drains_inflight_work(self, nvbench):
        requests = _question_requests(10, nvbench.examples[0].query)

        async def drive():
            config = ServerConfig(max_batch=2, max_wait_ms=0.0, queue_size=64, num_workers=1)
            async with Server(_primary(), config) as server:
                await server.deploy("slow@1", _candidate(_SlowCaption(0.02)))
                server.set_routes("fevisqa", {"slow@1": 1.0})
                pending = [asyncio.create_task(server.submit(request)) for request in requests]
                await asyncio.sleep(0.01)  # some batches reach the worker
                await server.undeploy("slow@1")
                responses = await asyncio.gather(*pending)
                after = await server.submit(
                    Request(task="fevisqa", question="after the drain ?", chart=requests[0].chart)
                )
            return responses, after, server.stats()

        responses, after, stats = _run(drive())
        # every request admitted before the undeploy was answered, none dropped
        assert all(response.ok for response in responses)
        assert all(response.telemetry["deployment"] == "slow@1" for response in responses)
        # the version is gone and traffic is back on the primary
        assert "slow@1" not in stats["deployments"]
        assert after.ok and after.telemetry["deployment"] == DEFAULT_DEPLOYMENT

    def test_set_weights_bumps_revision_and_renamespaces_the_cache(self, nvbench):
        request = Request(task="vis_to_text", chart=nvbench.examples[0].query)

        async def drive():
            async with Server(_primary()) as server:
                first = await server.submit(request)
                warmed = await server.submit(request)
                await server.set_weights(DEFAULT_DEPLOYMENT, _candidate(_TaggedCaption("v2")))
                swapped = await server.submit(request)
                swapped_again = await server.submit(request)
            return first, warmed, swapped, swapped_again, server.stats()

        first, warmed, swapped, swapped_again, stats = _run(drive())
        assert not first.cached and warmed.cached
        # new weights, new namespace: the old entry is not replayed...
        assert not swapped.cached
        assert swapped.output.endswith("[v2]")
        # ...and the new revision caches independently
        assert swapped_again.cached and swapped_again.output == swapped.output
        assert stats["deployments"][DEFAULT_DEPLOYMENT]["revision"] == 1

    def test_queued_job_never_caches_under_the_old_revision_namespace(self, nvbench):
        # A request admitted at revision 0 that out-waits a set_weights() is
        # answered (possibly by the new weights) but must not write the
        # response cache: its key is the bare revision-0 namespace shared
        # with synchronous pipeline callers, and a new-weight output there
        # would poison them.
        blocker = Request(task="vis_to_text", chart=nvbench.examples[0].query)
        victim = Request(task="vis_to_text", chart=nvbench.examples[1].query)
        pipeline = Pipeline(vis_to_text=_SlowCaption(0.05))

        async def drive():
            config = ServerConfig(max_batch=1, max_wait_ms=0.0, num_workers=1)
            async with Server(pipeline, config) as server:
                blocking = asyncio.create_task(server.submit(blocker))
                await asyncio.sleep(0.01)  # blocker occupies the only worker
                victim_task = asyncio.create_task(server.submit(victim))
                await asyncio.sleep(0.01)  # victim is queued, not yet dispatched
                await server.set_weights(DEFAULT_DEPLOYMENT, _candidate(_TaggedCaption("v2")))
                return await asyncio.gather(blocking, victim_task)

        responses = _run(drive())
        assert all(response.ok for response in responses)
        # the shared revision-0 cache entry was never written: a synchronous
        # caller on the same pipeline computes fresh, with the old backend
        replay = pipeline.submit(victim)
        assert not replay.cached
        assert not replay.output.endswith("[v2]")

    def test_set_weights_must_keep_the_task_surface(self, nvbench):
        async def drive():
            async with Server(_primary()) as server:
                with pytest.raises(ModelConfigError, match="drop served tasks"):
                    await server.set_weights(DEFAULT_DEPLOYMENT, Pipeline(vis_to_text=_TaggedCaption("x")))

        _run(drive())


# -- shadow traffic ----------------------------------------------------------------------


class TestShadowTraffic:
    def test_shadow_records_agreement_without_touching_responses(self, nvbench):
        requests = _question_requests(16, nvbench.examples[0].query)

        async def drive():
            async with Server(_primary(), ServerConfig(max_batch=4)) as server:
                await server.deploy("candidate@1", _primary())
                server.set_shadow("fevisqa", "candidate@1", 1.0)
                responses = await server.submit_all(requests)
            return responses, server.stats()

        responses, stats = _run(drive())
        assert all(response.ok for response in responses)
        assert all(response.telemetry["deployment"] == DEFAULT_DEPLOYMENT for response in responses)
        bucket = stats["shadow"][f"{DEFAULT_DEPLOYMENT}->candidate@1"]
        assert bucket["samples"] == len(requests)
        assert bucket["agreement_rate"] == 1.0  # weight-identical candidate
        assert stats["deployments"]["candidate@1"]["requests"]["shadow_requests"] == len(requests)

    def test_shadow_disagreement_is_measured(self, nvbench):
        requests = _question_requests(8, nvbench.examples[0].query, salt="divergent")

        async def drive():
            async with Server(_primary()) as server:
                await server.deploy("candidate@1", _candidate(_TaggedCaption("v2")))
                server.set_shadow("fevisqa", "candidate@1", 1.0)
                responses = await server.submit_all(requests)
            return responses, server.stats()

        responses, stats = _run(drive())
        assert all(not response.output.endswith("[v2]") for response in responses)
        bucket = stats["shadow"][f"{DEFAULT_DEPLOYMENT}->candidate@1"]
        assert bucket["samples"] == len(requests)
        assert bucket["agreement_rate"] == 0.0

    def test_exploding_shadow_never_affects_the_caller(self, nvbench):
        requests = _question_requests(6, nvbench.examples[0].query, salt="explosive")

        async def drive():
            async with Server(_primary()) as server:
                await server.deploy("candidate@1", _candidate(_ExplodingCaption()))
                server.set_shadow("fevisqa", "candidate@1", 1.0)
                responses = await server.submit_all(requests)
            return responses, server.stats()

        responses, stats = _run(drive())
        assert all(response.ok for response in responses)
        bucket = stats["shadow"][f"{DEFAULT_DEPLOYMENT}->candidate@1"]
        assert bucket["shadow_errors"] == len(requests)
        assert bucket["primary_errors"] == 0  # the incumbent never failed
        assert bucket["samples"] == 0


# -- canary health gating ----------------------------------------------------------------


class TestCanaryAutoRevert:
    def test_forced_unhealthy_canary_auto_reverts(self, nvbench):
        chart = nvbench.examples[0].query
        requests = _question_requests(30, chart, salt="unhealthy")

        async def drive():
            async with Server(_primary(), ServerConfig(max_batch=2)) as server:
                await server.deploy("broken@1", _candidate(_ExplodingCaption()))
                server.set_canary(
                    "fevisqa", DEFAULT_DEPLOYMENT, "broken@1", 0.5,
                    max_error_rate=0.2, min_requests=3,
                )
                during = await server.submit_all(requests)
                aftermath = await server.submit_all(
                    _question_requests(10, chart, salt="post-revert")
                )
            return during, aftermath, server.stats()

        during, aftermath, stats = _run(drive())
        # the canary really was unhealthy: its share of the split errored
        assert any(response.error == ERROR_BACKEND for response in during)
        # the guard fired: the canary is out of every route...
        assert stats["routes"].get("fevisqa", {}).get("weights", {}).get("broken@1") is None
        rollbacks = stats["rollbacks"]
        assert len(rollbacks) == 1
        assert rollbacks[0]["deployment"] == "broken@1"
        assert rollbacks[0]["error_rate"] > 0.2
        # ...and the task is healthy again on the stable version
        assert all(response.ok for response in aftermath)
        assert all(
            response.telemetry["deployment"] == DEFAULT_DEPLOYMENT for response in aftermath
        )

    def test_guard_judges_only_traffic_since_install(self, nvbench):
        # A deployment with an ugly history (here: every request errored)
        # that has since been fixed must not be insta-reverted by its old
        # counters when it is later promoted to a guarded canary.
        chart = nvbench.examples[0].query

        async def drive():
            async with Server(_primary(), ServerConfig(max_batch=2)) as server:
                await server.deploy("flaky@1", _candidate(_ExplodingCaption()))
                server.set_routes("fevisqa", {"flaky@1": 1.0})
                history = await server.submit_all(_question_requests(8, chart, salt="dark-past"))
                server.clear_routes("fevisqa")
                await server.set_weights("flaky@1", _primary())  # fixed build
                server.set_canary(
                    "fevisqa", DEFAULT_DEPLOYMENT, "flaky@1", 0.5,
                    max_error_rate=0.2, min_requests=3,
                )
                redemption = await server.submit_all(
                    _question_requests(20, chart, salt="clean-present")
                )
            return history, redemption, server.stats()

        history, redemption, stats = _run(drive())
        assert all(response.error == ERROR_BACKEND for response in history)
        assert all(response.ok for response in redemption)
        assert stats["rollbacks"] == []  # the past is not held against it
        assert "flaky@1" in stats["routes"]["fevisqa"]["weights"]

    def test_guard_is_dropped_when_routes_move_on(self, nvbench):
        async def drive():
            async with Server(_primary()) as server:
                await server.deploy("candidate@1", _primary())
                server.set_canary(
                    "fevisqa", DEFAULT_DEPLOYMENT, "candidate@1", 0.5,
                    max_error_rate=0.2, min_requests=3,
                )
                assert "candidate@1" in server._gateway.guards
                server.clear_routes("fevisqa")
                return dict(server._gateway.guards)

        assert _run(drive()) == {}

    def test_healthy_canary_is_left_alone(self, nvbench):
        requests = _question_requests(20, nvbench.examples[0].query, salt="healthy")

        async def drive():
            async with Server(_primary()) as server:
                await server.deploy("fine@1", _primary())
                server.set_canary(
                    "fevisqa", DEFAULT_DEPLOYMENT, "fine@1", 0.5,
                    max_error_rate=0.2, min_requests=3,
                )
                responses = await server.submit_all(requests)
            return responses, server.stats()

        responses, stats = _run(drive())
        assert all(response.ok for response in responses)
        assert stats["rollbacks"] == []
        assert "fine@1" in stats["routes"]["fevisqa"]["weights"]


# -- observability -----------------------------------------------------------------------


class TestStatsSnapshot:
    def test_stats_snapshot_is_deep_copied(self, nvbench):
        request = Request(task="vis_to_text", chart=nvbench.examples[0].query)

        async def drive():
            async with Server(_primary()) as server:
                await server.submit(request)
                snapshot = server.stats()
                # vandalize every level of the returned structure
                snapshot["requests"]["submitted"] = -999
                snapshot["requests"]["rejected"]["queue_full"] = -999
                snapshot["batches"]["per_worker"].clear()
                snapshot["deployments"][DEFAULT_DEPLOYMENT]["requests"]["routed"] = -999
                snapshot["pipeline"]["caches"]["response"]["hits"] = -999
                snapshot["rollbacks"].append({"fake": True})
                return server.stats()

        fresh = _run(drive())
        assert fresh["requests"]["submitted"] == 1
        assert fresh["requests"]["rejected"]["queue_full"] == 0
        assert fresh["deployments"][DEFAULT_DEPLOYMENT]["requests"]["routed"] == 1
        assert fresh["rollbacks"] == []

    def test_per_deployment_accounting_is_consistent(self, nvbench):
        requests = _question_requests(12, nvbench.examples[0].query, salt="ledger")

        async def drive():
            async with Server(_primary(), ServerConfig(max_batch=4)) as server:
                await server.deploy("candidate@1", _primary())
                server.set_canary("fevisqa", DEFAULT_DEPLOYMENT, "candidate@1", 0.4)
                await server.submit_all(requests)
                await server.submit_all(requests)  # cache-hit round
            return server.stats()

        stats = _run(drive())
        totals = {"routed": 0, "completed": 0, "cache_hits": 0}
        for entry in stats["deployments"].values():
            for key in totals:
                totals[key] += entry["requests"][key]
        assert totals["routed"] == len(requests)
        assert totals["completed"] == len(requests)
        assert totals["cache_hits"] == len(requests)
