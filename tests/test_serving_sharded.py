"""Differential tests: the sharded tier is output-equivalent to the sync pipeline.

The process-sharded gateway forks worker processes, consistent-hashes
requests across them, coalesces duplicates, caches responses and composes
the deploy router's pinning rules — and none of that may be observable in
the responses.  For any mix of tasks, exact duplicates, deployment-pinned
requests and repeat (cached) traffic, ``ShardedServer.serve`` must return
the same responses as ``Pipeline.serve`` on the same checkpoint: same
output text, query AST, vega-lite spec, validity verdict, error code,
``cached`` flag and request id, in the same order.  Shard count is a pure
throughput knob (telemetry, which carries shard identity, is excluded from
``Response.__eq__`` by design).
"""

from __future__ import annotations

import asyncio
import copy
import os
import threading
import time
from dataclasses import replace

import pytest

from repro import obs
from repro.deploy import ModelRegistry
from repro.deploy.router import Router
from repro.errors import ModelConfigError
from repro.obs.names import METRIC_ARENA_PAGES_IN_USE, METRIC_GATEWAY_PLACEMENTS_DIVERTED_TOTAL
from repro.serving import Request, Response, ShardConfig, ShardedServer, assemble_stream, request_to_wire
from repro.serving.transport import encode_frame

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def env(serving_model_env, tmp_path_factory) -> dict:
    tmp = tmp_path_factory.mktemp("sharded-eq")
    registry = ModelRegistry(tmp / "registry.json")
    registry.register_checkpoint("viz", serving_model_env["model"], tmp / "ckpt-v1")
    return {**serving_model_env, "registry": registry, "registry_path": tmp / "registry.json"}


def build_requests(env) -> list[Request]:
    """200+ mixed-task requests: all three tasks, ids, pins and duplicates."""
    pool, nvbench = env["pool"], env["nvbench"]
    requests: list[Request] = []
    for index, example in enumerate(nvbench.examples):
        schema = pool.get(example.db_id).schema
        requests.append(Request(task="text_to_vis", question=example.question, schema=schema))
        requests.append(Request(task="vis_to_text", chart=example.query, schema=schema))
        requests.append(
            Request(
                task="fevisqa",
                question="how many bars are there ?",
                chart=example.query,
                schema=schema,
            )
        )
        requests.append(
            Request(
                task="fevisqa",
                question=f"is group {index} the largest ?",
                chart=example.query,
                schema=schema,
            )
        )
        requests.append(
            Request(
                task="fevisqa",
                question=f"does series {index} trend upward ?",
                chart=example.query,
                schema=schema,
                request_id=f"req-{index}",
            )
        )
        requests.append(
            Request(
                task="fevisqa",
                question=f"which category ranks second in chart {index} ?",
                chart=example.query,
                schema=schema,
            )
        )
    # Deployment-pinned repeats of earlier requests: an explicit version pin
    # and a bare-name pin (resolved to the highest registered version).
    for example in nvbench.examples[:8]:
        schema = pool.get(example.db_id).schema
        requests.append(
            Request(task="text_to_vis", question=example.question, schema=schema, deployment="viz@1")
        )
        requests.append(
            Request(task="text_to_vis", question=example.question, schema=schema, deployment="viz")
        )
    # Duplicate storm: exact repeats must hit the cache/coalescing path on
    # the sharded tier and the pipeline's LRU on the sync tier — same flags.
    requests.extend(requests[:45])
    return requests


@pytest.fixture(scope="module")
def baseline(env) -> tuple[list[Request], list]:
    requests = build_requests(env)
    sync = env["registry"].build_pipeline("viz@1").serve(list(requests), strict=False)
    return requests, sync


class TestEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_sharded_matches_sync_pipeline(self, env, baseline, num_shards):
        requests, sync = baseline
        assert len(requests) >= 200
        with ShardedServer(env["registry_path"], "viz@1", ShardConfig(num_shards=num_shards)) as server:
            out = server.serve(list(requests))
            stats = server.stats()
        assert len(out) == len(sync)
        mismatches = [index for index, (a, b) in enumerate(zip(sync, out)) if a != b]
        assert mismatches == [], f"first mismatch at {mismatches[0]}: {sync[mismatches[0]]!r} vs {out[mismatches[0]]!r}"
        assert [r.cached for r in out] == [r.cached for r in sync]
        assert [r.request_id for r in out] == [r.request_id for r in sync]
        assert [r.error for r in out] == [r.error for r in sync]
        assert stats["requests"]["submitted"] == len(requests)
        assert stats["requests"]["completed"] == len(requests)
        assert sum(stats["requests"]["failed"].values()) == 0
        assert sum(stats["requests"]["rejected"].values()) == 0
        assert stats["restarts"] == 0  # happy path: nobody died

    def test_work_spreads_across_shards(self, env, baseline):
        requests, _ = baseline
        with ShardedServer(env["registry_path"], "viz@1", ShardConfig(num_shards=2)) as server:
            server.serve(list(requests))
            stats = server.stats()
        dispatched = {name: shard["dispatched"] for name, shard in stats["shards"].items()}
        assert all(count > 0 for count in dispatched.values()), dispatched

    def test_repeat_traffic_is_served_from_the_gateway_cache(self, env, baseline):
        requests, sync = baseline
        subset = requests[:20]
        with ShardedServer(env["registry_path"], "viz@1", ShardConfig(num_shards=2)) as server:
            first = server.serve(list(subset))
            second = server.serve(list(subset))
            stats = server.stats()
        assert all(response.cached for response in second)
        assert [r.output for r in second] == [r.output for r in first]
        assert [r.output for r in second] == [r.output for r in sync[: len(subset)]]
        assert stats["requests"]["cache_hits"] >= len(subset)

    def test_telemetry_names_the_serving_shard(self, env):
        pool, nvbench = env["pool"], env["nvbench"]
        example = nvbench.examples[0]
        request = Request(
            task="text_to_vis",
            question=example.question,
            schema=pool.get(example.db_id).schema,
        )
        with ShardedServer(env["registry_path"], "viz@1", ShardConfig(num_shards=2)) as server:
            response = server.submit(request)
            names = set(server.shard_pids())
        assert response.error is None
        assert response.telemetry is not None
        assert response.telemetry["shard"] in names
        assert response.telemetry["requeues"] == 0


class TestRollingSwapUnderLoad:
    def test_closed_loop_client_loses_nothing_across_a_rolling_swap(self, env, baseline, tmp_path):
        # Its own registry: a viz@2 in the shared one would re-resolve the
        # other tests' bare-name ``deployment="viz"`` pins.
        registry = ModelRegistry(tmp_path / "registry.json")
        for version in (1, 2):  # weight-identical versions: outputs may not change across the flip
            registry.register_checkpoint("viz", env["model"], tmp_path / f"ckpt-v{version}")
        requests, sync = baseline
        unpinned = [(request, response) for request, response in zip(requests, sync) if request.deployment is None]
        responses: list = []
        swapped, finished = threading.Event(), threading.Event()

        def client(server) -> None:
            sent_after_swap = 0
            for request, _ in unpinned:
                sent_after_swap += swapped.is_set()
                responses.append(server.submit(request))
                if sent_after_swap == 8:
                    finished.set()
                    return

        with ShardedServer(tmp_path / "registry.json", "viz@1", ShardConfig(num_shards=2)) as server:
            sender = threading.Thread(target=client, args=(server,))
            sender.start()
            while len(responses) < 8 and sender.is_alive():
                time.sleep(0.005)
            served_before = len(responses)
            assert server.rolling_swap("viz@2") == "viz@2"
            swapped.set()
            sender.join(timeout=60)
            stats = server.stats()
        assert finished.is_set()  # eight more requests went out after the flip
        assert 8 <= served_before < len(responses)
        assert [r.error for r in responses] == [None] * len(responses)  # zero drops
        assert [r.output for r in responses] == [expected.output for _, expected in unpinned[: len(responses)]]
        assert stats["primary"] == "viz@2" and stats["swaps"] == 1
        assert stats["restarts"] == 0


class TestGatewaySemantics:
    def test_unknown_deployment_pin_is_invalid_request(self, env):
        pool, nvbench = env["pool"], env["nvbench"]
        example = nvbench.examples[0]
        schema = pool.get(example.db_id).schema
        with ShardedServer(env["registry_path"], "viz@1", ShardConfig(num_shards=1)) as server:
            missing_name = server.submit(
                Request(task="fevisqa", question="q ?", chart=example.query, schema=schema, deployment="nope@9")
            )
            missing_version = server.submit(
                Request(task="fevisqa", question="q ?", chart=example.query, schema=schema, deployment="viz@9")
            )
            stats = server.stats()
        assert missing_name.error == "invalid_request"
        assert missing_version.error == "invalid_request"
        assert stats["requests"]["failed"]["invalid_request"] == 2

    def test_non_request_submission_is_invalid_request(self, env):
        # A non-Request object must come back as a structured rejection, not
        # an AttributeError from dereferencing fields the object lacks.
        with ShardedServer(env["registry_path"], "viz@1", ShardConfig(num_shards=1)) as server:
            response = server.submit({"task": "fevisqa", "question": "q ?"})
        assert response.error == "invalid_request"
        assert "needs a Request" in response.detail
        assert response.request_id is None

    def test_submit_before_start_is_rejected(self, env):
        server = ShardedServer(env["registry_path"], "viz@1", ShardConfig(num_shards=1))
        with pytest.raises(ModelConfigError, match="not started"):
            server.submit(Request(task="fevisqa", question="q ?"))

    def test_config_validation(self):
        with pytest.raises(ModelConfigError):
            ShardConfig(num_shards=0)
        with pytest.raises(ModelConfigError):
            ShardConfig(heartbeat_timeout_ms=10.0, heartbeat_interval_ms=50.0)
        with pytest.raises(ModelConfigError):
            ShardConfig(batch_deadline_ms=0.0)
        with pytest.raises(ModelConfigError):
            ShardConfig(calibrated_service_ms="fast")  # type: ignore[arg-type]


def fresh_questions(env, count: int, tag: str) -> list[Request]:
    """``count`` never-before-seen fevisqa requests, so no cache can answer them."""
    example = env["nvbench"].examples[0]
    schema = env["pool"].get(example.db_id).schema
    return [
        Request(task="fevisqa", question=f"{tag} {index} : which bar is tallest ?", chart=example.query, schema=schema)
        for index in range(count)
    ]


def wait_for(predicate, timeout: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestWorkConservingDispatch:
    def test_two_clients_use_both_shards_and_match_the_sync_pipeline(self, env):
        """Two closed-loop clients, all-unique requests, every other one streamed."""
        pool, examples = env["pool"], env["nvbench"].examples
        requests = []
        for index, example in enumerate(examples[:24]):
            schema = pool.get(example.db_id).schema
            requests.append(Request(task="text_to_vis", question=f"{example.question} ( variant {index} )", schema=schema))
            requests.append(
                Request(task="fevisqa", question=f"is bar {index} the tallest ?", chart=example.query, schema=schema)
            )
        assert len({ShardedServer._routing_key(request_to_wire(request)) for request in requests}) == len(requests)
        sync = env["registry"].build_pipeline("viz@1").serve(list(requests), strict=False)
        diverted = obs.METRICS.counter(METRIC_GATEWAY_PLACEMENTS_DIVERTED_TOTAL)
        diverted_before = diverted.value
        answers: list = [None] * len(requests)

        def client(server, offset: int) -> None:
            for index in range(offset, len(requests), 2):
                if index % 4 < 2:  # half of each client's requests arrive as a chunk stream
                    answers[index] = assemble_stream(list(server.stream(requests[index])))
                else:
                    answers[index] = server.submit(requests[index])

        with ShardedServer(env["registry_path"], "viz@1", ShardConfig(num_shards=2)) as server:
            clients = [threading.Thread(target=client, args=(server, offset)) for offset in (0, 1)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=120)
            stats = server.stats()
            assert server._gateway.unsettled() == []

            def arena_pages() -> list:
                shards = server.observability()["shards"]
                return [shards.get(name, {}).get("gauges", {}).get(METRIC_ARENA_PAGES_IN_USE) for name in stats["shards"]]

            assert wait_for(lambda: arena_pages() == [0.0, 0.0]), arena_pages()  # from the shards' own heartbeats
        assert answers == sync  # bitwise, streamed or not; telemetry is not part of equality
        assert [answer.cached for answer in answers] == [False] * len(requests)
        assert all(shard["dispatched"] > 0 for shard in stats["shards"].values()), stats["shards"]
        assert sum(shard["dispatched"] for shard in stats["shards"].values()) == len(requests)
        # a request whose ring owner was still serving the other client's went to the idle shard
        assert 0 < diverted.value - diverted_before <= len(requests)
        assert stats["requests"]["completed"] == len(requests) and stats["requeues"] == stats["restarts"] == 0


class TestControlPlane:
    """deploy / set_routes / set_canary / set_shadow / undeploy on a live 1-shard server.

    ``viz@1`` and ``viz@2`` are the same checkpoint, so which version served a
    request is read from the gateway cache instead of the output: an answer
    is cached under the version that computed it, so a repeat pinned to that
    version hits and one pinned to the other misses.
    """

    @pytest.fixture()
    def server(self, env, tmp_path):
        # Its own registry: a viz@2 in the shared one would re-resolve the
        # other tests' bare-name ``deployment="viz"`` pins.
        registry = ModelRegistry(tmp_path / "registry.json")
        for version in (1, 2):
            registry.register_checkpoint("viz", env["model"], tmp_path / f"ckpt-v{version}")
        config = ShardConfig(num_shards=1, calibrated_service_ms=5.0)
        with ShardedServer(tmp_path / "registry.json", "viz@1", config) as server:
            assert server.deploy("viz@2") == "viz@2"
            yield server

    @staticmethod
    def assert_served_by(server, request: Request, expected: str) -> None:
        other = "viz@1" if expected == "viz@2" else "viz@2"
        assert server.submit(replace(request, deployment=expected)).cached
        assert not server.submit(replace(request, deployment=other)).cached

    @pytest.mark.parametrize("install", ["set_routes", "set_canary"])
    def test_splits_are_deterministic_and_equal_router_route(self, env, server, install):
        if install == "set_routes":
            server.set_routes("fevisqa", {"viz@1": 0.5, "viz@2": 0.5})
        else:
            server.set_canary("fevisqa", "viz@2", 0.5)
        table = Router().with_routes("fevisqa", {"viz@1": 0.5, "viz@2": 0.5})
        assert server.stats()["routes"]["fevisqa"]["weights"] == table.weights("fevisqa")
        requests = fresh_questions(env, 12, install)
        first = server.serve(requests)
        assert [response.error for response in first] == [None] * len(requests)
        assert all(response.cached for response in server.serve(requests))  # same key, same version
        expected = [
            table.route("fevisqa", ShardedServer._routing_key(request_to_wire(request))) for request in requests
        ]
        assert set(expected) == {"viz@1", "viz@2"}
        for request, deployment in zip(requests, expected):
            self.assert_served_by(server, request, deployment)

    def test_fraction_zero_returns_traffic_to_the_primary(self, env, server):
        server.set_canary("fevisqa", "viz@2", 1.0)
        moved = fresh_questions(env, 3, "all-on-canary")
        server.serve(moved)
        server.set_canary("fevisqa", "viz@2", 0.0)
        assert server.stats()["routes"] == {}
        back = fresh_questions(env, 3, "back-on-primary")
        server.serve(back)
        for request in moved:
            self.assert_served_by(server, request, "viz@2")
        for request in back:
            self.assert_served_by(server, request, "viz@1")

    def test_shadow_ledger_agrees_for_identical_versions(self, env, server):
        server.set_shadow("fevisqa", "viz@2", 1.0)
        requests = fresh_questions(env, 6, "shadowed")
        first = server.serve(requests)
        again = server.serve(requests)  # gateway cache hits are mirrored too
        assert all(response.cached for response in again) and not any(response.cached for response in first)

        def ledger() -> dict:
            return server.stats()["shadow"].get("viz@1->viz@2", {})

        assert wait_for(lambda: ledger().get("samples") == 2 * len(requests)), ledger()
        assert ledger()["agreement_rate"] == 1.0
        assert (ledger()["shadow_errors"], ledger()["primary_errors"], ledger()["dropped"]) == (0, 0, 0)
        # mirrored work is not request traffic
        assert server.stats()["requests"]["submitted"] == 2 * len(requests)
        server.set_shadow("fevisqa", "viz@2", 0.0)
        assert server.stats()["routes"] == {}

    def test_undeploy_drains_queued_work_then_refuses_the_pin(self, env, server):
        pinned = [replace(request, deployment="viz@2") for request in fresh_questions(env, 16, "draining")]
        responses: list = []
        sender = threading.Thread(target=lambda: responses.extend(server.serve(pinned)))
        sender.start()
        assert wait_for(lambda: server.stats()["shards"]["shard-0"]["pending_batches"] > 0)
        server.undeploy("viz@2")  # returns only once everything admitted has been answered
        sender.join(timeout=60)
        assert [response.error for response in responses] == [None] * len(pinned)
        stats = server.stats()
        assert stats["deployments"] == ["viz@1"]
        assert wait_for(lambda: server.stats()["shards"]["shard-0"]["deployments"] == ["viz@1"])
        refused = server.submit(replace(fresh_questions(env, 1, "too-late")[0], deployment="viz@2"))
        assert refused.error == "invalid_request" and "viz@2" in refused.detail
        with pytest.raises(ModelConfigError, match="cannot be undeployed"):
            server.undeploy("viz@1")


def attach_pipes(server: ShardedServer, loop, slot, ours: list[int]) -> int:
    """Give ``slot`` pipes as ``_fork_shard`` would, read by the gateway's real
    ``_on_readable`` on ``loop``; returns the end a shard writes its replies to.
    Both test-side ends are appended to ``ours`` for the caller to close."""
    request_read, slot.to_fd = os.pipe()
    slot.from_fd, reply_write = os.pipe()
    for fd in (slot.to_fd, slot.from_fd):
        os.set_blocking(fd, False)
    slot.generation, slot.alive = 1, True
    slot.queue, slot.inflight, slot.ready = asyncio.Queue(), asyncio.Semaphore(2), asyncio.Event()
    slot.ready.set()
    loop.add_reader(slot.from_fd, server._on_readable, slot, 1)
    ours.extend((request_read, reply_write))
    return reply_write


class TestHostileShardFrames:
    """Well-framed but malformed shard output condemns the shard; nothing hangs.

    No process is forked: each slot's pipes are plain ``os.pipe()`` pairs the
    test writes shard frames into, read by the gateway's real
    ``_on_readable`` callback on a private loop.
    """

    ANSWER = Response(task="fevisqa", output="42").as_dict()

    @pytest.mark.parametrize(
        "hostile",
        [
            {"type": "result", "seq": 1, "responses": ["not-a-dict"]},
            {"type": "result", "seq": [1], "responses": [ANSWER]},
            {"type": "chunk", "seq": 1, "chunk_seq": "zero", "text": "x"},
            {"type": "loaded", "slot": "shard-0"},
            {"type": "unloaded", "slot": "shard-0"},
        ],
        ids=["non-dict-response", "unhashable-seq", "non-int-chunk-seq", "loaded-without-ref", "unloaded-without-id"],
    )
    def test_malformed_frame_fails_its_batches_and_the_loop_keeps_reading(self, env, hostile):
        server = ShardedServer(env["registry_path"], "viz@1", ShardConfig(num_shards=2, max_requeues=0))
        loop = asyncio.new_event_loop()
        respawns: list[str] = []
        ours: list[int] = []

        async def respawn_stub(slot, initial=False) -> None:
            respawns.append(slot.name)  # the real one would fork

        async def drive():
            first, second = server._slots
            server._loop, server._respawn = loop, respawn_stub
            hostile_pipe, healthy_pipe = (attach_pipes(server, loop, slot, ours) for slot in (first, second))
            on_text = (lambda seq, text: None) if hostile["type"] == "chunk" else None
            requests = fresh_questions(env, 3, "hostile")
            waiting = [asyncio.ensure_future(server._submit(request, on_text=on_text)) for request in requests]
            await asyncio.sleep(0)
            jobs = [slot.queue.get_nowait() for slot in server._slots for _ in range(slot.queue.qsize())]
            jobs.sort(key=lambda job: requests.index(job.ticket.request))  # whichever slot the ring chose
            server._dispatch(first, "viz@1", jobs[:1])  # seq 1
            server._dispatch(first, "viz@1", jobs[1:2])  # seq 2
            server._dispatch(second, "viz@1", jobs[2:])  # seq 3
            # one read: the hostile frame, then a perfectly good answer for seq 2
            good = {"type": "result", "seq": 2, "responses": [self.ANSWER]}
            os.write(hostile_pipe, encode_frame(hostile) + encode_frame(good))
            condemned = await asyncio.wait_for(asyncio.gather(*waiting[:2]), 5.0)
            os.write(healthy_pipe, encode_frame({"type": "result", "seq": 3, "responses": [self.ANSWER]}))
            return condemned, await asyncio.wait_for(waiting[2], 5.0)

        try:
            condemned, healthy = loop.run_until_complete(drive())
        finally:
            for fd in ours:
                os.close(fd)
            loop.close()
        assert [response.error for response in condemned] == ["shard_failed", "shard_failed"]
        assert healthy.error is None and healthy.output == "42"  # the other pipe was still being read
        assert respawns == ["shard-0"]
        assert any("protocol violation" in entry for entry in server._fatal_log)
        assert server._gateway.request_stats()["failed"]["shard_failed"] == 2
        assert sum(deployment.pending for deployment in server._gateway.deployments.values()) == 0


class TestGatewayCacheIntegrity:
    """The gateway response cache keeps only answers that decode, and never a
    spec dict a caller holds.  Same fork-free harness as above: the test plays
    both shards through pipes the gateway's real ``_on_readable`` reads."""

    ANSWER = Response(task="fevisqa", output="42").as_dict()

    @staticmethod
    def run_gateway(env, script):
        """Run ``script(server, ask)`` on a private loop; ``await ask(request,
        answer)`` submits ``request`` and, on a miss, has its shard reply with
        the ``answer`` payload."""
        server = ShardedServer(env["registry_path"], "viz@1", ShardConfig(num_shards=2, max_requeues=0))
        loop = asyncio.new_event_loop()
        ours: list[int] = []
        pipes: list[int] = []

        async def respawn_stub(slot, initial=False) -> None:
            pass  # the real one would fork

        async def ask(request: Request, answer: dict | None = None) -> Response:
            waiting = asyncio.ensure_future(server._submit(request))
            await asyncio.sleep(0)
            for slot, pipe in zip(server._slots, pipes):
                if slot.queue.qsize():
                    server._dispatch(slot, "viz@1", [slot.queue.get_nowait()])
                    os.write(pipe, encode_frame({"type": "result", "seq": server._seq, "responses": [answer]}))
            return await asyncio.wait_for(waiting, 5.0)

        async def drive():
            server._loop, server._respawn = loop, respawn_stub
            pipes.extend(attach_pipes(server, loop, slot, ours) for slot in server._slots)
            return await script(server, ask)

        try:
            return loop.run_until_complete(drive())
        finally:
            for fd in ours:
                os.close(fd)
            loop.close()

    def test_an_undecodable_answer_fails_its_request_and_is_never_cached(self, env):
        """A result whose query does not parse fails its owner once; resubmitting
        the request is a cache miss answered with a structured ``Response``
        (it used to replay the poisoned entry and raise out of ``submit``)."""
        undecodable = {**self.ANSWER, "query": "not vql (("}
        (request,) = fresh_questions(env, 1, "undecodable")

        async def script(server, ask):
            first = await ask(request, undecodable)
            assert len(server._cache) == 0
            again = await ask(request, undecodable)
            assert len(server._cache) == 0
            answered = await ask(request, self.ANSWER)
            return first, again, answered, await ask(request), len(server._cache)

        first, again, answered, hit, cached = self.run_gateway(env, script)
        for failed in (first, again):
            assert isinstance(failed, Response)
            assert failed.error == "shard_failed" and "undecodable shard response" in failed.detail
        assert answered.error is None and answered.output == "42" and not answered.cached
        assert hit.cached and hit.output == "42"
        assert cached == 1

    def test_mutating_response_spec_does_not_corrupt_caches(self, env):
        """The sharded twin of the ``Pipeline`` test: an edit to the owner's
        spec or to a hit's spec never reaches the next hit."""
        spec = {"mark": "bar", "encoding": {"x": {"field": "a", "type": "nominal"}}}
        answer = Response(task="fevisqa", output="42", vega_lite=copy.deepcopy(spec)).as_dict()
        (request,) = fresh_questions(env, 1, "spec")

        async def script(server, ask):
            owner = await ask(request, answer)
            assert owner.vega_lite == spec and not owner.cached
            owner.vega_lite["data"] = {"values": ["mutated by the owner"]}
            hit = await ask(request)
            assert hit.cached and hit.vega_lite == spec
            hit.vega_lite["encoding"]["x"]["field"] = "mutated by a hit"
            return await ask(request)

        later = self.run_gateway(env, script)
        assert later.cached and later.vega_lite == spec
