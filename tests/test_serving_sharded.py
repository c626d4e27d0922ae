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

import threading
import time

import pytest

from repro.deploy import ModelRegistry
from repro.errors import ModelConfigError
from repro.serving import Request, ShardConfig, ShardedServer

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
