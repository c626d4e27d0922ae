"""Chaos suite: the sharded tier's failure semantics under real process death.

Every test drives live forked shard processes through a failure the gateway
must survive: ``kill -9`` mid-batch, a real ``SIGSTOP`` past the heartbeat
deadline, injected crash/wedge/lost-reply faults, a crash in the middle of a
rolling swap, and a requeue budget of zero.  The assertions pin the contract
from ``docs/sharding.md``:

* every submitted request gets exactly one response — none lost, none
  duplicated — and carries its caller-assigned ``request_id`` back;
* a dead shard is detected (pipe EOF, missed heartbeats, or an overdue
  batch), its in-flight work is requeued to surviving shards, and the slot
  is respawned under its hash-ring identity;
* ``shard_failed`` is emitted only when the requeue budget is exhausted;
* a chunk stream caught mid-flight by a shard death never hangs and never
  truncates: a requeued stream restarts cleanly from a ``seq == 0`` reset
  chunk and still reassembles bitwise, and an exhausted budget surfaces as
  a structured terminal error chunk.

Fault injection needs fresh, never-seen request payloads: a repeat request
is answered from the gateway cache and would never reach the armed shard.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro import obs
from repro.deploy import ModelRegistry
from repro.errors import ModelConfigError
from repro.obs.names import METRIC_GATEWAY_PLACEMENTS_DIVERTED_TOTAL
from repro.serving import FAULT_MODES, Request, ShardConfig, ShardedServer, request_to_wire

pytestmark = pytest.mark.chaos

# Short heartbeats so detection fits in test time; calibrated 20 ms service
# sleeps keep batches in flight long enough for a fault to land mid-batch.
CHAOS = dict(
    num_shards=2,
    heartbeat_interval_ms=25.0,
    heartbeat_timeout_ms=300.0,
    calibrated_service_ms=20.0,
    enable_fault_injection=True,
    start_timeout_s=30.0,
)


@pytest.fixture(scope="module")
def env(serving_model_env, tmp_path_factory) -> dict:
    tmp = tmp_path_factory.mktemp("sharded-chaos")
    registry = ModelRegistry(tmp / "registry.json")
    registry.register_checkpoint("viz", serving_model_env["model"], tmp / "ckpt-v1")
    return {**serving_model_env, "tmp": tmp, "registry_path": tmp / "registry.json"}


def fresh_requests(env, count: int, tag: str) -> list[Request]:
    """``count`` never-before-seen requests so no cache can answer them."""
    pool, nvbench = env["pool"], env["nvbench"]
    requests = []
    for index in range(count):
        example = nvbench.examples[index % len(nvbench.examples)]
        requests.append(
            Request(
                task="fevisqa",
                question=f"{tag} {index} : is this the tallest bar ?",
                chart=example.query,
                schema=pool.get(example.db_id).schema,
                request_id=f"{tag}-{index}",
            )
        )
    return requests


def wait_for(predicate, timeout: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


def assert_exactly_once(responses, requests) -> None:
    """At-most-once delivery + completeness: one response per request, in order."""
    assert len(responses) == len(requests)
    assert [r.request_id for r in responses] == [r.request_id for r in requests]


def assert_recovered(server, dead_slots=("shard-0", "shard-1"), restarts=1) -> None:
    """The gateway noticed a death and brought every slot back alive."""
    assert wait_for(
        lambda: server.stats()["restarts"] >= restarts
        and all(s["alive"] and not s["broken"] for s in server.stats()["shards"].values())
    ), server.stats()


class TestProcessDeath:
    def test_kill9_mid_batch_requeues_and_respawns(self, env):
        with ShardedServer(env["registry_path"], "viz@1", ShardConfig(**CHAOS)) as server:
            victim = server.shard_pids()["shard-0"]

            def kill_mid_batch() -> None:
                # Kill on observed in-flight work, not a wall-clock guess: a
                # SIGKILL landing while shard-0 is idle requeues nothing.
                wait_for(lambda: server.stats()["shards"]["shard-0"]["pending_batches"] > 0)
                os.kill(victim, signal.SIGKILL)

            killer = threading.Thread(target=kill_mid_batch)
            killer.start()
            requests = fresh_requests(env, 24, "kill9")
            responses = server.serve(requests)
            killer.join()
            assert_exactly_once(responses, requests)
            assert [r.error for r in responses] == [None] * len(requests)
            assert_recovered(server)
            stats = server.stats()
            assert stats["restarts"] >= 1
            assert stats["requeues"] >= 1
            assert server.shard_pids()["shard-0"] != victim
            # the respawned shard serves again under the same ring identity
            again = server.serve(fresh_requests(env, 6, "kill9-after"))
            assert [r.error for r in again] == [None] * 6

    def test_sigstop_past_heartbeat_deadline_is_killed_and_respawned(self, env):
        with ShardedServer(env["registry_path"], "viz@1", ShardConfig(**CHAOS)) as server:
            victim = server.shard_pids()["shard-1"]
            os.kill(victim, signal.SIGSTOP)
            requests = fresh_requests(env, 16, "sigstop")
            responses = server.serve(requests)
            assert_exactly_once(responses, requests)
            assert [r.error for r in responses] == [None] * len(requests)
            assert_recovered(server)
            assert server.shard_pids()["shard-1"] != victim

    def test_no_response_lost_or_duplicated_across_two_kills(self, env):
        with ShardedServer(env["registry_path"], "viz@1", ShardConfig(**CHAOS)) as server:
            pids = server.shard_pids()
            killers = [
                threading.Timer(0.05, lambda: os.kill(pids["shard-0"], signal.SIGKILL)),
                threading.Timer(0.25, lambda: os.kill(pids["shard-1"], signal.SIGKILL)),
            ]
            for killer in killers:
                killer.start()
            requests = fresh_requests(env, 40, "double")
            responses = server.serve(requests)
            for killer in killers:
                killer.join()
            assert_exactly_once(responses, requests)
            # default max_requeues=2 covers two hops, so nothing may fail
            assert [r.error for r in responses] == [None] * len(requests)
            assert_recovered(server, restarts=2)
            stats = server.stats()
            assert stats["requests"]["submitted"] == len(requests)
            assert stats["requests"]["completed"] == len(requests)
            assert sum(stats["requests"]["failed"].values()) == 0


    def test_diverted_job_whose_shard_dies_requeues_and_resolves_once(self, env):
        # Long service so the owner is provably still busy when the second job is placed.
        config = ShardConfig(**{**CHAOS, "calibrated_service_ms": 400.0})
        diverted = obs.METRICS.counter(METRIC_GATEWAY_PLACEMENTS_DIVERTED_TOTAL)
        with ShardedServer(env["registry_path"], "viz@1", config) as server:
            owned = [
                request
                for request in fresh_requests(env, 16, "diverted")
                if server._ring.node(server._routing_key(request_to_wire(request))) == "shard-0"
            ]
            first, second = owned[:2]  # both belong to shard-0 on the ring
            server.inject_fault("shard-1", "exit", after=1)
            before = diverted.value
            responses: list = []
            sender = threading.Thread(target=lambda: responses.append(server.submit(first)))
            sender.start()
            assert wait_for(lambda: server.stats()["shards"]["shard-0"]["pending_batches"] > 0)
            # shard-0 is serving `first`, so `second` is diverted to idle shard-1 — which
            # dies on it; the requeue finds shard-0 the only live shard and waits there.
            answer = server.submit(second)
            sender.join(timeout=30)
            assert diverted.value - before == 1
            assert answer.error is None and answer.request_id == second.request_id
            assert (answer.telemetry["shard"], answer.telemetry["requeues"]) == ("shard-0", 1)
            assert [r.request_id for r in responses] == [first.request_id] and responses[0].error is None
            assert_recovered(server)
            stats = server.stats()
            assert (stats["requeues"], stats["requests"]["submitted"], stats["requests"]["completed"]) == (1, 2, 2)
            assert sum(stats["requests"]["failed"].values()) == 0
            assert server._gateway.unsettled() == []
            assert server.submit(second).cached  # answered once, cached once


class TestFaultInjection:
    def test_injected_exit_mid_batch(self, env):
        with ShardedServer(env["registry_path"], "viz@1", ShardConfig(**CHAOS)) as server:
            server.inject_fault("shard-1", "exit", after=1)
            requests = fresh_requests(env, 16, "exit")
            responses = server.serve(requests)
            assert_exactly_once(responses, requests)
            assert [r.error for r in responses] == [None] * len(requests)
            assert_recovered(server)
            assert server.stats()["requeues"] >= 1

    def test_injected_wedge_is_caught_by_the_heartbeat_monitor(self, env):
        with ShardedServer(env["registry_path"], "viz@1", ShardConfig(**CHAOS)) as server:
            server.inject_fault("shard-0", "wedge", after=1)
            requests = fresh_requests(env, 16, "wedge")
            responses = server.serve(requests)
            assert_exactly_once(responses, requests)
            assert [r.error for r in responses] == [None] * len(requests)
            assert_recovered(server)
            assert any("wedged" in entry for entry in server.stats()["fatal"])

    def test_swallowed_reply_is_caught_by_the_batch_deadline(self, env):
        config = ShardConfig(**{**CHAOS, "batch_deadline_ms": 1500.0})
        with ShardedServer(env["registry_path"], "viz@1", config) as server:
            server.inject_fault("shard-0", "drop_batch", after=1)
            requests = fresh_requests(env, 16, "drop")
            responses = server.serve(requests)
            assert_exactly_once(responses, requests)
            assert [r.error for r in responses] == [None] * len(requests)
            assert_recovered(server)
            assert any("overdue" in entry for entry in server.stats()["fatal"])

    def test_fault_injection_is_gated(self, env):
        disabled = ShardConfig(num_shards=1, start_timeout_s=30.0)
        with ShardedServer(env["registry_path"], "viz@1", disabled) as server:
            with pytest.raises(ModelConfigError, match="fault injection is disabled"):
                server.inject_fault("shard-0", "exit")
        with ShardedServer(env["registry_path"], "viz@1", ShardConfig(**CHAOS)) as server:
            with pytest.raises(ModelConfigError, match="unknown fault mode"):
                server.inject_fault("shard-0", "segfault")
        assert FAULT_MODES == ("exit", "wedge", "drop_batch")


class TestRollingSwapUnderFailure:
    def test_crash_during_rolling_swap_still_converges(self, env):
        ModelRegistry(env["registry_path"]).register_checkpoint(
            "viz", env["model"], env["tmp"] / "ckpt-v2"
        )
        with ShardedServer(env["registry_path"], "viz@1", ShardConfig(**CHAOS)) as server:
            warm = server.serve(fresh_requests(env, 4, "preswap"))
            assert [r.error for r in warm] == [None] * 4
            victim = server.shard_pids()["shard-0"]
            killer = threading.Timer(0.02, lambda: os.kill(victim, signal.SIGKILL))
            killer.start()
            deployed = server.rolling_swap("viz@2")
            killer.join()
            assert deployed == "viz@2"
            assert_recovered(server)
            stats = server.stats()
            assert stats["primary"] == "viz@2"
            assert "viz@2" in stats["deployments"]
            # every slot — including the respawned one — carries the new version
            assert all("viz@2" in s["deployments"] for s in stats["shards"].values())
            # the old primary was never drained: still pinnable
            assert "viz@1" in stats["deployments"]
            after = server.serve(fresh_requests(env, 8, "postswap"))
            assert [r.error for r in after] == [None] * 8


class TestStreamingUnderFailure:
    @staticmethod
    def consume_stream(server, request, timeout: float = 60.0) -> list:
        """Drain ``server.stream`` on a worker thread; fail the test on a hang."""
        chunks: list = []
        done = threading.Event()
        failure: list[BaseException] = []

        def drain() -> None:
            try:
                for chunk in server.stream(request):
                    chunks.append(chunk)
            except BaseException as error:  # noqa: BLE001 - surfaced as a test failure
                failure.append(error)
            finally:
                done.set()

        threading.Thread(target=drain, daemon=True).start()
        assert done.wait(timeout), "the stream hung instead of terminating"
        if failure:
            raise failure[0]
        return chunks

    def test_shard_death_mid_stream_restarts_cleanly(self, env):
        from repro.serving import assemble_stream

        with ShardedServer(env["registry_path"], "viz@1", ShardConfig(**CHAOS)) as server:
            # arm both shards so the stream's serving shard dies regardless of
            # ring placement; the default budget of 2 covers both hops
            server.inject_fault("shard-0", "exit", after=1)
            server.inject_fault("shard-1", "exit", after=1)
            request = fresh_requests(env, 1, "stream-kill")[0]
            chunks = self.consume_stream(server, request)
            assert chunks, "a stream must never end without chunks"
            assert chunks[-1].final and chunks[-1].response is not None
            assert all(not chunk.final for chunk in chunks[:-1])
            streamed = assemble_stream(chunks)
            assert streamed.error is None, streamed.detail
            assert streamed.request_id == request.request_id
            # bitwise: the restarted stream reassembles to the sync answer
            sync = server.submit(request)
            assert streamed.output == sync.output
            assert_recovered(server)
            assert server.stats()["requeues"] >= 1

    def test_exhausted_budget_mid_stream_is_a_terminal_error_chunk(self, env):
        from repro.serving import assemble_stream

        config = ShardConfig(**{**CHAOS, "num_shards": 1, "max_requeues": 0})
        with ShardedServer(env["registry_path"], "viz@1", config) as server:
            server.inject_fault("shard-0", "exit", after=1)
            request = fresh_requests(env, 1, "stream-budget")[0]
            chunks = self.consume_stream(server, request)
            # structured termination: the failure is a final error chunk, not
            # a hang or a truncated stream
            assert chunks[-1].final and chunks[-1].response is not None
            failed = assemble_stream(chunks)
            assert failed.error == "shard_failed"
            assert failed.request_id == request.request_id
            # the tier heals: the respawned shard streams the request fine
            assert_recovered(server)
            retry = self.consume_stream(server, request)
            recovered = assemble_stream(retry)
            assert recovered.error is None, recovered.detail
            assert recovered.output == server.submit(request).output


class TestRequeueBudget:
    def test_exhausted_budget_fails_with_shard_failed_only(self, env):
        config = ShardConfig(**{**CHAOS, "num_shards": 1, "max_requeues": 0})
        with ShardedServer(env["registry_path"], "viz@1", config) as server:
            server.inject_fault("shard-0", "exit", after=1)
            requests = fresh_requests(env, 24, "budget")
            responses = server.serve(requests)
            assert_exactly_once(responses, requests)
            failed = [r for r in responses if r.error is not None]
            # the batches in flight when the shard died had no budget left ...
            assert failed
            assert {r.error for r in failed} == {"shard_failed"}
            assert all("requeue budget" in (r.detail or "") for r in failed)
            # ... but queued-not-yet-dispatched work survives the respawn: at
            # most max_inflight_batches * max_batch jobs can die with a shard
            assert len(failed) <= config.max_inflight_batches * config.max_batch
            stats = server.stats()
            assert stats["requests"]["failed"]["shard_failed"] == len(failed)
            assert_recovered(server)
            retry = server.serve(fresh_requests(env, 4, "budget-after"))
            assert [r.error for r in retry] == [None] * 4
