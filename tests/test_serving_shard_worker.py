"""The shard child's frame handler, driven in-process.

:meth:`ShardWorker.handle` answers every gateway frame through its ``emit``
callable and returns what the frame loop should do next, so each frame type
is pinned here without forking: replies are collected in a list, exits and
wedges are return values.  The decisions pinned for frames the gateway
should never send (the shard side of hostile-frame handling): an unknown
frame type is ignored; a serve frame the worker cannot act on — no
``requests``, a request that is not a dict, a stream frame without exactly
one request — emits one ``fatal`` frame and exits 1, so the gateway
condemns the shard and requeues its work.
"""

from __future__ import annotations

import pytest

from repro.deploy import ModelRegistry
from repro.serving import ShardConfig, request_from_wire, request_to_wire
from repro.serving.protocol import Request, Response
from repro.serving.shard_worker import WEDGE, ShardWorker

WIRE = request_to_wire(Request(task="fevisqa", question="how many bars are there ?"))


@pytest.fixture(scope="module")
def registry(serving_model_env, tmp_path_factory) -> dict:
    tmp = tmp_path_factory.mktemp("shard-worker")
    path = tmp / "registry.json"
    ModelRegistry(path).register_checkpoint("viz", serving_model_env["model"], tmp / "ckpt-v1")
    return {"path": str(path), **serving_model_env}


@pytest.fixture(scope="module")
def sync(registry):
    """The in-process pipeline every shard answer must equal bitwise."""
    return ModelRegistry(registry["path"]).build_pipeline("viz@1")


@pytest.fixture(scope="module")
def loaded(registry) -> tuple[ShardWorker, list[dict]]:
    """A worker holding ``viz@1`` (built once: loading verifies the checkpoint)."""
    frames: list[dict] = []
    worker = ShardWorker("shard-0", 1, registry["path"], ["viz@1"], ShardConfig(), frames.append)
    return worker, frames


def empty_worker(registry, **config) -> tuple[ShardWorker, list[dict]]:
    """A worker with no deployment loaded, replies collected in a list."""
    frames: list[dict] = []
    return ShardWorker("shard-0", 1, registry["path"], [], ShardConfig(**config), frames.append), frames


def questions(registry, count: int, tag: str) -> list[dict]:
    examples = registry["nvbench"].examples
    return [
        request_to_wire(
            Request(task="fevisqa", question=f"{tag} {index} ?", chart=examples[index % len(examples)].query)
        )
        for index in range(count)
    ]


def serve_frame(seq: int, requests: list, deployment: str = "viz@1", **extra) -> dict:
    return {"type": "serve", "seq": seq, "deployment": deployment, "requests": requests, **extra}


class TestServeFrames:
    def test_unloaded_deployment_answers_invalid_request_per_request(self, registry):
        worker, frames = empty_worker(registry)
        assert worker.handle(serve_frame(4, questions(registry, 3, "unloaded"))) is None
        [result] = frames
        assert result["type"] == "result" and result["seq"] == 4
        responses = [Response.from_dict(payload) for payload in result["responses"]]
        assert [response.error for response in responses] == ["invalid_request"] * 3
        assert all("viz@1" in response.detail for response in responses)

    def test_batch_matches_the_sync_pipeline(self, registry, loaded, sync):
        worker, frames = loaded
        frames.clear()
        wires = questions(registry, 4, "batch")
        assert worker.handle(serve_frame(1, wires)) is None
        [result] = frames
        expected = [sync.submit(request_from_wire(wire)).output for wire in wires]
        assert [payload["output"] for payload in result["responses"]] == expected

    def test_stream_frame_emits_chunks_in_order_then_one_result(self, registry, loaded, sync):
        worker, frames = loaded
        frames.clear()
        [wire] = questions(registry, 1, "stream")
        assert worker.handle(serve_frame(9, [wire], stream=True)) is None
        *chunks, result = frames
        assert chunks, "the continuous decode path streams at least one delta"
        assert all(frame["type"] == "chunk" and frame["seq"] == 9 for frame in chunks)
        assert [frame["chunk_seq"] for frame in chunks] == list(range(len(chunks)))
        assert result["type"] == "result" and result["seq"] == 9 and len(result["responses"]) == 1
        output = result["responses"][0]["output"]
        assert "".join(frame["text"] for frame in chunks) == output
        assert output == sync.submit(request_from_wire(wire)).output

    @pytest.mark.parametrize(
        "frame",
        [
            {"type": "serve", "seq": 1, "deployment": "viz@1"},
            serve_frame(1, ["not-a-dict"]),
            serve_frame(1, [], stream=True),
            serve_frame(1, [WIRE, WIRE], stream=True),
        ],
        ids=["missing-requests", "non-dict-request", "stream-of-none", "stream-of-two"],
    )
    def test_malformed_serve_frame_is_fatal(self, registry, frame):
        worker, frames = empty_worker(registry)
        assert worker.handle(frame) == 1
        assert [reply["type"] for reply in frames] == ["fatal"]

    def test_unknown_frame_type_is_ignored(self, registry):
        worker, frames = empty_worker(registry)
        assert worker.handle({"type": "from-the-future", "seq": 1}) is None
        assert worker.handle({"seq": 2}) is None
        assert frames == []

    def test_stop_exits_cleanly(self, registry):
        worker, frames = empty_worker(registry)
        assert worker.handle({"type": "stop"}) == 0
        assert frames == []

    def test_a_gone_gateway_exits_cleanly(self, registry):
        def broken_pipe(frame: dict) -> None:
            raise BrokenPipeError("gateway closed the reply pipe")

        worker = ShardWorker("shard-0", 1, registry["path"], [], ShardConfig(), broken_pipe)
        assert worker.handle(serve_frame(1, questions(registry, 1, "gone"))) == 0


class TestDeploymentFrames:
    def test_load_then_unload(self, registry):
        worker, frames = empty_worker(registry)
        assert worker.handle({"type": "load", "ref": "viz"}) is None
        assert frames[-1] == {"type": "loaded", "slot": "shard-0", "ref": "viz", "deployment": "viz@1"}
        assert set(worker.pipelines) == {"viz@1"}
        assert worker.handle({"type": "unload", "deployment": "viz@1"}) is None
        assert frames[-1] == {"type": "unloaded", "slot": "shard-0", "deployment": "viz@1"}
        assert worker.pipelines == {}

    def test_unknown_ref_is_load_failed(self, registry):
        worker, frames = empty_worker(registry)
        assert worker.handle({"type": "load", "ref": "nope@3"}) is None
        [reply] = frames
        assert reply["type"] == "load_failed" and reply["ref"] == "nope@3" and reply["detail"]


class TestFaultFrames:
    def test_fault_is_rejected_while_injection_is_disabled(self, registry):
        worker, frames = empty_worker(registry)
        assert worker.handle({"type": "fault", "mode": "exit"}) is None
        assert frames == [{"type": "fault_rejected", "slot": "shard-0", "mode": "exit"}]
        assert worker.handle(serve_frame(1, questions(registry, 1, "unarmed"))) is None
        assert frames[-1]["type"] == "result"

    def test_unknown_mode_is_rejected(self, registry):
        worker, frames = empty_worker(registry, enable_fault_injection=True)
        assert worker.handle({"type": "fault", "mode": "explode"}) is None
        assert frames == [{"type": "fault_rejected", "slot": "shard-0", "mode": "explode"}]

    def test_drop_batch_swallows_exactly_one_reply(self, registry):
        worker, frames = empty_worker(registry, enable_fault_injection=True)
        assert worker.handle({"type": "fault", "mode": "drop_batch", "after": 2}) is None
        assert frames.pop()["type"] == "fault_armed"
        for seq in (1, 2, 3, 4):
            assert worker.handle(serve_frame(seq, questions(registry, 1, f"drop {seq}"))) is None
        assert [frame["seq"] for frame in frames] == [1, 3, 4]

    @pytest.mark.parametrize("mode, action", [("exit", 13), ("wedge", WEDGE)])
    def test_exit_and_wedge_are_returned_to_the_loop_unanswered(self, registry, mode, action):
        worker, frames = empty_worker(registry, enable_fault_injection=True)
        worker.handle({"type": "fault", "mode": mode})
        frames.clear()
        assert worker.handle(serve_frame(1, questions(registry, 1, mode))) == action
        assert frames == []
