"""Error-code reconciliation: one list, everywhere.

``repro.serving.protocol.ERROR_CODE_MEANINGS`` is the single source of truth
for the machine-readable error codes a serving ``Response`` can carry.  This
suite pins every derived surface to it so the code list can never drift
again:

* the ``ERROR_*`` constants and ``ERROR_CODES`` tuple in ``protocol.py``;
* the codes the gateway core (``gateway.py``) emits and counts for both
  tiers (its per-code counters and the ``rejected``/``failed`` groups of
  ``Server.stats()``), and the ones ``sharded.py`` mints itself;
* the documentation table in ``docs/serving.md``;
* ``error_response``'s refusal to mint unknown codes.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.errors import ModelConfigError
from repro.serving import protocol, server
from repro.serving.protocol import (
    ERROR_CODE_MEANINGS,
    ERROR_CODES,
    MODEL_TASKS,
    SERVABLE_TASKS,
    Request,
    error_response,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_error_codes_derive_from_meanings():
    assert ERROR_CODES == tuple(ERROR_CODE_MEANINGS)
    assert all(meaning.strip() for meaning in ERROR_CODE_MEANINGS.values())


def test_constants_cover_the_meanings_exactly():
    constants = {
        value
        for name, value in vars(protocol).items()
        if name.startswith("ERROR_") and isinstance(value, str)
    }
    assert constants == set(ERROR_CODE_MEANINGS)


def test_server_counts_every_code():
    pipeline_stub = type("PipelineStub", (), {})()
    srv = server.Server(pipeline_stub)  # type: ignore[arg-type]
    for code in ERROR_CODES:
        assert code in srv._gateway.counts, f"Server does not count {code!r}"


def test_server_stats_groups_cover_every_code():
    pipeline_stub = type("PipelineStub", (), {"stats": lambda self: {}})()
    srv = server.Server(pipeline_stub)  # type: ignore[arg-type]
    stats = srv.stats()
    reported = set(stats["requests"]["rejected"]) | set(stats["requests"]["failed"])
    assert reported == set(ERROR_CODES)


def test_server_source_emits_only_known_codes():
    # The thread tier's codes are emitted and counted in the shared core;
    # server.py names only the ones its own executor mints.
    source = (REPO_ROOT / "src" / "repro" / "serving" / "gateway.py").read_text(encoding="utf-8")
    referenced = set(re.findall(r"ERROR_[A-Z_]+", source))
    defined = {name for name in vars(protocol) if name.startswith("ERROR_")}
    unknown = referenced - defined
    assert not unknown, f"gateway.py references undefined error constants: {sorted(unknown)}"
    # every code the protocol defines is actually used by the core
    emitted = {getattr(protocol, name) for name in referenced if isinstance(getattr(protocol, name, None), str)}
    assert emitted == set(ERROR_CODES)


def test_sharded_source_emits_only_known_codes():
    # The process-sharded gateway mints its own admission / failure codes;
    # pin them to the protocol list the same way server.py is pinned.  The
    # gateway seeds its counters from ERROR_CODES directly, so every code is
    # counted even when only a subset is minted gateway-side.
    source = (REPO_ROOT / "src" / "repro" / "serving" / "sharded.py").read_text(encoding="utf-8")
    referenced = set(re.findall(r"ERROR_[A-Z_]+", source))
    defined = {name for name in vars(protocol) if name.startswith("ERROR_")}
    unknown = referenced - defined
    assert not unknown, f"sharded.py references undefined error constants: {sorted(unknown)}"
    emitted = {getattr(protocol, name) for name in referenced if isinstance(getattr(protocol, name, None), str)}
    assert emitted <= set(ERROR_CODES)
    # the codes the sharded tier's failure semantics are specified to emit
    assert {"shard_failed", "queue_full", "invalid_request", "server_stopped"} <= emitted


def test_servable_tasks_extend_the_model_tasks():
    # single source of truth: corpus_qa is servable but not model-backed, and
    # every layer (manifest defaults, registry, request validation) derives
    # its task list from these two tuples rather than respelling them.
    assert MODEL_TASKS == ("text_to_vis", "vis_to_text", "fevisqa")
    assert SERVABLE_TASKS == MODEL_TASKS + ("corpus_qa",)


def test_unknown_task_error_lists_every_servable_task():
    with pytest.raises(ModelConfigError) as excinfo:
        Request(task="summarize")
    message = str(excinfo.value)
    for task in SERVABLE_TASKS:
        assert task in message, f"the unknown-task error does not advertise {task!r}"


def test_docs_table_lists_every_code():
    docs = (REPO_ROOT / "docs" / "serving.md").read_text(encoding="utf-8")
    for code in ERROR_CODES:
        assert f"`{code}`" in docs, f"docs/serving.md does not document error code {code!r}"


def test_unconfigured_task_is_invalid_request_not_backend_error():
    # The same misconfiguration must carry the same code on both serving
    # paths: the async server fail-fasts it as invalid_request, so the
    # synchronous strict=False path must too.
    from repro.serving import Pipeline

    pipeline = Pipeline()  # no backends configured at all
    response = pipeline.serve([Request(task="fevisqa", question="q")], strict=False)[0]
    assert response.error == "invalid_request"
    assert "no backend configured" in (response.detail or "")


def test_as_dict_carries_telemetry():
    response = protocol.Response(task="fevisqa", output="3", telemetry={"queue_ms": 1.0})
    assert response.as_dict()["telemetry"] == {"queue_ms": 1.0}


def test_error_response_rejects_unknown_codes():
    request = Request(task="fevisqa", question="q")
    for code in ERROR_CODES:
        assert error_response(request, code, "detail").error == code
    with pytest.raises(ModelConfigError):
        error_response(request, "made_up_code", "detail")
