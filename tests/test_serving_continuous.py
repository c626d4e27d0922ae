"""Continuous-batching scheduler and flush-policy boundary suite.

Covers the :class:`~repro.serving.continuous.ContinuousDecodeLoop` contract
(run == solo decode, overflow queueing, mid-flight ticket reads, failure
poisoning and recovery, registry memoization), the
:class:`~repro.serving.batching.BatchWindow` boundary behaviour
property-based (``max_wait_ms=0``, ``now == closes_at`` exact-boundary
flush, ``remaining_wait`` clamping), and the pipeline-level guarantee that
the continuous path serves what lock-step ``predict_batch`` decodes.  The
multi-threaded soak test is marked ``slow``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding.sequences import strip_modality_tags
from repro.errors import ModelConfigError, ServingStateError
from repro.nn.transformer import T5Model, TransformerConfig
from repro.serving import (
    BatchWindow,
    ContinuousDecodeLoop,
    Pipeline,
    Request,
    continuous_loop_for,
    continuous_loop_stats,
    continuous_predict_batch,
)

_MODEL_CACHE: dict[tuple, T5Model] = {}


def build_model(seed=0, eos_id=1, num_layers=1) -> T5Model:
    """A tiny eval-mode model, memoized across tests and hypothesis examples."""
    key = (seed, eos_id, num_layers)
    if key not in _MODEL_CACHE:
        config = TransformerConfig(
            vocab_size=24,
            d_model=8,
            num_heads=2,
            d_ff=16,
            num_encoder_layers=num_layers,
            num_decoder_layers=num_layers,
            eos_id=eos_id,
            seed=seed,
        )
        _MODEL_CACHE[key] = T5Model(config).eval()
    return _MODEL_CACHE[key]


def random_rows(rng, count, width=4):
    return [rng.integers(4, 23, size=rng.integers(2, width + 1)).astype(np.int64) for _ in range(count)]


# -- BatchWindow boundary properties ---------------------------------------------------


class TestBatchWindowBoundaries:
    @settings(max_examples=100, deadline=None)
    @given(
        pending=st.integers(min_value=1, max_value=64),
        opened_at=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        elapsed=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    def test_zero_wait_window_always_flushes_immediately(self, pending, opened_at, elapsed):
        """With ``max_wait_ms=0`` the window closes the instant it opens."""
        window = BatchWindow(max_batch=128, max_wait_ms=0)
        now = opened_at + elapsed
        assert window.closes_at(opened_at) == opened_at
        assert window.should_flush(pending, opened_at, now)
        assert window.remaining_wait(opened_at, now) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        max_batch=st.integers(min_value=1, max_value=32),
        max_wait_ms=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        opened_at=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    def test_exact_boundary_flushes(self, max_batch, max_wait_ms, opened_at):
        """``now == closes_at`` is a flush, not a one-tick-late miss."""
        window = BatchWindow(max_batch=max_batch, max_wait_ms=max_wait_ms)
        boundary = window.closes_at(opened_at)
        assert window.should_flush(1, opened_at, boundary)
        assert window.remaining_wait(opened_at, boundary) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        max_batch=st.integers(min_value=1, max_value=32),
        max_wait_ms=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        opened_at=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        delta=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    )
    def test_remaining_wait_never_negative_and_consistent(self, max_batch, max_wait_ms, opened_at, delta):
        """``remaining_wait`` clamps at zero and agrees with ``should_flush``."""
        window = BatchWindow(max_batch=max_batch, max_wait_ms=max_wait_ms)
        now = opened_at + delta
        remaining = window.remaining_wait(opened_at, now)
        assert remaining >= 0.0
        if remaining == 0.0 and now >= opened_at:
            assert window.should_flush(1, opened_at, now)
        if remaining > 0.0:
            assert not window.should_flush(max_batch - 1, opened_at, now) or window.is_full(max_batch - 1)

    @settings(max_examples=100, deadline=None)
    @given(
        max_batch=st.integers(min_value=1, max_value=32),
        pending=st.integers(min_value=0, max_value=64),
    )
    def test_size_trigger_is_exact(self, max_batch, pending):
        window = BatchWindow(max_batch=max_batch, max_wait_ms=1e9)
        assert window.is_full(pending) == (pending >= max_batch)
        assert window.should_flush(pending, 0.0, 0.0) == (pending >= max_batch)


# -- the continuous decode loop --------------------------------------------------------


class TestContinuousDecodeLoop:
    def test_run_matches_solo_naive_decode(self):
        model = build_model(seed=3)
        rows = random_rows(np.random.default_rng(0), count=7)
        loop = ContinuousDecodeLoop(model, max_slots=3, page_size=4)
        outputs = loop.run(rows, max_length=6)
        for row, output in zip(rows, outputs):
            oracle = model.generate(row[None], max_length=6, use_cache=False)[0]
            assert np.array_equal(output, oracle)

    def test_admissions_beyond_max_slots_queue_and_complete(self):
        model = build_model(seed=4, eos_id=-1)
        rows = random_rows(np.random.default_rng(1), count=9)
        loop = ContinuousDecodeLoop(model, max_slots=2, page_size=2)
        outputs = loop.run(rows, max_length=4)
        assert len(outputs) == 9
        stats = loop.stats()
        assert stats["completed"] == 9 and stats["pending"] == 0 and stats["active"] == 0
        assert stats["peak_active"] <= 2
        for row, output in zip(rows, outputs):
            assert np.array_equal(output, model.generate(row[None], max_length=4, use_cache=False)[0])

    def test_ticket_read_mid_flight_raises(self):
        loop = ContinuousDecodeLoop(build_model(seed=5), max_slots=2)
        ticket = loop.submit(np.array([5, 6], dtype=np.int64), max_length=3)
        assert not ticket.done
        with pytest.raises(ServingStateError, match="still decoding"):
            _ = ticket.result
        loop.drive([ticket])
        assert ticket.result is not None

    def test_step_failure_poisons_in_flight_tickets_and_loop_recovers(self, monkeypatch):
        model = build_model(seed=6, eos_id=-1)
        loop = ContinuousDecodeLoop(model, max_slots=2, page_size=2)
        original = model.lm_logits

        def broken(*args, **kwargs):
            raise RuntimeError("injected logits failure")

        monkeypatch.setattr(model, "lm_logits", broken)
        tickets = [loop.submit(row, max_length=3) for row in random_rows(np.random.default_rng(2), 2)]
        loop.drive(tickets)
        for ticket in tickets:
            with pytest.raises(ServingStateError, match="injected logits failure"):
                _ = ticket.result
        assert loop.stats()["failed"] == 2

        monkeypatch.setattr(model, "lm_logits", original)
        rows = random_rows(np.random.default_rng(3), 3)
        outputs = loop.run(rows, max_length=3)
        for row, output in zip(rows, outputs):
            assert np.array_equal(output, model.generate(row[None], max_length=3, use_cache=False)[0])

    def test_loop_registry_memoizes_per_model_and_knobs(self):
        model = build_model(seed=7)
        loop = continuous_loop_for(model, dtype="float64", max_slots=4, page_size=8)
        assert continuous_loop_for(model, dtype="float64", max_slots=4, page_size=8) is loop
        assert continuous_loop_for(model, dtype="float64", max_slots=2, page_size=8) is not loop
        assert continuous_loop_for(build_model(seed=8), dtype="float64", max_slots=4, page_size=8) is not loop
        loop.run(random_rows(np.random.default_rng(4), 2), max_length=3)
        stats = continuous_loop_stats(model)
        assert "dtype=float64,slots=4,page=8" in stats
        assert stats["dtype=float64,slots=4,page=8"]["completed"] >= 2
        assert "arena" in stats["dtype=float64,slots=4,page=8"]

    @pytest.mark.slow
    def test_concurrent_callers_share_one_batch_soak(self):
        """Soak: many threads drive one loop at once; every output still solo-exact."""
        model = build_model(seed=9, num_layers=2)
        loop = ContinuousDecodeLoop(model, max_slots=4, page_size=4)
        rng = np.random.default_rng(5)
        per_thread_rows = [random_rows(rng, count=6) for _ in range(4)]
        results: dict[int, list] = {}
        errors: list[Exception] = []

        def worker(index):
            try:
                results[index] = loop.run(per_thread_rows[index], max_length=5)
            except Exception as error:  # noqa: BLE001 - surface to the main thread
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        for index, rows in enumerate(per_thread_rows):
            for row, output in zip(rows, results[index]):
                oracle = model.generate(row[None], max_length=5, use_cache=False)[0]
                assert np.array_equal(output, oracle)
        stats = loop.stats()
        assert stats["completed"] == 24
        assert stats["peak_active"] <= 4


# -- pipeline integration --------------------------------------------------------------


class TestPipelineContinuous:
    @pytest.fixture(scope="class")
    def env(self, serving_model_env):
        return serving_model_env

    @pytest.fixture(scope="class")
    def requests(self, env):
        requests = []
        for example in env["nvbench"].examples[:6]:
            schema = env["pool"].get(example.db_id).schema
            requests.append(Request(task="text_to_vis", question=example.question, schema=schema))
        return requests

    def test_continuous_and_static_pipelines_agree(self, env, requests):
        pipeline = Pipeline.from_model(env["model"])
        sources = [pipeline.prepare(request).source for request in requests]
        static_outputs = [strip_modality_tags(output) for output in env["model"].predict_batch(sources)]
        assert [r.output for r in pipeline.serve(requests)] == static_outputs

    def test_continuous_predict_batch_matches_static_predict_batch(self, env):
        backend = env["model"]
        sources = ["<NL> show the number of artists per country", "<NL> list all exhibitions by year"]
        assert continuous_predict_batch(backend, sources) == backend.predict_batch(sources)
        assert continuous_predict_batch(backend, []) == []

    @pytest.mark.parametrize("max_length", [0, -1])
    def test_continuous_predict_batch_rejects_budget_below_one(self, env, max_length):
        with pytest.raises(ModelConfigError):
            continuous_predict_batch(env["model"], ["<NL> list all exhibitions by year"], max_length=max_length)

    def test_pipeline_stats_expose_scheduler_counters(self, env, requests):
        pipeline = Pipeline.from_model(env["model"])
        pipeline.serve(requests)
        stats = pipeline.stats()
        assert "continuous" in stats
        loops = stats["continuous"].get("text_to_vis", {})
        assert loops, "serving through the continuous path must register a loop"
        for loop_stats in loops.values():
            assert loop_stats["completed"] >= len(requests)
            assert loop_stats["arena"]["pages_in_use"] == 0
