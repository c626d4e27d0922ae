"""Design gates: the ratios and agreement bars no end-to-end metric carries.

The end-to-end benchmark (``benchmarks/e2e``) measures how fast the stack is;
these cases check *why the stack is built the way it is* — that the K/V cache
beats naive re-decoding, that token-level continuous batching beats lock-step
request batches on throughput and on short-request latency, and that a
calibrated int8 model keeps float64's tokens in a checkpoint a sixth the size.
Models come from the end-to-end benchmark's fixtures, so both measure the same
system.

Every timing ratio compares the best of three *interleaved* runs of each side:
a slow stretch of a shared host hits both sides of a round, and the best
reading of each is the one least disturbed.  Only ratios measured at >= 1.5x
their threshold are asserted at the default smoke scale; the precision sweep's
speed gates and the fine-tuned serving sweep need a minute of training and
calibration each and run under ``REPRO_BENCH_SCALE=paper`` (``make
bench-gates``), which also rewrites ``BENCH_quant_policy.json``.
"""

from __future__ import annotations

import json
import os
import queue
import random
import statistics
import sys
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.core.model import QUANT_POLICY_KEY
from repro.nn.calibration import QUANT_MODES, apply_policy, calibrate_policy, token_agreement
from repro.nn.optim import Adam
from repro.serving import Pipeline, Request, ServerConfig, serve_requests
from repro.serving.continuous import ContinuousDecodeLoop

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))

from e2ebench.fixtures import ServingFixture, build_decode_model  # noqa: E402 - after the path insert

PAPER = os.environ.get("REPRO_BENCH_SCALE", "smoke").lower() == "paper"
POLICY_ARTIFACT = HERE.parent / "BENCH_quant_policy.json"

SLOTS = 4  # continuous batch slots == static batch size
PAGE_SIZE = 16
SHORT_BUDGET, LONG_BUDGET = 8, 64  # every fourth request is long
JOIN_TIMEOUT_S = 60.0


def best_of_three(*measures) -> list[float]:
    """The lowest reading each callable returns over three interleaved rounds."""
    best = [float("inf")] * len(measures)
    for _ in range(3):
        for side, measure in enumerate(measures):
            best[side] = min(best[side], measure())
    return best


def seconds(function) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


def fastest_of_three(*functions) -> list[float]:
    """The shortest wall time of each callable over three interleaved rounds."""
    return best_of_three(*(partial(seconds, function) for function in functions))


@pytest.fixture(scope="module")
def decode_model():
    model = build_decode_model()
    # BLAS start-up and the position-bias memo must not bill whichever side runs first.
    model.generate(np.full((1, 12), 4), max_length=2)
    return model


def mixed_budget_rows(count: int, rng: np.random.Generator) -> list[tuple[np.ndarray, int]]:
    """``count`` (source row, decode budget) pairs: three short, then one long."""
    return [
        (rng.integers(4, 96, size=12).astype(np.int64), LONG_BUDGET if index % 4 == 3 else SHORT_BUDGET)
        for index in range(count)
    ]


# -- K/V cache vs naive re-decoding -----------------------------------------------------


@pytest.mark.parametrize(
    "num_beams, rows, budget",
    [(1, 8, 64), (4, 4, 24)] if PAPER else [(1, 4, 32), (4, 2, 16)],
    ids=["greedy", "beam"],
)
def test_cached_decode_is_faster_than_naive(decode_model, num_beams, rows, budget):
    inputs = np.random.default_rng(0).integers(4, 96, size=(rows, 16))

    def decode(use_cache: bool):
        return decode_model.generate(inputs, max_length=budget, num_beams=num_beams, use_cache=use_cache)

    naive, cached = fastest_of_three(lambda: decode(False), lambda: decode(True))
    assert naive / cached >= 1.0  # measured 4-7x on this model


# -- continuous batching vs lock-step request batches -----------------------------------


def test_continuous_burst_outruns_static_batches(decode_model):
    burst = mixed_budget_rows(16 if PAPER else 8, np.random.default_rng(1))

    def static() -> None:
        # FIFO batches, each a greedy generate call to its longest member's budget.
        for begin in range(0, len(burst), SLOTS):
            chunk = burst[begin : begin + SLOTS]
            width = max(budget for _, budget in chunk)
            decode_model.generate(np.stack([row for row, _ in chunk]), max_length=width, use_cache=True)

    def continuous() -> None:
        loop = ContinuousDecodeLoop(decode_model, max_slots=SLOTS, page_size=PAGE_SIZE)
        loop.drive([loop.submit(row, max_length=budget) for row, budget in burst])

    # Same useful tokens either way, so the time ratio is the tokens/sec ratio.
    static_s, continuous_s = fastest_of_three(static, continuous)
    assert static_s / continuous_s >= 1.0  # measured 2.0-2.4x (static batches on the same paged step)


def open_loop_latencies(count: int, interval_s: float, answer) -> list[float]:
    """Per-request latency when request ``i`` arrives ``i * interval_s`` after the start.

    One thread per request honours the schedule whatever the completions do;
    ``answer(i)`` blocks until request ``i`` is served.
    """
    latencies = [0.0] * count
    epoch = time.perf_counter() + 0.05

    def client(index: int) -> None:
        time.sleep(max(epoch + index * interval_s - time.perf_counter(), 0.0))
        arrived = time.perf_counter()
        answer(index)
        latencies[index] = time.perf_counter() - arrived

    threads = [threading.Thread(target=client, args=(index,)) for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT_S)
    assert not any(thread.is_alive() for thread in threads)
    return latencies


def test_short_requests_stop_waiting_for_long_batch_mates(decode_model):
    trace = mixed_budget_rows(16, np.random.default_rng(2))
    shorts = [index for index, (_, budget) in enumerate(trace) if budget == SHORT_BUDGET]
    # Arrivals 30 ms apart: a long decode always has short requests arriving behind it.
    interval_s, window_s = 0.030, 0.020

    def short_p50(latencies: list[float]) -> float:
        return statistics.median(latencies[index] for index in shorts)

    def continuous() -> float:
        loop = ContinuousDecodeLoop(decode_model, max_slots=SLOTS, page_size=PAGE_SIZE)
        return short_p50(
            open_loop_latencies(len(trace), interval_s, lambda i: loop.run([trace[i][0]], max_length=trace[i][1]))
        )

    def static() -> float:
        # A micro-batcher: one worker drains a FIFO into batches of up to
        # SLOTS (waiting at most the window to fill one), decodes each to its
        # longest budget and answers every member when the batch completes.
        inbox: queue.Queue = queue.Queue()
        done = [threading.Event() for _ in trace]

        def worker() -> None:
            served = 0
            while served < len(trace):
                batch = [inbox.get()]
                deadline = time.perf_counter() + window_s
                while len(batch) < SLOTS:
                    try:
                        batch.append(inbox.get(timeout=max(deadline - time.perf_counter(), 0.0)))
                    except queue.Empty:
                        break
                width = max(trace[index][1] for index in batch)
                decode_model.generate(np.stack([trace[index][0] for index in batch]), max_length=width, use_cache=True)
                for index in batch:
                    done[index].set()
                served += len(batch)

        def answer(index: int) -> None:
            inbox.put(index)
            done[index].wait(JOIN_TIMEOUT_S)

        server = threading.Thread(target=worker)
        server.start()
        latencies = open_loop_latencies(len(trace), interval_s, answer)
        server.join(timeout=JOIN_TIMEOUT_S)
        assert not server.is_alive()
        return short_p50(latencies)

    static_p50, continuous_p50 = best_of_three(static, continuous)
    assert static_p50 / continuous_p50 >= 1.5  # measured 8-15x


# -- calibrated int8 vs float64 ---------------------------------------------------------


def saved_bytes(state: dict[str, np.ndarray], path: Path) -> int:
    """On-disk size of ``state`` saved the way ``DataVisT5.save`` saves weights."""
    np.savez(path, **state)
    return path.stat().st_size


def test_calibrated_int8_keeps_float64_tokens_in_a_sixth_of_the_bytes(tmp_path):
    """Calibrated int8 greedy decode: agreement >= 0.99, checkpoint >= 6x smaller.

    At paper scale also float32 no slower than float64 and int8 >= 1.5x
    faster; at smoke scale a handful of training steps and a reduced
    calibration set check the deterministic halves only.
    """
    train_steps, calibration_rows, eval_rows, budget = (150, 96, 32, 64) if PAPER else (8, 16, 8, 16)
    model = build_decode_model()
    vocab_size = model.config.vocab_size
    # Quantization error is measured on weights an optimizer has moved, not
    # on the seeded initialisation whose near-tied logits flip on any rounding.
    rng = np.random.default_rng(0)
    optimizer = Adam(model.parameters(), learning_rate=3e-3)
    model.train()
    for _ in range(train_steps):
        sources = rng.integers(4, vocab_size - 1, size=(8, 16))
        optimizer.zero_grad()
        model(sources, labels=sources + 1)["loss"].backward()
        optimizer.step()
    model.eval()
    trained_state = model.state_dict()
    # Evaluation and calibration rows come from a stream training never saw.
    rng = np.random.default_rng(123)
    eval_inputs = rng.integers(4, vocab_size - 1, size=(eval_rows, 16))
    calibration_inputs = rng.integers(4, vocab_size - 1, size=(calibration_rows, 16))

    def sibling():
        clone = build_decode_model()
        clone.load_state_dict(trained_state)
        return clone

    calibrated = sibling()
    calibration_start = time.perf_counter()
    # Calibrate to a stricter bar than the gate: the search only sees the
    # calibration set, and the slack absorbs generalisation error.
    policy, stats = calibrate_policy(
        calibrated, calibration_inputs, alpha=0.5, target_agreement=0.999, max_float_fraction=0.10, max_length=budget
    )
    apply_policy(calibrated, policy, stats)
    calibration_seconds = time.perf_counter() - calibration_start

    def decode(target, dtype: str) -> np.ndarray:
        return target.generate(eval_inputs, max_length=budget, dtype=dtype)

    reference = decode(model, "float64")
    agreement = token_agreement(reference, decode(calibrated, "float32"))
    assert agreement >= 0.99

    int8_state = calibrated.int8_state_dict()
    for name in policy.float32_modules:
        if f"{name}.weight" in int8_state:
            int8_state[f"{name}.weight"] = int8_state[f"{name}.weight"].astype(np.float32)
    int8_state[QUANT_POLICY_KEY] = np.array(policy.to_json())
    compression = saved_bytes(trained_state, tmp_path / "fp64.npz") / saved_bytes(int8_state, tmp_path / "int8.npz")
    assert compression >= 6.0

    if not PAPER:
        return
    float64_s, float32_s, int8_s = fastest_of_three(
        lambda: decode(model, "float64"), lambda: decode(model, "float32"), lambda: decode(calibrated, "float32")
    )
    assert float64_s / float32_s >= 1.0
    assert float64_s / int8_s >= 1.5
    uncalibrated = sibling()
    uncalibrated.quantize_int8()  # the collapse exhibit: weight-max quantization of every module
    payload = {
        "benchmark": "quant_policy",
        "policy": policy.as_dict(),
        "calibration_seconds": round(calibration_seconds, 3),
        "calibration_batch_size": calibration_rows,
        "float32_pinned_modules": list(policy.float32_modules),
        "assigned_mode_counts": {mode: sum(m == mode for m in policy.modes.values()) for mode in QUANT_MODES},
        "greedy_agreement_calibrated": agreement,
        "greedy_agreement_uncalibrated": token_agreement(reference, decode(uncalibrated, "float32")),
    }
    POLICY_ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


@pytest.mark.skipif(
    not PAPER,
    reason="needs ~150 fine-tuning steps: before that every request decodes to the same text and any quantizer agrees",
)
def test_calibrated_int8_serving_agrees_with_float64(tmp_path):
    """Calibrated int8 serves >= 0.99 of 72 requests with float64's exact text.

    A seeded regression gate, not a statistical claim: 0.99 of 72 leaves room
    for no mismatch, and other seeded splits of this model measured 69-71 of
    72 (uncalibrated int8: 62-70), so a change that costs the calibrated path
    one more flipped argmax trips it.
    """
    fixture = ServingFixture(tmp_path / "serving")
    model = fixture.model
    requests: list[Request] = []
    targets: list[str] = []
    for example in fixture.examples:
        schema = fixture.pool.get(example.db_id).schema
        requests.append(Request(task="text_to_vis", question=example.question, schema=schema))
        targets.append(example.query_text)
        requests.append(Request(task="vis_to_text", chart=example.query, schema=schema))
        targets.append(example.question)
        requests.append(
            Request(task="fevisqa", question="How many parts are there ?", chart=example.query, schema=schema)
        )
        targets.append(f"there are {len(example.query.to_text().split())} parts")
    # Fine-tune on the exact source encodings the pipeline serves, so the
    # quantization damage lives on serving-format inputs.
    sources = [fixture.pipeline.prepare(request).source for request in requests]
    train_steps, batch_size = 150, 8
    optimizer = model.make_optimizer(total_steps=train_steps, learning_rate=5e-3)
    rng = random.Random(0)
    order = list(range(len(sources)))
    cursor = len(order)
    for _ in range(train_steps):
        if cursor + batch_size > len(order):
            rng.shuffle(order)
            cursor = 0
        chosen = order[cursor : cursor + batch_size]
        cursor += batch_size
        model.train_step(model.collate([sources[i] for i in chosen], [targets[i] for i in chosen]), optimizer)

    paired = list(zip(requests, sources))
    rng.shuffle(paired)
    served = [request for request, _ in paired[:72]]
    held_out = [source for _, source in paired[72:]]  # never served: calibrates the policy
    calibrated = model.clone_architecture()
    calibrated.copy_weights_from(model)
    calibrated.calibrate(held_out, n=128, alpha=0.5, target_agreement=0.999, max_float_fraction=0.25)
    calibrated.quantize_int8()

    def outputs(backend, precision: str) -> list[str]:
        responses, _ = serve_requests(Pipeline.from_model(backend), served, config=ServerConfig(precision=precision))
        return [response.output for response in responses]

    reference = outputs(model, "float64")
    assert len(set(reference)) > 1  # the fine-tuned model tells requests apart
    int8 = outputs(calibrated, "int8")
    assert sum(a == b for a, b in zip(int8, reference)) / len(reference) >= 0.99
