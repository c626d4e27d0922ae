"""Smoke test of the end-to-end benchmark: names, units, oracle, helpers.

Runs every workload at ``--smoke`` scale, untraced and traced, as the
benchmark driver would (one process per run), and checks that each prints
exactly the metrics ``BENCHMARK.json`` lists, each with its unit, and that
nothing failed the oracle.  No timing is asserted anywhere.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from e2ebench import loadgen, stats  # noqa: E402 - after the path insert

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def test_smoke_runs_print_exactly_the_listed_metrics():
    runs = {
        (name, trace): subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3", "--smoke", "--trace", str(trace)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for name in WORKLOADS
        for trace in (0, 1)
    }
    for (name, trace), process in runs.items():
        out, err = process.communicate(timeout=240)
        assert process.returncode == 0, f"{name} trace {trace} failed:\n{err[-2000:]}"
        result = json.loads(out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert list(result["metrics"]) == [metric["name"] for metric in listed]
        for metric in listed:
            reading = result["metrics"][metric["name"]]
            assert reading["unit"] == metric["unit"]
            assert isinstance(reading["value"], float)
        if trace:
            for counter in ("nn.arena_pages_in_use_end", "sharded.requeues", "sharded.restarts", "loadgen.failed"):
                assert result["metrics"][counter]["value"] == 0.0
        else:
            assert result["metrics"]["ok_share"]["value"] == 1.0
            assert all(reading["value"] > 0 for reading in result["metrics"].values())


def test_spec_names_the_five_workloads_and_ten_end_to_end_metrics():
    assert WORKLOADS == ["decode_burst", "eval_batch", "thread_open", "sharded_closed", "repeat_heavy"]
    assert len(SPEC["end_to_end"]) == 10
    assert "setup_s" in [metric["name"] for metric in SPEC["end_to_end"]]
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])


def test_percentile_and_quartiles_on_hand_built_inputs():
    assert stats.percentile([], 50) == 0.0
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.percentile([1, 2, 3, 4, 5], 50) == 3.0
    assert stats.percentile([10, 20, 30, 40], 50) == 25.0
    assert stats.percentile(range(11), 90) == 9.0
    assert stats.quartiles([1, 2, 3, 4, 5, 6, 7]) == (2.0, 4.0, 6.0)
    assert stats.spread([4.0, 4.0, 4.0]) == 0.0
    assert stats.spread([1, 2, 3, 4, 5, 6, 7]) == pytest.approx(1.0)


def test_self_time_is_the_span_minus_the_union_of_its_children():
    spans = [
        {"id": 1, "parent": None, "name": "request", "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "name": "queue", "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "name": "execute", "start": 3.0, "end": 8.0},  # overlaps the queue span
        {"id": 4, "parent": 3, "name": "step", "start": 3.5, "end": 5.5},
        {"id": 5, "parent": 99, "name": "orphan", "start": 0.0, "end": 2.0},  # parent was never recorded
    ]
    own = stats.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 7.0)  # children cover [1, 8]
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(5.0 - 2.0)
    assert own[4] == pytest.approx(2.0)
    assert own[5] == pytest.approx(2.0)
    assert stats.self_time_by_name(spans)["request"] == pytest.approx(3.0)


def test_paired_verdict_needs_nine_wins_in_ten_and_medians_apart():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.2]
    faster = [value * 0.8 for value in parent]
    assert stats.paired_verdict(parent, faster, "lower")["verdict"] == "better"
    assert stats.paired_verdict(parent, faster, "higher")["verdict"] == "worse"
    # Nine wins, but by less than the parent's own interquartile range.
    nudged = [value - 0.1 for value in parent[:9]] + [parent[9] + 0.1]
    assert stats.paired_verdict(parent, nudged, "lower")["verdict"] == "unresolved"
    # Far apart in the median, but the change wins only six pairs.
    mixed = [50.0] * 6 + [150.0] * 4
    assert stats.paired_verdict(parent, mixed, "lower")["verdict"] == "unresolved"
    assert stats.paired_verdict(parent, faster, "lower")["ratio"] == pytest.approx(0.8)
    # Three pairs resolve nothing, however clear they look.
    assert stats.paired_verdict(parent[:3], faster[:3], "lower")["verdict"] == "unresolved"


class VirtualTime:
    """A clock that only moves when the load generator sleeps or a send takes time."""

    def __init__(self, overshoot: float):
        self.now = 0.0
        self.overshoot = overshoot

    def clock(self) -> float:
        return self.now

    async def sleep(self, delay: float) -> None:
        self.now += delay + self.overshoot


def test_open_loop_times_latency_from_the_scheduled_send():
    time = VirtualTime(overshoot=0.003)

    async def send(position, due, sent):
        time.now += 0.010  # the request's service time
        return loadgen.Record(index=position, due=due, sent=sent, done=time.now)

    records = asyncio.run(loadgen.open_loop([0.0, 0.1, 0.2], send, clock=time.clock, sleep=time.sleep))
    assert [record.index for record in records] == [0, 1, 2]
    assert [record.due for record in records] == pytest.approx([0.0, 0.1, 0.2])
    # The generator woke 3 ms late for the second and third send ...
    assert [record.sent - record.due for record in records] == pytest.approx([0.0, 0.003, 0.003])
    # ... and that lag counts into their latency: it is measured from `due`.
    assert records[1].latency_ms == pytest.approx((records[1].done - 0.1) * 1000.0)
    assert records[1].latency_ms > (records[1].done - records[1].sent) * 1000.0
    assert loadgen.loadgen_metrics(records)["loadgen.send_lag_ms_p99"] == pytest.approx(3.0, abs=0.01)


def test_schedule_is_a_function_of_the_seed():
    phases = [("lo", 10.0, 2.0), ("hi", 40.0, 1.0)]
    first = loadgen.build_schedule(5, phases, repeat_share=0.25)
    assert first == loadgen.build_schedule(5, phases, repeat_share=0.25)
    assert first != loadgen.build_schedule(6, phases, repeat_share=0.25)
    assert [arrival.phase for arrival in first].count("lo") == 20
    assert [arrival.phase for arrival in first].count("hi") == 40
    for name, _rate, window in phases:
        offsets = [arrival.offset for arrival in first if arrival.phase == name]
        assert offsets == sorted(offsets) and 0.0 < offsets[0] and offsets[-1] < window
    seen = set()
    for arrival in first:
        assert arrival.repeat == (arrival.request in seen)
        seen.add(arrival.request)
    assert any(arrival.repeat for arrival in first)


def test_request_list_is_a_function_of_the_seed(tmp_path):
    from e2ebench.fixtures import TASKS, RequestFactory, ServingFixture

    fixture = ServingFixture(tmp_path / "work")
    one, same, other = (RequestFactory(fixture, seed) for seed in (1, 1, 2))
    numbers = range(24)
    assert [one.request(n) for n in numbers] == [same.request(n) for n in numbers]
    assert [one.request(n) for n in numbers] != [other.request(n) for n in numbers]
    for block in range(6):
        assert sorted(one.task(block * 4 + offset) for offset in range(4)) == sorted(TASKS)
    keys = {fixture.pipeline.prepare(one.request(n)).key for n in numbers}
    assert len(keys) == len(numbers)  # all-unique: no two requests share a cache identity
