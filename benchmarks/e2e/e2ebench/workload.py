"""What a workload is, and the two ways one is run: untraced and traced.

End-to-end metrics come from the untraced run.  The traced run measures the
same workload for the same total time — the first half untraced, the second
half with the layer wrappers on — so the per-layer numbers and the cost of
tracing itself (``obs.traced_overhead_share``) come from one process.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import sys
import time
from pathlib import Path

from e2ebench.loadgen import Record, loadgen_metrics, summarize
from e2ebench.oracle import outputs_digest
from e2ebench.stats import self_time_by_name
from e2ebench.tracing import Tracer, install_layer_wrappers

#: Set-up is repeated and its median reported: one set-up is a few file
#: writes and a fork or two, and a single reading would mostly measure the
#: page cache.
SETUP_REPEATS = 9
#: How many of a run's first outputs (in request order) go into the digest:
#: closed loops complete a different number of requests every run, but always
#: at least these.
DIGEST_OUTPUTS = 64


class Workload:
    """One named set of inputs and the code that drives the system with it.

    Subclasses build their fixtures in :meth:`setup`, reach steady state in
    :meth:`warm`, and measure in :meth:`phase`, which may be called more than
    once on one set-up (each call draws fresh inputs).  ``limits`` is the
    ``(ttft_ms, latency_ms)`` a request must meet to count toward
    ``slo_met_share``.
    """

    name = ""
    limits = (0.0, 0.0)

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        self.seed = seed
        self.smoke = smoke
        self.out_dir = out_dir
        self.tracer: Tracer | None = None

    def client_span(self, name: str, request: int):
        """The load generator's own span around one request, burst or call.

        Layer spans opened while it is open become its children and carry its
        request number; outside a traced phase this is a no-op.
        """
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, "loadgen", request=request)

    def setup(self) -> None:
        raise NotImplementedError

    def prime(self) -> None:
        """One-off set-up too slow to repeat (filling a working set); timed into ``setup_s``."""

    def warm(self) -> None:
        raise NotImplementedError

    def phase(self, seconds: float) -> tuple[list[Record], float]:
        """Measure for about ``seconds``; returns the records and the exact timed span."""
        raise NotImplementedError

    def stop(self) -> None:
        """Stop servers and child processes; fixtures the oracle needs stay."""

    def close(self) -> None:
        """Release everything, files included."""

    def verify(self, records: list[Record]) -> None:
        """Compare outputs with the oracle, failing the records that differ."""
        raise NotImplementedError

    def latency_of(self, record: Record) -> bool:
        """Whether ``record`` feeds the latency, TTFT and gap percentiles."""
        return True

    def adjust(self, metrics: dict) -> None:
        """Replace end-to-end metrics whose general definition does not fit this workload."""

    def layers(self, records: list[Record], tracer: Tracer) -> dict:
        """Per-layer metrics of the traced phase that produced ``records``."""
        raise NotImplementedError

    def digest_output(self, record: Record):
        """The JSON-able or array form of a record's output for the digest."""
        return record.output


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _digest(workload: Workload, records: list[Record]) -> tuple[str, int]:
    first = sorted(records, key=lambda record: (record.index, record.sent))[:DIGEST_OUTPUTS]
    return outputs_digest([workload.digest_output(record) for record in first]), len(first)


def _finish(workload: Workload, records: list[Record], metrics: dict) -> dict:
    failed = [record for record in records if not record.ok]
    for record in failed[:5]:
        print(f"FAIL {workload.name} #{record.index} {record.kind}: {record.detail}", file=sys.stderr)
    digest, hashed = _digest(workload, records)
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
        "outputs_sha256": digest,
        "outputs_hashed": hashed,
    }


def run_untraced(workload: Workload, seconds: float) -> dict:
    """Set up (several times), warm, measure, stop, verify; the end-to-end metrics."""
    setups = []
    try:
        for _ in range(1 if workload.smoke else SETUP_REPEATS):
            workload.stop()
            workload.close()
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
        started = time.perf_counter()
        workload.prime()
        primed = time.perf_counter() - started
        workload.warm()
        records, elapsed = workload.phase(seconds)
        workload.stop()
        rss = peak_rss_mb()
        workload.verify(records)
        metrics = summarize(records, elapsed, workload.limits, workload.latency_of)
        workload.adjust(metrics)
        metrics["setup_s"] = statistics.median(setups) + primed
        metrics["peak_rss_mb"] = rss
        result = _finish(workload, records, metrics)
        result["samples"] = {
            "latency": sum(1 for record in records if record.ok and workload.latency_of(record)),
            "timed_s": elapsed,
        }
        return result
    finally:
        workload.stop()
        workload.close()


def run_traced(workload: Workload, seconds: float) -> dict:
    """Half the time untraced, half with the wrappers on; the per-layer metrics."""
    from repro import obs

    tracer = Tracer()
    try:
        workload.setup()
        workload.prime()
        workload.warm()
        plain, plain_s = workload.phase(seconds / 2.0)
        obs.METRICS.reset()
        install_layer_wrappers(tracer)
        workload.tracer = tracer
        try:
            traced, traced_s = workload.phase(seconds / 2.0)
            workload.tracer = None
            metrics = workload.layers(traced, tracer)
        finally:
            workload.tracer = None
            tracer.uninstall()
        workload.stop()
        workload.verify(plain + traced)
        plain_rate = sum(record.ok for record in plain) / plain_s
        traced_rate = sum(record.ok for record in traced) / traced_s
        metrics.update(loadgen_metrics(traced))
        metrics["obs.traced_overhead_share"] = 1.0 - traced_rate / plain_rate if plain_rate else 0.0
        result = _finish(workload, plain + traced, metrics)
        result["self_time_s"] = self_time_by_name(tracer.spans)
        trace_path = workload.out_dir / f"{workload.name}.trace.json"
        header = {"workload": workload.name, "seed": workload.seed, "seconds": traced_s}
        tracer.write(trace_path, {**header, "self_time_s": result["self_time_s"]})
        result["trace_file"] = str(trace_path)
        result["spans"] = len(tracer.spans)
        return result
    finally:
        tracer.uninstall()
        workload.stop()
        workload.close()
