"""The correctness oracle: what every output is compared with.

Serving responses are compared with synchronous ``Pipeline.serve`` on a
pipeline that has served nothing before.  A closed loop completes several
hundred unique requests in a run and the oracle needs one model pass for each,
so above a few dozen requests the work is split over two worker processes —
each builds its own fresh pipeline from the registry file, as a shard would —
which halves the time the oracle adds to a run.  The workers are plain
``subprocess`` children of this interpreter, waited for before the answers are
read: ``multiprocessing``'s spawn context would also start a resource-tracker
process that outlives the run by a moment.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from e2ebench.loadgen import Record

ORACLE_WORKERS = 2
_POOL_THRESHOLD = 48


def response_view(response) -> dict:
    """The part of a response the oracle compares: everything but serving metadata.

    ``cached``, ``telemetry`` and ``request_id`` describe how a response was
    served, not what was answered, and legitimately differ between tiers.
    """
    view = response.as_dict()
    for key in ("cached", "telemetry", "request_id"):
        view.pop(key)
    return view


def _serve_slice(registry_path: str, ref: str, requests: list) -> list[dict]:
    from repro.deploy.registry import ModelRegistry

    pipeline = ModelRegistry(registry_path).build_pipeline(ref)
    return [response_view(response) for response in pipeline.serve(requests, strict=False)]


def _worker() -> None:
    """An oracle worker's whole life: one pickled job on stdin, its answers on stdout."""
    answers = _serve_slice(*pickle.load(sys.stdin.buffer))
    sys.stdout.buffer.write(pickle.dumps(answers))


def _serve_slice_in_child(job: tuple) -> list[dict]:
    import repro

    # The child finds this package and the measured ``repro`` where this process did.
    roots = [str(Path(__file__).resolve().parent.parent), str(Path(repro.__file__).resolve().parent.parent)]
    environment = {**os.environ, "PYTHONPATH": os.pathsep.join(roots)}
    child = subprocess.run(  # returns only once the child has ended
        [sys.executable, "-c", "from e2ebench.oracle import _worker; _worker()"],
        input=pickle.dumps(job), stdout=subprocess.PIPE, env=environment, check=True,
    )
    return pickle.loads(child.stdout)


def oracle_views(fixture, requests: list) -> list[dict]:
    """Oracle answers for ``requests`` (unique ones), position-aligned."""
    if len(requests) < _POOL_THRESHOLD:
        return [response_view(response) for response in fixture.twin().serve(requests, strict=False)]
    size = -(-len(requests) // ORACLE_WORKERS)
    slices = [requests[start : start + size] for start in range(0, len(requests), size)]
    jobs = [(str(fixture.registry_path), fixture.ref, part) for part in slices]
    with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
        return [view for answers in pool.map(_serve_slice_in_child, jobs) for view in answers]


def check_serving(fixture, factory, records: list[Record]) -> None:
    """Fail every record whose response differs from the oracle's answer.

    ``record.index`` is the request number the record carried (repeats share
    a number); ``record.output`` is the served :class:`Response`, or ``None``
    when the request never produced one.
    """
    numbers = sorted({record.index for record in records})
    views = dict(zip(numbers, oracle_views(fixture, [factory.request(number) for number in numbers])))
    for record in records:
        if record.output is None:
            record.fail("no response")
        elif record.output.error is not None:
            record.fail(f"error response: {record.output.error}: {record.output.detail}")
        elif response_view(record.output) != views[record.index]:
            record.fail("response differs from sync Pipeline.serve on a fresh pipeline")


def visible_tokens(text: str) -> int:
    """Output tokens a client sees: the tokenizer joins whole tokens with spaces."""
    return len(text.split())


def outputs_digest(outputs: list) -> str:
    """SHA-256 over outputs in order, so two commits can be compared for identical outputs."""
    digest = hashlib.sha256()
    for output in outputs:
        if isinstance(output, np.ndarray):
            digest.update(output.astype(np.int64).tobytes())
        else:
            digest.update(json.dumps(output, sort_keys=True, ensure_ascii=False).encode("utf-8"))
        digest.update(b"\x1e")
    return digest.hexdigest()
