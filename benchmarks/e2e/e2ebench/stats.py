"""Order statistics, span self-times and the paired comparison rule.

Pure functions over plain lists and dicts: nothing here imports numpy or
``repro``, so the smoke test can check every helper on hand-built inputs.
"""

from __future__ import annotations

import statistics


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values`` by linear interpolation.

    An empty sample reads 0.0: a layer a workload never calls has no timings,
    and its metrics are reported as zero work rather than left out.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def mean(values) -> float:
    """Arithmetic mean; 0.0 for an empty sample."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them.

    A single value has no spread: it is returned three times.
    """
    values = list(values)
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Interquartile range over the median: the run-to-run spread the driver checks."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of every span: its duration minus the part its children cover.

    ``spans`` are dicts with ``id``, ``parent`` (an id or ``None``), ``start``
    and ``end``.  Children may overlap each other (two coroutines of one
    request), so the covered part is the length of the union of the child
    intervals clipped to the parent, not the sum of their durations.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        start = max(span["start"], parent["start"])
        end = min(span["end"], parent["end"])
        if end > start:
            children.setdefault(parent["id"], []).append((start, end))
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            if end <= cursor:
                continue
            covered += end - max(start, cursor)
            cursor = end
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name, in the spans' own time unit."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + own[span["id"]]
    return totals


#: The guide's minimum: fewer pairs than this cannot resolve anything.
MIN_PAIRS = 10


def paired_verdict(parent: list[float], change: list[float], better: str) -> dict:
    """The paired rule of the choosing-metrics guide for one metric on one workload.

    ``parent[i]`` and ``change[i]`` are the two sides of pair ``i``.  A side
    wins a pair when its value is better; ties count for neither.  The verdict
    is ``"better"`` or ``"worse"`` only when at least ``MIN_PAIRS`` pairs were
    run, one side wins at least nine tenths of them *and* the medians differ
    by more than the parent's interquartile range; anything else is
    ``"unresolved"``.
    """
    pairs = list(zip(parent, change))
    sign = 1.0 if better == "higher" else -1.0
    change_wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    parent_wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    p_q1, p_median, p_q3 = quartiles(parent)
    _, c_median, _ = quartiles(change)
    resolvable = len(pairs) >= MIN_PAIRS and abs(c_median - p_median) > (p_q3 - p_q1)
    needed = 0.9 * len(pairs)
    verdict = "unresolved"
    if resolvable and change_wins >= needed:
        verdict = "better"
    elif resolvable and parent_wins >= needed:
        verdict = "worse"
    return {
        "pairs": len(pairs),
        "change_wins": change_wins,
        "parent_wins": parent_wins,
        "parent_median": p_median,
        "parent_iqr": p_q3 - p_q1,
        "change_median": c_median,
        "ratio": c_median / p_median if p_median else float("nan"),
        "verdict": verdict,
    }
