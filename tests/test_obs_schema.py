"""Span/metric name reconciliation: one inventory, everywhere.

``repro.obs.names`` is the single source of truth for every span name the
tracing layer emits and every metric name the serving stack records — the
observability twin of ``test_serving_protocol_codes``.  This suite pins
every derived surface to it:

* the ``SPAN_*`` / ``METRIC_*`` constants and the derived name tuples;
* the names the instrumented sources actually reference (no respelled
  strings, no constants that nothing emits);
* the naming conventions (layer-dotted, unit-suffixed);
* the documentation tables in ``docs/observability.md``.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.obs import names
from repro.obs.names import METRIC_MEANINGS, METRIC_NAMES, SPAN_MEANINGS, SPAN_NAMES

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every source file that records spans or metrics.
INSTRUMENTED_SOURCES = (
    "src/repro/serving/server.py",
    "src/repro/serving/sharded.py",
    "src/repro/serving/shard_worker.py",
    "src/repro/serving/pipeline.py",
    "src/repro/serving/continuous.py",
    "src/repro/nn/decode_cache.py",
)

KNOWN_LAYERS = {"gateway", "server", "shard", "pipeline", "continuous", "arena", "decode"}


def _constants(prefix: str) -> dict[str, str]:
    return {
        name: value
        for name, value in vars(names).items()
        if name.startswith(prefix) and isinstance(value, str) and name not in ("SPAN_NAMES", "METRIC_NAMES")
    }


def test_name_tuples_derive_from_the_meanings():
    assert SPAN_NAMES == tuple(SPAN_MEANINGS)
    assert METRIC_NAMES == tuple(METRIC_MEANINGS)
    assert all(meaning.strip() for meaning in SPAN_MEANINGS.values())
    assert all(meaning.strip() for meaning in METRIC_MEANINGS.values())


def test_constants_cover_the_meanings_exactly():
    assert set(_constants("SPAN_").values()) == set(SPAN_MEANINGS)
    assert set(_constants("METRIC_").values()) == set(METRIC_MEANINGS)


def test_names_follow_the_layer_dot_event_convention():
    for name in SPAN_NAMES + METRIC_NAMES:
        layer, _, event = name.partition(".")
        assert layer in KNOWN_LAYERS, f"{name!r} uses unknown layer prefix {layer!r}"
        assert event and re.fullmatch(r"[a-z0-9_]+", event), f"{name!r} event is not snake_case"


def test_metric_meanings_declare_the_instrument_kind():
    for name, meaning in METRIC_MEANINGS.items():
        kind = meaning.split(":", 1)[0]
        assert kind in ("counter", "gauge", "histogram"), f"{name!r} meaning lacks a kind prefix"
        if kind == "counter":
            assert name.endswith("_total"), f"counter {name!r} must end in _total"
        if name.endswith("_ms"):
            assert kind == "histogram", f"{name!r} carries _ms but is a {kind}"


def test_both_tiers_name_their_queue_wait_and_the_sharded_tier_its_diverted_placements():
    # The layer a dispatch change moves is named on both tiers, with one unit.
    waits = {names.METRIC_SERVER_QUEUE_WAIT_MS, names.METRIC_GATEWAY_QUEUE_WAIT_MS}
    assert waits == {"server.queue_wait_ms", "gateway.queue_wait_ms"}
    assert all(METRIC_MEANINGS[name].startswith("histogram:") for name in waits)
    assert names.METRIC_GATEWAY_PLACEMENTS_DIVERTED_TOTAL == "gateway.placements_diverted_total"
    assert METRIC_MEANINGS[names.METRIC_GATEWAY_PLACEMENTS_DIVERTED_TOTAL].startswith("counter:")


def test_sources_reference_only_known_constants_and_use_all_of_them():
    span_constants = _constants("SPAN_")
    metric_constants = _constants("METRIC_")
    defined = set(span_constants) | set(metric_constants) | {"SPAN_NAMES", "METRIC_NAMES", "SPAN_STATUSES"}
    referenced: set[str] = set()
    for relative in INSTRUMENTED_SOURCES:
        source = (REPO_ROOT / relative).read_text(encoding="utf-8")
        referenced |= set(re.findall(r"\b(?:SPAN|METRIC)_[A-Z_]+\b", source))
    unknown = referenced - defined
    assert not unknown, f"instrumented sources reference undefined names: {sorted(unknown)}"
    # every pinned name is actually emitted somewhere — no dead inventory
    unused = (set(span_constants) | set(metric_constants)) - referenced
    assert not unused, f"names.py defines names nothing records: {sorted(unused)}"


def test_no_respelled_name_strings_in_instrumented_sources():
    # Instrumentation must go through the constants; a literal "gateway.xyz"
    # style string in a record/begin call would dodge the inventory.
    values = set(SPAN_NAMES) | set(METRIC_NAMES)
    for relative in INSTRUMENTED_SOURCES:
        source = (REPO_ROOT / relative).read_text(encoding="utf-8")
        for value in values:
            pattern = rf"(?:TRACES\.(?:root|begin|record)|METRICS\.\w+)\(\s*[\"']{re.escape(value)}[\"']"
            assert not re.search(pattern, source), f"{relative} respells {value!r} instead of using its constant"


def test_docs_tables_list_every_name():
    docs = (REPO_ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
    for name in SPAN_NAMES + METRIC_NAMES:
        assert f"`{name}`" in docs, f"docs/observability.md does not document {name!r}"
