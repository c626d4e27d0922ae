"""Tests for the ``repro.serving`` subsystem.

Covers the acceptance guarantees of the serving layer: micro-batched serving
is bitwise-identical to sequential serving for mixed-task bursts, repeated
requests are answered from the LRU response cache (observable through its hit
counter), and the registry constructs every baseline family from plain config
dicts.
"""

from __future__ import annotations

import pytest

from repro.baselines import GENERATION_BASELINES, TEXT_TO_VIS_BASELINES
from repro.core.config import DataVisT5Config, TrainingConfig
from repro.core.model import DataVisT5
from repro.datasets import generate_nvbench
from repro.errors import ModelConfigError, ServingStateError
from repro.serving import (
    ERROR_BACKEND,
    ERROR_INVALID_REQUEST,
    LRUCache,
    Pipeline,
    PipelineConfig,
    Request,
    available_baselines,
    build_generation,
    build_text_to_vis,
    normalize_key,
    register_generation,
)
from repro.serving.registry import _EXTRA_GENERATION


# -- fixtures -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def nvbench(small_pool):
    return generate_nvbench(small_pool, examples_per_database=6, seed=0)


@pytest.fixture(scope="module")
def mixed_requests(small_pool, nvbench):
    """A burst of >= 8 requests spanning all three servable tasks."""
    examples = nvbench.examples
    requests = []
    for example in examples[:4]:
        schema = small_pool.get(example.db_id).schema
        requests.append(Request(task="text_to_vis", question=example.question, schema=schema))
    for example in examples[4:7]:
        schema = small_pool.get(example.db_id).schema
        requests.append(Request(task="vis_to_text", chart=example.query, schema=schema))
    for example in examples[7:10]:
        schema = small_pool.get(example.db_id).schema
        requests.append(
            Request(
                task="fevisqa",
                question="How many parts are there in the chart ?",
                chart=example.query,
                schema=schema,
            )
        )
    assert len(requests) >= 8
    return requests


def _baseline_pipeline(small_pool, nvbench, **pipeline_overrides) -> Pipeline:
    pipeline = Pipeline.from_config(
        {
            "text_to_vis": {"type": "retrieval", "revise": True},
            "vis_to_text": {"type": "heuristics"},
            "fevisqa": {"type": "heuristics"},
            "pipeline": pipeline_overrides,
        }
    )
    pipeline.backend("text_to_vis").fit(nvbench.examples, small_pool)
    return pipeline


# -- LRU cache ------------------------------------------------------------------------


class TestLRUCache:
    def test_hit_miss_counters(self):
        cache = LRUCache(capacity=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" so "b" is now the stalest entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_get_or_compute_computes_once(self):
        cache = LRUCache(capacity=4)
        calls = []
        for _ in range(3):
            value = cache.get_or_compute("key", lambda: calls.append(1) or "value")
            assert value == "value"
        assert len(calls) == 1
        assert cache.hits == 2 and cache.misses == 1

    def test_zero_capacity_disables_storage(self):
        cache = LRUCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ModelConfigError):
            LRUCache(capacity=-1)

    def test_normalize_key_collapses_case_and_whitespace(self):
        assert normalize_key("Show  Me\tBars") == normalize_key("show me bars")
        assert normalize_key("a b", "c") != normalize_key("a", "b c")


# -- batching -----------------------------------------------------------------------


def _spy_backend_batches(pipeline: Pipeline, task: str, monkeypatch) -> list[int]:
    """Record the size of every batch ``task``'s backend is asked to answer."""
    backend = pipeline.backend(task)
    sizes: list[int] = []
    original = backend.predict_many

    def predict_many(items, *args, **kwargs):
        sizes.append(len(items))
        return original(items, *args, **kwargs)

    monkeypatch.setattr(backend, "predict_many", predict_many)
    return sizes


class TestPipelineBatching:
    def test_results_align_with_submission_order(self, small_pool, nvbench, mixed_requests, monkeypatch):
        pipeline = _baseline_pipeline(small_pool, nvbench, max_batch_size=3)
        sizes = _spy_backend_batches(pipeline, "fevisqa", monkeypatch)
        responses = pipeline.serve(mixed_requests)
        assert [r.task for r in responses] == [r.task for r in mixed_requests]
        solo = _baseline_pipeline(small_pool, nvbench)
        assert [r.output for r in responses] == [solo.submit(request).output for request in mixed_requests]
        assert sizes and max(sizes) <= 3

    def test_misses_split_into_batches_of_max_batch_size(self, small_pool, nvbench, monkeypatch):
        pipeline = _baseline_pipeline(small_pool, nvbench, max_batch_size=4)
        sizes = _spy_backend_batches(pipeline, "vis_to_text", monkeypatch)
        examples = nvbench.examples[:9]
        requests = [
            Request(task="vis_to_text", chart=example.query, schema=small_pool.get(example.db_id).schema)
            for example in examples
        ]
        unique = len({pipeline.prepare(request).key for request in requests})
        pipeline.serve(requests)
        assert sum(sizes) == unique
        assert sizes == [4] * (unique // 4) + ([unique % 4] if unique % 4 else [])

    def test_misaligned_backend_output_is_a_backend_error(self, small_pool, nvbench, monkeypatch):
        pipeline = _baseline_pipeline(small_pool, nvbench)
        backend = pipeline.backend("fevisqa")
        monkeypatch.setattr(backend, "predict_many", lambda sources: [])
        request = Request(task="fevisqa", question="how many bars are there ?", chart=nvbench.examples[0].query)
        with pytest.raises(ServingStateError):
            pipeline.serve([request])
        [response] = pipeline.serve([request], strict=False)
        assert response.error == ERROR_BACKEND and response.output == ""

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ModelConfigError):
            PipelineConfig(max_batch_size=0)


# -- registry -------------------------------------------------------------------------


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(TEXT_TO_VIS_BASELINES))
    def test_builds_every_text_to_vis_baseline(self, name):
        baseline = build_text_to_vis({"type": name})
        assert isinstance(baseline, TEXT_TO_VIS_BASELINES[name])

    @pytest.mark.parametrize("name", sorted(GENERATION_BASELINES))
    def test_builds_every_generation_baseline(self, name):
        baseline = build_generation({"type": name})
        assert isinstance(baseline, GENERATION_BASELINES[name])

    def test_bare_name_spec(self):
        assert isinstance(build_generation("heuristics"), GENERATION_BASELINES["heuristics"])

    def test_flat_knobs_expand_to_config_objects(self):
        baseline = build_text_to_vis(
            {"type": "neural", "preset": "tiny", "num_epochs": 1, "batch_size": 4, "warm_start": "queries"}
        )
        assert isinstance(baseline.config, DataVisT5Config)
        assert baseline.training.num_epochs == 1
        assert baseline.training.batch_size == 4
        assert baseline.warm_start == "queries"

    def test_prebuilt_config_objects_pass_through(self):
        config = DataVisT5Config.from_preset("tiny")
        training = TrainingConfig(num_epochs=2)
        baseline = build_text_to_vis({"type": "ncnet", "config": config, "training": training})
        assert baseline.config is config and baseline.training is training

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(ModelConfigError, match="unknown text-to-vis baseline"):
            build_text_to_vis({"type": "nope"})

    def test_missing_type_raises(self):
        with pytest.raises(ModelConfigError, match="missing the 'type' key"):
            build_generation({})

    def test_runtime_registration_extends_families(self):
        class Custom(GENERATION_BASELINES["heuristics"]):
            pass

        register_generation("custom", Custom)
        try:
            assert "custom" in available_baselines()["generation"]
            assert isinstance(build_generation("custom"), Custom)
        finally:
            _EXTRA_GENERATION.pop("custom", None)


# -- pipeline -------------------------------------------------------------------------


class TestPipeline:
    def test_batched_equals_sequential_for_mixed_burst(self, small_pool, nvbench, mixed_requests, monkeypatch):
        batched = _baseline_pipeline(small_pool, nvbench, max_batch_size=4)
        sequential = _baseline_pipeline(small_pool, nvbench, max_batch_size=4)
        tasks = ("text_to_vis", "vis_to_text", "fevisqa")
        calls = [_spy_backend_batches(batched, task, monkeypatch) for task in tasks]
        batch_responses = batched.serve(mixed_requests)
        sequential_responses = [sequential.submit(request) for request in mixed_requests]
        assert [r.output for r in batch_responses] == [r.output for r in sequential_responses]
        # the burst actually amortized: fewer backend calls than items
        assert sum(len(sizes) for sizes in calls) < len(mixed_requests)

    def test_neural_batched_equals_sequential(self, small_pool, nvbench, mixed_requests):
        config = DataVisT5Config.from_preset(
            "tiny", max_input_length=64, max_target_length=32, max_decode_length=12
        )
        texts = [example.question for example in nvbench.examples[:20]]
        texts += [example.query_text for example in nvbench.examples[:20]]
        model = DataVisT5.from_corpus(texts, config=config, max_vocab_size=800)
        batched = Pipeline.from_model(model, config=PipelineConfig(max_batch_size=4))
        sequential = Pipeline.from_model(model, config=PipelineConfig(max_batch_size=4))
        batch_outputs = [r.output for r in batched.serve(mixed_requests)]
        sequential_outputs = [sequential.submit(request).output for request in mixed_requests]
        assert batch_outputs == sequential_outputs

    @pytest.mark.parametrize("kind", ["neural", "seq2vis"])
    def test_trained_baseline_predict_many_matches_predict(self, small_pool, nvbench, kind):
        spec = {"type": kind, "num_epochs": 1, "batch_size": 8}
        if kind == "neural":
            spec["preset"] = "tiny"
            spec["preset_overrides"] = {"max_input_length": 64, "max_target_length": 32, "max_decode_length": 12}
        baseline = build_text_to_vis(spec)
        examples = nvbench.examples[:12]
        baseline.fit(examples, small_pool)
        questions = [example.question for example in examples[:6]]
        schemas = [small_pool.get(example.db_id).schema for example in examples[:6]]
        batched = baseline.predict_many(questions, schemas)
        sequential = [baseline.predict(question, schema) for question, schema in zip(questions, schemas)]
        assert batched == sequential

    def test_trained_generation_predict_many_matches_predict(self, small_pool, nvbench):
        from repro.datasets.corpus import nvbench_to_vis_to_text_pair

        pairs = [nvbench_to_vis_to_text_pair(example, small_pool) for example in nvbench.examples[:12]]
        baseline = build_generation({"type": "seq2seq", "num_epochs": 1, "batch_size": 8})
        baseline.fit(pairs)
        sources = [pair.source for pair in pairs[:6]]
        assert baseline.predict_many(sources) == [baseline.predict(source) for source in sources]

    def test_repeated_request_served_from_cache(self, small_pool, nvbench):
        pipeline = _baseline_pipeline(small_pool, nvbench)
        example = nvbench.examples[0]
        schema = small_pool.get(example.db_id).schema
        first = pipeline.text_to_vis(example.question, schema)
        hits_before = pipeline.caches["response"].hits
        second = pipeline.text_to_vis(example.question, schema)
        assert not first.cached
        assert second.cached
        assert second.output == first.output
        assert pipeline.caches["response"].hits == hits_before + 1

    def test_normalized_inputs_share_cache_entries(self, small_pool, nvbench):
        pipeline = _baseline_pipeline(small_pool, nvbench)
        example = nvbench.examples[0]
        schema = small_pool.get(example.db_id).schema
        pipeline.text_to_vis(example.question, schema)
        shouted = pipeline.text_to_vis("  " + example.question.upper() + "  ", schema)
        assert shouted.cached

    def test_duplicates_within_one_burst_hit_backend_once(self, small_pool, nvbench, monkeypatch):
        pipeline = _baseline_pipeline(small_pool, nvbench, max_batch_size=8)
        sizes = _spy_backend_batches(pipeline, "text_to_vis", monkeypatch)
        example = nvbench.examples[0]
        schema = small_pool.get(example.db_id).schema
        request = Request(task="text_to_vis", question=example.question, schema=schema)
        responses = pipeline.serve([request, request, request])
        assert [r.cached for r in responses] == [False, True, True]
        assert sizes == [1]

    def test_response_cache_eviction(self, small_pool, nvbench):
        pipeline = _baseline_pipeline(small_pool, nvbench, response_cache_size=2)
        schemas = {example.db_id: small_pool.get(example.db_id).schema for example in nvbench.examples[:4]}
        for example in nvbench.examples[:4]:
            pipeline.text_to_vis(example.question, schemas[example.db_id])
        cache = pipeline.caches["response"]
        assert len(cache) == 2
        assert cache.evictions == 2
        # the evicted first request is recomputed, not served from cache
        first = nvbench.examples[0]
        assert not pipeline.text_to_vis(first.question, schemas[first.db_id]).cached

    def test_text_to_vis_response_artifacts(self, small_pool, nvbench):
        pipeline = _baseline_pipeline(small_pool, nvbench)
        example = nvbench.examples[0]
        schema = small_pool.get(example.db_id).schema
        response = pipeline.text_to_vis(example.question, schema)
        assert response.task == "text_to_vis"
        assert response.query is not None
        assert response.valid is True
        assert response.vega_lite is not None and "mark" in response.vega_lite
        assert response.source.startswith("<NL>")
        round_trip = response.as_dict()
        assert round_trip["query"] == response.query.to_text()

    def test_ast_and_spec_caches_hit_on_repeats(self, small_pool, nvbench):
        pipeline = _baseline_pipeline(small_pool, nvbench)
        example = nvbench.examples[0]
        schema = small_pool.get(example.db_id).schema
        pipeline.vis_to_text(example.query_text, schema=schema)
        pipeline.fevisqa("How many parts ?", chart=example.query_text, schema=schema)
        assert pipeline.caches["ast"].hits >= 1

    def test_render_cache(self, small_pool, nvbench, gallery_database):
        from repro.charts import build_chart
        from repro.database import execute_query
        from repro.vql import parse_dv_query, standardize_dv_query

        pipeline = _baseline_pipeline(small_pool, nvbench)
        query = standardize_dv_query(
            parse_dv_query("visualize pie select country , count ( country ) from artist group by country"),
            schema=gallery_database.schema,
        )
        chart = build_chart(query, result=execute_query(query, gallery_database))
        first = pipeline.render_chart(chart)
        second = pipeline.render_chart(chart)
        assert first == second
        assert pipeline.caches["render"].hits == 1

    def test_unconfigured_task_raises(self, small_pool, nvbench):
        pipeline = Pipeline.from_config({"vis_to_text": {"type": "heuristics"}})
        with pytest.raises(ModelConfigError, match="no backend configured"):
            pipeline.text_to_vis("show me a chart", small_pool.get(nvbench.examples[0].db_id).schema)

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ModelConfigError, match="unknown pipeline config keys"):
            Pipeline.from_config({"tex_to_vis": {"type": "template"}})

    def test_invalid_pipeline_section_key_rejected(self):
        with pytest.raises(ModelConfigError, match="invalid pipeline config"):
            Pipeline.from_config({"pipeline": {"max_batch": 8}})

    def test_invalid_request_rejected(self):
        with pytest.raises(ModelConfigError):
            Request(task="summarize")
        with pytest.raises(ModelConfigError):
            Request(task="text_to_vis")  # no question
        with pytest.raises(ModelConfigError, match="need a schema"):
            Request(task="text_to_vis", question="show me a chart")  # no schema
        with pytest.raises(ModelConfigError):
            Request(task="vis_to_text")  # no chart

    def test_unparseable_prediction_marks_invalid(self, small_pool, nvbench):
        class Gibberish(TEXT_TO_VIS_BASELINES["template"]):
            def predict(self, question, schema):
                return "not a query at all"

        pipeline = Pipeline(text_to_vis=Gibberish())
        schema = small_pool.get(nvbench.examples[0].db_id).schema
        response = pipeline.text_to_vis("show me something", schema)
        assert response.query is None
        assert response.valid is False
        assert response.vega_lite is None

    def test_single_axis_prediction_yields_no_spec_without_crashing(self):
        from repro.database.schema import Column, DatabaseSchema, TableSchema

        schema = DatabaseSchema("shop", [TableSchema("orders", [Column("buyer")])])

        class OneAxis(TEXT_TO_VIS_BASELINES["template"]):
            def predict(self, question, schema):
                return "visualize bar select orders.buyer from orders"

        response = Pipeline(text_to_vis=OneAxis()).text_to_vis("list buyers", schema)
        assert response.query is not None
        assert response.vega_lite is None

    def test_unstandardizable_prediction_marks_invalid(self):
        from repro.database.schema import Column, DatabaseSchema, TableSchema

        schema = DatabaseSchema("shop", [TableSchema("orders", [Column("buyer")])])

        class BadStar(TEXT_TO_VIS_BASELINES["template"]):
            def predict(self, question, schema):
                # parses ('*' is accepted inside any aggregate) but fails
                # standardization, which only allows '*' in count()
                return "visualize bar select sum ( * ) , orders.buyer from orders"

        response = Pipeline(text_to_vis=BadStar()).text_to_vis("total spent", schema)
        assert response.query is None
        assert response.valid is False

    def test_validation_uses_full_request_schema(self):
        from repro.database.schema import Column, DatabaseSchema, TableSchema

        schema = DatabaseSchema(
            "gallery",
            [
                TableSchema("artist", [Column("country")]),
                TableSchema("exhibition", [Column("theme")]),
            ],
        )

        class CrossTable(TEXT_TO_VIS_BASELINES["template"]):
            def predict(self, question, schema):
                return (
                    "visualize bar select exhibition.theme , count ( exhibition.theme ) "
                    "from exhibition group by exhibition.theme"
                )

        # the question implicates only 'artist', so schema filtration drops
        # 'exhibition' from the encoding context — but validation must still
        # run against the caller's full schema
        response = Pipeline(text_to_vis=CrossTable()).text_to_vis("how many artist are there", schema)
        assert response.valid is True

    def test_unparseable_chart_text_does_not_crash_generation_tasks(self):
        pipeline = Pipeline.from_config(
            {"vis_to_text": {"type": "heuristics"}, "fevisqa": {"type": "heuristics"}}
        )
        caption = pipeline.vis_to_text("visualize garbage not a query")
        assert caption.output is not None
        assert "garbage" in caption.source
        answer = pipeline.fevisqa("What type is this chart ?", chart="visualize garbage not a query")
        assert answer.output is not None

    def test_string_schema_with_rule_backend_fails_fast(self, small_pool, nvbench):
        from repro.encoding import encode_schema

        pipeline = Pipeline.from_config({"text_to_vis": {"type": "template"}})
        pipeline.backend("text_to_vis").fit([], small_pool)
        schema_text = encode_schema(small_pool.get(nvbench.examples[0].db_id).schema)
        with pytest.raises(ModelConfigError, match="needs a DatabaseSchema"):
            pipeline.text_to_vis("show me a chart", schema_text)

    def test_cache_hit_replays_artifacts_without_recomputing(self, small_pool, nvbench):
        pipeline = _baseline_pipeline(small_pool, nvbench)
        example = nvbench.examples[0]
        schema = small_pool.get(example.db_id).schema
        first = pipeline.text_to_vis(example.question, schema)
        ast_lookups = pipeline.caches["ast"].hits + pipeline.caches["ast"].misses
        spec_lookups = pipeline.caches["spec"].hits + pipeline.caches["spec"].misses
        second = pipeline.text_to_vis(example.question, schema)
        assert second.cached
        assert second.query is first.query
        assert second.vega_lite == first.vega_lite
        assert pipeline.caches["ast"].hits + pipeline.caches["ast"].misses == ast_lookups
        assert pipeline.caches["spec"].hits + pipeline.caches["spec"].misses == spec_lookups

    def test_generation_tasks_echo_parsed_chart_query(self, small_pool, nvbench):
        pipeline = _baseline_pipeline(small_pool, nvbench)
        example = nvbench.examples[0]
        schema = small_pool.get(example.db_id).schema
        response = pipeline.vis_to_text(example.query_text, schema=schema)
        assert response.query is not None
        assert response.query.chart_type == example.query.chart_type

    def test_empty_prediction_marks_invalid(self, small_pool, nvbench):
        class Silent(TEXT_TO_VIS_BASELINES["template"]):
            def predict(self, question, schema):
                return ""

        schema = small_pool.get(nvbench.examples[0].db_id).schema
        response = Pipeline(text_to_vis=Silent()).text_to_vis("show me something", schema)
        assert response.query is None
        assert response.valid is False

    def test_serve_preserves_order_with_cache_hits_and_rejections(self, small_pool, nvbench, monkeypatch):
        """Regression: a burst mixing hits, misses and rejected requests keeps input order.

        Every slot must hold the response for its own request — cache hits
        must not shift positions and a mid-burst rejection must consume its
        own slot only — and each backend must see each category once.
        """
        pipeline = _baseline_pipeline(small_pool, nvbench)
        t2v_sizes = _spy_backend_batches(pipeline, "text_to_vis", monkeypatch)
        v2t_sizes = _spy_backend_batches(pipeline, "vis_to_text", monkeypatch)
        first, second = nvbench.examples[:2]
        schema_a = small_pool.get(first.db_id).schema
        schema_b = small_pool.get(second.db_id).schema
        good_a = Request(task="text_to_vis", question=first.question, schema=schema_a)
        # encoded schema text on a rule-based backend is unpreparable
        bad = Request(task="text_to_vis", question="show me a chart", schema="| db | t : t.c")
        burst = [
            good_a,
            bad,
            good_a,  # duplicate of slot 0: a cache-style fan-out
            Request(task="vis_to_text", chart=second.query, schema=schema_b),
        ]
        responses = pipeline.serve(burst, strict=False)
        assert [r.error for r in responses] == [None, ERROR_INVALID_REQUEST, None, None]
        assert [r.cached for r in responses] == [False, False, True, False]
        assert responses[0].output == responses[2].output
        assert responses[3].task == "vis_to_text"
        assert responses[1].output == "" and responses[1].detail
        # the duplicate and the rejected request never reach a backend
        assert t2v_sizes == [1]
        assert v2t_sizes == [1]
        # replaying the burst serves every good slot from cache, same order
        replay = pipeline.serve(burst, strict=False)
        assert [r.error for r in replay] == [None, ERROR_INVALID_REQUEST, None, None]
        assert [r.cached for r in replay] == [True, False, True, True]
        assert [r.output for r in replay] == [r.output for r in responses]
        assert t2v_sizes == [1] and v2t_sizes == [1]

    def test_serve_strict_raises_on_unpreparable_request(self, small_pool, nvbench):
        pipeline = _baseline_pipeline(small_pool, nvbench)
        bad = Request(task="text_to_vis", question="show me a chart", schema="| db | t : t.c")
        with pytest.raises(ModelConfigError):
            pipeline.serve([bad])

    def test_serve_strict_false_contains_backend_failures_per_task(self, small_pool, nvbench):
        class Exploding(GENERATION_BASELINES["heuristics"]):
            def predict_many(self, sources):
                raise ModelConfigError("caption backend down")

        pipeline = Pipeline.from_config({"fevisqa": {"type": "heuristics"}})
        pipeline._engines["vis_to_text"] = type(pipeline._engines["fevisqa"])(
            Exploding(), "vis_to_text"
        )
        chart = nvbench.examples[0].query
        burst = [
            Request(task="vis_to_text", chart=chart),
            Request(task="fevisqa", question="How many parts ?", chart=chart),
            Request(task="vis_to_text", chart=nvbench.examples[1].query),
        ]
        responses = pipeline.serve(burst, strict=False)
        assert [r.error for r in responses] == [ERROR_BACKEND, None, ERROR_BACKEND]
        assert responses[1].ok and responses[1].output
        assert "caption backend down" in responses[0].detail

    def test_schema_identity_covers_structure(self):
        from repro.database.schema import Column, ColumnType, DatabaseSchema, TableSchema
        from repro.serving.pipeline import _schema_identity

        same_shape_a = DatabaseSchema("shop", [TableSchema("orders", [Column("buyer")])])
        same_shape_b = DatabaseSchema("shop", [TableSchema("orders", [Column("seller")])])
        assert _schema_identity(same_shape_a) != _schema_identity(same_shape_b)
        # column types matter too: validation verdicts depend on ctype
        number_a = DatabaseSchema("shop", [TableSchema("orders", [Column("a", ColumnType.NUMBER)])])
        text_a = DatabaseSchema("shop", [TableSchema("orders", [Column("a", ColumnType.TEXT)])])
        assert _schema_identity(number_a) != _schema_identity(text_a)

    def test_ast_and_text_chart_inputs_share_cache_identity(self, small_pool, nvbench):
        pipeline = _baseline_pipeline(small_pool, nvbench)
        example = nvbench.examples[0]
        schema = small_pool.get(example.db_id).schema
        from_text = pipeline.vis_to_text(example.query_text, schema=schema)
        from_ast = pipeline.vis_to_text(example.query, schema=schema)
        assert from_ast.cached
        assert from_ast.output == from_text.output

    def test_mutating_response_spec_does_not_corrupt_caches(self, small_pool, nvbench):
        pipeline = _baseline_pipeline(small_pool, nvbench)
        example = nvbench.examples[0]
        schema = small_pool.get(example.db_id).schema
        first = pipeline.text_to_vis(example.question, schema)
        first.vega_lite["data"] = {"values": ["mutated"]}
        second = pipeline.text_to_vis(example.question, schema)
        assert second.vega_lite["data"] != {"values": ["mutated"]}

    def test_preset_rejected_outside_neural_families(self):
        with pytest.raises(ModelConfigError, match="not supported"):
            build_text_to_vis({"type": "seq2vis", "preset": "base"})

    def test_preset_and_config_conflict_rejected(self):
        with pytest.raises(ModelConfigError, match="both 'preset' and 'config'"):
            build_text_to_vis(
                {"type": "neural", "preset": "tiny", "config": DataVisT5Config.from_preset("tiny")}
            )

    def test_misplaced_knobs_rejected_for_untrained_baselines(self):
        with pytest.raises(ModelConfigError, match="not supported"):
            build_text_to_vis({"type": "retrieval", "preset": "tiny"})
        with pytest.raises(ModelConfigError, match="only .* train"):
            build_text_to_vis({"type": "retrieval", "seed": 3})

    def test_training_and_flat_knob_conflict_rejected(self):
        with pytest.raises(ModelConfigError, match="both 'training' and flat training knobs"):
            build_text_to_vis(
                {"type": "seq2vis", "training": TrainingConfig(num_epochs=3), "num_epochs": 10}
            )


# -- KV-cached decoding through the serving layer --------------------------------------


@pytest.fixture(scope="module")
def shared_model(nvbench):
    """An untrained (but deterministic) DataVisT5 shared across decode tests."""
    config = DataVisT5Config.from_preset(
        "tiny", max_input_length=64, max_target_length=32, max_decode_length=12
    )
    texts = [example.question for example in nvbench.examples[:20]]
    texts += [example.query_text for example in nvbench.examples[:20]]
    return DataVisT5.from_corpus(texts, config=config, max_vocab_size=800)


class TestCachedDecodeServing:
    """`Pipeline.serve` guarantees must survive the KV-cached decoder swap."""

    def test_cached_and_reference_decoders_agree(self, shared_model, mixed_requests):
        cached = Pipeline.from_model(shared_model, config=PipelineConfig(use_cache=True))
        reference = Pipeline.from_model(shared_model, config=PipelineConfig(use_cache=False))
        cached_outputs = [r.output for r in cached.serve(mixed_requests)]
        reference_outputs = [r.output for r in reference.serve(mixed_requests)]
        assert cached_outputs == reference_outputs

    def test_batch_equals_sequential_under_cached_decoder(self, shared_model, mixed_requests):
        batched = Pipeline.from_model(shared_model, config=PipelineConfig(max_batch_size=4, use_cache=True))
        sequential = Pipeline.from_model(shared_model, config=PipelineConfig(max_batch_size=4, use_cache=True))
        batch_outputs = [r.output for r in batched.serve(mixed_requests)]
        sequential_outputs = [sequential.submit(request).output for request in mixed_requests]
        assert batch_outputs == sequential_outputs

    def test_cache_hit_accounting_under_cached_decoder(self, shared_model, mixed_requests):
        pipeline = Pipeline.from_model(shared_model, config=PipelineConfig(use_cache=True))
        first = pipeline.serve(mixed_requests)
        assert all(not response.cached for response in first)
        baseline_hits = pipeline.stats()["caches"]["response"]["hits"]
        second = pipeline.serve(mixed_requests)
        assert all(response.cached for response in second)
        assert [r.output for r in second] == [r.output for r in first]
        stats = pipeline.stats()["caches"]["response"]
        assert stats["hits"] == baseline_hits + len(mixed_requests)

    def test_neural_baseline_use_cache_knob(self, small_pool, nvbench):
        baseline = build_text_to_vis(
            {
                "type": "neural",
                "preset": "tiny",
                "preset_overrides": {"max_input_length": 64, "max_target_length": 32, "max_decode_length": 8},
                "num_epochs": 1,
                "batch_size": 8,
                "use_cache": False,
            }
        )
        assert baseline.use_cache is False
        examples = nvbench.examples[:8]
        baseline.fit(examples, small_pool)
        questions = [example.question for example in examples[:4]]
        schemas = [small_pool.get(example.db_id).schema for example in examples[:4]]
        reference = baseline.predict_many(questions, schemas)
        baseline.use_cache = True
        assert baseline.predict_many(questions, schemas) == reference

    def test_pipeline_config_accepts_use_cache_key(self):
        pipeline = Pipeline.from_config(
            {"vis_to_text": {"type": "heuristics"}, "pipeline": {"use_cache": False}}
        )
        assert pipeline.config.use_cache is False
