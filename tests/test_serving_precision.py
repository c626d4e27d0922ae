"""Serving-layer precision plumbing: registry knob, pipeline engines, server.

The policy must thread intact from config dicts down to the DataVisT5
backend: ``{"type": "neural", "precision": ...}`` registry specs,
``PipelineConfig.precision`` on shared-model pipelines, the worker engines
spawned for the async server, and the ``ServerConfig.precision`` deployment
override.  Misconfiguration must fail structurally at construction — validation errors
for unknown modes, and an immediate rejection (never a crashed loop or a
stream of per-request failures) when int8 is requested of unquantized
weights.
"""

from __future__ import annotations

import pytest

from repro.core.config import DataVisT5Config
from repro.core.model import DataVisT5
from repro.encoding.sequences import strip_modality_tags
from repro.errors import ModelConfigError
from repro.serving import Pipeline, PipelineConfig, Request, ServerConfig, serve_requests
from repro.serving.registry import build_generation, build_text_to_vis

CORPUS = [
    "<Question> how many parts are there ? <Answer> 3",
    "visualize bar select artist.country , count ( artist.country ) from artist",
]


def tiny_model(seed: int = 0) -> DataVisT5:
    config = DataVisT5Config.from_preset(
        "tiny", max_input_length=32, max_target_length=16, max_decode_length=8, seed=seed
    )
    return DataVisT5.from_corpus(CORPUS, config=config, max_vocab_size=200)


def qa_request() -> Request:
    return Request(task="fevisqa", question="how many parts are there ?", table="a | 1")


class TestRegistryPrecision:
    def test_neural_families_accept_precision(self):
        assert build_text_to_vis({"type": "neural", "precision": "float32"}).precision == "float32"
        assert build_generation({"type": "neural", "precision": "int8"}).precision == "int8"

    def test_non_neural_families_reject_precision(self):
        with pytest.raises(ModelConfigError):
            build_text_to_vis({"type": "template", "precision": "float32"})
        with pytest.raises(ModelConfigError):
            build_generation({"type": "heuristics", "precision": "float64"})

    def test_registry_validates_precision_value(self):
        with pytest.raises(ModelConfigError):
            build_text_to_vis({"type": "neural", "precision": "fp16"})


class TestPipelinePrecision:
    def test_config_validates(self):
        with pytest.raises(ModelConfigError):
            PipelineConfig(precision="float16")
        with pytest.raises(ModelConfigError):
            Pipeline.from_config({"pipeline": {"precision": "bf16"}})

    def test_engines_carry_precision(self):
        pipeline = Pipeline.from_model(tiny_model(), config=PipelineConfig(precision="float32"))
        for engine in pipeline._engines.values():
            assert engine.precision == "float32"

    def test_spawn_engines_override(self):
        pipeline = Pipeline.from_model(tiny_model())
        default = pipeline.spawn_engines()
        overridden = pipeline.spawn_engines(precision="float32")
        assert all(engine.precision is None for engine in default.values())
        assert all(engine.precision == "float32" for engine in overridden.values())
        with pytest.raises(ModelConfigError):
            pipeline.spawn_engines(precision="fp8")

    def test_float32_pipeline_serves(self):
        pipeline = Pipeline.from_model(tiny_model(), config=PipelineConfig(precision="float32"))
        response = pipeline.submit(qa_request())
        assert response.ok
        assert isinstance(response.output, str)

    def test_int8_pipeline_over_quantized_model(self):
        pipeline = Pipeline.from_model(tiny_model().quantize_int8(), config=PipelineConfig(precision="int8"))
        assert pipeline.submit(qa_request()).ok


class TestContinuousStaticAgreement:
    """Regression suite for the serving-vs-decode agreement gap.

    Both int8 serving paths — the token-level continuous batching loop and
    the static ``predict_batch`` path — run float32 compute over the same
    dequantized masters, so their outputs must be *identical*, not merely
    close.  A drift here is what once made served int8 outputs disagree with
    direct int8 decodes of the same quantized weights.
    """

    REQUESTS = [
        Request(task="fevisqa", question="how many parts are there ?", table="a | 1"),
        Request(task="fevisqa", question="how many artists are there ?", table="b | 2"),
        Request(task="vis_to_text", chart="Visualize BAR SELECT a , b FROM t"),
    ]

    @pytest.mark.parametrize("calibrated", [False, True])
    def test_continuous_int8_matches_static_int8(self, calibrated):
        model = tiny_model()
        if calibrated:
            model.calibrate(CORPUS, n=2, target_agreement=0.9)
        model.quantize_int8()
        pipeline = Pipeline.from_model(model, config=PipelineConfig(precision="int8"))
        sources = [pipeline.prepare(request).source for request in self.REQUESTS]
        static_outputs = [strip_modality_tags(output) for output in model.predict_batch(sources, precision="int8")]
        assert [r.output for r in pipeline.serve(list(self.REQUESTS))] == static_outputs

    def test_continuous_int8_matches_direct_predict(self):
        model = tiny_model().quantize_int8()
        pipeline = Pipeline.from_model(model, config=PipelineConfig(precision="int8"))
        request = self.REQUESTS[0]
        prepared = pipeline.prepare(request)
        direct = model.predict_batch([prepared.source], precision="int8")
        assert pipeline.submit(request).output == strip_modality_tags(direct[0])


class TestServerPrecision:
    def test_server_config_validates(self):
        with pytest.raises(ModelConfigError):
            ServerConfig(precision="double")

    def test_server_precision_override_serves(self):
        pipeline = Pipeline.from_model(tiny_model())
        responses, stats = serve_requests(
            pipeline, [qa_request()], config=ServerConfig(precision="float32", num_workers=1)
        )
        assert responses[0].ok
        assert stats["requests"]["completed"] == 1

    def test_precision_override_namespaces_the_response_cache(self):
        # A float32-override server sharing a pipeline with float64 callers
        # must neither replay their cached outputs nor poison their cache.
        pipeline = Pipeline.from_model(tiny_model())
        request = qa_request()
        baseline = pipeline.submit(request)
        assert not baseline.cached
        responses, stats = serve_requests(
            pipeline, [qa_request()], config=ServerConfig(precision="float32", num_workers=1)
        )
        assert responses[0].ok
        assert stats["requests"]["cache_hits"] == 0  # fp64 entry not replayed
        assert not responses[0].cached
        assert pipeline.submit(qa_request()).cached  # fp64 entry still intact

    def test_int8_on_unquantized_model_fails_at_construction(self):
        # A deployment misconfiguration, not a runtime failure: the server
        # (and the pipeline) must refuse to come up, before any traffic.
        with pytest.raises(ModelConfigError, match="quantize"):
            serve_requests(
                Pipeline.from_model(tiny_model()),
                [qa_request()],
                config=ServerConfig(precision="int8", num_workers=1),
            )
        with pytest.raises(ModelConfigError, match="quantize"):
            Pipeline.from_model(tiny_model(), config=PipelineConfig(precision="int8"))
