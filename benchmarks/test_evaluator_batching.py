"""The evaluators predict through the batch entry points without changing a prediction.

``evaluate_text_to_vis_model`` / ``evaluate_generation_model`` feed
``predict_many`` / ``predict_batch`` eight examples at a call.  On the table
fixtures — the session's :class:`ExperimentSuite` — every prediction must
equal the one the same system makes one example at a time, for DataVisT5 and
for each baseline family that overrides ``predict_many``.
"""

from __future__ import annotations

import pytest

from repro.encoding.sequences import text_to_vis_input
from repro.evaluation.evaluator import (
    EVAL_BATCH_SIZE,
    evaluate_generation_model,
    evaluate_predictions,
    evaluate_text_to_vis_model,
)
from repro.evaluation.tasks import strip_modality_tags
from repro.metrics.exact_match import corpus_exact_match
from repro.serving import build_generation, build_text_to_vis

EXAMPLES = EVAL_BATCH_SIZE + 2  # one full call and one ragged tail


def record_calls(monkeypatch, system, method: str) -> list[list[str]]:
    """Shadow ``system.method`` with a recorder for this test; returns the list its outputs land in."""
    calls: list[list[str]] = []
    original = getattr(system, method)

    def recorder(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(system, method, recorder)  # the suite's DataVisT5 is shared with the table tests
    return calls


def assert_batched(calls: list[list[str]], one_at_a_time: list[str]) -> None:
    assert len(one_at_a_time) == EXAMPLES
    assert [len(call) for call in calls] == [EVAL_BATCH_SIZE, EXAMPLES - EVAL_BATCH_SIZE]
    assert [prediction for call in calls for prediction in call] == one_at_a_time


@pytest.mark.parametrize("family", ["datavist5", "seq2vis", "neural", "ncnet"])
def test_text_to_vis_predictions_equal_one_at_a_time(experiment_suite, monkeypatch, family):
    corpora, pool = experiment_suite.corpora, experiment_suite.corpora.pool
    examples = corpora.nvbench_splits.test[:EXAMPLES]
    schemas = [pool.get(example.db_id).schema for example in examples]
    if family == "datavist5":
        system, method = experiment_suite.datavist5_mft(), "predict_batch"
        one_at_a_time = [
            system.predict(text_to_vis_input(example.question, schema)) for example, schema in zip(examples, schemas)
        ]
    else:
        spec = {"type": family, "training": experiment_suite.training_config(num_epochs=1)}
        if family != "seq2vis":
            spec["config"] = experiment_suite.model_config()
        system, method = build_text_to_vis(spec), "predict_many"
        system.fit(corpora.nvbench_splits.train, pool)
        one_at_a_time = [system.predict(example.question, schema) for example, schema in zip(examples, schemas)]
    calls = record_calls(monkeypatch, system, method)
    result = evaluate_text_to_vis_model(system, examples, pool)
    assert_batched(calls, one_at_a_time)
    assert result == corpus_exact_match(
        [strip_modality_tags(prediction) for prediction in one_at_a_time], [example.query_text for example in examples]
    )


@pytest.mark.parametrize("family", ["datavist5", "seq2seq", "neural"])
def test_generation_predictions_equal_one_at_a_time(experiment_suite, monkeypatch, family):
    corpora = experiment_suite.corpora
    examples = corpora.test_pairs["vis_to_text"][:EXAMPLES]
    if family == "datavist5":
        system, method = experiment_suite.datavist5_mft(), "predict_batch"
    else:
        spec = {"type": family, "training": experiment_suite.training_config(num_epochs=1)}
        if family != "seq2seq":
            spec["config"] = experiment_suite.model_config()
        system, method = build_generation(spec), "predict_many"
        system.fit(corpora.train_pairs["vis_to_text"])
    one_at_a_time = [system.predict(example.source) for example in examples]
    calls = record_calls(monkeypatch, system, method)
    metrics = evaluate_generation_model(system, examples)
    assert_batched(calls, one_at_a_time)
    assert metrics == evaluate_predictions(one_at_a_time, [example.target for example in examples])
