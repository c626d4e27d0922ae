"""Task evaluators: run a model over a test split and compute the paper's metrics."""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.baselines.base import TextGenerationBaseline, TextToVisBaseline
from repro.core.model import DataVisT5
from repro.datasets.corpus import Seq2SeqExample
from repro.datasets.nvbench import NvBenchExample
from repro.datasets.spider import SyntheticDatabasePool
from repro.encoding.sequences import text_to_vis_input
from repro.evaluation.tasks import strip_modality_tags
from repro.metrics.aggregate import GenerationMetrics, evaluate_generation
from repro.metrics.exact_match import ExactMatchResult, corpus_exact_match


#: Examples per ``predict_many`` / ``predict_batch`` call.  Batched inference is
#: position-aligned and batch-independent (the serving layer's
#: batch-equals-sequential guarantee), so this only sets how much padding and
#: per-call overhead an evaluation pays, never what it predicts.
EVAL_BATCH_SIZE = 8


def _predict_in_batches(predict_many: Callable[..., list[str]], *columns: Sequence) -> list[str]:
    """``predict_many`` over position-aligned ``columns``, :data:`EVAL_BATCH_SIZE` rows a call."""
    predictions: list[str] = []
    for start in range(0, len(columns[0]), EVAL_BATCH_SIZE):
        predictions += predict_many(*(column[start : start + EVAL_BATCH_SIZE] for column in columns))
    return predictions


def evaluate_text_to_vis_model(
    model: TextToVisBaseline | DataVisT5 | Callable[[str], str],
    examples: Sequence[NvBenchExample],
    pool: SyntheticDatabasePool,
) -> ExactMatchResult:
    """Evaluate a text-to-vis system with the EM metric family.

    ``model`` may be a :class:`TextToVisBaseline`, a :class:`DataVisT5`
    (fed the standard ``<NL> ... <schema> ...`` input) or any callable from
    source text to predicted query text.  Baselines and DataVisT5 predict
    through their batch entry points; a plain callable is called per example.
    """
    questions = [example.question for example in examples]
    schemas = [pool.get(example.db_id).schema for example in examples]
    if isinstance(model, TextToVisBaseline):
        predictions = _predict_in_batches(model.predict_many, questions, schemas)
    else:
        sources = [text_to_vis_input(question, schema) for question, schema in zip(questions, schemas)]
        if isinstance(model, DataVisT5):
            predictions = _predict_in_batches(model.predict_batch, sources)
        else:
            predictions = [model(source) for source in sources]
    return corpus_exact_match(
        [strip_modality_tags(predicted) for predicted in predictions],
        [example.query_text for example in examples],
    )


def evaluate_generation_model(
    model: TextGenerationBaseline | DataVisT5 | Callable[[str], str],
    examples: Sequence[Seq2SeqExample],
) -> GenerationMetrics:
    """Evaluate a generation system (vis-to-text / FeVisQA / table-to-text)."""
    sources = [example.source for example in examples]
    if isinstance(model, TextGenerationBaseline):
        predictions = _predict_in_batches(model.predict_many, sources)
    elif isinstance(model, DataVisT5):
        predictions = _predict_in_batches(model.predict_batch, sources)
    else:
        predictions = [model(source) for source in sources]
    return evaluate_predictions(predictions, [example.target for example in examples])


def evaluate_predictions(predictions: Sequence[str], references: Sequence[str]) -> GenerationMetrics:
    """Metric bundle for pre-computed predictions (tags stripped on both sides)."""
    return evaluate_generation(
        [strip_modality_tags(p) for p in predictions],
        [strip_modality_tags(r) for r in references],
    )
