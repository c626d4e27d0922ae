"""Quickstart: generate data, pre-train, multi-task fine-tune and query DataVisT5.

This walks the full paper pipeline end to end at a miniature scale:

1. build a pool of synthetic cross-domain databases (the Spider substitute);
2. generate the four task corpora (nvBench / Chart2Text / WikiTableText /
   FeVisQA substitutes) and the hybrid pre-training corpus;
3. hybrid pre-training (span-corruption MLM + bidirectional dual corpus);
4. multi-task fine-tuning with temperature mixing;
5. serve the model through the ``repro.serving`` pipeline — one example per
   task, plus a micro-batched burst and a cache-hit demonstration.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import DataVisT5, DataVisT5Config, HybridPretrainer, MultiTaskFineTuner, TrainingConfig
from repro.datasets.corpus import build_pretraining_corpus
from repro.encoding import strip_modality_tags
from repro.evaluation import build_task_corpora, evaluate_text_to_vis_model
from repro.serving import Pipeline, Request


def main() -> None:
    print("== 1. generating synthetic corpora ==")
    corpora = build_task_corpora(
        num_databases=8,
        examples_per_database=10,
        num_chart2text=40,
        num_wikitabletext=40,
        max_fevisqa=200,
        max_test_examples=12,
        seed=0,
    )
    print(f"databases           : {len(corpora.pool)}")
    print(f"nvBench examples    : {len(corpora.nvbench)}")
    print(f"FeVisQA QA pairs    : {len(corpora.fevisqa)}")
    for task, pairs in corpora.train_pairs.items():
        print(f"train pairs [{task:<13}]: {len(pairs)}")

    print("\n== 2. building the hybrid pre-training corpus ==")
    pretraining_corpus = build_pretraining_corpus(*corpora.pretraining_inputs())
    print(pretraining_corpus.statistics())

    print("\n== 3. hybrid pre-training (MLM + BDC) ==")
    config = DataVisT5Config.from_preset("tiny", max_input_length=128, max_target_length=64, max_decode_length=48)
    model = DataVisT5.from_corpus(pretraining_corpus.all_texts(), config=config, max_vocab_size=2500)
    print(f"model parameters    : {model.num_parameters():,}")
    training = TrainingConfig(num_epochs=1, batch_size=8, learning_rate=5e-3)
    report = HybridPretrainer(model, pretraining_corpus, training).train()
    print(f"pre-training loss   : {report.epoch_losses}")

    print("\n== 4. multi-task fine-tuning (temperature mixing) ==")
    finetune_report = MultiTaskFineTuner(model, corpora.train_pairs, TrainingConfig(num_epochs=2, batch_size=8)).train()
    print(f"fine-tuning loss    : {finetune_report.epoch_losses}")
    print(f"examples per task   : {finetune_report.task_counts}")

    print("\n== 5. serving the trained model through the pipeline ==")
    pipeline = Pipeline.from_model(model)

    t2v_example = corpora.nvbench_splits.test[0]
    t2v_schema = corpora.pool.get(t2v_example.db_id).schema
    response = pipeline.text_to_vis(t2v_example.question, t2v_schema)
    print("\n[text_to_vis]")
    print(f"  question  : {t2v_example.question}")
    print(f"  reference : {t2v_example.query_text}")
    print(f"  prediction: {response.output}")
    print(f"  parses/validates: query={response.query is not None} valid={response.valid}")

    response = pipeline.vis_to_text(t2v_example.query, schema=t2v_schema)
    print("\n[vis_to_text]")
    print(f"  chart     : {t2v_example.query_text[:100]} ...")
    print(f"  prediction: {response.output}")

    qa_example = corpora.fevisqa_splits.test[0]
    response = pipeline.fevisqa(
        qa_example.question,
        chart=qa_example.query_text,
        schema=qa_example.schema_text,
        table=qa_example.table_text or None,
    )
    print("\n[fevisqa]")
    print(f"  question  : {qa_example.question}")
    print(f"  reference : {qa_example.answer}")
    print(f"  prediction: {response.output}")

    # table_to_text has no interactive serving surface; call the model directly.
    table_example = corpora.test_pairs["table_to_text"][0]
    print("\n[table_to_text]")
    print(f"  input     : {table_example.source[:120]} ...")
    print(f"  reference : {strip_modality_tags(table_example.target)}")
    print(f"  prediction: {strip_modality_tags(model.predict(table_example.source))}")

    print("\n== 6. micro-batched burst + response caching ==")
    burst = [
        Request(task="text_to_vis", question=e.question, schema=corpora.pool.get(e.db_id).schema)
        for e in corpora.nvbench_splits.test[:8]
    ]
    pipeline.serve(burst)
    repeats = pipeline.serve(burst)
    print(f"batches       : {len(burst)} requests in batches of <= {pipeline.config.max_batch_size}")
    print(f"response cache: {pipeline.caches['response'].stats()}")
    print(f"all repeats served from cache: {all(r.cached for r in repeats)}")

    print("\n== 7. text-to-vis EM metrics on the test split ==")
    result = evaluate_text_to_vis_model(model, corpora.nvbench_splits.test[:12], corpora.pool)
    print(result.as_dict())


if __name__ == "__main__":
    main()
