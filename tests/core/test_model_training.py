"""Tests for the DataVisT5 model wrapper, pre-training and fine-tuning loops."""

import numpy as np
import pytest

from repro.core import (
    DataVisT5,
    DataVisT5Config,
    HybridPretrainer,
    MultiTaskFineTuner,
    SingleTaskFineTuner,
    TrainingConfig,
)
from repro.datasets.corpus import PretrainingCorpus, Seq2SeqExample
from repro.errors import ModelConfigError


def tiny_config(**overrides) -> DataVisT5Config:
    return DataVisT5Config.from_preset("tiny", max_input_length=32, max_target_length=16, max_decode_length=12, **overrides)


@pytest.fixture(scope="module")
def toy_pairs() -> list[Seq2SeqExample]:
    pairs = []
    for index in range(12):
        pairs.append(
            Seq2SeqExample(
                source=f"<NL> show item {index % 3} <schema> | db | t : t.a",
                target=f"<VQL> visualize bar select t.a , count ( t.a ) from t group by t.a",
                task="text_to_vis",
            )
        )
    return pairs


@pytest.fixture(scope="module")
def toy_model(toy_pairs) -> DataVisT5:
    texts = [pair.source for pair in toy_pairs] + [pair.target for pair in toy_pairs]
    return DataVisT5.from_corpus(texts, config=tiny_config())


class TestDataVisT5Model:
    def test_from_corpus_builds_vocab(self, toy_model):
        assert len(toy_model.tokenizer.vocab) > 40
        assert toy_model.num_parameters() > 0

    def test_config_presets(self):
        assert DataVisT5Config.from_preset("large").d_model > DataVisT5Config.from_preset("base").d_model
        with pytest.raises(ModelConfigError):
            DataVisT5Config.from_preset("gigantic")

    def test_train_step_reduces_loss(self, toy_model, toy_pairs):
        model = toy_model.clone_architecture()
        optimizer = model.make_optimizer(total_steps=30, learning_rate=5e-3)
        batch = model.collate([p.source for p in toy_pairs[:8]], [p.target for p in toy_pairs[:8]])
        losses = [model.train_step(batch, optimizer) for _ in range(15)]
        assert losses[-1] < losses[0]

    def test_compute_loss_and_predict(self, toy_model, toy_pairs):
        loss = toy_model.compute_loss([toy_pairs[0].source], [toy_pairs[0].target])
        assert np.isfinite(loss)
        prediction = toy_model.predict(toy_pairs[0].source)
        assert isinstance(prediction, str)

    def test_predict_batch_length(self, toy_model, toy_pairs):
        predictions = toy_model.predict_batch([p.source for p in toy_pairs[:3]])
        assert len(predictions) == 3

    @pytest.mark.parametrize("max_length", [0, -1])
    def test_predict_budget_below_one_raises(self, toy_model, toy_pairs, max_length):
        source = toy_pairs[0].source
        with pytest.raises(ModelConfigError):
            toy_model.predict(source, max_length=max_length)
        with pytest.raises(ModelConfigError):
            toy_model.predict_batch([source], num_beams=2, max_length=max_length)
        with pytest.raises(ModelConfigError):
            toy_model.predict_batch([], max_length=max_length)

    def test_save_load_roundtrip(self, toy_model, toy_pairs, tmp_path):
        directory = tmp_path / "checkpoint"
        toy_model.save(directory)
        restored = DataVisT5.load(directory)
        original_loss = toy_model.compute_loss([toy_pairs[0].source], [toy_pairs[0].target])
        restored_loss = restored.compute_loss([toy_pairs[0].source], [toy_pairs[0].target])
        assert restored_loss == pytest.approx(original_loss, abs=1e-9)

    def test_load_missing_files(self, tmp_path):
        with pytest.raises(ModelConfigError):
            DataVisT5.load(tmp_path / "nope")

    def test_copy_weights(self, toy_model):
        clone = toy_model.clone_architecture()
        clone.copy_weights_from(toy_model)
        source_state = toy_model.model.state_dict()
        clone_state = clone.model.state_dict()
        for name in source_state:
            np.testing.assert_allclose(source_state[name], clone_state[name])


class TestHybridPretraining:
    def test_pretraining_mixes_objectives_and_learns(self, toy_pairs):
        corpus = PretrainingCorpus(bdc_pairs=toy_pairs, mlm_texts=[pair.target for pair in toy_pairs])
        model = DataVisT5.from_corpus(corpus.all_texts(), config=tiny_config())
        trainer = HybridPretrainer(model, corpus, TrainingConfig(num_epochs=2, batch_size=6, learning_rate=5e-3))
        report = trainer.train()
        assert report.num_bdc_examples > 0
        assert report.num_mlm_examples > 0
        assert report.epoch_losses[-1] < report.epoch_losses[0] * 1.5
        assert report.num_steps == len(report.step_losses)

    def test_empty_corpus_rejected(self, toy_model):
        with pytest.raises(ModelConfigError):
            HybridPretrainer(toy_model, PretrainingCorpus(), TrainingConfig())


class TestFineTuning:
    def test_single_task_finetuning(self, toy_pairs):
        texts = [p.source for p in toy_pairs] + [p.target for p in toy_pairs]
        model = DataVisT5.from_corpus(texts, config=tiny_config())
        report = SingleTaskFineTuner(model, toy_pairs, TrainingConfig(num_epochs=2, batch_size=6)).train()
        assert report.task_counts["text_to_vis"] > 0
        assert len(report.epoch_losses) == 2

    def test_single_task_requires_examples(self, toy_model):
        with pytest.raises(ModelConfigError):
            SingleTaskFineTuner(toy_model, [], TrainingConfig())

    def test_multi_task_temperature_mixing_counts(self, toy_pairs):
        other_task = [
            Seq2SeqExample(source=p.source, target="<NL> a bar chart of items", task="vis_to_text") for p in toy_pairs[:3]
        ]
        texts = [p.source for p in toy_pairs] + [p.target for p in toy_pairs]
        model = DataVisT5.from_corpus(texts, config=tiny_config())
        tuner = MultiTaskFineTuner(
            model,
            {"text_to_vis": toy_pairs, "vis_to_text": other_task},
            TrainingConfig(num_epochs=1, batch_size=6),
            examples_per_epoch=30,
        )
        report = tuner.train()
        assert set(report.task_counts) == {"text_to_vis", "vis_to_text"}
        # Temperature mixing up-samples the small task above its proportional share (3/15).
        assert report.task_counts["vis_to_text"] / sum(report.task_counts.values()) > 0.1

    def test_multi_task_requires_non_empty(self, toy_model):
        with pytest.raises(ModelConfigError):
            MultiTaskFineTuner(toy_model, {"a": []})
