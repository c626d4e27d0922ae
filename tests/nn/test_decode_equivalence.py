"""Decode-equivalence suite: paged decoding must match the naive reference.

The headline guarantee of the incremental-decoding fast path is that it is an
*optimization only*: for every model, batch composition, pad pattern, beam
width and length budget, ``generate(use_cache=True)`` — greedy and beam
search on the paged decode step — returns bitwise-identical token ids to the
naive reference loops (``use_cache=False``) that re-decode the full prefix at
every step.  Hypothesis drives the property over random tiny models and
inputs; targeted tests pin down the tricky corners — eos-early-exit,
``max_length`` truncation and validation, the unified greedy/beam output
contract, decoding a model left in training mode, the incremental step
against the full decoder pass and the inference-only guard.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelConfigError
from repro.nn.attention import RelativePositionBias
from repro.nn.tensor import no_grad
from repro.nn.transformer import T5Model, TransformerConfig

PAD, EOS, BOS = 0, 1, 3
_MODEL_CACHE: dict[tuple, T5Model] = {}


def build_model(
    vocab_size=24, d_model=8, num_heads=2, d_ff=16, num_encoder_layers=1, num_decoder_layers=1, seed=0, eos_id=EOS
) -> T5Model:
    """A tiny eval-mode model; memoized so hypothesis examples share weights."""
    key = (vocab_size, d_model, num_heads, d_ff, num_encoder_layers, num_decoder_layers, seed, eos_id)
    if key not in _MODEL_CACHE:
        config = TransformerConfig(
            vocab_size=vocab_size,
            d_model=d_model,
            num_heads=num_heads,
            d_ff=d_ff,
            num_encoder_layers=num_encoder_layers,
            num_decoder_layers=num_decoder_layers,
            eos_id=eos_id,
            seed=seed,
        )
        _MODEL_CACHE[key] = T5Model(config).eval()
    return _MODEL_CACHE[key]


@st.composite
def batched_inputs(draw):
    """A padded input batch with arbitrary pad patterns (right pads and holes)."""
    vocab_size = 24
    batch = draw(st.integers(min_value=1, max_value=3))
    width = draw(st.integers(min_value=2, max_value=6))
    rows = []
    for _ in range(batch):
        row = draw(
            st.lists(
                st.integers(min_value=4, max_value=vocab_size - 1),
                min_size=width,
                max_size=width,
            )
        )
        # Punch pad holes anywhere — the attention mask must neutralize them
        # identically on both decode paths.
        holes = draw(st.lists(st.integers(min_value=0, max_value=width - 1), max_size=width))
        for hole in holes:
            row[hole] = PAD
        rows.append(row)
    return np.asarray(rows, dtype=np.int64)


class TestGreedyEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        input_ids=batched_inputs(),
        max_length=st.integers(min_value=1, max_value=8),
        num_layers=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_cached_matches_reference(self, input_ids, max_length, num_layers, seed):
        model = build_model(num_encoder_layers=num_layers, num_decoder_layers=num_layers, seed=seed)
        cached = model.generate(input_ids, max_length=max_length, use_cache=True)
        naive = model.generate(input_ids, max_length=max_length, use_cache=False)
        assert cached.dtype == naive.dtype == np.int64
        assert np.array_equal(cached, naive)

    def test_single_row_batch(self):
        model = build_model()
        x = np.array([[5, 6, 7]], dtype=np.int64)
        assert np.array_equal(
            model.generate(x, max_length=6, use_cache=True),
            model.generate(x, max_length=6, use_cache=False),
        )

    def test_all_pad_row(self):
        """A fully-padded row (empty attention mask) decodes identically."""
        model = build_model()
        x = np.array([[5, 6, 7], [PAD, PAD, PAD]], dtype=np.int64)
        assert np.array_equal(
            model.generate(x, max_length=5, use_cache=True),
            model.generate(x, max_length=5, use_cache=False),
        )


class TestBeamEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        input_ids=batched_inputs(),
        max_length=st.integers(min_value=1, max_value=6),
        num_beams=st.integers(min_value=2, max_value=3),
        length_penalty=st.sampled_from([0.7, 1.0, 1.4]),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_cached_matches_reference(self, input_ids, max_length, num_beams, length_penalty, seed):
        model = build_model(seed=seed)
        cached = model.generate(
            input_ids, max_length=max_length, num_beams=num_beams, length_penalty=length_penalty, use_cache=True
        )
        naive = model.generate(
            input_ids, max_length=max_length, num_beams=num_beams, length_penalty=length_penalty, use_cache=False
        )
        assert np.array_equal(cached, naive)

    def test_two_layer_model(self):
        model = build_model(num_encoder_layers=2, num_decoder_layers=2, seed=7)
        x = np.array([[4, 9, 12, PAD], [14, PAD, 6, 5]], dtype=np.int64)
        assert np.array_equal(
            model.generate(x, max_length=7, num_beams=3, use_cache=True),
            model.generate(x, max_length=7, num_beams=3, use_cache=False),
        )

    def test_wide_beam_exceeding_vocab_slice(self):
        """num_beams close to vocab still selects identical candidates."""
        model = build_model(vocab_size=12, seed=2)
        x = np.array([[4, 5], [6, 7], [8, 9]], dtype=np.int64)
        assert np.array_equal(
            model.generate(x, max_length=4, num_beams=4, use_cache=True),
            model.generate(x, max_length=4, num_beams=4, use_cache=False),
        )


class TestEosAndTruncation:
    def test_eos_early_exit(self):
        """Forcing the first emitted token to be EOS exercises early exit."""
        probe = build_model(seed=5)
        x = np.array([[5, 8, 11]], dtype=np.int64)
        first = int(probe.generate(x, max_length=1, use_cache=False)[0, 0])
        model = build_model(seed=5, eos_id=first)
        for num_beams in (1, 2):
            cached = model.generate(x, max_length=6, num_beams=num_beams, use_cache=True)
            naive = model.generate(x, max_length=6, num_beams=num_beams, use_cache=False)
            assert np.array_equal(cached, naive)
            assert cached.shape == (1, 1)
            assert cached[0, 0] == first

    def test_mixed_finish_times_pad_after_eos(self):
        """Rows finishing early are pad-extended while the rest keep decoding."""
        model = build_model(seed=3)
        x = np.array([[5, 6, 7], [9, 10, 11], [12, 13, 14]], dtype=np.int64)
        cached = model.generate(x, max_length=8, use_cache=True)
        naive = model.generate(x, max_length=8, use_cache=False)
        assert np.array_equal(cached, naive)
        for row in cached:
            eos_positions = np.flatnonzero(row == EOS)
            if eos_positions.size:
                assert np.all(row[eos_positions[0] + 1 :] == PAD)

    def test_max_length_truncation(self):
        model = build_model(seed=1, eos_id=-1)  # nothing ever matches EOS
        x = np.array([[5, 6], [7, 8]], dtype=np.int64)
        for num_beams in (1, 2):
            cached = model.generate(x, max_length=3, num_beams=num_beams, use_cache=True)
            naive = model.generate(x, max_length=3, num_beams=num_beams, use_cache=False)
            assert np.array_equal(cached, naive)
            assert cached.shape == (2, 3)


class TestOutputContract:
    """Greedy and beam share one output contract: (batch, L) with L = longest
    generated row (<= max_length), shorter rows right-padded with pad_id."""

    @pytest.mark.parametrize("num_beams", [1, 3])
    @pytest.mark.parametrize("use_cache", [True, False])
    def test_width_is_longest_row(self, num_beams, use_cache):
        model = build_model(seed=4)
        x = np.array([[5, 6, 7, 8], [9, 10, PAD, PAD]], dtype=np.int64)
        out = model.generate(x, max_length=6, num_beams=num_beams, use_cache=use_cache)
        assert out.ndim == 2 and out.shape[0] == 2
        assert 1 <= out.shape[1] <= 6
        lengths = []
        for row in out:
            eos_positions = np.flatnonzero(row == EOS)
            lengths.append(int(eos_positions[0]) + 1 if eos_positions.size else out.shape[1])
        assert max(lengths) == out.shape[1]

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_greedy_and_beam_agree_on_shape_semantics(self, use_cache):
        model = build_model(seed=6, eos_id=-1)
        x = np.array([[5, 6, 7]], dtype=np.int64)
        greedy = model.generate(x, max_length=4, num_beams=1, use_cache=use_cache)
        beam = model.generate(x, max_length=4, num_beams=2, use_cache=use_cache)
        # With no EOS reachable both must decode exactly max_length tokens.
        assert greedy.shape == beam.shape == (1, 4)


class TestMaxLengthValidation:
    """``None`` is the only budget that means "the config default"; below 1 raises."""

    @pytest.mark.parametrize("num_beams", [1, 2])
    @pytest.mark.parametrize("use_cache", [True, False])
    @pytest.mark.parametrize("max_length", [0, -1])
    def test_budget_below_one_raises(self, max_length, use_cache, num_beams):
        model = build_model()
        with pytest.raises(ModelConfigError):
            model.generate(np.array([[5, 6]]), max_length=max_length, num_beams=num_beams, use_cache=use_cache)

    def test_none_means_the_config_default(self):
        model = build_model(seed=1, eos_id=-1)  # nothing ever matches EOS
        out = model.generate(np.array([[5, 6]]), max_length=None)
        assert out.shape == (1, model.config.max_decode_length)


class TestTrainingModeDecoding:
    """``generate`` decodes a training-mode model exactly as in eval mode, on both paths."""

    def build_dropout_model(self, dropout):
        config = TransformerConfig(vocab_size=24, d_model=8, num_heads=2, d_ff=16, dropout=dropout, seed=11)
        return T5Model(config)  # fresh models start in training mode

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("num_beams", [1, 2])
    def test_training_mode_decodes_with_dropout_off(self, dropout, num_beams):
        model = self.build_dropout_model(dropout)
        x = np.array([[5, 6, 7], [9, PAD, 10]], dtype=np.int64)
        assert model.training
        runs = [
            model.generate(x, max_length=6, num_beams=num_beams, use_cache=use_cache)
            for use_cache in (True, False, True, False)
        ]
        assert model.training  # the caller's mode is restored
        model.eval()
        reference = model.generate(x, max_length=6, num_beams=num_beams, use_cache=False)
        for run in runs:
            assert np.array_equal(run, reference)


class TestCacheMechanics:
    def test_cached_attention_is_inference_only(self):
        model = build_model()
        attention = model.decoder.layers[0].cross_attention
        with no_grad():
            states = model.encoder(np.array([[5, 6]]))
        with pytest.raises(ModelConfigError):
            attention.project_static_kv(states)  # outside no_grad
        q = np.zeros((1, 2, 1, 4))
        attention.train()
        try:
            with pytest.raises(ModelConfigError):
                attention.attend_rows(q, [q], [q])
        finally:
            attention.eval()

    def test_incremental_decoder_matches_full_pass(self):
        """Teacher-forcing a target one token per paged step reproduces the
        full decoder forward's hidden states at every position."""
        model = build_model(num_decoder_layers=2, seed=9)
        source = np.array([5, 6, 7, 8], dtype=np.int64)
        target = np.array([BOS, 10, 11, 12], dtype=np.int64)
        with no_grad():
            full = model.decoder(target[None], model.encoder(source[None])).numpy()
        batch = model.paged_decode_batch(max_slots=1)
        batch.admit(source, max_length=len(target))
        seen: list[np.ndarray] = []
        original = model.lm_logits
        model.lm_logits = lambda hidden: seen.append(np.array(hidden)) or original(hidden)
        try:
            for token in target:
                (slot,) = [slot for slot in batch._slots if slot is not None]
                slot.last_token = int(token)
                batch.step()
        finally:
            del model.lm_logits
        assert np.allclose(np.concatenate(seen, axis=1), full, atol=1e-10)
        assert batch.active_count == 0 and batch.arena.pages_in_use == 0


class TestRelativePositionBiasOffset:
    def test_offset_row_matches_full_bias(self):
        bias = RelativePositionBias(num_heads=2, num_buckets=8, max_distance=16)
        full = bias(6, 6).numpy()
        for position in range(6):
            row = bias(1, 6, query_offset=position).numpy()
            assert np.array_equal(row, full[:, :, position : position + 1, :])
