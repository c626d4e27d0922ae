"""Tests for attention, relative position bias and the T5 model."""

import numpy as np
import pytest

from repro.errors import ModelConfigError
from repro.nn.attention import MultiHeadAttention, RelativePositionBias
from repro.nn.tensor import Tensor, autocast
from repro.nn.transformer import EncoderLayer, T5Model, TransformerConfig

DTYPES = ["float64", "float32"]


def assert_same_floats(got, want: np.ndarray, dtype: str) -> None:
    """``got`` is a plain array equal to ``want``, dtype included."""
    assert isinstance(got, np.ndarray)
    assert got.dtype == want.dtype == np.dtype(dtype)
    assert np.array_equal(got, want)


def tiny_config(**overrides) -> TransformerConfig:
    params = dict(
        vocab_size=40,
        d_model=16,
        num_heads=2,
        d_ff=32,
        num_encoder_layers=1,
        num_decoder_layers=1,
        max_decode_length=8,
    )
    params.update(overrides)
    return TransformerConfig(**params)


class TestRelativePositionBias:
    def test_shape(self):
        bias = RelativePositionBias(num_heads=2, num_buckets=8, max_distance=16)
        out = bias(5, 7)
        assert out.shape == (1, 2, 5, 7)

    def test_buckets_depend_only_on_distance(self):
        bias = RelativePositionBias(num_heads=1, num_buckets=8, max_distance=16)
        out = bias(6, 6).numpy()[0, 0]
        assert out[0, 1] == pytest.approx(out[3, 4])
        assert out[1, 0] == pytest.approx(out[4, 3])

    def test_invalid_buckets(self):
        with pytest.raises(ModelConfigError):
            RelativePositionBias(num_heads=1, num_buckets=1)


class TestMultiHeadAttention:
    def test_output_shape(self):
        attention = MultiHeadAttention(d_model=16, num_heads=4)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 16)))
        out = attention(x, x, x)
        assert out.shape == (2, 5, 16)

    def test_masking_blocks_attention(self):
        attention = MultiHeadAttention(d_model=8, num_heads=2)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 4, 8)))
        mask = np.array([[[True, True, False, False]]* 4])  # keys 2,3 masked for all queries
        _, weights = attention(x, x, x, mask=mask.reshape(1, 4, 4), return_weights=True)
        weights = weights.numpy()
        assert np.allclose(weights[..., 2:], 0.0, atol=1e-6)

    def test_weights_sum_to_one(self):
        attention = MultiHeadAttention(d_model=8, num_heads=2)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 8)))
        _, weights = attention(x, x, x, return_weights=True)
        np.testing.assert_allclose(weights.numpy().sum(axis=-1), np.ones((2, 2, 3)), atol=1e-9)

    def test_d_model_head_divisibility(self):
        with pytest.raises(ModelConfigError):
            MultiHeadAttention(d_model=10, num_heads=3)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_array_forward_is_the_tensor_path(self, dtype):
        """Head size 6, so the attention scale is not a power of two and rounds."""
        attention = MultiHeadAttention(d_model=12, num_heads=2, dropout=0.1, seed=3).eval()
        rng = np.random.default_rng(4)
        query = rng.normal(size=(2, 3, 12)).astype(dtype)
        memory = rng.normal(size=(2, 5, 12)).astype(dtype)
        bias = rng.normal(size=(1, 2, 3, 5)).astype(dtype)
        keep = np.array([[True] * 5, [True, True, False, True, False]])[:, None, None, :]
        got = attention(query, memory, memory, mask=keep, position_bias=bias)
        with autocast(dtype):
            want = attention(Tensor(query), Tensor(memory), Tensor(memory), mask=keep, position_bias=Tensor(bias))
        assert_same_floats(got, want.data, dtype)

    def test_array_while_training_with_dropout_raises(self):
        attention = MultiHeadAttention(d_model=8, num_heads=2, dropout=0.1)
        x = np.ones((1, 3, 8))
        with pytest.raises(ModelConfigError):
            attention(x, x, x)


class TestEncoder:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("activation", ["relu", "gelu"])
    def test_layer_array_forward_is_the_tensor_path(self, dtype, activation):
        layer = EncoderLayer(tiny_config(num_heads=2, d_model=12, dropout=0.1, activation=activation), seed=5).eval()
        rng = np.random.default_rng(6)
        hidden = rng.normal(size=(2, 4, 12)).astype(dtype)
        bias = rng.normal(size=(1, 2, 4, 4)).astype(dtype)
        keep = np.array([[True] * 4, [True, True, True, False]])[:, None, None, :]
        got = layer(hidden, keep, bias)
        with autocast(dtype):
            want = layer(Tensor(hidden), keep, Tensor(bias))
        assert_same_floats(got, want.data, dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_encoder_with_a_dtype_is_the_tensor_path(self, dtype):
        model = T5Model(tiny_config(num_encoder_layers=2, dropout=0.1, seed=2)).eval()
        encoder = model.encoder
        ids = np.array([[5, 6, 7, 8, 9], [10, 11, 0, 12, 0]])
        mask = ids != 0
        with autocast(dtype):
            want = encoder(ids, mask)
        assert_same_floats(encoder(ids, mask, dtype), want.data, dtype)


class TestT5Model:
    def test_forward_loss_and_logits(self):
        model = T5Model(tiny_config())
        x = np.random.default_rng(0).integers(4, 40, size=(2, 6))
        y = np.random.default_rng(1).integers(4, 40, size=(2, 5))
        out = model(x, labels=y)
        assert out["logits"].shape == (2, 5, 40)
        assert np.isfinite(out["loss"].item())

    def test_shift_right(self):
        model = T5Model(tiny_config())
        labels = np.array([[5, 6, 1], [7, 1, 0]])
        shifted = model.shift_right(labels)
        assert shifted[0, 0] == model.config.bos_id
        assert shifted[0, 1] == 5
        assert shifted[1, 2] == 1

    def test_loss_decreases_with_training(self):
        from repro.nn.optim import Adam

        model = T5Model(tiny_config(seed=1))
        rng = np.random.default_rng(0)
        x = rng.integers(4, 40, size=(4, 6))
        y = rng.integers(4, 40, size=(4, 5))
        optimizer = Adam(model.parameters(), learning_rate=1e-2)
        first = None
        last = None
        for _ in range(12):
            optimizer.zero_grad()
            out = model(x, labels=y)
            out["loss"].backward()
            optimizer.step()
            last = out["loss"].item()
            if first is None:
                first = last
        assert last < first

    def test_greedy_generation_shape_and_range(self):
        model = T5Model(tiny_config())
        x = np.random.default_rng(0).integers(4, 40, size=(3, 6))
        generated = model.generate(x, max_length=5)
        assert generated.shape[0] == 3
        assert generated.shape[1] <= 5
        assert generated.min() >= 0 and generated.max() < 40

    def test_beam_generation(self):
        # Beam search follows the same output contract as greedy decoding:
        # width is the longest generated row, not a fixed max_length pad-out.
        model = T5Model(tiny_config())
        x = np.random.default_rng(0).integers(4, 40, size=(1, 6))
        generated = model.generate(x, max_length=5, num_beams=3)
        assert generated.shape[0] == 1
        assert 1 <= generated.shape[1] <= 5
        assert generated.min() >= 0 and generated.max() < 40

    def test_cached_flag_does_not_change_outputs(self):
        model = T5Model(tiny_config())
        x = np.random.default_rng(1).integers(4, 40, size=(2, 6))
        for num_beams in (1, 2):
            fast = model.generate(x, max_length=5, num_beams=num_beams, use_cache=True)
            reference = model.generate(x, max_length=5, num_beams=num_beams, use_cache=False)
            assert np.array_equal(fast, reference)

    @pytest.mark.parametrize("use_cache", [True, False])
    @pytest.mark.parametrize("num_beams", [1, 2])
    def test_generate_rejects_an_empty_source(self, use_cache, num_beams):
        model = T5Model(tiny_config())
        with pytest.raises(ModelConfigError, match="non-empty"):
            model.generate(np.zeros((1, 0), dtype=np.int64), max_length=3, num_beams=num_beams, use_cache=use_cache)

    def test_admit_rejects_an_empty_source_and_holds_no_page(self):
        model = T5Model(tiny_config()).eval()
        batch = model.paged_decode_batch(max_slots=2)
        with pytest.raises(ModelConfigError, match="non-empty"):
            batch.admit(np.array([], dtype=np.int64))
        assert batch.active_count == 0 and batch.arena.pages_in_use == 0
        batch.admit(np.array([5, 6], dtype=np.int64), max_length=2)  # the batch still admits
        batch.close()
        assert batch.arena.pages_in_use == 0

    def test_requires_labels_or_decoder_inputs(self):
        model = T5Model(tiny_config())
        with pytest.raises(ModelConfigError):
            model(np.array([[4, 5]]))

    def test_config_validation(self):
        with pytest.raises(ModelConfigError):
            TransformerConfig(vocab_size=10, d_model=15, num_heads=4).validate()
