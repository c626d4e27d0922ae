"""Precision-policy suite: float32 autocast and int8 weight quantization.

The contract under test (documented in ``docs/numerics.md``):

* ``autocast("float32")`` runs a forward/decode in float32 end-to-end and
  disables autograd recording for the scope; master parameters stay float64.
* fp32 greedy and beam decode agree with the fp64 reference at a high token
  rate on seeded models (the documented tolerance is >= 0.99 token
  agreement; hypothesis drives it across shapes and seeds).
* int8 quantization is symmetric per-row, bounded by half a quantization
  step, deterministic, and round-trips through ``int8_state_dict`` /
  ``load_state_dict`` bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelConfigError
from repro.nn.decode_cache import PagedKVArena
from repro.nn.layers import Embedding, Linear, cast_cached, symmetric_int8
from repro.nn.tensor import Tensor, autocast, compute_dtype, grad_enabled, resolve_dtype
from repro.nn.transformer import T5Model, TransformerConfig

PAD, EOS, BOS = 0, 1, 3

#: The documented fp32-vs-fp64 decode tolerance (docs/numerics.md): at least
#: this fraction of token positions must agree on seeded tiny models.
AGREEMENT_TOLERANCE = 0.99

_MODEL_CACHE: dict[tuple, T5Model] = {}


def build_model(vocab_size=32, d_model=16, num_heads=2, d_ff=32, num_layers=1, seed=0, eos_id=EOS) -> T5Model:
    """A tiny eval-mode model; memoized so hypothesis examples share weights."""
    key = (vocab_size, d_model, num_heads, d_ff, num_layers, seed, eos_id)
    if key not in _MODEL_CACHE:
        config = TransformerConfig(
            vocab_size=vocab_size,
            d_model=d_model,
            num_heads=num_heads,
            d_ff=d_ff,
            num_encoder_layers=num_layers,
            num_decoder_layers=num_layers,
            eos_id=eos_id,
            seed=seed,
        )
        _MODEL_CACHE[key] = T5Model(config).eval()
    return _MODEL_CACHE[key]


class TestAutocast:
    def test_default_dtype_is_float64(self):
        assert compute_dtype() == np.float64
        assert Tensor([1.0]).data.dtype == np.float64

    def test_autocast_sets_dtype_and_disables_grad(self):
        with autocast("float32"):
            assert compute_dtype() == np.float32
            assert not grad_enabled()
            assert Tensor([1.0]).data.dtype == np.float32
        assert compute_dtype() == np.float64
        assert grad_enabled()

    def test_autocast_float64_keeps_grad(self):
        with autocast("float64"):
            assert grad_enabled()
            assert compute_dtype() == np.float64

    def test_autocast_nesting_restores(self):
        with autocast("float32"):
            with autocast("float64"):
                assert compute_dtype() == np.float64
            assert compute_dtype() == np.float32

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError):
            resolve_dtype("float16")
        with pytest.raises(ValueError):
            with autocast("int8"):
                pass  # pragma: no cover - must raise before entering

    def test_parameters_stay_float64_masters(self):
        with autocast("float32"):
            layer = Linear(4, 3, seed=0)
        assert layer.weight.data.dtype == np.float64
        assert layer.weight.requires_grad

    def test_parameters_created_under_autocast_keep_full_precision(self):
        # Masters must not round through the compute dtype on their way in:
        # a module built inside an autocast scope is bitwise identical to
        # the same seeded module built outside it.
        reference = Linear(4, 3, seed=11)
        with autocast("float32"):
            inside = Linear(4, 3, seed=11)
        np.testing.assert_array_equal(inside.weight.data, reference.weight.data)

    def test_mixed_master_op_lands_in_compute_dtype(self):
        layer = Linear(4, 3, seed=0)
        with autocast("float32"):
            out = layer(Tensor(np.ones((2, 4))))
        assert out.data.dtype == np.float32

    def test_no_graph_recorded_under_autocast(self):
        layer = Linear(4, 3, seed=0)
        with autocast("float32"):
            out = (layer(Tensor(np.ones((2, 4)))) ** 2).sum()
        assert not out.requires_grad


class TestCastCached:
    def test_reuses_until_identity_changes(self):
        layer = Linear(4, 3, seed=0)
        first = cast_cached(layer, "weight", layer.weight.data, np.float32)
        assert cast_cached(layer, "weight", layer.weight.data, np.float32) is first
        layer.weight.data = layer.weight.data.copy()  # reassignment -> new identity
        assert cast_cached(layer, "weight", layer.weight.data, np.float32) is not first

    def test_mode_transition_invalidates(self):
        layer = Linear(4, 3, seed=0).eval()
        first = cast_cached(layer, "weight", layer.weight.data, np.float32)
        layer.weight.data[0, 0] += 1.0  # in-place, same identity
        layer.train()
        layer.eval()
        refreshed = cast_cached(layer, "weight", layer.weight.data, np.float32)
        assert refreshed is not first
        assert refreshed[0, 0] == np.float32(layer.weight.data[0, 0])

    def test_same_dtype_passthrough(self):
        layer = Linear(4, 3, seed=0)
        assert cast_cached(layer, "weight", layer.weight.data, np.float64) is layer.weight.data


class TestFloat32Forward:
    def test_logits_close_to_float64(self):
        model = build_model(d_model=32, d_ff=64)
        rng = np.random.default_rng(0)
        ids = rng.integers(4, 32, size=(3, 7))
        labels = rng.integers(4, 32, size=(3, 5))
        reference = model(ids, labels=labels)["logits"].numpy()
        with autocast("float32"):
            reduced = model(ids, labels=labels)["logits"].numpy()
        assert reduced.dtype == np.float32
        np.testing.assert_allclose(reduced, reference, rtol=2e-4, atol=2e-4)

    def test_kv_cache_rejects_mixed_dtypes(self):
        seq = PagedKVArena(num_layers=1, num_heads=2, head_dim=4).sequence()
        seq.append(0, np.zeros((1, 2, 1, 4), dtype=np.float64), np.zeros((1, 2, 1, 4), dtype=np.float64))
        with pytest.raises(ModelConfigError):  # the same page, so no allocation would catch it
            seq.append(0, np.zeros((1, 2, 1, 4), dtype=np.float32), np.zeros((1, 2, 1, 4), dtype=np.float32))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=4),
        batch=st.integers(min_value=1, max_value=3),
        width=st.integers(min_value=2, max_value=6),
        max_length=st.integers(min_value=2, max_value=10),
        data=st.data(),
    )
    def test_greedy_fp32_agrees_with_fp64(self, seed, batch, width, max_length, data):
        model = build_model(seed=seed)
        rows = [
            data.draw(st.lists(st.integers(4, 31), min_size=1, max_size=width), label=f"row{i}")
            for i in range(batch)
        ]
        ids = np.full((batch, width), PAD, dtype=np.int64)
        for i, row in enumerate(rows):
            ids[i, : len(row)] = row
        reference = model.generate(ids, max_length=max_length, dtype="float64")
        reduced = model.generate(ids, max_length=max_length, dtype="float32")
        agreement = _token_agreement(reference, reduced, pad_id=PAD)
        assert agreement >= AGREEMENT_TOLERANCE

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=3),
        num_beams=st.integers(min_value=2, max_value=3),
        max_length=st.integers(min_value=2, max_value=8),
    )
    def test_beam_fp32_agrees_with_fp64(self, seed, num_beams, max_length):
        model = build_model(seed=seed)
        rng = np.random.default_rng(seed)
        ids = rng.integers(4, 32, size=(2, 5))
        reference = model.generate(ids, max_length=max_length, num_beams=num_beams, dtype="float64")
        reduced = model.generate(ids, max_length=max_length, num_beams=num_beams, dtype="float32")
        assert _token_agreement(reference, reduced, pad_id=PAD) >= AGREEMENT_TOLERANCE


def _token_agreement(reference: np.ndarray, candidate: np.ndarray, pad_id: int) -> float:
    """Token agreement over the union-padded width of two decodes."""
    width = max(reference.shape[1], candidate.shape[1])

    def pad(array: np.ndarray) -> np.ndarray:
        out = np.full((array.shape[0], width), pad_id, dtype=np.int64)
        out[:, : array.shape[1]] = array
        return out

    return float((pad(reference) == pad(candidate)).mean())


class TestInt8Quantization:
    def test_symmetric_int8_error_bound(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 0.3, size=(16, 8))
        codes, scales = symmetric_int8(values, axis=0)
        assert codes.dtype == np.int8
        assert np.abs(codes).max() <= 127
        assert np.all(np.abs(values - codes * scales) <= scales / 2 + 1e-12)

    def test_symmetric_int8_zero_rows(self):
        codes, scales = symmetric_int8(np.zeros((4, 3)), axis=1)
        assert np.all(codes == 0)
        assert np.all(scales == 1.0)

    def test_linear_quantize_freezes_and_rederives_master(self):
        layer = Linear(8, 4, seed=1)
        original = layer.weight.data.copy()
        layer.quantize_int8()
        assert layer.quantized
        assert not layer.weight.requires_grad
        np.testing.assert_array_equal(layer.weight.data, layer.weight_q.astype(np.float64) * layer.weight_scale)
        assert np.abs(layer.weight.data - original).max() <= layer.weight_scale.max() / 2 + 1e-12
        # double-quantize is a no-op: codes, scales, and master are untouched
        codes, scales, master = layer.weight_q.copy(), layer.weight_scale.copy(), layer.weight.data.copy()
        layer.quantize_int8()
        np.testing.assert_array_equal(layer.weight_q, codes)
        np.testing.assert_array_equal(layer.weight_scale, scales)
        np.testing.assert_array_equal(layer.weight.data, master)

    def test_embedding_per_row_scales(self):
        table = Embedding(10, 6, seed=2)
        table.quantize_int8()
        assert table.weight_scale.shape == (10, 1)
        assert table.quantized

    def test_model_quantize_walks_shared_modules_once(self):
        model = build_model(seed=7)
        fresh = T5Model(model.config).eval()
        fresh.quantize_int8()
        assert fresh.quantized
        # the shared embedding is one instance reachable by three names
        assert fresh.shared_embedding is fresh.encoder.embedding is fresh.decoder.embedding
        assert fresh.shared_embedding.quantized

    def test_int8_state_dict_round_trips_bitwise(self):
        config = TransformerConfig(vocab_size=32, d_model=16, num_heads=2, d_ff=32, seed=5)
        model = T5Model(config).eval()
        model.quantize_int8()
        state = model.int8_state_dict()
        assert any(key.endswith(".int8") for key in state)
        clone = T5Model(config).eval()
        clone.load_state_dict(state)
        for (name, parameter), (_, other) in zip(model.named_parameters(), clone.named_parameters()):
            np.testing.assert_array_equal(parameter.data, other.data, err_msg=name)
        rng = np.random.default_rng(0)
        ids = rng.integers(4, 32, size=(2, 6))
        np.testing.assert_array_equal(model.generate(ids, max_length=8), clone.generate(ids, max_length=8))

    def test_plain_state_load_clears_quantization(self):
        config = TransformerConfig(vocab_size=32, d_model=16, num_heads=2, d_ff=32, seed=6)
        model = T5Model(config).eval()
        model.quantize_int8()
        model.load_state_dict(T5Model(config).state_dict())
        assert not model.quantized
        for _, parameter in model.named_parameters():
            assert parameter.requires_grad

    def test_int8_missing_scales_rejected(self):
        config = TransformerConfig(vocab_size=32, d_model=16, num_heads=2, d_ff=32, seed=6)
        model = T5Model(config).eval()
        model.quantize_int8()
        state = model.int8_state_dict()
        state.pop("shared_embedding.weight.int8_scale")
        with pytest.raises(ModelConfigError):
            T5Model(config).load_state_dict(state)

    def test_rejected_state_dict_leaves_model_untouched(self):
        # Validation must run before any int8 install: a bad checkpoint may
        # not leave the model half-overwritten or half-quantized.
        config = TransformerConfig(vocab_size=32, d_model=16, num_heads=2, d_ff=32, seed=6)
        donor = T5Model(config).eval()
        donor.quantize_int8()
        state = donor.int8_state_dict()
        state["not_a_real.weight"] = np.zeros(3)
        target = T5Model(config).eval()
        before = {name: parameter.data.copy() for name, parameter in target.named_parameters()}
        with pytest.raises(ModelConfigError, match="state dict mismatch"):
            target.load_state_dict(state)
        assert not target.quantized
        for name, parameter in target.named_parameters():
            np.testing.assert_array_equal(parameter.data, before[name], err_msg=name)
            assert parameter.requires_grad
