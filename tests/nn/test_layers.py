"""Tests for Module, Linear, Embedding, RMSNorm and Dropout."""

import numpy as np
import pytest

from repro.errors import ModelConfigError
from repro.nn.layers import Dropout, Embedding, FeedForward, Linear, Module, Parameter, RMSNorm
from repro.nn.tensor import Tensor, autocast

DTYPES = ["float64", "float32"]


def assert_one_forward(module, x: np.ndarray) -> None:
    """``module(x)`` on a plain array is the ``Tensor`` path's floats under ``autocast(x.dtype)``."""
    got = module(x)
    with autocast(x.dtype):
        want = module(Tensor(x)).data
    assert isinstance(got, np.ndarray)
    assert got.dtype == want.dtype == x.dtype
    assert np.array_equal(got, want)


class TestModule:
    def test_named_parameters_recurse(self):
        class Outer(Module):
            def __init__(self):
                super().__init__()
                self.linear = Linear(3, 2)
                self.layers = [Linear(2, 2), Linear(2, 2)]

        names = dict(Outer().named_parameters())
        assert "linear.weight" in names
        assert "layers.0.weight" in names and "layers.1.bias" in names

    def test_state_dict_roundtrip(self):
        layer = Linear(4, 3, seed=1)
        clone = Linear(4, 3, seed=2)
        clone.load_state_dict(layer.state_dict())
        np.testing.assert_allclose(clone.weight.data, layer.weight.data)

    def test_state_dict_mismatch_raises(self):
        layer = Linear(4, 3)
        with pytest.raises(ModelConfigError):
            layer.load_state_dict({"weight": np.zeros((4, 3))})

    def test_train_eval_propagates(self):
        class Wrapper(Module):
            def __init__(self):
                super().__init__()
                self.dropout = Dropout(0.5)

        wrapper = Wrapper()
        wrapper.eval()
        assert wrapper.dropout.training is False


class TestLinear:
    def test_output_shape(self):
        layer = Linear(5, 3)
        out = layer(Tensor(np.ones((2, 5))))
        assert out.shape == (2, 3)

    def test_no_bias(self):
        layer = Linear(5, 3, bias=False)
        assert layer.bias is None

    def test_invalid_dimensions(self):
        with pytest.raises(ModelConfigError):
            Linear(0, 3)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("int8", [False, True])
    def test_array_forward_is_the_tensor_path(self, dtype, int8):
        rng = np.random.default_rng(3)
        layer = Linear(7, 5, seed=4)
        layer.bias.data = rng.normal(size=5)
        if int8:
            layer.quantize_int8()
        assert_one_forward(layer, rng.normal(size=(2, 3, 7)).astype(dtype))


class TestEmbedding:
    def test_lookup_shape(self):
        embedding = Embedding(10, 4)
        out = embedding(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_out_of_range_id(self):
        embedding = Embedding(10, 4)
        with pytest.raises(ModelConfigError):
            embedding(np.array([[11]]))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_dtype_returns_the_tensor_path_as_an_array(self, dtype):
        embedding = Embedding(10, 4, seed=1)
        ids = np.array([[1, 2, 9], [0, 0, 3]])
        with autocast(dtype):
            want = embedding(ids).data
        got = embedding(ids, dtype)
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype == np.dtype(dtype)
        assert np.array_equal(got, want)

    def test_gradients_accumulate_per_row(self):
        embedding = Embedding(5, 2)
        out = embedding(np.array([[0, 0, 1]]))
        out.sum().backward()
        assert embedding.weight.grad[0, 0] == pytest.approx(2.0)
        assert embedding.weight.grad[1, 0] == pytest.approx(1.0)
        assert embedding.weight.grad[2, 0] == pytest.approx(0.0)


class TestRMSNorm:
    def test_unit_scale_output_has_unit_rms(self):
        norm = RMSNorm(8)
        x = Tensor(np.random.default_rng(0).normal(size=(3, 8)) * 10)
        out = norm(x).numpy()
        rms = np.sqrt((out**2).mean(axis=-1))
        np.testing.assert_allclose(rms, np.ones(3), atol=1e-3)

    def test_weight_scales_output(self):
        norm = RMSNorm(4)
        norm.weight.data = np.full(4, 2.0)
        out = norm(Tensor(np.ones((1, 4)))).numpy()
        np.testing.assert_allclose(out, np.full((1, 4), 2.0), atol=1e-5)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_array_forward_is_the_tensor_path(self, dtype):
        rng = np.random.default_rng(5)
        norm = RMSNorm(6)
        norm.weight.data = rng.normal(size=6)
        assert_one_forward(norm, (rng.normal(size=(2, 4, 6)) * 3.0).astype(dtype))


class TestDropout:
    def test_eval_mode_is_identity(self):
        dropout = Dropout(0.5)
        dropout.eval()
        x = Tensor(np.ones((4, 4)))
        np.testing.assert_allclose(dropout(x).numpy(), x.numpy())

    def test_training_mode_zeroes_some(self):
        dropout = Dropout(0.5, seed=0)
        out = dropout(Tensor(np.ones((100,)))).numpy()
        assert (out == 0).any()
        assert (out > 1.0).any()  # surviving values are scaled up

    def test_invalid_rate(self):
        with pytest.raises(ModelConfigError):
            Dropout(1.0)

    def test_array_passes_through_in_eval_mode_or_at_rate_zero(self):
        x = np.ones((2, 3))
        assert Dropout(0.5).eval()(x) is x
        assert Dropout(0.0)(x) is x

    def test_array_while_training_raises(self):
        for module in (Dropout(0.1), FeedForward(4, 8, dropout=0.1)):
            assert module.training
            with pytest.raises(ModelConfigError):
                module(np.ones((1, 2, 4)))


class TestFeedForward:
    def test_shapes_and_activations(self):
        for activation in ("relu", "gelu"):
            ff = FeedForward(8, 16, activation=activation)
            out = ff(Tensor(np.ones((2, 3, 8))))
            assert out.shape == (2, 3, 8)

    def test_unknown_activation(self):
        with pytest.raises(ModelConfigError):
            FeedForward(8, 16, activation="swish")

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("activation", ["relu", "gelu"])
    def test_array_forward_is_the_tensor_path(self, dtype, activation):
        ff = FeedForward(8, 16, activation=activation, dropout=0.1, seed=2).eval()
        assert_one_forward(ff, np.random.default_rng(6).normal(size=(3, 2, 8)).astype(dtype))
