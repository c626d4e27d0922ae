"""Multi-head attention with T5-style relative position biases."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ModelConfigError
from repro.nn import functional as F
from repro.nn.layers import Dropout, Linear, Module, Parameter, cast_cached
from repro.nn.tensor import Tensor, grad_enabled
from repro.utils.rng import seeded_rng


class RelativePositionBias(Module):
    """The learned bucketed relative-position bias used by T5 attention.

    Instead of absolute position embeddings, T5 adds a learned scalar to each
    attention logit that depends only on the bucketed distance between the
    query and key positions.  Buckets grow logarithmically with distance, and
    the decoder (causal) variant only distinguishes "how far in the past".
    """

    def __init__(
        self,
        num_heads: int,
        num_buckets: int = 32,
        max_distance: int = 128,
        bidirectional: bool = True,
        seed: int | np.random.Generator = 0,
    ):
        super().__init__()
        if num_buckets < 2:
            raise ModelConfigError("relative position bias needs at least 2 buckets")
        rng = seeded_rng(seed)
        self.num_heads = num_heads
        self.num_buckets = num_buckets
        self.max_distance = max_distance
        self.bidirectional = bidirectional
        self.embedding = Parameter(rng.normal(0.0, 0.02, size=(num_buckets, num_heads)))

    def _bucket(self, relative_position: np.ndarray) -> np.ndarray:
        """Map signed relative positions to bucket indices (vectorised)."""
        num_buckets = self.num_buckets
        result = np.zeros_like(relative_position)
        if self.bidirectional:
            num_buckets //= 2
            result = result + (relative_position > 0).astype(np.int64) * num_buckets
            relative_position = np.abs(relative_position)
        else:
            relative_position = -np.minimum(relative_position, 0)
        max_exact = num_buckets // 2
        is_small = relative_position < max_exact
        # Larger distances share logarithmically sized buckets.
        with np.errstate(divide="ignore"):
            relative_if_large = max_exact + (
                np.log(np.maximum(relative_position, 1) / max_exact)
                / np.log(self.max_distance / max_exact)
                * (num_buckets - max_exact)
            ).astype(np.int64)
        relative_if_large = np.minimum(relative_if_large, num_buckets - 1)
        result = result + np.where(is_small, relative_position, relative_if_large)
        return result

    def forward(self, query_length: int, key_length: int, query_offset: int = 0) -> Tensor:
        """Return a bias tensor of shape ``(1, num_heads, query_length, key_length)``.

        ``query_offset`` places the queries at absolute positions
        ``offset .. offset + query_length`` — incremental decoding uses it to
        get the bias row of the newest token only, which is bitwise the same
        as the corresponding row of the full ``(key_length, key_length)`` bias.
        """
        context_position = np.arange(query_offset, query_offset + query_length)[:, None]
        memory_position = np.arange(key_length)[None, :]
        relative_position = memory_position - context_position
        buckets = self._bucket(relative_position)
        bias = self.embedding.embedding_lookup(buckets)  # (Q, K, H)
        return bias.transpose((2, 0, 1)).reshape(1, self.num_heads, query_length, key_length)

    def decode_row(self, key_length: int, dtype) -> np.ndarray:
        """The newest decode token's ``(1, num_heads, 1, key_length)`` bias row as a ``dtype`` array.

        Bitwise ``forward(1, key_length, query_offset=key_length - 1)`` under
        that compute dtype.  Memoized per length as a :func:`cast_cached`
        derivation of the table, so a reloaded table or a train/eval
        transition drops it like any other weight cast.
        """

        def row(table: np.ndarray) -> np.ndarray:
            buckets = self._bucket(np.arange(key_length)[None, :] - (key_length - 1))
            return table[buckets].transpose(2, 0, 1).reshape(1, self.num_heads, 1, key_length)

        return cast_cached(self, f"decode_row:{key_length}", self.embedding.data, dtype, transform=row)

    def square(self, length: int, dtype) -> np.ndarray:
        """The full ``(1, num_heads, length, length)`` bias as a ``dtype`` array.

        Bitwise ``forward(length, length)`` under that compute dtype.  A bias
        entry depends only on the distance between its two positions, so the
        bias for ``length`` is the top-left block of any larger one: one
        :func:`cast_cached` block is memoized per power-of-two size and
        sliced, which bounds the memo to 4/3 of the largest block (0.7 MB in
        float64 for 4 heads and sources up to 128 tokens).
        """
        size = 1 << (length - 1).bit_length()

        def block(table: np.ndarray) -> np.ndarray:
            positions = np.arange(size)
            buckets = self._bucket(positions[None, :] - positions[:, None])
            return table[buckets].transpose(2, 0, 1).reshape(1, self.num_heads, size, size)

        return cast_cached(self, f"square:{size}", self.embedding.data, dtype, transform=block)[:, :, :length, :length]


class MultiHeadAttention(Module):
    """Scaled dot-product attention over several heads, with optional position bias."""

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        dropout: float = 0.0,
        seed: int | np.random.Generator = 0,
    ):
        super().__init__()
        if d_model % num_heads != 0:
            raise ModelConfigError(f"d_model={d_model} not divisible by num_heads={num_heads}")
        rng = seeded_rng(seed)
        self.d_model = d_model
        self.num_heads = num_heads
        self.head_dim = d_model // num_heads
        self.q_proj = Linear(d_model, d_model, bias=False, seed=rng)
        self.k_proj = Linear(d_model, d_model, bias=False, seed=rng)
        self.v_proj = Linear(d_model, d_model, bias=False, seed=rng)
        self.out_proj = Linear(d_model, d_model, bias=False, seed=rng)
        self.dropout = Dropout(dropout, seed=rng)

    def _split_heads(self, x: Tensor) -> Tensor:
        batch, length, _ = x.shape
        return x.reshape(batch, length, self.num_heads, self.head_dim).transpose((0, 2, 1, 3))

    def _merge_heads(self, x: Tensor) -> Tensor:
        batch, heads, length, head_dim = x.shape
        return x.transpose((0, 2, 1, 3)).reshape(batch, length, heads * head_dim)

    def forward(
        self,
        query: Tensor | np.ndarray,
        key: Tensor | np.ndarray,
        value: Tensor | np.ndarray,
        mask: np.ndarray | None = None,
        position_bias: Tensor | np.ndarray | None = None,
        return_weights: bool = False,
    ):
        """Attend ``query`` over ``key``/``value``.

        ``mask`` is a boolean *keep* mask broadcastable to
        ``(batch, 1, query_length, key_length)``; masked-out logits receive a
        large negative bias before the softmax.  Plain arrays return an array;
        the paged decode step attends through :meth:`attend_rows` instead.
        """
        q = self._split_heads(self.q_proj.forward(query))
        k = self._split_heads(self.k_proj.forward(key))
        v = self._split_heads(self.v_proj.forward(value))
        # A Python float, so a float32 array is not promoted to float64.
        scores = (q @ k.swapaxes(-1, -2)) * float(1.0 / np.sqrt(self.head_dim))
        if position_bias is not None:
            scores = scores + position_bias
        if mask is not None:
            scores = F.masked_fill(scores, np.asarray(mask, dtype=bool), -1e9)
        weights = self.dropout.forward(F.softmax(scores, axis=-1))
        output = self.out_proj.forward(self._merge_heads(weights @ v))
        return (output, weights) if return_weights else output

    # -- paged decode fast path ----------------------------------------------------------
    # The paged decode attends each sequence over its *own* exact-length
    # K/V history, because padding histories to a common length changes
    # numpy's pairwise-summation grouping and breaks bitwise equality with
    # the solo decode.  Rows whose histories have the *same* length stack:
    # numpy's matmul runs one inner kernel per ``(row, head)`` whatever the
    # outer shape, so a stacked bucket is bitwise the per-row loop.

    def project_static_kv(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project encoder ``states`` into split-head ``(batch, heads, source, head_dim)`` K/V arrays.

        ``states`` is a plain array of the compute dtype (the encoder's
        ``forward`` output for a ``dtype``); the result is bitwise the keys
        and values :meth:`forward` attends over for those states.  The paged decode
        projects cross-attention K/V once per encoder pass with this and
        keeps each row's slice beside its page table.  Decode-only.
        """
        if grad_enabled():
            raise ModelConfigError(
                "project_static_kv is a decode-only fast path; run it under no_grad()"
            )
        return (
            self._split_heads(self.k_proj.forward(states)),
            self._split_heads(self.v_proj.forward(states)),
        )

    def attend_rows(
        self,
        q: np.ndarray,
        keys: Sequence[np.ndarray],
        values: Sequence[np.ndarray],
        masks: Sequence[np.ndarray | None] | None = None,
        position_biases: Sequence[np.ndarray] | None = None,
    ) -> np.ndarray:
        """Attend query rows over per-bucket K/V histories, arrays in and out.

        ``q`` is the ``(rows, heads, 1, head_dim)`` split-head query batch in
        bucket order: ``keys[i]``/``values[i]`` are the stacked ``(rows_i,
        heads, length_i, head_dim)`` histories of the next ``rows_i`` query
        rows, all of one length (a resident self-attention history, or stored
        cross-attention projections).  ``masks[i]`` is a boolean keep mask
        broadcastable to ``(rows_i, 1, 1, length_i)`` or ``None``;
        ``position_biases[i]`` broadcasts to the bucket's scores.  Each bucket
        runs the numpy calls of eval-mode :meth:`forward` — scale, bias, mask
        fill, max-shifted softmax, value mix — in ``q``'s dtype, with no
        autograd objects, so every row's output is bitwise what that row
        would get decoding alone.  Returns the merged, output-projected
        ``(rows, 1, d_model)`` array.  Inference-only (no dropout).
        """
        if self.training:
            raise ModelConfigError("attend_rows is an inference-only fast path; call eval() first")
        scalar = q.dtype.type
        scale, fill = scalar(1.0 / np.sqrt(self.head_dim)), scalar(-1e9)
        attended, start = [], 0
        for bucket, (k, v) in enumerate(zip(keys, values)):
            stop = start + k.shape[0]
            scores = (q[start:stop] @ k.swapaxes(-1, -2)) * scale
            if position_biases is not None:
                scores = scores + position_biases[bucket]
            if masks is not None and masks[bucket] is not None:
                scores = np.where(masks[bucket], scores, fill)
            exps = np.exp(scores - scores.max(axis=-1, keepdims=True))
            attended.append((exps / exps.sum(axis=-1, keepdims=True)) @ v)
            start = stop
        if start != q.shape[0]:
            raise ModelConfigError(f"attend_rows got {q.shape[0]} query rows but K/V histories for {start}")
        merged = self._merge_heads(attended[0] if len(attended) == 1 else np.concatenate(attended, axis=0))
        return self.out_proj.forward(merged)
