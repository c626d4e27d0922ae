"""Functional building blocks: activations, softmax and losses.

Activations, :func:`softmax` and :func:`masked_fill` also take a plain array
and return one: module bodies branch on their input's type only through these.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, gelu_array


def relu(x: Tensor | np.ndarray) -> Tensor | np.ndarray:
    """Elementwise ReLU (delegates to :meth:`Tensor.relu` for a ``Tensor``)."""
    if isinstance(x, np.ndarray):
        return x * (x > 0)
    return x.relu()


def gelu(x: Tensor | np.ndarray) -> Tensor | np.ndarray:
    """Tanh-approximated GELU (delegates to :meth:`Tensor.gelu` for a ``Tensor``)."""
    if isinstance(x, np.ndarray):
        # The gelu constants are float64 scalars, so a float32 input is
        # promoted and rounded back once, exactly as ``Tensor.gelu`` does.
        return np.asarray(gelu_array(x)[0], dtype=x.dtype)
    return x.gelu()


def softmax(x: Tensor | np.ndarray, axis: int = -1) -> Tensor | np.ndarray:
    """Numerically stable softmax along ``axis``."""
    if isinstance(x, np.ndarray):
        exps = np.exp(x - x.max(axis=axis, keepdims=True))
    else:
        exps = (x - x.max(axis=axis, keepdims=True).detach()).exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def masked_fill(x: Tensor | np.ndarray, keep: np.ndarray, value: float) -> Tensor | np.ndarray:
    """``x`` with the entries where the boolean ``keep`` mask is false set to ``value``."""
    if isinstance(x, np.ndarray):
        return np.where(keep, x, value)
    return x.masked_fill(~keep, value)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    ignore_index: int | None = None,
    label_smoothing: float = 0.0,
) -> Tensor:
    """Token-level cross-entropy averaged over non-ignored positions.

    ``logits`` has shape ``(N, V)`` and ``targets`` shape ``(N,)``.  Positions
    whose target equals ``ignore_index`` contribute neither to the loss nor to
    the gradient, matching the padding convention of the training loops.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy expects 2-D logits, got shape {logits.shape}")
    if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise ValueError(f"targets shape {targets.shape} incompatible with logits {logits.shape}")
    if not 0.0 <= label_smoothing < 1.0:
        raise ValueError(f"label_smoothing must be in [0, 1), got {label_smoothing}")

    if ignore_index is not None:
        keep = targets != ignore_index
    else:
        keep = np.ones_like(targets, dtype=bool)
    count = int(keep.sum())
    if count == 0:
        # No supervised positions: return a zero that still participates in the graph.
        return (logits * 0.0).sum()

    safe_targets = np.where(keep, targets, 0)
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(targets.shape[0]), safe_targets]
    keep_f = keep.astype(np.float64)
    nll = -(picked * Tensor(keep_f)).sum() * (1.0 / count)
    if label_smoothing == 0.0:
        return nll
    smooth = -(logp.mean(axis=-1) * Tensor(keep_f)).sum() * (1.0 / count)
    return nll * (1.0 - label_smoothing) + smooth * label_smoothing


def sequence_cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    pad_id: int,
    label_smoothing: float = 0.0,
) -> Tensor:
    """Cross-entropy for ``(B, T, V)`` logits against ``(B, T)`` targets, ignoring padding."""
    batch, length, vocab = logits.shape
    flat_logits = logits.reshape(batch * length, vocab)
    flat_targets = np.asarray(targets, dtype=np.int64).reshape(batch * length)
    return cross_entropy(flat_logits, flat_targets, ignore_index=pad_id, label_smoothing=label_smoothing)


def attention_mask_bias(mask: np.ndarray, negative: float = -1e9) -> np.ndarray:
    """Convert a boolean keep-mask into an additive attention bias array."""
    mask = np.asarray(mask, dtype=bool)
    return np.where(mask, 0.0, negative)


def causal_mask(length: int, key_length: int | None = None) -> np.ndarray:
    """Boolean causal keep-mask of shape ``(length, key_length)``.

    With the default ``key_length=length`` this is the usual lower-triangular
    mask.  When ``key_length > length`` the queries are taken to be the *last*
    ``length`` positions of the key sequence — the incremental-decoding case,
    where a step's new tokens attend to the whole cached prefix plus
    themselves: ``mask[i, j] = j <= (key_length - length) + i``.
    """
    key_length = length if key_length is None else key_length
    if key_length < length:
        raise ValueError(f"key_length={key_length} must be >= query length={length}")
    offset = key_length - length
    query_position = np.arange(length)[:, None]
    key_position = np.arange(key_length)[None, :]
    return key_position <= query_position + offset
