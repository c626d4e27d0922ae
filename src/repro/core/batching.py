"""Batch collation: turning token-id lists into padded numpy arrays.

This module is the single place where ragged token sequences become dense
``(batch, length)`` arrays, shared by three consumers:

* the training loops (:mod:`repro.core.pretraining` / ``finetuning``), which
  collate (source, target) text pairs into :class:`Batch` objects;
* the neural baselines, which reuse :func:`pad_sequences` and
  :func:`iterate_minibatches` for their own epochs;
* the serving layer (:mod:`repro.serving`), whose ``Pipeline.serve`` splits
  a burst's cache misses with :func:`group_into_batches` before padding
  each batch into one forward pass.

Padding is right-aligned with the tokenizer's pad id.  Because every model
masks pad positions exactly, a sequence produces bitwise-identical output
whether it is padded to its own length or to the longest sequence of a larger
batch — the property the serving layer's batch-equals-sequential guarantee
rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.errors import ModelConfigError
from repro.tokenization.tokenizer import DataVisTokenizer


@dataclass
class Batch:
    """A padded training batch."""

    input_ids: np.ndarray
    labels: np.ndarray

    @property
    def size(self) -> int:
        """Number of sequences in the batch."""
        return int(self.input_ids.shape[0])


def pad_sequences(
    sequences: Sequence[Sequence[int]],
    pad_id: int,
    max_length: int | None = None,
) -> np.ndarray:
    """Right-pad integer sequences into a dense ``(batch, length)`` array.

    ``max_length`` truncates longer sequences before padding.
    """
    if not sequences:
        raise ModelConfigError("cannot pad an empty list of sequences")
    longest = max(len(sequence) for sequence in sequences)
    if max_length is not None:
        longest = min(longest, max_length)
    longest = max(longest, 1)
    array = np.full((len(sequences), longest), pad_id, dtype=np.int64)
    for row, sequence in enumerate(sequences):
        clipped = list(sequence)[:longest]
        array[row, : len(clipped)] = clipped
    return array


def collate_text_pairs(
    sources: Sequence[str],
    targets: Sequence[str],
    tokenizer: DataVisTokenizer,
    max_input_length: int | None = None,
    max_target_length: int | None = None,
) -> Batch:
    """Tokenize and pad parallel source/target texts into a :class:`Batch`."""
    if len(sources) != len(targets):
        raise ModelConfigError("sources and targets must have the same length")
    source_ids = tokenizer.batch_encode(sources, max_length=max_input_length)
    target_ids = tokenizer.batch_encode(targets, max_length=max_target_length)
    pad_id = tokenizer.vocab.pad_id
    return Batch(
        input_ids=pad_sequences(source_ids, pad_id, max_input_length),
        labels=pad_sequences(target_ids, pad_id, max_target_length),
    )


def collate_token_pairs(
    source_ids: Sequence[Sequence[int]],
    target_ids: Sequence[Sequence[int]],
    pad_id: int,
    max_input_length: int | None = None,
    max_target_length: int | None = None,
) -> Batch:
    """Pad already-tokenized id sequences into a :class:`Batch`."""
    if len(source_ids) != len(target_ids):
        raise ModelConfigError("source_ids and target_ids must have the same length")
    return Batch(
        input_ids=pad_sequences(source_ids, pad_id, max_input_length),
        labels=pad_sequences(target_ids, pad_id, max_target_length),
    )


def padding_efficiency(lengths: Sequence[int]) -> float:
    """Fraction of a padded ``(batch, max(lengths))`` block that is real data.

    1.0 means every sequence has the longest length (no padding waste); the
    serving layer records this per dispatched batch so operators can see how
    much forward-pass compute the batching policy spends on pad positions.
    An empty batch is defined as perfectly efficient.
    """
    if not lengths:
        return 1.0
    longest = max(lengths)
    if longest <= 0:
        return 1.0
    return sum(lengths) / (longest * len(lengths))


def group_into_batches(items: Sequence, batch_size: int) -> list[list]:
    """Split ``items`` into consecutive order-preserving batches of at most ``batch_size``.

    Unlike :func:`iterate_minibatches` this never shuffles — the serving layer
    relies on the order so that scattered results line up with their requests.
    """
    if batch_size <= 0:
        raise ModelConfigError("batch_size must be positive")
    return [list(items[start : start + batch_size]) for start in range(0, len(items), batch_size)]


def iterate_minibatches(items: Sequence, batch_size: int, rng: np.random.Generator | None = None):
    """Yield mini-batches (lists) of ``items``, shuffled when ``rng`` is given.

    Used by every training loop; pass a seeded generator from
    :func:`repro.utils.rng.seeded_rng` to make epoch order reproducible.
    """
    if batch_size <= 0:
        raise ModelConfigError("batch_size must be positive")
    order = np.arange(len(items))
    if rng is not None:
        order = rng.permutation(len(items))
    for start in range(0, len(items), batch_size):
        indices = order[start : start + batch_size]
        yield [items[int(index)] for index in indices]
