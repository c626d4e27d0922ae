"""A T5-style encoder--decoder transformer language model.

The architecture follows the original T5 design: pre-RMSNorm residual blocks,
relative position biases shared across layers, tied input/output embeddings
and a decoder fed with the target sequence shifted right by one position.
Model sizes are configurable through :class:`TransformerConfig`; the defaults
are tiny so the reproduction trains in CPU-seconds.

Generation has two drivers over one decode step.  :class:`PagedDecodeBatch`
keeps each sequence's self-attention K/V in a shared
:class:`~repro.nn.decode_cache.PagedKVArena` and advances every live row by
one token on plain arrays.  Greedy :meth:`T5Model.generate` admits every row
at step 0 and steps until all finish; beam search forks a hypothesis by
copying its page table.  The serving tier's continuous batching drives the
same step (:mod:`repro.serving.continuous`).  The naive loops that re-decode
the whole prefix every step are kept behind ``use_cache=False`` as the
reference the decode-equivalence suites check against.

Inference precision is a :meth:`T5Model.generate` knob: ``dtype="float32"``
runs the whole decode (encoder pass included) in float32 — the paged path on
float32 arrays, the reference loops under :func:`repro.nn.tensor.autocast` —
and :meth:`T5Model.quantize_int8` converts
every projection weight and the shared embedding to symmetric int8 storage.
Training always stays float64 — see ``docs/numerics.md``.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelConfigError
from repro.nn import functional as F
from repro.nn.attention import MultiHeadAttention, RelativePositionBias
from repro.nn.decode_cache import PagedKVArena, PagedSequence
from repro.nn.layers import Dropout, Embedding, FeedForward, Module, RMSNorm, _observe, cast_cached
from repro.nn.tensor import Tensor, autocast, compute_dtype, no_grad, resolve_dtype
from repro.utils.rng import derive_seed, seeded_rng


@dataclass
class TransformerConfig:
    """Hyper-parameters of the encoder--decoder transformer."""

    vocab_size: int
    d_model: int = 64
    num_heads: int = 4
    d_ff: int = 128
    num_encoder_layers: int = 2
    num_decoder_layers: int = 2
    dropout: float = 0.0
    activation: str = "relu"
    relative_attention_num_buckets: int = 16
    relative_attention_max_distance: int = 64
    max_decode_length: int = 96
    pad_id: int = 0
    eos_id: int = 1
    bos_id: int = 3
    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`ModelConfigError` on inconsistent hyper-parameters."""
        if self.vocab_size <= 0:
            raise ModelConfigError("vocab_size must be positive")
        if self.d_model % self.num_heads != 0:
            raise ModelConfigError("d_model must be divisible by num_heads")
        if self.num_encoder_layers < 1 or self.num_decoder_layers < 1:
            raise ModelConfigError("at least one encoder and one decoder layer are required")
        if not 0.0 <= self.dropout < 1.0:
            raise ModelConfigError("dropout must be in [0, 1)")


class EncoderLayer(Module):
    """Self-attention + feed-forward block with pre-norm residuals."""

    def __init__(self, config: TransformerConfig, seed: int):
        super().__init__()
        rng = seeded_rng(seed)
        self.self_attention = MultiHeadAttention(config.d_model, config.num_heads, config.dropout, seed=rng)
        self.norm_attention = RMSNorm(config.d_model)
        self.feed_forward = FeedForward(config.d_model, config.d_ff, config.activation, config.dropout, seed=rng)
        self.norm_feed_forward = RMSNorm(config.d_model)
        self.dropout = Dropout(config.dropout, seed=rng)

    def forward(
        self, hidden: Tensor | np.ndarray, mask: np.ndarray | None, position_bias: Tensor | np.ndarray | None
    ) -> Tensor | np.ndarray:
        """Self-attention then feed-forward, each behind a pre-norm residual."""
        normed = self.norm_attention.forward(hidden)
        attended = self.self_attention.forward(normed, normed, normed, mask=mask, position_bias=position_bias)
        hidden = hidden + self.dropout.forward(attended)
        normed = self.norm_feed_forward.forward(hidden)
        return hidden + self.dropout.forward(self.feed_forward.forward(normed))


class DecoderLayer(Module):
    """Causal self-attention + cross-attention + feed-forward block."""

    def __init__(self, config: TransformerConfig, seed: int):
        super().__init__()
        rng = seeded_rng(seed)
        self.self_attention = MultiHeadAttention(config.d_model, config.num_heads, config.dropout, seed=rng)
        self.norm_self = RMSNorm(config.d_model)
        self.cross_attention = MultiHeadAttention(config.d_model, config.num_heads, config.dropout, seed=rng)
        self.norm_cross = RMSNorm(config.d_model)
        self.feed_forward = FeedForward(config.d_model, config.d_ff, config.activation, config.dropout, seed=rng)
        self.norm_feed_forward = RMSNorm(config.d_model)
        self.dropout = Dropout(config.dropout, seed=rng)

    def forward(
        self,
        hidden: Tensor,
        encoder_hidden: Tensor,
        self_mask: np.ndarray | None,
        cross_mask: np.ndarray | None,
        position_bias: Tensor | None,
    ) -> Tensor:
        """Causal self-attention, cross-attention and feed-forward, pre-norm residuals throughout."""
        normed = self.norm_self(hidden)
        attended = self.self_attention(normed, normed, normed, mask=self_mask, position_bias=position_bias)
        hidden = hidden + self.dropout(attended)
        normed = self.norm_cross(hidden)
        cross = self.cross_attention(normed, encoder_hidden, encoder_hidden, mask=cross_mask)
        hidden = hidden + self.dropout(cross)
        normed = self.norm_feed_forward(hidden)
        hidden = hidden + self.dropout(self.feed_forward(normed))
        return hidden


class TransformerEncoder(Module):
    """Stack of encoder layers with a shared relative position bias."""

    def __init__(self, config: TransformerConfig, embedding: Embedding):
        super().__init__()
        self.config = config
        self.embedding = embedding
        self.layers = [EncoderLayer(config, derive_seed(config.seed, "encoder", i)) for i in range(config.num_encoder_layers)]
        self.position_bias = RelativePositionBias(
            config.num_heads,
            config.relative_attention_num_buckets,
            config.relative_attention_max_distance,
            bidirectional=True,
            seed=derive_seed(config.seed, "encoder_bias"),
        )
        self.final_norm = RMSNorm(config.d_model)
        self.dropout = Dropout(config.dropout, seed=derive_seed(config.seed, "encoder_dropout"))

    def forward(self, input_ids: np.ndarray, attention_mask: np.ndarray | None = None, dtype=None) -> Tensor | np.ndarray:
        """Embed and encode ``input_ids``; padding is masked out of attention.

        ``dtype=None`` returns a :class:`Tensor`; a dtype, a plain array of it built
        without one (the bias is :meth:`~repro.nn.attention.RelativePositionBias.square`).
        """
        input_ids = np.asarray(input_ids, dtype=np.int64)
        if attention_mask is None:
            attention_mask = input_ids != self.config.pad_id
        hidden = self.dropout.forward(self.embedding.forward(input_ids, dtype))
        length = input_ids.shape[1]
        bias = self.position_bias(length, length) if dtype is None else self.position_bias.square(length, hidden.dtype)
        keep = np.asarray(attention_mask, dtype=bool)[:, None, None, :]  # (B, 1, 1, T)
        for layer in self.layers:
            hidden = layer.forward(hidden, keep, bias)
        return self.final_norm.forward(hidden)


class TransformerDecoder(Module):
    """Stack of decoder layers with causal masking and cross attention."""

    def __init__(self, config: TransformerConfig, embedding: Embedding):
        super().__init__()
        self.config = config
        self.embedding = embedding
        self.layers = [DecoderLayer(config, derive_seed(config.seed, "decoder", i)) for i in range(config.num_decoder_layers)]
        self.position_bias = RelativePositionBias(
            config.num_heads,
            config.relative_attention_num_buckets,
            config.relative_attention_max_distance,
            bidirectional=False,
            seed=derive_seed(config.seed, "decoder_bias"),
        )
        self.final_norm = RMSNorm(config.d_model)
        self.dropout = Dropout(config.dropout, seed=derive_seed(config.seed, "decoder_dropout"))

    def forward(
        self,
        decoder_input_ids: np.ndarray,
        encoder_hidden: Tensor,
        encoder_attention_mask: np.ndarray | None = None,
        decoder_attention_mask: np.ndarray | None = None,
    ) -> Tensor:
        """Decode the full target prefix ``decoder_input_ids`` under a causal mask."""
        decoder_input_ids = np.asarray(decoder_input_ids, dtype=np.int64)
        length = decoder_input_ids.shape[1]
        hidden = self.dropout(self.embedding(decoder_input_ids))
        bias = self.position_bias(length, length)

        if decoder_attention_mask is not None:
            causal = F.causal_mask(length, length)[None, None]  # (1, 1, T, T)
            self_mask = causal & np.asarray(decoder_attention_mask, dtype=bool)[:, None, None, :]
        elif length == 1:
            # A lone token attends only itself, so masking would be a no-op.
            self_mask = None
        else:
            self_mask = F.causal_mask(length, length)[None, None]  # broadcasts over the batch

        if encoder_attention_mask is not None:
            cross_mask = np.asarray(encoder_attention_mask, dtype=bool)[:, None, None, :]  # (B, 1, 1, S)
        else:
            cross_mask = None

        for layer in self.layers:
            hidden = layer(hidden, encoder_hidden, self_mask, cross_mask, bias)
        return self.final_norm(hidden)


class T5Model(Module):
    """The full encoder--decoder LM with tied embeddings and an LM head."""

    def __init__(self, config: TransformerConfig):
        super().__init__()
        config.validate()
        self.config = config
        self.shared_embedding = Embedding(config.vocab_size, config.d_model, seed=derive_seed(config.seed, "embedding"))
        self.encoder = TransformerEncoder(config, self.shared_embedding)
        self.decoder = TransformerDecoder(config, self.shared_embedding)

    # -- training ------------------------------------------------------------
    def shift_right(self, labels: np.ndarray) -> np.ndarray:
        """Build decoder inputs by prepending BOS and dropping the final token."""
        labels = np.asarray(labels, dtype=np.int64)
        shifted = np.full_like(labels, self.config.pad_id)
        shifted[:, 0] = self.config.bos_id
        shifted[:, 1:] = labels[:, :-1]
        # Padding in the labels must stay padding in the inputs.
        shifted = np.where(shifted == self.config.pad_id, self.config.pad_id, shifted)
        return shifted

    def forward(
        self,
        input_ids: np.ndarray,
        labels: np.ndarray | None = None,
        decoder_input_ids: np.ndarray | None = None,
        attention_mask: np.ndarray | None = None,
    ) -> dict:
        """Run the model; returns a dict with ``logits`` and optionally ``loss``."""
        input_ids = np.asarray(input_ids, dtype=np.int64)
        if attention_mask is None:
            attention_mask = input_ids != self.config.pad_id
        if decoder_input_ids is None:
            if labels is None:
                raise ModelConfigError("either labels or decoder_input_ids must be provided")
            decoder_input_ids = self.shift_right(labels)
        decoder_mask = decoder_input_ids != self.config.pad_id
        decoder_mask[:, 0] = True  # BOS is always attended

        encoder_hidden = self.encoder(input_ids, attention_mask)
        decoder_hidden = self.decoder(decoder_input_ids, encoder_hidden, attention_mask, decoder_mask)
        logits = self.lm_logits(decoder_hidden)
        output = {"logits": logits, "encoder_hidden": encoder_hidden}
        if labels is not None:
            output["loss"] = F.sequence_cross_entropy(logits, labels, pad_id=self.config.pad_id)
        return output

    def lm_logits(self, decoder_hidden: Tensor | np.ndarray) -> Tensor | np.ndarray:
        """Project decoder states onto the vocabulary with the tied embedding.

        A :class:`Tensor` runs the module path in the active compute dtype; a
        plain array (the paged decode step's) runs the same numpy calls in
        its own dtype and returns an array.
        """
        scaled = decoder_hidden * self.config.d_model**-0.5
        # Calibration attaches an observer to the shared embedding to record
        # the tied head's *input* activations (repro.nn.calibration) — the
        # embedding's quantization error hurts decoding through this
        # projection, so its equalization is driven by these channels.
        _observe(self.shared_embedding, scaled)
        weight = self.shared_embedding.weight
        array = isinstance(decoder_hidden, np.ndarray)
        dtype = decoder_hidden.dtype if array else compute_dtype()
        if dtype == np.float64:
            projection = weight.data.T if array else weight.transpose()
        else:
            # Reduced-precision decode hits this projection once per step, so
            # the transposed cast of the (V, D) master is memoized on the embedding.
            projection = cast_cached(self.shared_embedding, "lm_projection", weight.data, dtype, transform=np.transpose)
            projection = projection if array else Tensor(projection)
        return scaled @ projection

    # -- quantization ------------------------------------------------------------
    @property
    def quantized(self) -> bool:
        """Whether the model's projection/embedding weights are stored as int8."""
        return self.any_quantized

    # -- generation -------------------------------------------------------------
    def generate(
        self,
        input_ids: np.ndarray,
        max_length: int | None = None,
        num_beams: int = 1,
        length_penalty: float = 1.0,
        use_cache: bool = True,
        dtype: str = "float64",
    ) -> np.ndarray:
        """Generate output token ids (greedy for ``num_beams == 1``, else beam search).

        Output contract (identical for greedy and beam): an int64 array of
        shape ``(batch, L)`` where ``L <= max_length`` is the length of the
        longest generated sequence in the batch (including its EOS token,
        excluding BOS); shorter rows are right-padded with ``pad_id``.
        ``max_length=None`` means the config's ``max_decode_length``; a budget
        below 1 raises :class:`ModelConfigError`.

        ``use_cache=True`` (the default) decodes on :class:`PagedDecodeBatch`:
        one encoder pass for the batch, then one array-level step per token
        for every live row or beam hypothesis.  ``use_cache=False`` runs the
        naive reference loops that re-decode the full prefix every step.  Both
        produce identical token ids (the decode-equivalence suites assert it).

        Decoding is inference whatever the module mode: a model in training
        mode decodes exactly as in eval mode (dropout off) on both paths, and
        is back in training mode when the call returns.

        ``dtype`` selects the inference compute dtype (``"float64"`` or
        ``"float32"``); the whole generation — encoder pass, decode steps, KV
        pages — computes in it (the reference loops under
        :func:`repro.nn.tensor.autocast`).
        Reduced precision can flip near-tied argmax decisions, so fp32 output
        agrees with fp64 to a high but not bitwise rate; the precision tests
        gate it (see ``docs/numerics.md``).
        """
        input_ids = np.atleast_2d(np.asarray(input_ids, dtype=np.int64))
        if input_ids.shape[1] == 0:
            raise ModelConfigError("generate() needs a non-empty source: got zero-length rows")
        max_length = decode_budget(max_length, self.config.max_decode_length)
        with _eval_mode(self):
            if use_cache:
                if num_beams <= 1:
                    return self._greedy_generate_paged(input_ids, max_length, dtype)
                rows = self._beam_generate_paged(input_ids, max_length, num_beams, length_penalty, dtype)
            else:
                with autocast(dtype):
                    if num_beams <= 1:
                        return self._greedy_generate_reference(input_ids, max_length)
                    rows = [
                        self._beam_generate_reference(row[None, :], max_length, num_beams, length_penalty)
                        for row in input_ids
                    ]
        return _pad_token_rows(rows, self.config.pad_id)

    def paged_decode_batch(
        self, max_slots: int = 8, page_size: int = 16, dtype: str = "float64"
    ) -> "PagedDecodeBatch":
        """Open a step-wise greedy decode batch sequences can join and leave live.

        The returned :class:`PagedDecodeBatch` is the continuous-batching
        entry point: ``admit`` a source row whenever a slot is free (even
        while other sequences are mid-decode), call ``step`` to advance every
        live sequence by one token, and collect finished outputs — each
        bitwise-equal to that row's solo ``generate(..., use_cache=False)``
        decode.  K/V memory comes from a shared
        :class:`~repro.nn.decode_cache.PagedKVArena` sized ``page_size``.
        """
        return PagedDecodeBatch(self, max_slots=max_slots, page_size=page_size, dtype=dtype)

    def _expand_beams(self, beams: list, logits_of, num_beams: int, length_penalty: float) -> tuple[list, list]:
        """One beam-search step of one row, shared by both beam paths.

        Each live hypothesis ``(tokens, score, done)`` of ``beams`` grows by
        its top ``num_beams`` tokens under ``logits_of(b)``, its next-token
        logits; finished ones carry over.  Returns the best ``num_beams``
        candidates (stable order) and, per candidate, the index of the
        hypothesis it grew from (``None`` for a carried-over one).
        """
        eos, candidates, parents = self.config.eos_id, [], []
        for b, (tokens, score, done) in enumerate(beams):
            if done:
                candidates.append((tokens, score, True))
                parents.append(None)
                continue
            logits = logits_of(b)
            log_probs = logits - logits.max()
            log_probs = log_probs - np.log(np.exp(log_probs).sum())
            for token in np.argsort(log_probs)[::-1][:num_beams].tolist():
                candidates.append((tokens + [token], score + float(log_probs[token]), token == eos))
                parents.append(b)
        keys = [score / (max(len(tokens) - 1, 1) ** length_penalty) for tokens, score, _ in candidates]
        order = sorted(range(len(candidates)), key=keys.__getitem__, reverse=True)[:num_beams]
        return [candidates[i] for i in order], [parents[i] for i in order]

    # -- paged drivers -----------------------------------------------------------
    def _greedy_generate_paged(self, input_ids: np.ndarray, max_length: int, dtype: str) -> np.ndarray:
        """Greedy decode on the paged step: every row joins at step 0 and the
        batch steps until all rows finish; a finished row leaves at once."""
        paged = PagedDecodeBatch(self, max_slots=max(1, input_ids.shape[0]), dtype=dtype)
        try:
            handles = [paged._join(*cross, max_length).handle for cross in paged._encode(input_ids)]
            finished: dict[int, list[int]] = {}
            while paged.active_count:
                finished.update(paged.step())
        finally:
            paged.close()
        return _pad_token_rows([finished[handle] for handle in handles], self.config.pad_id)

    def _beam_generate_paged(
        self, input_ids: np.ndarray, max_length: int, num_beams: int, length_penalty: float, dtype: str
    ) -> list[list[int]]:
        """Batched beam search on the paged step.

        One pass per step expands every live hypothesis of every batch row,
        then each row selects as the reference does.  A surviving hypothesis
        forks its parent's page table, so siblings share their prefix pages
        and each copies only the tail page it writes into.  Hypothesis ``b``
        of row ``r`` keeps one slot while it lives, so the row's stacked
        cross K/V is rebuilt only when a beam is born or finishes.
        """
        batch = input_ids.shape[0]
        paged = PagedDecodeBatch(self, max_slots=max(1, batch * num_beams), dtype=dtype)
        try:
            crosses = paged._encode(input_ids)
            beams = [[([self.config.bos_id], 0.0, False)] for _ in range(batch)]
            # live[(r, b)] is the slot decoding hypothesis b of row r.
            live = {(r, 0): paged._join(*crosses[r], max_length) for r in range(batch)}
            for _ in range(max_length):
                if not live:
                    break
                active, logits = paged._forward()
                position = {slot.handle: index for index, slot in enumerate(active)}
                children: dict[tuple[int, int], tuple[_PagedSlot, int]] = {}
                for r in sorted({r for r, _ in live}):
                    beams[r], parents = self._expand_beams(
                        beams[r], lambda b: logits[position[live[(r, b)].handle]], num_beams, length_penalty
                    )
                    for b, ((tokens, _, done), parent) in enumerate(zip(beams[r], parents)):
                        if not done:
                            children[(r, b)] = (live[(r, parent)], tokens[-1])
                # Fork every child before any parent lets go of its pages.
                forks = {key: parent.sequence.fork() for key, (parent, _) in children.items()}
                for key, slot in live.items():
                    if key not in children:
                        paged._vacate(slot)
                seated = {}
                for key, (_, token) in children.items():
                    slot = live.get(key) or paged._join(*crosses[key[0]], max_length)
                    slot.sequence.release()  # the parent's hold, or a new slot's empty sequence
                    slot.sequence, slot.last_token = forks[key], token
                    seated[key] = slot
                live = seated
        finally:
            paged.close()
        return [beams[r][0][0][1:][:max_length] for r in range(batch)]

    # -- naive reference implementations ------------------------------------------
    def _greedy_generate_reference(self, input_ids: np.ndarray, max_length: int) -> np.ndarray:
        """The O(L^2) greedy loop: re-decodes the full prefix every step."""
        batch = input_ids.shape[0]
        attention_mask = input_ids != self.config.pad_id
        with no_grad():
            encoder_hidden = self.encoder(input_ids, attention_mask)
            sequences = np.full((batch, 1), self.config.bos_id, dtype=np.int64)
            finished = np.zeros(batch, dtype=bool)
            for _ in range(max_length):
                decoder_hidden = self.decoder(sequences, encoder_hidden, attention_mask)
                logits = self.lm_logits(decoder_hidden).numpy()[:, -1, :]
                next_tokens = logits.argmax(axis=-1)
                next_tokens = np.where(finished, self.config.pad_id, next_tokens)
                sequences = np.concatenate([sequences, next_tokens[:, None]], axis=1)
                finished |= next_tokens == self.config.eos_id
                if finished.all():
                    break
        return sequences[:, 1:]

    def _beam_generate_reference(
        self, input_ids: np.ndarray, max_length: int, num_beams: int, length_penalty: float
    ) -> list[int]:
        """One-row, one-beam-at-a-time beam search; the equivalence oracle."""
        attention_mask = input_ids != self.config.pad_id
        with no_grad():
            encoder_hidden = self.encoder(input_ids, attention_mask)
            beams: list[tuple[list[int], float, bool]] = [([self.config.bos_id], 0.0, False)]

            def logits_of(b: int) -> np.ndarray:
                sequence = np.asarray(beams[b][0], dtype=np.int64)[None, :]
                return self.lm_logits(self.decoder(sequence, encoder_hidden, attention_mask)).numpy()[0, -1, :]

            for _ in range(max_length):
                beams, _ = self._expand_beams(beams, logits_of, num_beams, length_penalty)
                if all(done for _, _, done in beams):
                    break
        return beams[0][0][1:][:max_length]


@dataclass(eq=False, slots=True)
class _PagedSlot:
    """One occupied slot of a :class:`PagedDecodeBatch`: a live sequence's state."""

    handle: int
    sequence: PagedSequence
    cross_k: list[np.ndarray]
    cross_v: list[np.ndarray]
    cross_mask: np.ndarray
    max_length: int
    last_token: int
    tokens: list[int] = field(default_factory=list)


class PagedDecodeBatch:
    """A live greedy-decode batch that sequences join and leave step by step.

    The one incremental decode step: :meth:`T5Model.generate` drives it for
    greedy and beam decoding, and :mod:`repro.serving.continuous` schedules
    it for continuous batching.  Up to ``max_slots`` sequences decode
    together, each backed by its own
    :class:`~repro.nn.decode_cache.PagedSequence` over a shared
    :class:`~repro.nn.decode_cache.PagedKVArena`.  :meth:`admit` runs the
    sequence's encoder pass (batch of one — bitwise what a solo decode would
    compute) and projects its static cross-attention K/V; :meth:`step`
    decodes one token for every live sequence in one batched pass; sequences
    finish (EOS or their own length budget) and free their slot and pages
    immediately, without waiting for batch-mates.

    **Equivalence contract:** every sequence's output token ids are bitwise
    identical to its solo ``generate(..., use_cache=False)`` decode,
    regardless of what else shares the batch or when it was admitted.  The
    batched sub-computations (embedding, norms, projections, FFN, LM head)
    are per-row independent — a ``(rows, 1, d)`` matmul is a stack of
    ``(1, d)`` matmuls — and attention runs over each row's exact history:
    rows of equal history length share one stacked matmul, and nothing is
    ever padded to a common length (that would change summation grouping
    and break bitwise equality; see
    :meth:`~repro.nn.attention.MultiHeadAttention.attend_rows`).

    **Inference is array-level.**  :meth:`admit` runs the encoder and
    :meth:`step` the decoder layers, embedding lookup and tied LM head on
    plain arrays: each module's one ``forward`` body, handed an array,
    returns an array and builds no :class:`~repro.nn.tensor.Tensor`, so
    the floats are the ``Tensor`` path's by construction.  The per-row
    projections stay ``(rows, 1, d)`` stacks, never one 2-D GEMM: BLAS may
    round a GEMM row differently from the lone row's product, and again
    differently as the row count changes.  Weights are read from the modules
    on every step (via :func:`~repro.nn.layers.cast_cached` below float64),
    so a batch that outlives ``load_state_dict``, ``quantize_int8()`` or a
    train step decodes with the new weights, and activation observers
    (:mod:`repro.nn.calibration`) see each projection's input as usual.
    :meth:`close` releases every live sequence's pages.

    The pages are the one K/V store; a self-attention bucket also keeps its
    history resident while its membership holds (see :meth:`_self_history`),
    so an idle or closed batch holds no buffer.

    Inference-only: the model must be in eval mode, and every pass computes
    in the ``dtype`` fixed at construction.
    """

    def __init__(self, model: "T5Model", max_slots: int = 8, page_size: int = 16, dtype: str = "float64"):
        if max_slots < 1:
            raise ModelConfigError("PagedDecodeBatch needs at least one slot")
        if model.training:
            raise ModelConfigError("PagedDecodeBatch is inference-only; call model.eval() first")
        config = model.config
        self.model = model
        self.max_slots = max_slots
        self.dtype = resolve_dtype(dtype)
        self.arena = PagedKVArena(
            num_layers=len(model.decoder.layers),
            num_heads=config.num_heads,
            head_dim=config.d_model // config.num_heads,
            page_size=page_size,
            initial_pages=max_slots,
        )
        self._slots: list[_PagedSlot | None] = [None] * max_slots
        self._cross_stacks: dict[tuple[int, ...], tuple] = {}  # see _stacked_cross
        self._resident: dict[tuple[PagedSequence, ...], list] = {}  # see _self_history
        self._plan: tuple | None = None  # see _step_plan
        self._next_handle = 0
        #: Every token the most recent :meth:`step` emitted, keyed by
        #: sequence handle (finished sequences included).  The hook token
        #: streaming taps (:mod:`repro.serving.continuous`) read after each
        #: step; reset at the top of the next one.
        self.last_step_tokens: dict[int, int] = {}

    @property
    def active_count(self) -> int:
        """Number of sequences currently decoding."""
        return sum(slot is not None for slot in self._slots)

    @property
    def free_slots(self) -> int:
        """Slots available for :meth:`admit` right now."""
        return self.max_slots - self.active_count

    def admit(self, input_ids: np.ndarray, max_length: int | None = None) -> int:
        """Join ``input_ids`` (one unbatched source row) to the live batch.

        Runs the encoder over the single row and caches each layer's
        projected cross-attention K/V, allocating a free slot; returns the
        sequence's handle (the key :meth:`step` reports completion under).
        ``max_length=None`` means the config's ``max_decode_length``; a budget
        below 1 raises :class:`ModelConfigError`, and so does a full batch —
        the serving scheduler checks :attr:`free_slots` and queues instead.
        """
        if self.model.training:
            raise ModelConfigError("PagedDecodeBatch is inference-only; call model.eval() first")
        max_length = decode_budget(max_length, self.model.config.max_decode_length)
        if self.free_slots == 0:
            raise ModelConfigError(f"no free slot: all {self.max_slots} are decoding")
        input_ids = np.asarray(input_ids, dtype=np.int64)
        if input_ids.ndim != 1 or input_ids.size == 0:
            raise ModelConfigError("admit() takes one unbatched, non-empty source row at a time")
        (cross,) = self._encode(input_ids[None, :])
        return self._join(*cross, max_length).handle

    def evict(self, handle: int) -> None:
        """Drop a live sequence (e.g. its caller gave up), freeing slot and pages."""
        for slot in self._slots:
            if slot is not None and slot.handle == handle:
                self._leave([slot])
                return
        raise ModelConfigError(f"no live sequence with handle {handle}")

    def close(self) -> None:
        """Release every live sequence's pages and empty every slot."""
        for slot in self._slots:
            if slot is not None:
                self._vacate(slot)
        self._cross_stacks, self._resident = {}, {}

    def step(self) -> dict[int, list[int]]:
        """Decode one token for every live sequence; return the newly finished.

        The returned dict maps each finished sequence's handle to its
        complete output token ids (EOS included when emitted, BOS excluded —
        the per-row form of :meth:`T5Model.generate`'s contract).  Finished
        sequences leave the batch before the method returns, so their slots
        and pages are immediately reusable.
        """
        active, logits = self._forward()
        if not active:
            return {}
        eos_id = self.model.config.eos_id
        finished: dict[int, list[int]] = {}
        self.last_step_tokens = {}
        for row, slot in enumerate(active):
            token = int(logits[row].argmax())
            self.last_step_tokens[slot.handle] = token
            slot.tokens.append(token)
            slot.last_token = token
            if token == eos_id or len(slot.tokens) >= slot.max_length:
                finished[slot.handle] = slot.tokens
        if finished:
            self._leave([slot for slot in active if slot.handle in finished])
        return finished

    # -- the slot machinery both generate drivers share -------------------------------
    def _encode(self, input_ids: np.ndarray) -> list[tuple[list[np.ndarray], list[np.ndarray], np.ndarray]]:
        """One encoder pass over ``(rows, source)`` ids: per row, its cross K/V per layer and keep mask.

        Cross-attention K/V is projected once for the whole batch; a row's
        entries are ``(1, ...)`` views into those arrays.
        """
        attention_mask = input_ids != self.model.config.pad_id
        with no_grad():
            encoder_hidden = self.model.encoder.forward(input_ids, attention_mask, self.dtype)
            projected = [layer.cross_attention.project_static_kv(encoder_hidden) for layer in self.model.decoder.layers]
        return [
            (
                [k[row : row + 1] for k, _ in projected],
                [v[row : row + 1] for _, v in projected],
                attention_mask[row : row + 1, None, None, :],  # (1, 1, 1, source_len) keep mask
            )
            for row in range(input_ids.shape[0])
        ]

    def _join(
        self, cross_k: list[np.ndarray], cross_v: list[np.ndarray], cross_mask: np.ndarray, max_length: int
    ) -> _PagedSlot:
        """Seat an encoded row in a free slot over a fresh empty sequence."""
        slot_index = next((i for i, slot in enumerate(self._slots) if slot is None), None)
        if slot_index is None:
            raise ModelConfigError(f"no free slot: all {self.max_slots} are decoding")
        slot = _PagedSlot(
            self._next_handle, self.arena.sequence(), cross_k, cross_v, cross_mask, max_length, self.model.config.bos_id
        )
        self._next_handle += 1
        self._slots[slot_index] = slot
        return slot

    def _vacate(self, slot: _PagedSlot) -> None:
        slot.sequence.release()
        self._slots[self._slots.index(slot)] = None
        self._plan = None

    def _leave(self, slots: list[_PagedSlot]) -> None:
        """Vacate finished or evicted ``slots`` and drop or shrink every memo that held them.

        A cross stack holding a leaving handle is dropped.  A resident
        self-attention cohort that only lost members keeps its history by
        row selection, so the survivors' next step writes in place instead
        of re-gathering from the pages.
        """
        gone = {slot.sequence for slot in slots}
        handles = {slot.handle for slot in slots}
        for slot in slots:
            self._vacate(slot)
        self._cross_stacks = {key: stack for key, stack in self._cross_stacks.items() if handles.isdisjoint(key)}
        resident = {}
        for members, history in self._resident.items():
            keep = [row for row, sequence in enumerate(members) if sequence not in gone]
            if len(keep) == len(members):
                resident[members] = history
            elif keep:
                resident[tuple(members[row] for row in keep)] = [(k[keep], v[keep]) for k, v in history]
        self._resident = resident

    def _forward(self) -> tuple[list[_PagedSlot], np.ndarray | None]:
        """Run one decoder pass for every live slot: the slots and their next-token logits.

        Feeds each slot's ``last_token``, appends its K/V to the slot's
        sequence and returns ``(active, logits)`` with ``logits[i]`` the
        vocabulary row of ``active[i]`` (``None`` when no slot is live).
        """
        if self.model.training:
            raise ModelConfigError("PagedDecodeBatch is inference-only; call model.eval() first")
        active = [slot for slot in self._slots if slot is not None]
        if not active:
            return active, None
        decoder = self.model.decoder
        sequences, self_order, self_buckets, cross_order, cross = self._step_plan(active)
        cross_masks = [mask for _, _, mask in cross]
        step_ids = np.asarray([[slot.last_token] for slot in active], dtype=np.int64)
        hidden = decoder.embedding.forward(step_ids, self.dtype)
        biases = [decoder.position_bias.decode_row(bucket[0].length + 1, hidden.dtype) for bucket in self_buckets]
        for index, layer in enumerate(decoder.layers):
            attention = layer.self_attention
            normed = layer.norm_self.forward(hidden)
            q = attention._split_heads(attention.q_proj.forward(normed))
            k_new = attention._split_heads(attention.k_proj.forward(normed))
            v_new = attention._split_heads(attention.v_proj.forward(normed))
            self.arena.append_rows(index, sequences, k_new, v_new)
            keys, values = self._self_history(index, self_order, self_buckets, k_new, v_new)
            hidden = hidden + _attend_rows(attention, self_order, q, keys, values, None, biases)
            attention = layer.cross_attention
            normed = layer.norm_cross.forward(hidden)
            q = attention._split_heads(attention.q_proj.forward(normed))
            keys, values = [k[index] for k, _, _ in cross], [v[index] for _, v, _ in cross]
            hidden = hidden + _attend_rows(attention, cross_order, q, keys, values, cross_masks, None)
            hidden = hidden + layer.feed_forward.forward(layer.norm_feed_forward.forward(hidden))
        hidden = decoder.final_norm.forward(hidden)
        return active, self.model.lm_logits(hidden)[:, -1, :]

    def _step_plan(self, active: list[_PagedSlot]) -> tuple:
        """The step's sequences, self buckets and order, cross order and stacks.

        Memoized while the live sequences stay the same: every history grows
        by one position a step, so the buckets hold until a row joins,
        leaves or (beam search) is re-seated on a fork.  A new plan drops the
        resident history of every membership it no longer holds.
        """
        sequences = tuple(slot.sequence for slot in active)
        if self._plan is None or self._plan[0] != sequences:
            self_order, self_rows = _bucket_rows([sequence.length for sequence in sequences])
            cross_order, cross_rows = _bucket_rows([slot.cross_mask.shape[-1] for slot in active])
            self_buckets = [tuple(sequences[row] for row in bucket) for bucket in self_rows]
            self._resident = {members: self._resident.get(members, []) for members in self_buckets}
            self._plan = (sequences, self_order, self_buckets, cross_order, self._stacked_cross(active, cross_rows))
        return self._plan

    def _self_history(self, layer: int, order, buckets, k_new: np.ndarray, v_new: np.ndarray) -> tuple[list, list]:
        """Each self-attention bucket's ``layer`` K/V, this step's position included.

        A bucket's history stays resident while its membership (the
        sequences in it) holds: this step's ``k_new``/``v_new`` rows are
        written into its ``(rows, heads, capacity, head_dim)`` buffers, whose
        capacity grows a whole page at a time, and attention reads
        ``[:, :, :length]`` views laid out per ``(row, head)`` as a gathered
        copy is, so every matmul is the same.  A membership seen for the
        first time (a join, a beam fork) gathers from the pages once and
        keeps the copy as its buffer; one that only lost rows was compacted
        by :meth:`_leave`.
        """
        if order is not None:
            k_new, v_new = k_new[order], v_new[order]
        keys, values, start = [], [], 0
        for members in buckets:
            history = self._resident[members]
            if len(history) == layer:  # first seen: the gathered copy becomes the buffer
                history.append(self.arena.gather(layer, members))
                k, v = history[layer]
            else:
                k, v = history[layer]
                position = members[0].length - 1
                if position == k.shape[2]:
                    page = self.arena.page_size
                    k, v = history[layer] = _grown(k, position, page), _grown(v, position, page)
                rows = slice(start, start + len(members))
                k[:, :, position], v[:, :, position] = k_new[rows, :, 0], v_new[rows, :, 0]
                k, v = k[:, :, : position + 1], v[:, :, : position + 1]
            keys.append(k)
            values.append(v)
            start += len(members)
        return keys, values

    def _stacked_cross(self, active: list[_PagedSlot], buckets: list[list[int]]) -> list[tuple]:
        """Each source-length bucket's ``(keys per layer, values per layer, mask)``.

        The cross K/V is static, so a bucket is stacked once per membership
        (the handles in it) and reused by every later step and layer until a
        sequence joins or leaves it.  Requests batched into one serving call
        are padded to one source length, so multi-row cross buckets are the
        served common case.  A lone row's stored projections pass through
        uncopied.
        """
        stacks = {}
        for bucket in buckets:
            slots = [active[row] for row in bucket]
            members = tuple(slot.handle for slot in slots)
            stacks[members] = self._cross_stacks.get(members) or (
                [_stack(layer) for layer in zip(*(slot.cross_k for slot in slots))],
                [_stack(layer) for layer in zip(*(slot.cross_v for slot in slots))],
                _stack([slot.cross_mask for slot in slots]),
            )
        self._cross_stacks = stacks  # a membership no longer live drops its stack here
        return list(stacks.values())


def _bucket_rows(lengths: list[int]) -> tuple[list[int] | None, list[list[int]]]:
    """Group row indices by equal K/V length (first-seen order).

    Returns the bucket-major row order — ``None`` when it is already the
    identity, the common case — and the buckets themselves.
    """
    buckets: dict[int, list[int]] = {}
    for row, length in enumerate(lengths):
        buckets.setdefault(length, []).append(row)
    order = [row for bucket in buckets.values() for row in bucket]
    return (None if order == list(range(len(order))) else order), list(buckets.values())


def _grown(buffer: np.ndarray, used: int, page_size: int) -> np.ndarray:
    """``buffer``'s first ``used`` positions in a new buffer whose capacity is the next whole page."""
    rows, heads, _, head_dim = buffer.shape
    grown = np.empty((rows, heads, (used // page_size + 1) * page_size, head_dim), dtype=buffer.dtype)
    grown[:, :, :used] = buffer[:, :, :used]
    return grown


def _stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Per-row ``(1, ...)`` arrays as one ``(rows, ...)`` bucket; a lone row is passed through uncopied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=0)


def _attend_rows(attention: MultiHeadAttention, order: list[int] | None, q: np.ndarray, keys, values, masks, biases):
    """:meth:`MultiHeadAttention.attend_rows` with queries permuted into bucket order and back."""
    if order is None:
        return attention.attend_rows(q, keys, values, masks, biases)
    attended = attention.attend_rows(q[order], keys, values, masks, biases)
    restored = np.empty_like(attended)
    restored[order] = attended
    return restored


def decode_budget(max_length: int | None, default: int) -> int:
    """``max_length`` as a decode budget: ``None`` means ``default``; below 1 raises."""
    if max_length is None:
        return default
    if max_length < 1:
        raise ModelConfigError(f"max_length must be at least 1, got {max_length}")
    return max_length


@contextmanager
def _eval_mode(model: Module):
    """Run the block with ``model`` in eval mode, restoring training mode after."""
    if not model.training:
        yield
        return
    model.eval()
    try:
        yield
    finally:
        model.train()


def _pad_token_rows(rows: list[list[int]], pad_id: int) -> np.ndarray:
    """Stack variable-length token rows into a ``(batch, L)`` array, where ``L``
    is the longest row (at least 1 so empty batches keep a well-formed shape)."""
    width = max((len(row) for row in rows), default=1) or 1
    padded = np.full((len(rows), width), pad_id, dtype=np.int64)
    for index, row in enumerate(rows):
        padded[index, : len(row)] = row
    return padded
