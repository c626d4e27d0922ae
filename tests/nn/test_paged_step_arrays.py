"""The array-level paged decode path, float for float.

``PagedDecodeBatch.admit`` runs the encoder and ``PagedDecodeBatch.step``
the decoder layers on plain ndarrays, and ``generate`` drives both for every
cached decode.  These contracts keep that honest:

* **Encoder identity** — the encoder states and cross-attention K/V an
  admission computes are ``np.array_equal`` (dtype included) to the module
  path's (``model.encoder`` under ``autocast``, then each cross-attention's
  ``k_proj``/``v_proj``), and the memoized square position bias is
  ``RelativePositionBias.forward`` sliced.
* **Float identity** — at every step the hidden state handed to
  ``T5Model.lm_logits`` for each live row is ``np.array_equal`` (dtype
  included) to what the same row gets decoding alone in its own one-slot
  ``PagedDecodeBatch`` at that position, whatever shares the batch and
  whenever it joined, in float64 and float32, relu and gelu.
* **No weight snapshot** — a ``ContinuousDecodeLoop`` memoized per model
  object outlives ``load_state_dict``, a train step and ``quantize_int8()``
  on that object, and must decode with the weights of the moment.
* **Observers are fed** — an activation observer attached to a projection the
  step reads sees that projection's input exactly as ``Linear.forward``
  feeds it on the module path (encoder, full decoder pass, LM head).
* **No Tensor** — once warm, admissions and steps build no autograd object.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DataVisT5Config
from repro.core.model import DataVisT5
from repro.nn.attention import MultiHeadAttention, RelativePositionBias
from repro.nn.calibration import observe_activations
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, autocast, no_grad
from repro.nn.transformer import T5Model, TransformerConfig
from repro.serving import continuous_loop_for

PAD = 0
_MODEL_CACHE: dict[tuple, T5Model] = {}


def build_model(activation="relu", num_layers=1, seed=0, eos_id=1, int8=False, d_model=8) -> T5Model:
    """A tiny eval-mode model, memoized so hypothesis examples share weights."""
    key = (activation, num_layers, seed, eos_id, int8, d_model)
    if key not in _MODEL_CACHE:
        config = TransformerConfig(
            vocab_size=24,
            d_model=d_model,
            num_heads=2,
            d_ff=16,
            num_encoder_layers=num_layers,
            num_decoder_layers=num_layers,
            activation=activation,
            eos_id=eos_id,
            seed=seed,
        )
        _MODEL_CACHE[key] = T5Model(config).eval()
        if int8:
            _MODEL_CACHE[key].quantize_int8()
    return _MODEL_CACHE[key]


@contextmanager
def lm_head_inputs(model: T5Model):
    """Record (a copy of) every hidden state ``model.lm_logits`` is called with."""
    seen: list[np.ndarray] = []
    original = model.lm_logits

    def spy(decoder_hidden):
        seen.append(np.array(decoder_hidden))
        return original(decoder_hidden)

    model.lm_logits = spy
    try:
        yield seen
    finally:
        del model.lm_logits


@contextmanager
def attention_buckets():
    """Record the row count of every K bucket each ``attend_rows`` call receives."""
    calls: list[list[int]] = []
    original = MultiHeadAttention.attend_rows

    def spy(self, q, keys, values, masks=None, position_biases=None):
        calls.append([k.shape[0] for k in keys])
        return original(self, q, keys, values, masks, position_biases)

    MultiHeadAttention.attend_rows = spy
    try:
        yield calls
    finally:
        MultiHeadAttention.attend_rows = original


def solo_hiddens(model: T5Model, row: np.ndarray, budget: int, dtype: str) -> list[np.ndarray]:
    """Row ``row`` decoded alone in its own one-slot ``PagedDecodeBatch``:
    the ``(1, 1, d_model)`` hidden state handed to the LM head at each position."""
    batch = model.paged_decode_batch(max_slots=1, dtype=dtype)
    batch.admit(row, max_length=budget)
    with lm_head_inputs(model) as seen:
        while batch.active_count:
            batch.step()
    return seen


def assert_rows_match_their_solo_decode(model, rows, budgets, admissions, max_slots, page_size, dtype):
    """Drive a paged batch; compare every live row's LM-head input at every step.

    ``admissions`` is cycled for how many queued rows may join before each
    step, which staggers sequence lengths independently of the budgets.
    """
    references = [solo_hiddens(model, row, budget, dtype) for row, budget in zip(rows, budgets)]
    batch = model.paged_decode_batch(max_slots=max_slots, page_size=page_size, dtype=dtype)
    pending = list(range(len(rows)))
    owner: dict[int, int] = {}
    outputs: dict[int, list[int]] = {}
    turn = 0
    while len(outputs) < len(rows):
        quota = admissions[turn % len(admissions)] or (1 if batch.active_count == 0 else 0)
        turn += 1
        while pending and batch.free_slots and quota:
            index = pending.pop(0)
            owner[batch.admit(rows[index], max_length=budgets[index])] = index
            quota -= 1
        live = [(owner[slot.handle], len(slot.tokens)) for slot in batch._slots if slot is not None]
        with lm_head_inputs(model) as seen:
            finished = batch.step()
        (hidden,) = seen
        assert hidden.shape[0] == len(live)
        for position_in_batch, (index, position) in enumerate(live):
            reference = references[index][position]
            got = hidden[position_in_batch : position_in_batch + 1]
            assert got.dtype == reference.dtype == np.dtype(dtype)
            assert np.array_equal(got, reference), f"row {index} differs at position {position}"
        for handle, tokens in finished.items():
            outputs[owner[handle]] = tokens
    for index, tokens in outputs.items():
        assert len(tokens) == len(references[index])
    assert batch.arena.pages_in_use == 0


@st.composite
def decode_plan(draw):
    """Rows (some with a PAD hole), budgets and a staggered admission pattern."""
    count = draw(st.integers(min_value=2, max_value=6))
    rows, budgets = [], []
    for _ in range(count):
        width = draw(st.integers(min_value=2, max_value=5))
        row = draw(st.lists(st.integers(min_value=4, max_value=23), min_size=width, max_size=width))
        hole = draw(st.integers(min_value=-1, max_value=width - 1))
        if hole >= 0:
            row[hole] = PAD
        rows.append(np.asarray(row, dtype=np.int64))
        budgets.append(draw(st.integers(min_value=1, max_value=8)))
    admissions = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4))
    return rows, budgets, admissions


class TestFloatIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        plan=decode_plan(),
        max_slots=st.integers(min_value=1, max_value=4),
        page_size=st.integers(min_value=1, max_value=5),
        dtype=st.sampled_from(["float64", "float32"]),
        activation=st.sampled_from(["relu", "gelu"]),
        num_layers=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_lm_head_input_equals_the_solo_decode(
        self, plan, max_slots, page_size, dtype, activation, num_layers, seed
    ):
        rows, budgets, admissions = plan
        model = build_model(activation=activation, num_layers=num_layers, seed=seed)
        assert_rows_match_their_solo_decode(model, rows, budgets, admissions, max_slots, page_size, dtype)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_three_rows_share_one_bucket_out_of_slot_order(self, dtype):
        """Four rows join together; the second leaves after one token and its
        slot is refilled, so slots 0, 2, 3 share a history length around the
        newcomer in slot 1: one three-row bucket, gathered out of slot order."""
        model = build_model(activation="gelu", num_layers=2, seed=5, eos_id=-1)
        rows = [np.array(row, dtype=np.int64) for row in ([5, 6, 7], [8, 9, 10], [11, 12, 13], [14, 15, 16], [17, 18])]
        with attention_buckets() as calls:
            assert_rows_match_their_solo_decode(
                model, rows, budgets=[5, 1, 5, 5, 3], admissions=[4, 1], max_slots=4, page_size=2, dtype=dtype
            )
        assert any(max(sizes) >= 3 for sizes in calls)
        assert [3, 1] in calls  # self-attention: slots 0, 2, 3 stacked, then the newcomer
        assert [4] in calls  # cross-attention: the four equal-length sources stacked

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_no_two_rows_share_a_length(self, dtype):
        """One admission per step over distinct source lengths: every bucket is a single row."""
        model = build_model(activation="relu", num_layers=2, seed=6, eos_id=-1)
        rows = [np.arange(4, 4 + width, dtype=np.int64) for width in (2, 3, 4, 5)]
        with attention_buckets() as calls:
            assert_rows_match_their_solo_decode(
                model, rows, budgets=[8, 7, 6, 5], admissions=[1], max_slots=4, page_size=3, dtype=dtype
            )
        assert max(len(sizes) for sizes in calls) == 4  # four rows were live together
        assert all(size == 1 for sizes in calls for size in sizes)

    def test_cross_bucket_is_stacked_once_per_membership(self):
        """Equal-length sources (what one serving call pads to) share a cross
        bucket whose static K/V is stacked when its membership changes — a
        join, a finish — and handed over as the same arrays on every step and
        layer in between; nothing stacked outlives the sequences in it."""
        model = build_model(activation="relu", num_layers=2, seed=7, eos_id=-1)
        batch = model.paged_decode_batch(max_slots=3, page_size=2)
        seen: list[tuple[np.ndarray, ...]] = []
        original = MultiHeadAttention.attend_rows

        def spy(self, q, keys, values, masks=None, position_biases=None):
            if position_biases is None:
                seen.append(tuple(keys))
            return original(self, q, keys, values, masks, position_biases)

        MultiHeadAttention.attend_rows = spy
        try:
            batch.admit(np.array([5, 6, 7], dtype=np.int64), max_length=5)
            batch.admit(np.array([8, 9, 10], dtype=np.int64), max_length=2)
            batch.step()
            batch.step()  # the second row finishes here
            batch.admit(np.array([11, 12, PAD], dtype=np.int64), max_length=3)
            batch.step()
            batch.step()
        finally:
            MultiHeadAttention.attend_rows = original
        steps = [seen[index : index + 2] for index in range(0, len(seen), 2)]  # two layers a step
        assert [[keys[0].shape[0] for keys in step] for step in steps] == [[2, 2]] * 4
        for layer in range(2):
            assert steps[1][layer][0] is steps[0][layer][0]  # same membership: the same stack
            assert steps[2][layer][0] is not steps[1][layer][0]  # a row left, another joined
            assert steps[3][layer][0] is steps[2][layer][0]
        assert len(batch._cross_stacks) == 1
        batch.step()  # both remaining rows reach their budgets
        assert batch.active_count == 0 and batch._cross_stacks == {}


@contextmanager
def encoder_states(model: T5Model):
    """Record every encoder-state array the paged path's encoder pass returns."""
    seen: list[np.ndarray] = []
    original = model.encoder.forward

    def spy(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    model.encoder.forward = spy
    try:
        yield seen
    finally:
        del model.encoder.forward


def module_encode(model: T5Model, ids: np.ndarray, dtype: str):
    """The module path's encoder states and per-layer cross K/V for ``ids``."""
    with autocast(dtype), no_grad():
        states = model.encoder(ids, ids != PAD)
        projected = [
            (
                layer.cross_attention._split_heads(layer.cross_attention.k_proj(states)).numpy(),
                layer.cross_attention._split_heads(layer.cross_attention.v_proj(states)).numpy(),
            )
            for layer in model.decoder.layers
        ]
    return states.numpy(), projected


@st.composite
def padded_sources(draw):
    """A right-padded ``(rows, width)`` source batch, some rows with a PAD hole."""
    count = draw(st.integers(min_value=1, max_value=4))
    lengths = [draw(st.integers(min_value=1, max_value=9)) for _ in range(count)]
    ids = np.full((count, max(lengths)), PAD, dtype=np.int64)
    for row, length in enumerate(lengths):
        ids[row, :length] = draw(st.lists(st.integers(min_value=2, max_value=23), min_size=length, max_size=length))
        hole = draw(st.integers(min_value=-1, max_value=length - 1))
        if hole > 0:
            ids[row, hole] = PAD
    return ids


def assert_identical(got: np.ndarray, want: np.ndarray, dtype: str) -> None:
    assert got.dtype == want.dtype == np.dtype(dtype)
    assert np.array_equal(got, want)


class TestEncoderIdentity:
    @settings(max_examples=30, deadline=None)
    @given(
        ids=padded_sources(),
        dtype=st.sampled_from(["float64", "float32"]),
        activation=st.sampled_from(["relu", "gelu"]),
        num_layers=st.integers(min_value=1, max_value=2),
        int8=st.booleans(),
    )
    def test_encode_equals_the_module_path(self, ids, dtype, activation, num_layers, int8):
        """``_encode``'s encoder states and cross K/V, batch and per row, are the module path's.

        Head size 6, so the attention scale is not a power of two and rounds."""
        model = build_model(activation=activation, num_layers=num_layers, seed=4, int8=int8, d_model=12)
        states, projected = module_encode(model, ids, dtype)
        batch = model.paged_decode_batch(max_slots=1, dtype=dtype)
        with encoder_states(model) as seen:
            crosses = batch._encode(ids)
        (got,) = seen
        assert_identical(got, states, dtype)
        for row, (keys, values, mask) in enumerate(crosses):
            assert np.array_equal(mask, (ids[row] != PAD)[None, None, None, :])
            for layer, (k, v) in enumerate(projected):
                assert_identical(keys[layer], k[row : row + 1], dtype)
                assert_identical(values[layer], v[row : row + 1], dtype)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("buckets, max_distance", [(16, 64), (32, 128)])
    def test_square_bias_is_the_full_bias_sliced(self, dtype, buckets, max_distance):
        """Every length 1..130 reads a slice of one memoized block per power-of-two size."""
        bias = RelativePositionBias(num_heads=3, num_buckets=buckets, max_distance=max_distance, seed=1)
        for length in range(1, 131):
            with autocast(dtype):
                want = bias(length, length).numpy()
            assert_identical(bias.square(length, dtype), want, dtype)
        assert sorted(bias._cast_cache) == sorted(f"square:{2**power}" for power in range(9))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_admission_after_load_state_dict_uses_the_new_bias_table(self, dtype):
        model = build_model(activation="relu", num_layers=2, seed=8, eos_id=-1)
        saved = model.state_dict()
        row = np.array([5, 6, 7, 8, 9], dtype=np.int64)
        batch = model.paged_decode_batch(max_slots=2, dtype=dtype)
        try:
            with encoder_states(model) as seen:
                batch.admit(row, max_length=2)
                state = dict(saved)
                state["encoder.position_bias.embedding"] = saved["encoder.position_bias.embedding"][::-1] * 7.0
                model.load_state_dict(state)
                batch.admit(row, max_length=2)
            before, after = seen
            assert not np.array_equal(before, after)
            assert_identical(after, module_encode(model, row[None], dtype)[0], dtype)
        finally:
            batch.close()
            model.load_state_dict(saved)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_encoder_projection_observers_are_fed_as_on_the_module_path(self, dtype):
        """Every encoder projection's observer sees, admission by admission, what ``Linear.forward`` feeds it."""
        model = build_model(activation="gelu", num_layers=2, seed=2, eos_id=-1)
        ids = np.array([[5, 9, PAD, 13], [7, 8, 10, PAD]], dtype=np.int64)

        def record(run) -> dict[str, list[np.ndarray]]:
            fed: dict[str, list[np.ndarray]] = {}
            with observe_activations(model) as observers:
                for name, observer in observers.items():
                    observer.update = lambda values, sink=fed.setdefault(name, []): sink.append(np.array(values))
                run()
            return {name: inputs for name, inputs in fed.items() if name.startswith("encoder.")}

        batch = model.paged_decode_batch(max_slots=2, dtype=dtype)
        via_arrays = record(lambda: [batch.admit(row, max_length=1) for row in ids])
        batch.close()
        via_modules = record(lambda: [module_encode(model, row[None], dtype) for row in ids])
        assert via_arrays.keys() == via_modules.keys() and len(via_modules) == 2 * 6  # two layers: q/k/v/out, wi/wo
        for name, inputs in via_modules.items():
            assert len(via_arrays[name]) == len(inputs) == len(ids), name
            for got, want in zip(via_arrays[name], inputs):
                assert_identical(got, want, dtype)


class TestNoTensor:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_warm_admit_and_32_steps_build_no_tensor(self, dtype, monkeypatch):
        model = build_model(activation="gelu", num_layers=2, seed=3, eos_id=-1)
        batch = model.paged_decode_batch(max_slots=2, page_size=4, dtype=dtype)
        batch.admit(np.array([5, 6, 7, PAD], dtype=np.int64), max_length=40)  # warm-up: fills the memos
        built: list[type] = []
        original = Tensor.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self))
            original(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        batch.admit(np.array([8, 9, 10, 11, 12], dtype=np.int64), max_length=40)
        for _ in range(32):
            batch.step()
        monkeypatch.undo()
        assert batch.active_count == 2
        batch.close()
        assert built == []


CORPUS = [
    "visualize bar select artist.country , count ( artist.country ) from artist",
    "how many artists joined after 1998 ?",
    "show the attendance of every exhibition by date",
]


def tiny_backend(seed: int) -> DataVisT5:
    config = DataVisT5Config.from_preset(
        "tiny", max_input_length=32, max_target_length=16, max_decode_length=8, seed=seed
    )
    return DataVisT5.from_corpus(CORPUS, config=config, max_vocab_size=200)


class TestNoWeightSnapshot:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_memoized_loop_follows_every_weight_change(self, dtype):
        """The same memoized loop, decoded through again after each way the
        repo changes a model object's weights, answers with the new weights:
        token ids equal the ``use_cache=False`` oracle and every LM-head input
        equals a fresh solo decode's.  Any array cached on the batch (weights, a
        position-bias row) survives one of these changes and fails here."""
        backend = tiny_backend(seed=0)
        model = backend.model.eval()
        loop = continuous_loop_for(model, dtype=dtype, max_slots=2, page_size=4)
        rows = [np.asarray(backend.tokenizer.encode(text, max_length=32), dtype=np.int64) for text in CORPUS]

        def check():
            assert continuous_loop_for(model, dtype=dtype, max_slots=2, page_size=4) is loop
            references = [solo_hiddens(model, row, 8, dtype) for row in rows]
            oracles = [model.generate(row[None], max_length=8, use_cache=False, dtype=dtype)[0] for row in rows]
            for row, reference, oracle in zip(rows, references, oracles):
                with lm_head_inputs(model) as seen:
                    (output,) = loop.run([row])
                assert np.array_equal(output, oracle)
                assert len(seen) == len(reference)
                assert all(np.array_equal(got, want) for got, want in zip(seen, reference))
            return np.concatenate([hidden.ravel() for reference in references for hidden in reference])

        before = check()
        model.load_state_dict(tiny_backend(seed=1).model.state_dict())
        reloaded = check()
        assert not np.array_equal(before[: reloaded.size], reloaded[: before.size])  # the weights did move

        batch = backend.collate(CORPUS[:2], CORPUS[:2])
        backend.train_step(batch, Adam(model.parameters(), learning_rate=0.05))
        model.eval()
        trained = check()
        assert not np.array_equal(reloaded[: trained.size], trained[: reloaded.size])

        model.quantize_int8()
        quantized = check()
        assert not np.array_equal(trained[: quantized.size], quantized[: trained.size])


class TestObserverContract:
    def test_attached_observers_see_what_linear_forward_feeds(self):
        """Observers attached by ``observe_activations`` record the same
        inputs, in the same order, under one paged admit + step as under the
        module path: encoder pass, full decoder pass over BOS, LM head."""
        model = build_model(activation="gelu", num_layers=2, seed=2, eos_id=-1)
        row = np.array([5, 9, PAD, 13], dtype=np.int64)

        def record(run) -> dict[str, list[np.ndarray]]:
            fed: dict[str, list[np.ndarray]] = {}
            with observe_activations(model) as observers:
                for name, observer in observers.items():
                    observer.update = lambda values, sink=fed.setdefault(name, []): sink.append(np.array(values))
                run()
            return fed

        def paged():
            batch = model.paged_decode_batch(max_slots=1)
            batch.admit(row, max_length=4)
            batch.step()

        def modules():
            mask = (row != PAD)[None, :]
            with no_grad():
                encoder_hidden = model.encoder(row[None], mask)
                model.lm_logits(model.decoder(np.array([[model.config.bos_id]]), encoder_hidden, mask))

        via_modules = record(modules)
        via_arrays = record(paged)
        assert via_modules.keys() == via_arrays.keys()
        for name, inputs in via_modules.items():
            assert inputs, f"{name} was never fed on the module path"
            assert len(via_arrays[name]) == len(inputs), f"the paged step skipped the observer on {name}"
            for got, want in zip(via_arrays[name], inputs):
                assert got.dtype == want.dtype and np.array_equal(got, want), name
