"""Paged-KV arena and continuous-decode equivalence suite.

Two layers of guarantees.  Mechanically: pages allocate, free and recycle
correctly, gathered views reproduce exactly what was appended, released
pages reused by another sequence never alias an in-flight one, a fork shares
its parent's pages and copies only the tail page it writes into, every page
and sequence comes back when the last holder lets go (``generate`` included,
even when a decode raises), and the k/v dtype+shape invariants hold.
Semantically: a :class:`PagedDecodeBatch` with sequences joining and leaving
at arbitrary steps produces, for every sequence, token ids bitwise-identical
to that row's solo ``generate(use_cache=False)`` decode — the same oracle
``test_decode_equivalence.py`` pins ``generate`` to.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelConfigError
from repro.nn.decode_cache import PagedKVArena
from repro.nn.transformer import PagedDecodeBatch, T5Model, TransformerConfig

PAD, EOS = 0, 1
_MODEL_CACHE: dict[tuple, T5Model] = {}


def build_model(d_model=8, num_heads=2, num_layers=1, seed=0, eos_id=EOS, vocab_size=24) -> T5Model:
    """A tiny eval-mode model, memoized so hypothesis examples share weights."""
    key = (d_model, num_heads, num_layers, seed, eos_id, vocab_size)
    if key not in _MODEL_CACHE:
        config = TransformerConfig(
            vocab_size=vocab_size,
            d_model=d_model,
            num_heads=num_heads,
            d_ff=2 * d_model,
            num_encoder_layers=num_layers,
            num_decoder_layers=num_layers,
            eos_id=eos_id,
            seed=seed,
        )
        _MODEL_CACHE[key] = T5Model(config).eval()
    return _MODEL_CACHE[key]


def rand_kv(rng, heads=2, steps=1, dim=4, dtype=np.float64):
    """One step's worth of (1, heads, steps, dim) K/V."""
    return rng.normal(size=(1, heads, steps, dim)).astype(dtype)


class TestArenaMechanics:
    def test_pages_allocate_lazily_and_grow_by_doubling(self):
        arena = PagedKVArena(num_layers=1, num_heads=2, head_dim=4, page_size=2, initial_pages=2)
        assert arena.dtype is None and arena.num_pages == 0
        seq = arena.sequence()
        rng = np.random.default_rng(0)
        for _ in range(5):  # 5 positions -> 3 pages; pool must have grown past 2
            seq.append(0, *2 * (rand_kv(rng),))
        assert arena.num_pages == 4  # 2 initial, doubled once
        assert arena.pages_in_use == 3
        assert seq.length == 5

    def test_view_reproduces_appends_bitwise(self):
        arena = PagedKVArena(num_layers=2, num_heads=2, head_dim=4, page_size=3)
        seq = arena.sequence()
        rng = np.random.default_rng(1)
        history = {0: [], 1: []}
        for _ in range(7):
            for layer in (0, 1):
                k, v = rand_kv(rng), rand_kv(rng)
                seq.append(layer, k, v)
                history[layer].append((k, v))
        for layer in (0, 1):
            k_view, v_view = seq.view(layer)
            assert np.array_equal(k_view, np.concatenate([k for k, _ in history[layer]], axis=2))
            assert np.array_equal(v_view, np.concatenate([v for _, v in history[layer]], axis=2))

    def test_release_recycles_pages_without_aliasing_live_sequences(self):
        arena = PagedKVArena(num_layers=1, num_heads=2, head_dim=4, page_size=2, initial_pages=4)
        rng = np.random.default_rng(2)
        keeper, leaver = arena.sequence(), arena.sequence()
        kept = []
        for _ in range(4):
            k, v = rand_kv(rng), rand_kv(rng)
            keeper.append(0, k, v)
            kept.append((k, v))
            leaver.append(0, rand_kv(rng), rand_kv(rng))
        leaver.release()
        assert leaver.released
        reuser = arena.sequence()
        for _ in range(4):  # overwrite exactly the pages the leaver freed
            reuser.append(0, np.full((1, 2, 1, 4), 7.0), np.full((1, 2, 1, 4), 9.0))
        assert arena.stats()["page_reuses"] >= 2
        k_view, v_view = keeper.view(0)
        assert np.array_equal(k_view, np.concatenate([k for k, _ in kept], axis=2))
        assert np.array_equal(v_view, np.concatenate([v for _, v in kept], axis=2))

    def test_release_is_idempotent_and_fences_further_use(self):
        arena = PagedKVArena(num_layers=1, num_heads=2, head_dim=4)
        seq = arena.sequence()
        seq.append(0, *2 * (np.ones((1, 2, 1, 4)),))
        seq.release()
        seq.release()
        assert arena.pages_in_use == 0
        with pytest.raises(ModelConfigError):
            seq.append(0, *2 * (np.ones((1, 2, 1, 4)),))
        with pytest.raises(ModelConfigError):
            seq.view(0)

    def test_dtype_fixed_by_first_write(self):
        arena = PagedKVArena(num_layers=1, num_heads=2, head_dim=4)
        seq = arena.sequence()
        seq.append(0, *2 * (rand_kv(np.random.default_rng(3), dtype=np.float32),))
        assert arena.dtype == np.float32
        with pytest.raises(ModelConfigError):
            arena.sequence().append(0, *2 * (rand_kv(np.random.default_rng(4)),))

    def test_kv_pair_and_geometry_validation(self):
        arena = PagedKVArena(num_layers=1, num_heads=2, head_dim=4)
        seq = arena.sequence()
        ones = np.ones((1, 2, 1, 4))
        with pytest.raises(ModelConfigError):
            seq.append(0, ones, ones.astype(np.float32))  # dtype mismatch
        with pytest.raises(ModelConfigError):
            seq.append(0, ones, np.ones((1, 2, 2, 4)))  # shape mismatch
        with pytest.raises(ModelConfigError):
            seq.append(0, *2 * (np.ones((1, 3, 1, 4)),))  # wrong head count

    def test_constructor_validation(self):
        for kwargs in (
            {"num_layers": 0, "num_heads": 2, "head_dim": 4},
            {"num_layers": 1, "num_heads": 0, "head_dim": 4},
            {"num_layers": 1, "num_heads": 2, "head_dim": 4, "page_size": 0},
            {"num_layers": 1, "num_heads": 2, "head_dim": 4, "initial_pages": 0},
        ):
            with pytest.raises(ModelConfigError):
                PagedKVArena(**kwargs)


class TestKVPairInvariants:
    """``PagedSequence.append`` validates *both* k and v."""

    def test_append_rejects_mismatched_v_dtype(self):
        seq = PagedKVArena(num_layers=1, num_heads=1, head_dim=2).sequence()
        with pytest.raises(ModelConfigError):
            seq.append(0, np.zeros((1, 1, 1, 2)), np.zeros((1, 1, 1, 2), dtype=np.float32))

    def test_append_rejects_mismatched_v_shape(self):
        seq = PagedKVArena(num_layers=1, num_heads=1, head_dim=2).sequence()
        with pytest.raises(ModelConfigError):
            seq.append(0, np.zeros((1, 1, 1, 2)), np.zeros((1, 1, 2, 2)))

    def test_matched_pairs_still_work(self):
        seq = PagedKVArena(num_layers=1, num_heads=1, head_dim=2).sequence()
        seq.append(0, np.zeros((1, 1, 1, 2)), np.ones((1, 1, 1, 2)))
        assert seq.length == 1


def append_step(seq, rng, layers=1):
    """Append one random position to every layer; returns the per-layer (k, v)."""
    written = []
    for layer in range(layers):
        k, v = rand_kv(rng), rand_kv(rng)
        seq.append(layer, k, v)
        written.append((k, v))
    return written


class TestForkAndCopyOnWrite:
    def test_fork_never_aliases_its_parent(self):
        arena = PagedKVArena(num_layers=2, num_heads=2, head_dim=4, page_size=3, initial_pages=2)
        rng = np.random.default_rng(5)
        parent = arena.sequence()
        shared = [append_step(parent, rng, layers=2) for _ in range(4)]  # the tail page is part-filled
        child = parent.fork()
        assert child.pages == parent.pages and child.length == parent.length == 4
        parent_tail = [append_step(parent, rng, layers=2) for _ in range(5)]
        child_tail = [append_step(child, rng, layers=2) for _ in range(5)]
        for seq, tail in ((parent, parent_tail), (child, child_tail)):
            for layer in range(2):
                k_view, v_view = seq.view(layer)
                history = shared + tail
                assert np.array_equal(k_view, np.concatenate([step[layer][0] for step in history], axis=2))
                assert np.array_equal(v_view, np.concatenate([step[layer][1] for step in history], axis=2))

    def test_copy_on_write_copies_only_the_shared_tail_page(self):
        arena = PagedKVArena(num_layers=2, num_heads=2, head_dim=4, page_size=3, initial_pages=8)
        rng = np.random.default_rng(6)
        parent = arena.sequence()
        for _ in range(7):  # pages hold 3 + 3 + 1 positions
            append_step(parent, rng, layers=2)
        child = parent.fork()
        assert arena.pages_in_use == 3  # the fork holds the same three pages
        append_step(child, rng, layers=2)
        assert child.pages[:2] == parent.pages[:2]  # full pages stay shared
        assert child.pages[2] != parent.pages[2]  # the tail page was copied, once for both layers
        assert arena.pages_in_use == 4
        append_step(parent, rng, layers=2)  # the parent is the tail's only holder now: no copy
        assert arena.pages_in_use == 4
        sibling = parent.fork()
        append_step(parent, rng, layers=2)  # writing the shared tail copies it; the sibling keeps the original
        assert arena.pages_in_use == 5
        append_step(sibling, rng, layers=2)
        append_step(sibling, rng, layers=2)  # a full page boundary: a fresh page, nothing copied
        assert sibling.pages[:2] == parent.pages[:2] and len(sibling.pages) == 4
        assert arena.pages_in_use == 6

    def test_releasing_every_fork_returns_the_arena_to_zero(self):
        arena = PagedKVArena(num_layers=1, num_heads=2, head_dim=4, page_size=2, initial_pages=2)
        rng = np.random.default_rng(7)
        root = arena.sequence()
        for _ in range(3):
            append_step(root, rng)
        family = [root]
        for generation in range(3):
            for seq in list(family):
                family.append(seq.fork())
            for index, seq in enumerate(family):
                for _ in range(index % 3):
                    append_step(seq, rng)
        assert arena.sequences_open == len(family) == 8
        for seq in rng.permutation(len(family)):
            family[seq].release()
        assert arena.pages_in_use == 0 and arena.sequences_open == 0
        assert sorted(arena._free) == list(range(arena.num_pages))

    def test_released_sequence_cannot_fork(self):
        seq = PagedKVArena(num_layers=1, num_heads=2, head_dim=4).sequence()
        seq.release()
        with pytest.raises(ModelConfigError):
            seq.fork()


@pytest.fixture
def opened_batches(monkeypatch):
    """Every :class:`PagedDecodeBatch` constructed while the test runs."""
    opened: list[PagedDecodeBatch] = []
    original = PagedDecodeBatch.__init__

    def spy(self, *args, **kwargs):
        original(self, *args, **kwargs)
        opened.append(self)

    monkeypatch.setattr(PagedDecodeBatch, "__init__", spy)
    return opened


class TestGenerateReturnsEveryPage:
    @pytest.mark.parametrize("num_beams", [1, 3])
    def test_no_page_is_held_after_generate(self, opened_batches, num_beams):
        model = build_model(seed=2, eos_id=-1, num_layers=2)
        x = np.array([[5, 6, 7], [8, PAD, 9]], dtype=np.int64)
        model.generate(x, max_length=7, num_beams=num_beams)
        (batch,) = opened_batches
        assert batch.arena.stats()["pages_high_water"] > 0
        assert batch.arena.pages_in_use == 0 and batch.arena.sequences_open == 0
        assert batch.active_count == 0

    @pytest.mark.parametrize("num_beams", [1, 3])
    def test_no_page_is_held_when_a_bad_token_raises_mid_decode(self, opened_batches, monkeypatch, num_beams):
        """From the third step on, the LM head offers a token id past the
        vocabulary; feeding it back in raises inside the next decode step."""
        model = build_model(seed=3, eos_id=-1)
        original = model.lm_logits
        calls = []

        def poisoned(hidden):
            logits = original(hidden)
            calls.append(len(calls))
            if len(calls) > 2:
                bad = np.full(logits.shape[:-1] + (1,), 1e9, dtype=logits.dtype)
                logits = np.concatenate([logits, bad], axis=-1)
            return logits

        monkeypatch.setattr(model, "lm_logits", poisoned)
        with pytest.raises(ModelConfigError, match="embedding range"):
            model.generate(np.array([[5, 6, 7], [8, 9, 10]]), max_length=8, num_beams=num_beams)
        (batch,) = opened_batches
        assert len(calls) == 3
        assert batch.arena.pages_in_use == 0 and batch.arena.sequences_open == 0


@st.composite
def admission_plan(draw):
    """Rows with independent length budgets plus a staggered admission order."""
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
    return rows, budgets


class TestContinuousEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        plan=admission_plan(),
        max_slots=st.integers(min_value=1, max_value=3),
        page_size=st.integers(min_value=1, max_value=5),
        num_layers=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_every_sequence_matches_its_solo_oracle(self, plan, max_slots, page_size, num_layers, seed):
        rows, budgets = plan
        model = build_model(num_layers=num_layers, seed=seed)
        oracles = [
            model.generate(row[None], max_length=budget, use_cache=False)[0]
            for row, budget in zip(rows, budgets)
        ]
        batch = model.paged_decode_batch(max_slots=max_slots, page_size=page_size)
        pending = list(range(len(rows)))
        owner: dict[int, int] = {}
        outputs: dict[int, np.ndarray] = {}
        while len(outputs) < len(rows):
            while pending and batch.free_slots:
                index = pending.pop(0)
                owner[batch.admit(rows[index], max_length=budgets[index])] = index
            for handle, tokens in batch.step().items():
                outputs[owner[handle]] = np.asarray(tokens, dtype=np.int64)
        for index, oracle in enumerate(oracles):
            assert np.array_equal(outputs[index], oracle)
        assert batch.arena.pages_in_use == 0  # every finished sequence freed its pages

    def test_mid_flight_admission_does_not_disturb_batch_mates(self):
        """Admit a second sequence while the first is mid-decode: the first's
        output must equal what it produces decoding alone."""
        model = build_model(seed=7, eos_id=-1)  # no EOS: fixed-length decodes
        first = np.array([5, 6, 7], dtype=np.int64)
        second = np.array([9, 10], dtype=np.int64)
        solo_first = model.generate(first[None], max_length=6, use_cache=False)[0]
        solo_second = model.generate(second[None], max_length=4, use_cache=False)[0]

        batch = model.paged_decode_batch(max_slots=2, page_size=2)
        handle_first = batch.admit(first, max_length=6)
        outputs = {}
        for _ in range(3):
            outputs.update(batch.step())
        handle_second = batch.admit(second, max_length=4)  # joins at step 4
        while len(outputs) < 2:
            outputs.update(batch.step())
        assert np.array_equal(np.asarray(outputs[handle_first]), solo_first)
        assert np.array_equal(np.asarray(outputs[handle_second]), solo_second)

    def test_float32_matches_its_own_oracle(self):
        model = build_model(d_model=16, num_heads=2, seed=2)
        row = np.array([5, 9, 13], dtype=np.int64)
        oracle = model.generate(row[None], max_length=5, use_cache=False, dtype="float32")[0]
        batch = model.paged_decode_batch(max_slots=2, dtype="float32")
        handle = batch.admit(row, max_length=5)
        outputs = {}
        while handle not in outputs:
            outputs.update(batch.step())
        assert np.array_equal(np.asarray(outputs[handle]), oracle)

    def test_slot_exhaustion_and_eviction(self):
        model = build_model(seed=1, eos_id=-1)
        batch = model.paged_decode_batch(max_slots=1)
        handle = batch.admit(np.array([5, 6], dtype=np.int64), max_length=4)
        with pytest.raises(ModelConfigError):
            batch.admit(np.array([7, 8], dtype=np.int64), max_length=4)
        batch.evict(handle)
        assert batch.free_slots == 1 and batch.arena.pages_in_use == 0
        with pytest.raises(ModelConfigError):
            batch.evict(handle)

    @pytest.mark.parametrize("max_length", [0, -1])
    def test_admit_budget_below_one_raises(self, max_length):
        batch = build_model(seed=0).paged_decode_batch()
        with pytest.raises(ModelConfigError):
            batch.admit(np.array([5, 6], dtype=np.int64), max_length=max_length)
        assert batch.free_slots == batch.max_slots

    def test_admit_none_budget_is_the_config_default(self):
        model = build_model(seed=1, eos_id=-1)
        batch = model.paged_decode_batch()
        handle = batch.admit(np.array([5, 6], dtype=np.int64), max_length=None)
        outputs = {}
        while handle not in outputs:
            outputs.update(batch.step())
        assert len(outputs[handle]) == model.config.max_decode_length

    def test_training_mode_rejected(self):
        model = build_model(seed=0)
        model.train()
        try:
            with pytest.raises(ModelConfigError):
                model.paged_decode_batch()
        finally:
            model.eval()

    def test_empty_step_is_a_noop(self):
        model = build_model(seed=0)
        assert model.paged_decode_batch().step() == {}
