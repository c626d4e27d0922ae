"""Resident self-attention K/V in the paged decode step.

``PagedDecodeBatch`` keeps each self-attention bucket's history resident
between steps while the bucket's membership (the sequences in it) holds, and
writes only the new position into it; the arena's pages stay the one store.
These contracts keep the cache honest:

* **Resident equals gather** — at every step and layer, the K/V that
  ``attend_rows`` receives for each self-attention bucket is
  ``np.array_equal``, dtype included, to ``arena.gather`` of the same
  sequences: staggered admissions, shrinking cohorts, capacity growth across
  page boundaries and beam forks alike.
* **Membership rules** — a lock-step cohort gathers once per layer, a
  cohort that only lost a row (EOS, budget, ``evict``) is compacted rather
  than re-gathered, and capacity is the history rounded up to whole pages.
* **Lifetimes** — nothing held by the step's memos outlives the sequences in
  it: an evicted row leaves no cross stack, resident buffer or plan behind,
  and an idle or closed batch holds no buffer.
* **Equal lengths** — ``PagedKVArena.gather`` rejects a bucket whose
  sequences disagree on length instead of truncating or failing inside numpy.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelConfigError
from repro.nn.attention import MultiHeadAttention
from repro.nn.decode_cache import PagedKVArena
from repro.nn.transformer import PagedDecodeBatch, T5Model, TransformerConfig

PAD = 0
_MODEL_CACHE: dict[tuple, T5Model] = {}


def build_model(num_layers=2, seed=0, eos_id=1) -> T5Model:
    """A tiny eval-mode model, memoized so hypothesis examples share weights."""
    key = (num_layers, seed, eos_id)
    if key not in _MODEL_CACHE:
        config = TransformerConfig(
            vocab_size=24,
            d_model=8,
            num_heads=2,
            d_ff=16,
            num_encoder_layers=num_layers,
            num_decoder_layers=num_layers,
            eos_id=eos_id,
            seed=seed,
        )
        _MODEL_CACHE[key] = T5Model(config).eval()
    return _MODEL_CACHE[key]


@contextmanager
def history_checks():
    """Compare every self-attention bucket ``attend_rows`` receives with ``arena.gather``.

    Yields a dict holding the number of buckets checked and every batch whose
    ``_forward`` ran.  Self-attention calls carry position biases and come
    once per decoder layer in order, so the n-th one of a pass is layer n.
    """
    state = {"checked": 0, "batches": [], "batch": None, "layer": 0}
    original_forward, original_attend = PagedDecodeBatch._forward, MultiHeadAttention.attend_rows
    gather = PagedKVArena.gather  # bound now, so a gather counter entered later does not see these

    def forward(self):
        if self not in state["batches"]:
            state["batches"].append(self)
        state["batch"], state["layer"] = self, 0
        return original_forward(self)

    def attend(self, q, keys, values, masks=None, position_biases=None):
        if position_biases is not None:
            batch, layer = state["batch"], state["layer"]
            state["layer"] += 1
            buckets: dict[int, list] = {}
            for slot in batch._slots:
                if slot is not None:
                    buckets.setdefault(slot.sequence._lengths[layer], []).append(slot.sequence)
            assert len(keys) == len(values) == len(buckets)
            for k, v, sequences in zip(keys, values, buckets.values()):
                want_k, want_v = gather(batch.arena, layer, sequences)
                assert k.dtype == want_k.dtype and v.dtype == want_v.dtype
                assert np.array_equal(k, want_k) and np.array_equal(v, want_v)
                state["checked"] += 1
        return original_attend(self, q, keys, values, masks, position_biases)

    PagedDecodeBatch._forward, MultiHeadAttention.attend_rows = forward, attend
    try:
        yield state
    finally:
        PagedDecodeBatch._forward, MultiHeadAttention.attend_rows = original_forward, original_attend


@contextmanager
def counted_gathers():
    """Count the step's ``PagedKVArena.gather`` calls (one per new bucket membership and layer)."""
    calls: list[int] = []
    original = PagedKVArena.gather

    def spy(self, layer, sequences):
        calls.append(len(sequences))
        return original(self, layer, sequences)

    PagedKVArena.gather = spy
    try:
        yield calls
    finally:
        PagedKVArena.gather = original


def assert_holds_nothing(batch: PagedDecodeBatch) -> None:
    assert batch._resident == {} and batch._cross_stacks == {} and batch._plan is None
    assert batch.arena.pages_in_use == 0


@st.composite
def decode_plan(draw):
    """Rows (some with a PAD hole), budgets long enough to cross pages, staggered admissions."""
    count = draw(st.integers(min_value=1, max_value=5))
    rows, budgets = [], []
    for _ in range(count):
        width = draw(st.integers(min_value=2, max_value=4))
        row = draw(st.lists(st.integers(min_value=4, max_value=23), min_size=width, max_size=width))
        hole = draw(st.integers(min_value=-1, max_value=width - 1))
        if hole >= 0:
            row[hole] = PAD
        rows.append(np.asarray(row, dtype=np.int64))
        budgets.append(draw(st.integers(min_value=1, max_value=20)))
    admissions = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4))
    return rows, budgets, admissions


class TestResidentEqualsGather:
    @settings(max_examples=30, deadline=None)
    @given(
        plan=decode_plan(),
        max_slots=st.integers(min_value=1, max_value=4),
        page_size=st.sampled_from([1, 2, 3, 16]),
        dtype=st.sampled_from(["float64", "float32"]),
        num_layers=st.integers(min_value=1, max_value=2),
        eos_id=st.sampled_from([1, -1]),
        evict_turn=st.integers(min_value=-1, max_value=6),
    )
    def test_continuous_batch(self, plan, max_slots, page_size, dtype, num_layers, eos_id, evict_turn):
        rows, budgets, admissions = plan
        model = build_model(num_layers=num_layers, eos_id=eos_id)
        batch = model.paged_decode_batch(max_slots=max_slots, page_size=page_size, dtype=dtype)
        pending, finished, turn = list(range(len(rows))), 0, 0
        with history_checks() as state:
            while pending or batch.active_count:
                quota = admissions[turn % len(admissions)] or (1 if batch.active_count == 0 else 0)
                while pending and batch.free_slots and quota:
                    index = pending.pop(0)
                    batch.admit(rows[index], max_length=budgets[index])
                    quota -= 1
                if turn == evict_turn and batch.active_count > 1:
                    batch.evict(next(slot.handle for slot in batch._slots if slot is not None))
                    finished += 1
                finished += len(batch.step())
                turn += 1
        assert finished == len(rows)
        assert state["checked"] > 0
        assert_holds_nothing(batch)  # idle after the last row finished
        batch.close()
        assert_holds_nothing(batch)

    @settings(max_examples=20, deadline=None)
    @given(
        sources=st.lists(
            st.lists(st.integers(min_value=4, max_value=23), min_size=2, max_size=4), min_size=1, max_size=3
        ),
        num_beams=st.integers(min_value=2, max_value=3),
        max_length=st.integers(min_value=1, max_value=12),
        dtype=st.sampled_from(["float64", "float32"]),
        num_layers=st.integers(min_value=1, max_value=2),
    )
    def test_beam_forks(self, sources, num_beams, max_length, dtype, num_layers):
        model = build_model(num_layers=num_layers, seed=1)
        width = max(len(source) for source in sources)
        ids = np.asarray([source + [PAD] * (width - len(source)) for source in sources], dtype=np.int64)
        with history_checks() as state:
            model.generate(ids, max_length=max_length, num_beams=num_beams, dtype=dtype)
        assert state["checked"] > 0
        (batch,) = state["batches"]
        assert batch._resident == {} and batch.arena.pages_in_use == 0  # generate closed it

    def test_close_mid_decode_drops_every_buffer(self):
        batch = build_model(eos_id=-1).paged_decode_batch(max_slots=3, page_size=2)
        for row in ([5, 6, 7], [8, 9, 10], [11, 12]):
            batch.admit(np.array(row, dtype=np.int64), max_length=9)
        for _ in range(4):
            batch.step()
        assert batch._resident
        batch.close()
        assert_holds_nothing(batch)


class TestMembershipRules:
    @pytest.mark.parametrize("page_size", [1, 3, 16])
    def test_lock_step_cohort_gathers_once_and_grows_by_whole_pages(self, page_size):
        model = build_model(eos_id=-1)
        batch = model.paged_decode_batch(max_slots=4, page_size=page_size)
        for row in ([5, 6, 7], [8, 9, 10], [11, 12, 13], [14, 15, 16]):
            batch.admit(np.array(row, dtype=np.int64), max_length=20)
        with counted_gathers() as gathers:
            for length in range(1, 20):
                batch.step()
                ((members, history),) = batch._resident.items()
                assert len(members) == 4
                capacity = length if length == 1 else -(-length // page_size) * page_size
                assert all(k.shape[2] == v.shape[2] == capacity for k, v in history)
        assert gathers == [4, 4]  # the first step, one per layer; never again

    def test_eviction_mid_decode(self):
        """Evict the middle row of a three-row cohort: the survivors keep
        decoding from their compacted resident history (no re-gather), finish
        bitwise-equal to their solo oracle, and nothing holds the evicted row."""
        model = build_model(eos_id=-1, seed=2)
        rows = [np.array(row, dtype=np.int64) for row in ([5, 6, 7], [8, 9, 10], [11, 12, 13])]
        oracles = [model.generate(row[None], max_length=10, use_cache=False)[0] for row in rows]
        batch = model.paged_decode_batch(max_slots=3, page_size=4)
        handles = [batch.admit(row, max_length=10) for row in rows]
        for _ in range(5):  # past the first page boundary
            assert batch.step() == {}
        evicted = next(slot for slot in batch._slots if slot.handle == handles[1])
        batch.evict(handles[1])
        assert batch._plan is None
        assert all(handles[1] not in members for members in batch._cross_stacks)
        assert all(evicted.sequence not in members for members in batch._resident)
        ((members, _),) = batch._resident.items()
        assert len(members) == 2  # compacted, not dropped
        outputs: dict[int, list[int]] = {}
        with history_checks(), counted_gathers() as gathers:
            while batch.active_count:
                outputs.update(batch.step())
        assert gathers == []
        assert set(outputs) == {handles[0], handles[2]}
        for index in (0, 2):
            assert np.array_equal(np.asarray(outputs[handles[index]]), oracles[index])
        assert_holds_nothing(batch)

    def test_a_finished_row_keeps_other_buckets_stacks(self):
        """A row leaving drops only the memos that held it: an unrelated
        cross bucket keeps its stacked arrays."""
        model = build_model(eos_id=-1, seed=3)
        batch = model.paged_decode_batch(max_slots=3, page_size=2)
        short = batch.admit(np.array([5, 6], dtype=np.int64), max_length=2)
        batch.admit(np.array([7, 8, 9], dtype=np.int64), max_length=5)
        batch.admit(np.array([10, 11, 12], dtype=np.int64), max_length=5)
        batch.step()
        kept = {members: stack for members, stack in batch._cross_stacks.items() if short not in members}
        assert len(kept) == 1
        assert short in batch.step()
        assert list(batch._cross_stacks) == list(kept)
        assert all(batch._cross_stacks[m] is kept[m] for m in kept)


class TestGatherNeedsEqualLengths:
    @pytest.mark.parametrize("short_first", [True, False])
    def test_unequal_lengths_raise(self, short_first):
        arena = PagedKVArena(num_layers=1, num_heads=2, head_dim=4, page_size=2)
        rng = np.random.default_rng(0)
        short, long = arena.sequence(), arena.sequence()
        for sequence, length in ((short, 3), (long, 6)):
            for _ in range(length):
                sequence.append(0, rng.normal(size=(1, 2, 1, 4)), rng.normal(size=(1, 2, 1, 4)))
        with pytest.raises(ModelConfigError, match="equal-length"):
            arena.gather(0, [short, long] if short_first else [long, short])
        k, v = arena.gather(0, [long, long])
        assert k.shape == v.shape == (2, 2, 6, 4)
