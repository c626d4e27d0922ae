"""Key/value caches for incremental (single-step) decoding.

Autoregressive generation re-runs the decoder once per emitted token.  Without
caching, every step re-projects and re-attends the entire prefix, so decoding
``L`` tokens costs ``O(L^2)`` decoder passes worth of work.  The caches here
make each step's decoder work independent of the prefix length:

* **self-attention** — the projected K/V of every already-decoded position is
  stored per layer; a step projects only the newest token and appends it
  (amortized O(1): appends land in a geometrically grown buffer, not a
  re-concatenated array);
* **cross-attention** — K/V over the encoder output never changes during
  decoding, so it is projected once on the first step and reused verbatim.

The caches store raw numpy arrays (shape ``(batch, heads, length,
head_dim)``) rather than autograd tensors: incremental decoding is an
inference-only fast path and always runs under :func:`repro.nn.tensor.no_grad`.
Buffers adopt the dtype of the first projected K/V they receive, so a decode
running under ``autocast("float32")`` caches float32 throughout; mixing
dtypes within one cache is rejected (each generation owns a fresh cache, so
a mix can only mean the precision policy changed mid-decode).
:meth:`DecodeCache.reorder` re-gathers the batch axis, which is what batched
beam search uses to carry each surviving beam's prefix forward.

For token-level continuous batching the monolithic per-batch buffers are the
wrong shape: sequences join and leave the batch at every step, so per-slot
memory must be recyclable in O(1) without copying survivors.
:class:`PagedKVArena` provides that — a shared pool of fixed-size K/V pages
per decoder layer, with a free list so a finished sequence's pages are
immediately reusable — and :class:`PagedSequence` is one sequence's page
table over the arena (see ``docs/decoding.md`` for the layout).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import ModelConfigError
from repro.obs.names import METRIC_ARENA_PAGE_REUSE_RATIO, METRIC_ARENA_PAGES_IN_USE

_PAGES_IN_USE = obs.METRICS.gauge(METRIC_ARENA_PAGES_IN_USE)
_PAGE_REUSE_RATIO = obs.METRICS.gauge(METRIC_ARENA_PAGE_REUSE_RATIO)

_INITIAL_CAPACITY = 16


def _check_kv_pair(k: np.ndarray, v: np.ndarray) -> None:
    """Reject a k/v pair whose dtypes or shapes disagree.

    Keys and values are projected from the same hidden states, so any
    disagreement means the caller mixed tensors from different steps or
    precision scopes — silently casting (the old behaviour for ``v``) would
    hide the bug until outputs diverge.
    """
    if k.dtype != v.dtype:
        raise ModelConfigError(f"k/v dtype mismatch: keys are {k.dtype}, values are {v.dtype}")
    if k.shape != v.shape:
        raise ModelConfigError(f"k/v shape mismatch: keys are {k.shape}, values are {v.shape}")


class KVState:
    """The cached key/value arrays of one attention module.

    ``static`` marks cross-attention state: it is written once (from the
    encoder output) and then reused, whereas non-static (self-attention)
    state grows by one step per :meth:`append`.  ``k``/``v`` expose the live
    ``(batch, heads, length, head_dim)`` slice; appends write into an
    over-allocated buffer that doubles when full, so growing the cache does
    not re-copy the whole history every step.
    """

    __slots__ = ("static", "_buffer_k", "_buffer_v", "_length")

    def __init__(self, static: bool = False):
        self.static = static
        self._buffer_k: np.ndarray | None = None
        self._buffer_v: np.ndarray | None = None
        self._length = 0

    @property
    def k(self) -> np.ndarray | None:
        """The live keys (``None`` when empty); a view, not a copy."""
        return None if self._buffer_k is None else self._buffer_k[:, :, : self._length]

    @property
    def v(self) -> np.ndarray | None:
        """The live values (``None`` when empty); a view, not a copy."""
        return None if self._buffer_v is None else self._buffer_v[:, :, : self._length]

    @property
    def length(self) -> int:
        """Number of cached key positions (0 when empty)."""
        return self._length

    def set(self, k: np.ndarray, v: np.ndarray) -> None:
        """Store projected K/V wholesale (the cross-attention write path)."""
        _check_kv_pair(k, v)
        self._buffer_k = k
        self._buffer_v = v
        self._length = int(k.shape[2])

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Grow the cache along the sequence axis (the self-attention write path)."""
        if self.static:
            raise ModelConfigError("append() is only valid on non-static (self-attention) KV state")
        _check_kv_pair(k, v)
        steps = int(k.shape[2])
        new_length = self._length + steps
        if self._buffer_k is not None and self._buffer_k.dtype != k.dtype:
            raise ModelConfigError(
                f"KV cache holds {self._buffer_k.dtype} but received {k.dtype}; "
                "the compute dtype must stay fixed for the lifetime of one decode"
            )
        if self._buffer_k is None or new_length > self._buffer_k.shape[2]:
            capacity = max(_INITIAL_CAPACITY, new_length)
            if self._buffer_k is not None:
                capacity = max(capacity, 2 * self._buffer_k.shape[2])
            shape = (k.shape[0], k.shape[1], capacity, k.shape[3])
            grown_k = np.empty(shape, dtype=k.dtype)
            grown_v = np.empty(shape, dtype=k.dtype)
            if self._length:
                grown_k[:, :, : self._length] = self._buffer_k[:, :, : self._length]
                grown_v[:, :, : self._length] = self._buffer_v[:, :, : self._length]
            self._buffer_k, self._buffer_v = grown_k, grown_v
        self._buffer_k[:, :, self._length : new_length] = k
        self._buffer_v[:, :, self._length : new_length] = v
        self._length = new_length

    def reorder(self, indices: np.ndarray) -> None:
        """Gather the batch axis by ``indices`` (beam-search reordering).

        Only the live positions are copied (fancy indexing on the sliced view
        yields a fresh contiguous array); unused buffer capacity is dropped
        and re-grown by the next :meth:`append` if needed.
        """
        if self._buffer_k is not None:
            self._buffer_k = self._buffer_k[:, :, : self._length][indices]
            self._buffer_v = self._buffer_v[:, :, : self._length][indices]


class LayerKVCache:
    """The per-decoder-layer pair of caches: growing self-K/V, static cross-K/V."""

    __slots__ = ("self_attention", "cross_attention")

    def __init__(self):
        self.self_attention = KVState(static=False)
        self.cross_attention = KVState(static=True)

    def reorder(self, indices: np.ndarray) -> None:
        """Gather both caches' batch axes by ``indices``."""
        self.self_attention.reorder(indices)
        self.cross_attention.reorder(indices)


class DecodeCache:
    """All decoder-layer K/V caches for one in-flight generation.

    Create one per ``generate`` call, pass it to every decoder step, and the
    decoder feeds each layer only the newest token(s); ``length`` tracks how
    many target positions are already cached so position biases and causal
    masks can be offset correctly.
    """

    def __init__(self, num_layers: int):
        if num_layers < 1:
            raise ModelConfigError("DecodeCache needs at least one decoder layer")
        self.layers = [LayerKVCache() for _ in range(num_layers)]

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def length(self) -> int:
        """Number of already-decoded (cached) target positions."""
        return self.layers[0].self_attention.length

    @property
    def batch_size(self) -> int | None:
        """Batch rows currently cached (``None`` before the first step)."""
        state = self.layers[0].self_attention
        return None if state.k is None else int(state.k.shape[0])

    def reorder(self, indices) -> None:
        """Gather every layer's batch axis by ``indices``.

        Beam search calls this between steps so that row ``i`` of the cache
        holds the prefix of the ``i``-th surviving beam; indices may repeat
        (one parent beam expanding into several children) or drop rows
        (finished beams leaving the batch).
        """
        indices = np.asarray(indices, dtype=np.int64)
        batch = self.batch_size
        if batch is not None and indices.shape[0] == batch and np.array_equal(indices, np.arange(batch)):
            return  # identity gather — common once beams stabilize
        for layer in self.layers:
            layer.reorder(indices)


class PagedKVArena:
    """A shared pool of fixed-size K/V pages backing paged decode caches.

    The arena owns one ``(pages, page_size, heads, head_dim)`` key pool and
    value pool per decoder layer.  A *page id* addresses the same slot in
    every layer's pools: decoder layers advance in lockstep within a step, so
    one logical allocation covers all layers and the page table of a
    :class:`PagedSequence` is a single list of ids.  Page memory is recycled
    through a free list — releasing a finished sequence and admitting a new
    one are both O(pages), no copying of surviving sequences — and the pools
    grow by doubling when the free list runs dry, so total memory tracks the
    high-water mark of *tokens in flight*, not ``max_length × batch``.

    Like :class:`KVState`, the arena adopts the dtype of the first K/V it
    receives and rejects mixes (a mix means the precision policy changed
    while sequences were in flight).
    """

    def __init__(self, num_layers: int, num_heads: int, head_dim: int, page_size: int = 16, initial_pages: int = 8):
        if num_layers < 1:
            raise ModelConfigError("PagedKVArena needs at least one decoder layer")
        if num_heads < 1 or head_dim < 1:
            raise ModelConfigError("PagedKVArena needs positive num_heads and head_dim")
        if page_size < 1:
            raise ModelConfigError("page_size must be positive")
        if initial_pages < 1:
            raise ModelConfigError("initial_pages must be positive")
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.page_size = page_size
        self._initial_pages = initial_pages
        self._pool_k: list[np.ndarray] | None = None
        self._pool_v: list[np.ndarray] | None = None
        self._free: list[int] = []
        self._num_pages = 0
        self._pages_in_use = 0
        self._high_water = 0
        self._fresh_allocations = 0
        self._page_reuses = 0
        self._ever_used: set[int] = set()
        self._sequences_opened = 0
        self._sequences_released = 0

    @property
    def dtype(self) -> np.dtype | None:
        """The pool dtype (``None`` until the first write fixes it)."""
        return None if self._pool_k is None else self._pool_k[0].dtype

    @property
    def num_pages(self) -> int:
        """Total pages the pools currently hold (allocated + free)."""
        return self._num_pages

    @property
    def pages_in_use(self) -> int:
        """Pages currently owned by live sequences."""
        return self._pages_in_use

    def sequence(self) -> "PagedSequence":
        """Open a new empty sequence over this arena."""
        self._sequences_opened += 1
        return PagedSequence(self)

    @property
    def sequences_open(self) -> int:
        """Sequences opened but not yet released — the live streams/decodes.

        The streaming telemetry reads this to report how many token streams
        are drawing on the arena right now.
        """
        return self._sequences_opened - self._sequences_released

    def stats(self) -> dict:
        """Allocation counters for monitoring and the benchmark."""
        return {
            "page_size": self.page_size,
            "num_pages": self._num_pages,
            "pages_in_use": self._pages_in_use,
            "pages_high_water": self._high_water,
            "fresh_allocations": self._fresh_allocations,
            "page_reuses": self._page_reuses,
            "sequences_opened": self._sequences_opened,
            "sequences_released": self._sequences_released,
        }

    def observe(self) -> None:
        """Publish the arena occupancy and free-list reuse gauges.

        Called once per continuous-batching step so the metrics snapshot
        reflects the live arena rather than the state at the last request
        boundary.  The reuse ratio is ``page_reuses / (page_reuses +
        fresh_allocations)`` — how often an allocation was served by the
        free list rather than first-touch pool memory.
        """
        _PAGES_IN_USE.set(float(self._pages_in_use))
        allocations = self._page_reuses + self._fresh_allocations
        if allocations:
            _PAGE_REUSE_RATIO.set(self._page_reuses / allocations)

    def gather(self, layer: int, sequences: "list[PagedSequence]") -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(rows, heads, length, head_dim)`` K/V copies of equal-length sequences.

        One fancy index over the pool serves the whole bucket — a copy, like
        :meth:`PagedSequence.view` (which is the one-row case), laid out per
        row exactly as the contiguous caches are so attention runs the same
        inner kernel per ``(row, head)``.
        """
        length = sequences[0]._lengths[layer]
        positions = np.arange(length)
        needed = -(-length // self.page_size)  # a mid-step sequence may own one page more
        tables = np.asarray([sequence.pages[:needed] for sequence in sequences], dtype=np.int64)
        flat = tables[:, positions // self.page_size] * self.page_size + positions % self.page_size
        # Indexing (row, head, position) together lands the copy in the
        # (rows, heads, length, head_dim) layout directly; a (rows, length, ...)
        # gather transposed afterwards holds four large arrays at once, which
        # the allocator serves 10x slower once a bucket passes ~128 KB.
        index = flat[:, None, :], np.arange(self.num_heads)[None, :, None]
        return (
            self._pool_k[layer].reshape(-1, self.num_heads, self.head_dim)[index],
            self._pool_v[layer].reshape(-1, self.num_heads, self.head_dim)[index],
        )

    # -- page bookkeeping (driven by PagedSequence) ------------------------------------
    def _materialize(self, dtype: np.dtype) -> None:
        shape = (self._initial_pages, self.page_size, self.num_heads, self.head_dim)
        self._pool_k = [np.zeros(shape, dtype=dtype) for _ in range(self.num_layers)]
        self._pool_v = [np.zeros(shape, dtype=dtype) for _ in range(self.num_layers)]
        self._num_pages = self._initial_pages
        self._free = list(range(self._initial_pages - 1, -1, -1))

    def _grow(self) -> None:
        grown = max(1, self._num_pages)
        shape = (grown, self.page_size, self.num_heads, self.head_dim)
        for pools in (self._pool_k, self._pool_v):
            for layer in range(self.num_layers):
                pools[layer] = np.concatenate([pools[layer], np.zeros(shape, dtype=pools[layer].dtype)])
        self._free.extend(range(self._num_pages + grown - 1, self._num_pages - 1, -1))
        self._num_pages += grown

    def _allocate_page(self, dtype: np.dtype) -> int:
        if self._pool_k is None:
            self._materialize(dtype)
        elif self._pool_k[0].dtype != dtype:
            raise ModelConfigError(
                f"KV arena holds {self._pool_k[0].dtype} but received {dtype}; "
                "the compute dtype must stay fixed while sequences are in flight"
            )
        if not self._free:
            self._grow()
        page = self._free.pop()
        if page in self._ever_used:
            self._page_reuses += 1
        else:
            self._fresh_allocations += 1
            self._ever_used.add(page)
        self._pages_in_use += 1
        self._high_water = max(self._high_water, self._pages_in_use)
        return page

    def _release_pages(self, pages: list[int]) -> None:
        self._free.extend(reversed(pages))
        self._pages_in_use -= len(pages)


class PagedSequence:
    """One sequence's self-attention K/V history, paged over a :class:`PagedKVArena`.

    The sequence owns a page table (a list of arena page ids, shared across
    layers — see :class:`PagedKVArena`) plus a per-layer length.  Each decoder
    step :meth:`append`\\ s the newest token's projected K/V for every layer;
    a page is allocated lazily when the first write crosses into it.
    :meth:`view` gathers the live positions of one layer back into a dense
    ``(1, heads, length, head_dim)`` pair for attention — a copy, so released
    pages being overwritten by another sequence can never alias an in-flight
    read.  :meth:`release` returns every page to the arena's free list;
    a released sequence rejects further use.
    """

    __slots__ = ("arena", "pages", "_lengths", "_released")

    def __init__(self, arena: PagedKVArena):
        self.arena = arena
        self.pages: list[int] = []
        self._lengths = [0] * arena.num_layers
        self._released = False

    @property
    def length(self) -> int:
        """Cached positions of the first layer (layers advance in lockstep)."""
        return self._lengths[0]

    @property
    def released(self) -> bool:
        """Whether the sequence's pages have been returned to the arena."""
        return self._released

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        """Write the newest step's projected K/V for ``layer``.

        ``k``/``v`` are ``(1, heads, steps, head_dim)``, exactly what one
        attention module projects for one sequence's new tokens.
        """
        if self._released:
            raise ModelConfigError("PagedSequence was released; its pages belong to the arena again")
        _check_kv_pair(k, v)
        if k.ndim != 4 or k.shape[0] != 1 or k.shape[1] != self.arena.num_heads or k.shape[3] != self.arena.head_dim:
            raise ModelConfigError(
                f"K/V geometry {k.shape} does not match the arena's "
                f"(1, {self.arena.num_heads}, steps, {self.arena.head_dim})"
            )
        k = k[0].transpose(1, 0, 2)  # (steps, heads, head_dim)
        v = v[0].transpose(1, 0, 2)
        position = self._lengths[layer]
        steps = k.shape[0]
        page_size = self.arena.page_size
        needed = -(-(position + steps) // page_size)  # ceil division
        while len(self.pages) < needed:
            self.pages.append(self.arena._allocate_page(k.dtype))
        pool_k = self.arena._pool_k[layer]
        pool_v = self.arena._pool_v[layer]
        for step in range(steps):
            page = self.pages[(position + step) // page_size]
            offset = (position + step) % page_size
            pool_k[page, offset] = k[step]
            pool_v[page, offset] = v[step]
        self._lengths[layer] = position + steps

    def view(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Gather ``layer``'s live K/V as dense ``(1, heads, length, head_dim)`` copies."""
        if self._released:
            raise ModelConfigError("PagedSequence was released; its pages belong to the arena again")
        if self._lengths[layer] == 0:
            raise ModelConfigError("cannot view an empty paged sequence; append a step first")
        return self.arena.gather(layer, [self])

    def release(self) -> None:
        """Return every page to the arena (idempotent); the sequence is dead after."""
        if not self._released:
            self.arena._release_pages(self.pages)
            self.arena._sequences_released += 1
            self.pages = []
            self._released = True
