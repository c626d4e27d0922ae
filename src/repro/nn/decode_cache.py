"""Paged key/value memory for incremental (single-step) decoding.

Autoregressive generation re-runs the decoder once per emitted token.  Without
caching, every step re-projects and re-attends the entire prefix, so decoding
``L`` tokens costs ``O(L^2)`` decoder passes worth of work.  With a cache a
step projects only the newest token: self-attention K/V of every decoded
position is kept per layer, and cross-attention K/V over the encoder output
is projected once per sequence and reused verbatim (it never changes).

The self-attention history lives here.  :class:`PagedKVArena` is a shared
pool of fixed-size K/V pages per decoder layer with a free list, so a
finished sequence's pages are reusable at once and sequences join and leave
a live batch without copying survivors; :class:`PagedSequence` is one
sequence's page table over the arena.  Pages are refcounted:
:meth:`PagedSequence.fork` copies a page table (beam search forks a
hypothesis this way), and the first write into a shared page copies that
page first, so a fork never aliases its parent.  See ``docs/decoding.md``
for the layout.

The pages are the only store.  The decode step
(:class:`~repro.nn.transformer.PagedDecodeBatch`) gathers a bucket's history
out of them once, when the bucket's membership is new, and then keeps that
dense copy resident, writing each later position into both; beam search,
whose forks make every membership new, gathers every step.

Pages hold raw numpy arrays, not autograd tensors (decoding is
inference-only), in the dtype of the first K/V written: a decode under
``autocast("float32")`` caches float32, and a later write in another dtype
means the precision changed mid-decode, so it raises.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import ModelConfigError
from repro.obs.names import METRIC_ARENA_PAGE_REUSE_RATIO, METRIC_ARENA_PAGES_IN_USE

_PAGES_IN_USE = obs.METRICS.gauge(METRIC_ARENA_PAGES_IN_USE)
_PAGE_REUSE_RATIO = obs.METRICS.gauge(METRIC_ARENA_PAGE_REUSE_RATIO)


def _check_kv_pair(k: np.ndarray, v: np.ndarray) -> None:
    """Reject a k/v pair whose dtypes or shapes disagree.

    Keys and values are projected from the same hidden states, so any
    disagreement means the caller mixed tensors from different steps or
    precision scopes; silently casting would hide the bug.
    """
    if k.dtype != v.dtype:
        raise ModelConfigError(f"k/v dtype mismatch: keys are {k.dtype}, values are {v.dtype}")
    if k.shape != v.shape:
        raise ModelConfigError(f"k/v shape mismatch: keys are {k.shape}, values are {v.shape}")


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

    Each live page carries a reference count: the number of page tables that
    hold it.  A :meth:`PagedSequence.fork` shares its parent's pages, and a
    page returns to the free list when its last holder releases it.  The
    pools take the dtype of the first write; any other dtype after is rejected.
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
        self._refs: dict[int, int] = {}  # live page id -> page tables holding it
        self._num_pages = 0
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
        """Pages currently held by live sequences (a shared page counts once)."""
        return len(self._refs)

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
            "pages_in_use": len(self._refs),
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
        _PAGES_IN_USE.set(float(len(self._refs)))
        allocations = self._page_reuses + self._fresh_allocations
        if allocations:
            _PAGE_REUSE_RATIO.set(self._page_reuses / allocations)

    def gather(self, layer: int, sequences: "list[PagedSequence]") -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(rows, heads, length, head_dim)`` K/V copies of equal-length sequences.

        One fancy index over the pool serves the whole bucket — a copy, like
        :meth:`PagedSequence.view` (which is the one-row case), laid out per
        row as one contiguous history so attention runs the same inner kernel
        per ``(row, head)`` whatever shares the bucket.  The decode step
        calls it once per new bucket membership and keeps the copy as the
        bucket's resident history.  Sequences whose ``layer`` lengths differ
        raise :class:`ModelConfigError`.
        """
        length = sequences[0]._lengths[layer]
        if any(sequence._lengths[layer] != length for sequence in sequences):
            lengths = [sequence._lengths[layer] for sequence in sequences]
            raise ModelConfigError(f"gather needs equal-length sequences; layer {layer} holds lengths {lengths}")
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

    def append_rows(self, layer: int, sequences: "list[PagedSequence]", k: np.ndarray, v: np.ndarray) -> None:
        """Write one new position per sequence for ``layer``: row ``i`` of ``k``/``v`` goes to ``sequences[i]``.

        ``k``/``v`` are the ``(rows, heads, 1, head_dim)`` projections of one
        decode step.  Page bookkeeping (allocation, copy-on-write) runs per
        sequence; the write itself is one fancy-index assignment per pool.
        """
        _check_kv_pair(k, v)
        if k.shape != (len(sequences), self.num_heads, 1, self.head_dim):
            raise ModelConfigError(
                f"K/V geometry {k.shape} does not match {len(sequences)} rows of the arena's "
                f"(1, {self.num_heads}, 1, {self.head_dim})"
            )
        self._adopt(k.dtype)
        slots = [sequence._reserve(layer) for sequence in sequences]
        self._pool_k[layer].reshape(-1, self.num_heads, self.head_dim)[slots] = k[:, :, 0]
        self._pool_v[layer].reshape(-1, self.num_heads, self.head_dim)[slots] = v[:, :, 0]

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

    def _adopt(self, dtype: np.dtype) -> None:
        """Fix the pool dtype on the first write; reject any other dtype after."""
        if self._pool_k is None:
            self._materialize(dtype)
        elif self._pool_k[0].dtype != dtype:
            raise ModelConfigError(
                f"KV arena holds {self._pool_k[0].dtype} but received {dtype}; "
                "the compute dtype must stay fixed while sequences are in flight"
            )

    def _allocate_page(self) -> int:
        if not self._free:
            self._grow()
        page = self._free.pop()
        if page in self._ever_used:
            self._page_reuses += 1
        else:
            self._fresh_allocations += 1
            self._ever_used.add(page)
        self._refs[page] = 1
        self._high_water = max(self._high_water, len(self._refs))
        return page

    def _copy_page(self, page: int) -> int:
        """A private copy of shared ``page`` (every layer), taking one reference off the original."""
        copy = self._allocate_page()
        for pools in (self._pool_k, self._pool_v):
            for pool in pools:
                pool[copy] = pool[page]
        self._refs[page] -= 1
        return copy

    def _release_pages(self, pages: list[int]) -> None:
        for page in reversed(pages):
            self._refs[page] -= 1
            if not self._refs[page]:
                del self._refs[page]
                self._free.append(page)


class PagedSequence:
    """One sequence's self-attention K/V history, paged over a :class:`PagedKVArena`.

    The sequence owns a page table (a list of arena page ids, shared across
    layers — see :class:`PagedKVArena`) plus a per-layer length.  Each decoder
    step appends the newest token's projected K/V for every layer;
    a page is allocated lazily when the first write crosses into it.
    :meth:`fork` opens a second sequence over the same pages (the page table
    is copied, the pages are shared); a write that lands in a page another
    table still holds copies that page first, so only a partly filled tail
    page is ever copied, by whichever holder writes into it first.
    :meth:`view` gathers the live positions of one layer back into a dense
    ``(1, heads, length, head_dim)`` pair — a copy, so released pages being
    overwritten by another sequence can never alias an in-flight read.  :meth:`release` drops the sequence's hold on every page (pages no
    other table holds return to the free list); a released sequence rejects
    further use.
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

    def fork(self) -> "PagedSequence":
        """A new sequence with this one's history, sharing its pages until either writes."""
        if self._released:
            raise ModelConfigError("PagedSequence was released; its pages belong to the arena again")
        child = self.arena.sequence()
        child.pages = list(self.pages)
        child._lengths = list(self._lengths)
        for page in self.pages:
            self.arena._refs[page] += 1
        return child

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        """Write the newest position's ``(1, heads, 1, head_dim)`` projected K/V for ``layer``."""
        self.arena.append_rows(layer, [self], k, v)

    def _reserve(self, layer: int) -> int:
        """Make ``layer``'s next position writable and count it; returns its pool slot.

        A page another table still holds is copied first (copy-on-write) and
        a missing page is allocated; either may grow the pools, so callers
        read a pool only after this returns.
        """
        if self._released:
            raise ModelConfigError("PagedSequence was released; its pages belong to the arena again")
        position = self._lengths[layer]
        index, offset = divmod(position, self.arena.page_size)
        if index == len(self.pages):
            self.pages.append(self.arena._allocate_page())
        elif self.arena._refs[self.pages[index]] > 1:  # copy-on-write
            self.pages[index] = self.arena._copy_page(self.pages[index])
        self._lengths[layer] = position + 1
        return self.pages[index] * self.arena.page_size + offset

    def view(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Gather ``layer``'s live K/V as dense ``(1, heads, length, head_dim)`` copies.

        A read of the store for inspection and tests; the decode step reads
        a bucket's resident history instead (see :meth:`PagedKVArena.gather`).
        """
        if self._released:
            raise ModelConfigError("PagedSequence was released; its pages belong to the arena again")
        if self._lengths[layer] == 0:
            raise ModelConfigError("cannot view an empty paged sequence; append a step first")
        return self.arena.gather(layer, [self])

    def release(self) -> None:
        """Drop this sequence's hold on its pages (idempotent); the sequence is dead after."""
        if not self._released:
            self.arena._release_pages(self.pages)
            self.arena._sequences_released += 1
            self.pages = []
            self._released = True
