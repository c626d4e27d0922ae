"""A reverse-mode automatic-differentiation engine over numpy arrays.

The engine is intentionally small: a :class:`Tensor` wraps an ``ndarray`` and
records, for every operation, a closure that propagates the output gradient to
the operation's inputs.  Calling :meth:`Tensor.backward` on a scalar loss
topologically sorts the recorded graph and runs the closures in reverse.

Only the operations needed by the T5 transformer and the GRU baseline are
implemented, but each handles full numpy broadcasting so layers can be written
naturally.

Precision policy
----------------
Training and gradient checking always run in ``float64`` — that is what makes
the hypothesis-based gradient checks in the test-suite tight, and it is not
configurable.  Inference may opt into ``float32`` through :func:`autocast`,
which installs a per-thread *compute dtype*: every tensor created inside the
context (operation results included) is kept in that dtype, so a forward pass
runs its matmuls in fp32 end-to-end.  Because reduced precision is
meaningless for the gradient checks, entering ``autocast("float32")`` also
disables autograd recording for the scope, exactly like :func:`no_grad`.
See ``docs/numerics.md`` for the full policy.
"""

from __future__ import annotations

import contextlib
import math
import threading
from collections.abc import Sequence

import numpy as np

# Graph recording is toggled per *thread*, not per process: the serving
# layer's worker shards run concurrent `no_grad()` inference on different
# threads, and a process-global flag would let one worker's save/restore
# re-enable recording in the middle of another worker's cached decode (which
# the KV-cache guard would reject).  Threads default to recording enabled.
_GRAD_STATE = threading.local()

# The compute dtype is likewise per-thread, so one serving worker decoding in
# float32 cannot downcast a concurrent worker's float64 request.  Threads
# default to float64 (the training dtype).
_PRECISION_STATE = threading.local()

#: Inference compute dtypes selectable through :func:`autocast`.
SUPPORTED_DTYPES = ("float64", "float32")


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (used for generation)."""
    previous = grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def grad_enabled() -> bool:
    """Whether operations on this thread record the autograd graph."""
    return getattr(_GRAD_STATE, "enabled", True)


def resolve_dtype(dtype) -> np.dtype:
    """Normalize a dtype spec (``"float32"``, ``np.float64``...) to a numpy dtype.

    Only the dtypes in :data:`SUPPORTED_DTYPES` are accepted — they are the
    compute dtypes the inference engine supports (int8 is a weight *storage*
    format, not a compute dtype; see :mod:`repro.nn.layers`).
    """
    resolved = np.dtype(dtype)
    if resolved.name not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported compute dtype {dtype!r}; supported: {', '.join(SUPPORTED_DTYPES)}"
        )
    return resolved


def compute_dtype() -> np.dtype:
    """The dtype tensors are created (and operations computed) in on this thread."""
    return getattr(_PRECISION_STATE, "dtype", None) or np.dtype(np.float64)


@contextlib.contextmanager
def autocast(dtype="float32"):
    """Run the scope's tensor operations in ``dtype`` (an inference fast path).

    ``autocast("float32")`` makes every tensor created inside the scope —
    including every operation result — float32, so forward passes run their
    matmuls in single precision end-to-end.  Reduced precision is
    inference-only: entering the context with any dtype other than float64
    also disables autograd recording for the scope (float64 master weights
    stay untouched; layers cast them on the fly, see
    :func:`repro.nn.layers.cast_cached`).  ``autocast("float64")`` is a
    no-op, which lets callers thread a dtype policy unconditionally.
    """
    resolved = resolve_dtype(dtype)
    previous_dtype = getattr(_PRECISION_STATE, "dtype", None)
    previous_grad = grad_enabled()
    _PRECISION_STATE.dtype = resolved
    if resolved != np.float64:
        _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _PRECISION_STATE.dtype = previous_dtype
        _GRAD_STATE.enabled = previous_grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over dimensions that were 1 in the original shape.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def gelu_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximated GELU of ``x`` and the ``tanh`` term its gradient reuses."""
    inner = np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)
    tanh_inner = np.tanh(inner)
    return 0.5 * x * (1.0 + tanh_inner), tanh_inner


class Tensor:
    """A numpy array with an optional gradient and autograd history."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")
    __array_priority__ = 100  # make numpy defer to our reflected operators

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward=None,
        name: str | None = None,
    ):
        self.data = np.asarray(data, dtype=compute_dtype())
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and grad_enabled()
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self.name = name

    # -- basic protocol -----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def item(self) -> float:
        """The value of a one-element tensor as a python float."""
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """The underlying array (not a copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """A new tensor sharing data but severed from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # -- graph construction helpers ------------------------------------------
    @staticmethod
    def _coerce(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        requires = grad_enabled() and any(p.requires_grad for p in parents)
        # Tensor.__init__ re-asserts the compute dtype, so an op that mixed a
        # float64 master weight into a float32 autocast scope (and was thus
        # promoted by numpy) lands back in the scope's dtype here.
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad, out):
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad, out):
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad, out):
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad, out):
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data**2))

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        out_data = self.data**exponent

        def backward(grad, out):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad, out):
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data) if grad.ndim == 1 else grad[..., None] * other.data)
                else:
                    self._accumulate(grad @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad) if grad.ndim == 1 else self.data[..., None] @ grad[..., None, :])
                else:
                    other._accumulate(np.swapaxes(self.data, -1, -2) @ grad)

        return self._make(out_data, (self, other), backward)

    # -- elementwise functions -------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise ``e**x`` with autograd support."""
        out_data = np.exp(self.data)

        def backward(grad, out):
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        """Elementwise natural logarithm with autograd support."""
        out_data = np.log(self.data)

        def backward(grad, out):
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        """Elementwise square root (``self ** 0.5``)."""
        return self**0.5

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent with autograd support."""
        out_data = np.tanh(self.data)

        def backward(grad, out):
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid with autograd support."""
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad, out):
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        """Elementwise ``max(x, 0)`` with autograd support."""
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad, out):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward)

    def gelu(self) -> "Tensor":
        """The tanh approximation of GELU used by T5 v1.1 style feed-forwards."""
        x = self.data
        out_data, tanh_inner = gelu_array(x)

        def backward(grad, out):
            if self.requires_grad:
                sech2 = 1.0 - tanh_inner**2
                d_inner = np.sqrt(2.0 / np.pi) * (1.0 + 3 * 0.044715 * x**2)
                local = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner
                self._accumulate(grad * local)

        return self._make(out_data, (self,), backward)

    # -- reductions --------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements when ``None``)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad, out):
            if not self.requires_grad:
                return
            grad = np.asarray(grad, dtype=np.float64)
            if axis is None:
                self._accumulate(np.ones_like(self.data) * grad)
                return
            if not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Mean over ``axis`` (all elements when ``None``)."""
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = math.prod(self.data.shape[a] for a in axes)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``; ties split the gradient evenly."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad, out):
            if not self.requires_grad:
                return
            grad = np.asarray(grad, dtype=np.float64)
            expanded = out_data
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
                expanded = np.expand_dims(out_data, axis=axis)
            mask = (self.data == expanded).astype(np.float64)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum(), 1.0)
            self._accumulate(mask * grad)

        return self._make(out_data, (self,), backward)

    # -- shape manipulation --------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        """The same data viewed under a new shape."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original_shape = self.data.shape

        def backward(grad, out):
            if self.requires_grad:
                self._accumulate(np.asarray(grad).reshape(original_shape))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        """Permute dimensions (reversed order when no axes are given)."""
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        out_data = self.data.transpose(axes)

        def backward(grad, out):
            if self.requires_grad:
                # The inverse permutation is only needed on the backward pass;
                # computing it lazily keeps inference-time transposes cheap.
                self._accumulate(np.asarray(grad).transpose(np.argsort(axes)))

        return self._make(out_data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        """Swap two dimensions."""
        axes = list(range(self.data.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(tuple(axes))

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(grad, out):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, grad)
                self._accumulate(full)

        return self._make(out_data, (self,), backward)

    # -- composition helpers ----------------------------------------------------------
    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        """Join tensors along an existing ``axis``."""
        tensors = [Tensor._coerce(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]

        def backward(grad, out):
            grad = np.asarray(grad)
            start = 0
            for tensor, size in zip(tensors, sizes):
                if tensor.requires_grad:
                    index = [slice(None)] * grad.ndim
                    index[axis] = slice(start, start + size)
                    tensor._accumulate(grad[tuple(index)])
                start += size

        requires = grad_enabled() and any(t.requires_grad for t in tensors)
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            out._parents = tuple(tensors)
            out._backward = backward
        return out

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        """Stack tensors along a new ``axis``."""
        expanded = [t.reshape(t.shape[:axis] + (1,) + t.shape[axis:]) for t in (Tensor._coerce(t) for t in tensors)]
        return Tensor.concatenate(expanded, axis=axis)

    def embedding_lookup(self, ids: np.ndarray) -> "Tensor":
        """Row lookup ``self[ids]`` where ``self`` is an (V, D) embedding matrix."""
        ids = np.asarray(ids, dtype=np.int64)
        out_data = self.data[ids]

        def backward(grad, out):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, ids.reshape(-1), np.asarray(grad).reshape(-1, self.data.shape[-1]))
                self._accumulate(full)

        return self._make(out_data, (self,), backward)

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Replace entries where ``mask`` is true by ``value`` (no grad through them)."""
        mask = np.asarray(mask, dtype=bool)
        out_data = np.where(mask, value, self.data)

        def backward(grad, out):
            if self.requires_grad:
                self._accumulate(np.where(mask, 0.0, grad))

        return self._make(out_data, (self,), backward)

    # -- backward pass -------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to 1 for scalar outputs; non-scalar outputs require
        an explicit output gradient.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient is only defined for scalar tensors")
            grad = np.ones_like(self.data)
        # Topological order over the recorded graph.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad, node)
