"""Neural-network modules: parameter containers and basic layers.

Precision support lives at this level too.  Master weights are always
``float64`` (:class:`Parameter` pins them); when a forward pass runs inside
:func:`repro.nn.tensor.autocast` with a reduced compute dtype, layers cast
their masters on the fly through a per-module memo (:func:`cast_cached`).
:class:`Linear` and :class:`Embedding` additionally support per-row **int8
weight quantization** (:meth:`Linear.quantize_int8`) — symmetric by default,
optionally asymmetric (zero-point) and/or equalized by per-input-channel
activation scales (:mod:`repro.nn.calibration`): the int8 codes plus their
scales (and any zero points / equalization vectors) become the persisted
form of the weight, and the float master is re-derived from them so compute
at any dtype sees the quantized values.  See ``docs/numerics.md``.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.errors import ModelConfigError
from repro.nn import functional as F
from repro.nn.tensor import Tensor, compute_dtype
from repro.utils.rng import seeded_rng


def cast_cached(module: "Module", slot: str, source: np.ndarray, dtype, transform=None) -> np.ndarray:
    """``source`` cast to ``dtype`` (optionally through ``transform``), memoized.

    The memo lives on ``module`` under ``slot`` and is keyed by the *identity*
    of ``source``, so reassigning a parameter's ``data`` (``load_state_dict``,
    :meth:`Linear.load_int8`) invalidates it automatically.  In-place
    mutation (an optimizer step) does not change identity; the cache is
    therefore also dropped whenever a module transitions between train and
    eval mode — the protocol every training loop in the repo follows — and
    can be dropped explicitly via :meth:`Module.invalidate_cast_caches`.
    """
    if transform is None and source.dtype == dtype:
        return source
    cache = module.__dict__.setdefault("_cast_cache", {})
    entry = cache.get(slot)
    if entry is not None and entry[0] is source and entry[1] == dtype:
        return entry[2]
    cast = np.ascontiguousarray(transform(source) if transform is not None else source, dtype=dtype)
    cache[slot] = (source, dtype, cast)
    return cast


def _operand(module: "Module", slot: str, parameter: "Parameter", x: Tensor | np.ndarray) -> Tensor | np.ndarray:
    """``parameter`` as the operand for ``x``: the :func:`cast_cached` array in
    an array's dtype; for a ``Tensor``, the parameter itself at float64 (so
    autograd reaches it) or a ``Tensor`` of its cast under ``autocast``."""
    if isinstance(x, np.ndarray):
        return cast_cached(module, slot, parameter.data, x.dtype)
    dtype = compute_dtype()
    if dtype == np.float64:
        return parameter
    return Tensor(cast_cached(module, slot, parameter.data, dtype))


def _observe(module: "Module", x: Tensor | np.ndarray) -> None:
    """Feed ``x``'s values to the :mod:`repro.nn.calibration` observer attached to ``module``, if any."""
    observer = module.__dict__.get("_activation_observer")
    if observer is not None:
        observer.update(x.data if isinstance(x, Tensor) else x)


def symmetric_int8(values: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric int8 quantization of ``values`` with one scale per slice of ``axis``.

    Every slice along ``axis`` is mapped to ``round(values / scale)`` clipped
    to ``[-127, 127]``, where ``scale = max(|slice|) / 127`` (all-zero slices
    get scale 1.0 so dequantization is exact).  Returns ``(codes, scales)``
    with ``scales`` keeping the reduced axis as size 1, so
    ``codes * scales`` broadcasts back to the original shape.
    """
    values = np.asarray(values, dtype=np.float64)
    scales = np.max(np.abs(values), axis=axis, keepdims=True) / 127.0
    scales = np.where(scales == 0.0, 1.0, scales)
    codes = np.clip(np.rint(values / scales), -127, 127).astype(np.int8)
    return codes, scales


def asymmetric_int8(values: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Asymmetric (zero-point) int8 quantization with one scale per slice of ``axis``.

    Where :func:`symmetric_int8` centers the code range on zero, this maps
    each slice's actual ``[min, max]`` interval onto the 255 signed levels:
    ``scale = (max - min) / 254``, ``zero_point = midpoint / scale``, and
    ``codes = round(values / scale - zero_point)`` clipped to ``[-127, 127]``.
    Skewed slices (e.g. embedding rows whose mass sits off-center) lose half
    a level of error versus wasting range on values that never occur.
    Constant slices take scale 1.0 with the constant absorbed into the zero
    point, so dequantization is exact.  Returns ``(codes, scales,
    zero_points)``; the dequantized form is ``(codes + zero_points) * scales``.
    """
    values = np.asarray(values, dtype=np.float64)
    low = values.min(axis=axis, keepdims=True)
    high = values.max(axis=axis, keepdims=True)
    scales = (high - low) / 254.0
    scales = np.where(scales == 0.0, 1.0, scales)
    zero_points = (high + low) / (2.0 * scales)
    codes = np.clip(np.rint(values / scales - zero_points), -127, 127).astype(np.int8)
    return codes, scales, zero_points


def _validate_equalization(
    equalization: np.ndarray | None, channels: int, shape: tuple[int, int], owner: str
) -> np.ndarray | None:
    """Normalize an equalization vector to ``shape`` (float64), or reject it."""
    if equalization is None:
        return None
    equalization = np.asarray(equalization, dtype=np.float64)
    if equalization.size != channels:
        raise ModelConfigError(
            f"{owner} equalization must have {channels} per-channel scales, got {equalization.size}"
        )
    if not np.all(np.isfinite(equalization)) or np.any(equalization <= 0.0):
        raise ModelConfigError(f"{owner} equalization scales must be finite and positive")
    return equalization.reshape(shape)


class Parameter(Tensor):
    """A tensor that is always trainable and discoverable by :class:`Module`.

    Master parameter storage is pinned to ``float64`` regardless of any
    active :func:`~repro.nn.tensor.autocast` scope — reduced precision is a
    property of *compute*, never of the stored weights.
    """

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)
        # Re-derive the master from the *source* data, not from ``self.data``:
        # inside an autocast scope the base constructor casts through the
        # compute dtype, which would silently round float64 initial values.
        self.data = np.asarray(data, dtype=np.float64)
        # Parameters must remain trainable even when created inside ``no_grad``.
        self.requires_grad = True


class Module:
    """Base class providing parameter discovery, train/eval mode and state dicts."""

    def __init__(self):
        self.training = True

    # -- parameter discovery ------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` for every parameter in the tree."""
        for attr_name, value in vars(self).items():
            full_name = f"{prefix}{attr_name}"
            if isinstance(value, Parameter):
                yield full_name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full_name}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full_name}.{index}.")
                    elif isinstance(item, Parameter):
                        yield f"{full_name}.{index}", item

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(dotted_name, module)`` for this module and every submodule.

        Traversal mirrors :meth:`named_parameters`, so a submodule reachable
        through several attributes (e.g. a shared embedding) is yielded once
        per path — callers that must visit each instance once should dedupe
        by identity.
        """
        yield prefix[:-1] if prefix.endswith(".") else prefix, self
        for attr_name, value in vars(self).items():
            if isinstance(value, Module):
                yield from value.named_modules(prefix=f"{prefix}{attr_name}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_modules(prefix=f"{prefix}{attr_name}.{index}.")

    def parameters(self) -> list[Parameter]:
        """Every :class:`Parameter` reachable from this module, in discovery order."""
        return [parameter for _, parameter in self.named_parameters()]

    def invalidate_cast_caches(self) -> None:
        """Drop every memoized reduced-precision weight cast in this tree.

        Needed only after mutating parameter data in place outside the
        train/eval protocol (mode transitions drop the memos automatically).
        """
        for _, module in self.named_modules():
            module.__dict__.pop("_cast_cache", None)

    def num_parameters(self) -> int:
        """Total scalar parameters in the tree."""
        return int(sum(parameter.size for parameter in self.parameters()))

    def zero_grad(self) -> None:
        """Clear the gradients of every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    # -- train / eval --------------------------------------------------------
    def train(self) -> "Module":
        """Switch the tree to training mode; returns ``self``."""
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        """Switch the tree to inference mode; returns ``self``."""
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        if training != self.training:
            # A mode transition brackets any in-place weight mutation the
            # optimizer made, so it is the safe point to drop stale casts.
            self.__dict__.pop("_cast_cache", None)
        self.training = training
        for value in vars(self).values():
            if isinstance(value, Module):
                value._set_mode(training)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_mode(training)

    # -- quantization ----------------------------------------------------------
    def quantize_int8(self) -> None:
        """Int8-quantize every not-yet-quantized :class:`Linear`/:class:`Embedding` below.

        Leaf modules override this with the actual per-weight quantization;
        the generic version walks the tree once per module *instance* (a
        shared submodule is quantized once, however many attributes reach
        it).  Quantized weights are frozen, so a quantized model is
        inference-only.
        """
        seen: set[int] = set()
        for _, module in self.named_modules():
            if isinstance(module, (Linear, Embedding)) and id(module) not in seen:
                seen.add(id(module))
                if not module.quantized:
                    module.quantize_int8()

    @property
    def any_quantized(self) -> bool:
        """Whether any submodule stores int8-quantized weights."""
        return any(
            isinstance(module, (Linear, Embedding)) and module.quantized
            for _, module in self.named_modules()
        )

    # -- persistence -----------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Every parameter as a ``name -> float64 array`` mapping (copies).

        A parameter reachable through several attributes (e.g. a tied
        embedding) appears **once**, under its first traversal name — saving
        each alias would triple a tied embedding's checkpoint footprint.
        :meth:`load_state_dict` resolves aliases by identity, so a state dict
        keyed by any alias of a shared parameter still loads.  Quantized
        weights appear in their dequantized float64 form; use
        :meth:`int8_state_dict` to persist the codes + scales instead.
        """
        state: dict[str, np.ndarray] = {}
        seen: set[int] = set()
        for name, parameter in self.named_parameters():
            if id(parameter) in seen:
                continue
            seen.add(id(parameter))
            state[name] = parameter.data.copy()
        return state

    def int8_state_dict(self) -> dict[str, np.ndarray]:
        """Like :meth:`state_dict`, but quantized weights stay int8.

        Each quantized weight ``<name>`` is replaced by ``<name>.int8`` (the
        int8 codes) and ``<name>.int8_scale`` (the per-row float scales) —
        roughly an 8x size reduction for the quantized share of the
        parameters — plus, when the module was calibrated, ``<name>.int8_zp``
        (asymmetric zero points) and/or ``<name>.int8_eq`` (the per-channel
        equalization scales folded in before rounding; see
        :mod:`repro.nn.calibration`).  :meth:`load_state_dict` accepts both
        formats and rebuilds the exact dequantized masters bitwise.
        """
        state = self.state_dict()
        seen: set[int] = set()
        for name, module in self.named_modules():
            if not isinstance(module, (Linear, Embedding)) or id(module) in seen:
                continue
            seen.add(id(module))
            if not module.quantized:
                continue
            key = f"{name}.weight" if name else "weight"
            state.pop(key, None)
            state[f"{key}.int8"] = module.weight_q.copy()
            state[f"{key}.int8_scale"] = module.weight_scale.copy()
            if module.weight_zero_point is not None:
                state[f"{key}.int8_zp"] = module.weight_zero_point.copy()
            if module.weight_equalization is not None:
                state[f"{key}.int8_eq"] = module.weight_equalization.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Install ``state`` (a :meth:`state_dict` or :meth:`int8_state_dict`).

        ``<name>.int8`` / ``<name>.int8_scale`` pairs (plus optional
        ``.int8_zp`` / ``.int8_eq`` entries) are routed to the owning module's
        ``load_int8`` (quantizing it if it was not already); a plain float
        entry arriving for a currently-quantized weight clears that module's
        int8 storage — the checkpoint defines the storage format.  A shared
        parameter is satisfied by an entry under *any* of its alias names
        (state dicts written by :meth:`state_dict` carry the first traversal
        name; older checkpoints that saved every alias still load).
        """
        state = dict(state)
        quantized: dict[str, dict[str, np.ndarray]] = {}
        for key in [k for k in state if k.endswith(".int8")]:
            base = key[: -len(".int8")]
            scale_key = f"{base}.int8_scale"
            if scale_key not in state:
                raise ModelConfigError(f"int8 entry {key!r} is missing its {scale_key!r} scales")
            entry = {"codes": np.asarray(state.pop(key)), "scales": np.asarray(state.pop(scale_key))}
            zp_key, eq_key = f"{base}.int8_zp", f"{base}.int8_eq"
            if zp_key in state:
                entry["zero_points"] = np.asarray(state.pop(zp_key))
            if eq_key in state:
                entry["equalization"] = np.asarray(state.pop(eq_key))
            quantized[base] = entry
        # Validate everything BEFORE the first mutation, so a rejected state
        # dict leaves the model untouched rather than partially overwritten.
        modules = dict(self.named_modules())
        targets: dict[str, "Linear | Embedding"] = {}
        for base in quantized:
            module_name, _, leaf = base.rpartition(".")
            module = modules.get(module_name)
            if leaf != "weight" or not isinstance(module, (Linear, Embedding)):
                raise ModelConfigError(f"int8 entry {base!r} does not name a Linear/Embedding weight")
            targets[base] = module
        own = dict(self.named_parameters())
        # Group alias names by parameter identity: one entry per group loads
        # the shared parameter, whichever alias the writer happened to use.
        alias_groups: dict[int, list[str]] = {}
        for name, parameter in own.items():
            alias_groups.setdefault(id(parameter), []).append(name)
        provided = set(state) | set(quantized)
        missing = sorted(
            names[0] for names in alias_groups.values() if not provided.intersection(names)
        )
        unexpected = sorted(set(state) - set(own))
        if missing or unexpected:
            raise ModelConfigError(f"state dict mismatch: missing={missing} unexpected={unexpected}")
        for name in state:
            value = np.asarray(state[name])
            if value.shape != own[name].data.shape:
                raise ModelConfigError(
                    f"shape mismatch for {name}: expected {own[name].data.shape}, got {value.shape}"
                )
        for base, entry in quantized.items():
            targets[base].load_int8(**entry)
        for name, parameter in own.items():
            if name in quantized or name not in state:
                continue  # installed via load_int8, or satisfied through an alias
            value = np.asarray(state[name], dtype=np.float64)
            module_name, _, leaf = name.rpartition(".")
            owner = modules.get(module_name)
            if leaf == "weight" and isinstance(owner, (Linear, Embedding)) and owner.quantized:
                owner.weight_q = None
                owner.weight_scale = None
                owner.weight_zero_point = None
                owner.weight_equalization = None
                parameter.requires_grad = True
                owner.invalidate_cast_caches()
            parameter.data = value.copy()

    # -- call protocol ------------------------------------------------------------
    # Composite bodies call a submodule's ``forward`` directly: on the paged
    # decode path this frame costs about 5 % of a d_model-64 step.
    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        """Compute the module's output (subclasses must override)."""
        raise NotImplementedError


class Linear(Module):
    """A dense layer ``y = x W + b`` with Glorot-style initialisation.

    Supports int8 weight storage (:meth:`quantize_int8`): the weight matrix
    is replaced by per-output-channel symmetric int8 codes plus float scales
    (one scale per column of ``W``, i.e. per row of the conventional
    ``(out, in)`` weight view), and the float64 master is re-derived as
    ``codes * scales`` so every compute path — float64 or an autocast
    float32 pass — sees the identical quantized values.  Quantized layers are
    frozen: their weight stops requiring gradients.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True, seed: int | np.random.Generator = 0):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ModelConfigError("Linear dimensions must be positive")
        rng = seeded_rng(seed)
        scale = np.sqrt(6.0 / (in_features + out_features))
        self.weight = Parameter(rng.uniform(-scale, scale, size=(in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self.in_features = in_features
        self.out_features = out_features
        self.weight_q: np.ndarray | None = None
        self.weight_scale: np.ndarray | None = None
        self.weight_zero_point: np.ndarray | None = None
        self.weight_equalization: np.ndarray | None = None

    @property
    def quantized(self) -> bool:
        """Whether the weight is stored as int8 codes + scales."""
        return self.weight_q is not None

    def quantize_int8(self, equalization: np.ndarray | None = None, asymmetric: bool = False) -> None:
        """Quantize the weight to per-output-channel int8 in place (idempotent).

        ``equalization`` (one positive scale per *input* channel, see
        :func:`repro.nn.calibration.equalization_scales`) is folded into the
        weight before rounding and divided back out of the dequantized
        master, so input channels carrying large activations are represented
        finely at the expense of channels whose error barely matters.
        ``asymmetric=True`` uses zero-point quantization
        (:func:`asymmetric_int8`) instead of the symmetric default.

        Calling this on an already-quantized layer is a **no-op**: the codes
        are already the stored form, and re-quantizing the dequantized master
        would silently compound rounding error on every deploy/load cycle.
        """
        if self.quantized:
            return
        eq = _validate_equalization(equalization, self.in_features, (self.in_features, 1), "Linear")
        values = self.weight.data if eq is None else self.weight.data * eq
        if asymmetric:
            codes, scales, zero_points = asymmetric_int8(values, axis=0)
            self.load_int8(codes, scales, zero_points=zero_points, equalization=eq)
        else:
            codes, scales = symmetric_int8(values, axis=0)
            self.load_int8(codes, scales, equalization=eq)

    def load_int8(
        self,
        codes: np.ndarray,
        scales: np.ndarray,
        zero_points: np.ndarray | None = None,
        equalization: np.ndarray | None = None,
    ) -> None:
        """Install int8 ``codes`` and per-column ``scales`` as the weight.

        The float64 master is rebuilt as ``codes * scales`` — or
        ``(codes + zero_points) * scales`` for asymmetric storage — divided
        by the per-input-channel ``equalization`` when one was folded in at
        quantization time.  The rebuild is bitwise deterministic, which is
        what makes quantized checkpoints round-trip exactly; the weight is
        frozen afterwards.
        """
        codes = np.asarray(codes)
        scales = np.asarray(scales, dtype=np.float64).reshape(1, self.out_features)
        if codes.dtype != np.int8 or codes.shape != (self.in_features, self.out_features):
            raise ModelConfigError(
                f"int8 weight must be int8 with shape {(self.in_features, self.out_features)}, "
                f"got {codes.dtype} {codes.shape}"
            )
        if zero_points is not None:
            zero_points = np.asarray(zero_points, dtype=np.float64).reshape(1, self.out_features)
        equalization = _validate_equalization(equalization, self.in_features, (self.in_features, 1), "Linear")
        self.weight_q = codes
        self.weight_scale = scales
        self.weight_zero_point = zero_points
        self.weight_equalization = equalization
        master = codes.astype(np.float64)
        if zero_points is not None:
            master = master + zero_points
        master = master * scales
        if equalization is not None:
            master = master / equalization
        self.weight.data = master
        self.weight.requires_grad = False
        self.invalidate_cast_caches()

    def forward(self, x: Tensor | np.ndarray) -> Tensor | np.ndarray:
        """Apply ``x @ W (+ b)``, casting masters to ``x``'s compute dtype."""
        _observe(self, x)
        out = x @ _operand(self, "weight", self.weight, x)
        if self.bias is not None:
            out = out + _operand(self, "bias", self.bias, x)
        return out


class Embedding(Module):
    """Token-id to vector lookup table.

    Supports int8 weight storage (:meth:`quantize_int8`) with one symmetric
    scale per vocabulary row, so frequent and rare tokens each use their own
    dynamic range.  As with :class:`Linear`, the float64 master is re-derived
    from the codes and frozen, which keeps the tied LM head consistent with
    the quantized lookup table.
    """

    def __init__(self, num_embeddings: int, embedding_dim: int, seed: int | np.random.Generator = 0):
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ModelConfigError("Embedding dimensions must be positive")
        rng = seeded_rng(seed)
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num_embeddings, embedding_dim)))
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight_q: np.ndarray | None = None
        self.weight_scale: np.ndarray | None = None
        self.weight_zero_point: np.ndarray | None = None
        self.weight_equalization: np.ndarray | None = None

    @property
    def quantized(self) -> bool:
        """Whether the table is stored as int8 codes + per-row scales."""
        return self.weight_q is not None

    def quantize_int8(self, equalization: np.ndarray | None = None, asymmetric: bool = False) -> None:
        """Quantize the table to per-row int8 in place (idempotent).

        ``equalization`` is one positive scale per embedding *dimension* —
        the input channels of the tied LM head projection, which is where an
        embedding's quantization error hurts decode agreement.
        ``asymmetric=True`` stores per-row zero points, which suits skewed
        embedding rows.  As with :meth:`Linear.quantize_int8`, a second call
        on an already-quantized table is a no-op rather than a
        rounding-error-compounding re-quantization.
        """
        if self.quantized:
            return
        eq = _validate_equalization(equalization, self.embedding_dim, (1, self.embedding_dim), "Embedding")
        values = self.weight.data if eq is None else self.weight.data * eq
        if asymmetric:
            codes, scales, zero_points = asymmetric_int8(values, axis=1)
            self.load_int8(codes, scales, zero_points=zero_points, equalization=eq)
        else:
            codes, scales = symmetric_int8(values, axis=1)
            self.load_int8(codes, scales, equalization=eq)

    def load_int8(
        self,
        codes: np.ndarray,
        scales: np.ndarray,
        zero_points: np.ndarray | None = None,
        equalization: np.ndarray | None = None,
    ) -> None:
        """Install int8 ``codes`` and per-row ``scales`` as the lookup table.

        Optional ``zero_points`` (per row) and ``equalization`` (per
        dimension) reconstruct asymmetric/calibrated storage; the float64
        master is rebuilt bitwise-deterministically and frozen.
        """
        codes = np.asarray(codes)
        scales = np.asarray(scales, dtype=np.float64).reshape(self.num_embeddings, 1)
        if codes.dtype != np.int8 or codes.shape != (self.num_embeddings, self.embedding_dim):
            raise ModelConfigError(
                f"int8 embedding must be int8 with shape {(self.num_embeddings, self.embedding_dim)}, "
                f"got {codes.dtype} {codes.shape}"
            )
        if zero_points is not None:
            zero_points = np.asarray(zero_points, dtype=np.float64).reshape(self.num_embeddings, 1)
        equalization = _validate_equalization(equalization, self.embedding_dim, (1, self.embedding_dim), "Embedding")
        self.weight_q = codes
        self.weight_scale = scales
        self.weight_zero_point = zero_points
        self.weight_equalization = equalization
        master = codes.astype(np.float64)
        if zero_points is not None:
            master = master + zero_points
        master = master * scales
        if equalization is not None:
            master = master / equalization
        self.weight.data = master
        self.weight.requires_grad = False
        self.invalidate_cast_caches()

    def forward(self, ids: np.ndarray, dtype=None) -> Tensor | np.ndarray:
        """Look up the vectors for ``ids`` (any integer array shape): a :class:`Tensor`
        for ``dtype=None``, else a plain array of ``dtype`` (the float64 rows cast once)."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise ModelConfigError(
                f"token id outside embedding range [0, {self.num_embeddings}): min={ids.min()}, max={ids.max()}"
            )
        if dtype is None:
            return self.weight.embedding_lookup(ids)
        return np.asarray(self.weight.data[ids], dtype=dtype)


class RMSNorm(Module):
    """Root-mean-square layer norm, the normalisation used by T5 (no mean subtraction)."""

    def __init__(self, dim: int, eps: float = 1e-6):
        super().__init__()
        self.weight = Parameter(np.ones(dim))
        self.eps = eps
        self.dim = dim

    def forward(self, x: Tensor | np.ndarray) -> Tensor | np.ndarray:
        """Scale ``x`` to unit RMS along the last axis, then apply the gain."""
        # The mean is spelled as ``Tensor.mean`` computes it; Python-float
        # scalars round to ``x``'s dtype on both paths.
        variance = (x * x).sum(axis=-1, keepdims=True) * (1.0 / x.shape[-1])
        normed = x * ((variance + self.eps) ** -0.5)
        return normed * _operand(self, "weight", self.weight, x)


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode or at rate 0."""

    def __init__(self, rate: float = 0.0, seed: int | np.random.Generator = 0):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ModelConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = seeded_rng(seed)

    def forward(self, x: Tensor | np.ndarray) -> Tensor | np.ndarray:
        """Randomly zero (and rescale) entries of ``x`` while training (a plain array raises)."""
        if not self.training or self.rate == 0.0:
            return x
        if isinstance(x, np.ndarray):
            raise ModelConfigError("an array forward pass is inference-only; call eval() first")
        keep_probability = 1.0 - self.rate
        mask = self._rng.random(x.shape) < keep_probability
        return x * Tensor(mask.astype(np.float64) / keep_probability)


class FeedForward(Module):
    """The T5 position-wise feed-forward block (Linear -> activation -> Linear)."""

    def __init__(
        self,
        d_model: int,
        d_ff: int,
        activation: str = "relu",
        dropout: float = 0.0,
        seed: int | np.random.Generator = 0,
    ):
        super().__init__()
        rng = seeded_rng(seed)
        self.wi = Linear(d_model, d_ff, bias=False, seed=rng)
        self.wo = Linear(d_ff, d_model, bias=False, seed=rng)
        self.dropout = Dropout(dropout, seed=rng)
        if activation not in ("relu", "gelu"):
            raise ModelConfigError(f"unknown activation {activation!r}")
        self.activation = activation

    def forward(self, x: Tensor | np.ndarray) -> Tensor | np.ndarray:
        """Apply the expand -> activate -> (dropout) -> project block."""
        hidden = self.wi.forward(x)
        hidden = F.relu(hidden) if self.activation == "relu" else F.gelu(hidden)
        return self.wo.forward(self.dropout.forward(hidden))
