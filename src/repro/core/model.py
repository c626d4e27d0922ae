"""The DataVisT5 model: tokenizer + T5 encoder--decoder with a text API.

The class exposes exactly what the training loops and the evaluation harness
need: ``train_step`` on a batch of (source text, target text) pairs,
``predict`` for greedy/beam generation from text to text, loss evaluation,
and state persistence.  It deliberately knows nothing about specific tasks —
task formatting lives in :mod:`repro.encoding.sequences` and the dataset
builders.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.batching import Batch, collate_text_pairs
from repro.core.config import DataVisT5Config, precision_compute_dtype, validate_precision
from repro.errors import ModelConfigError
from repro.nn.calibration import QuantPolicy, apply_policy, calibrate_policy
from repro.nn.optim import Adam, LinearWarmupSchedule, clip_grad_norm
from repro.nn.transformer import T5Model, decode_budget

#: Reserved ``weights.npz`` entry carrying the serialized :class:`QuantPolicy`.
QUANT_POLICY_KEY = "__quant_policy__"
from repro.tokenization.tokenizer import DataVisTokenizer
from repro.tokenization.vocab import Vocabulary


def checkpoint_fingerprint(checkpoint: str | Path) -> str:
    """The content fingerprint of a checkpoint's ``weights.npz``.

    ``checkpoint`` is a checkpoint directory (as written by
    :meth:`DataVisT5.save`) or a direct path to a ``weights.npz`` file.  The
    fingerprint is ``"sha256:<hex>"`` over the file's raw bytes, streamed in
    chunks so large checkpoints never load into memory.  Deployment manifests
    (:mod:`repro.deploy.manifest`) record it at registration time and verify
    it before activation, so a checkpoint that was overwritten, truncated or
    swapped since it was registered is refused rather than silently served.
    """
    path = Path(checkpoint)
    weights = path / "weights.npz" if path.is_dir() else path
    if not weights.exists():
        raise ModelConfigError(f"no weights file to fingerprint at {weights}")
    digest = hashlib.sha256()
    with open(weights, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return f"sha256:{digest.hexdigest()}"


class DataVisT5:
    """A DataVisT5 instance: configuration, tokenizer and transformer weights."""

    def __init__(self, config: DataVisT5Config, tokenizer: DataVisTokenizer):
        self.config = config
        self.tokenizer = tokenizer
        transformer_config = config.to_transformer_config(
            vocab_size=len(tokenizer.vocab),
            pad_id=tokenizer.vocab.pad_id,
            eos_id=tokenizer.vocab.eos_id,
            bos_id=tokenizer.vocab.bos_id,
        )
        self.model = T5Model(transformer_config)
        self.quant_policy: QuantPolicy | None = None
        self._calibration_stats: dict | None = None
        if config.precision == "int8":
            # An int8 config means "this instance is quantized"; loading a
            # checkpoint afterwards simply overwrites codes and scales.
            self.model.quantize_int8()

    # -- construction ---------------------------------------------------------------
    @classmethod
    def from_corpus(
        cls,
        texts: Sequence[str],
        config: DataVisT5Config | None = None,
        max_vocab_size: int | None = 4000,
        min_frequency: int = 1,
    ) -> "DataVisT5":
        """Build a model whose tokenizer vocabulary covers ``texts``."""
        config = config or DataVisT5Config()
        tokenizer = DataVisTokenizer.build_from_corpus(
            texts, max_vocab_size=max_vocab_size, min_frequency=min_frequency
        )
        return cls(config, tokenizer)

    def num_parameters(self) -> int:
        """Total scalar parameters of the underlying transformer."""
        return self.model.num_parameters()

    # -- precision --------------------------------------------------------------------
    @property
    def quantized(self) -> bool:
        """Whether the transformer's weights are stored as int8 codes + scales."""
        return self.model.quantized

    def calibrate(
        self,
        texts: Sequence[str],
        n: int = 64,
        alpha: float = 0.5,
        target_agreement: float = 0.995,
        max_float_fraction: float = 0.10,
        max_length: int | None = None,
    ) -> QuantPolicy:
        """Calibrate an int8 quantization policy on held-out source texts.

        Runs up to ``n`` of ``texts`` through the float64 model to collect
        per-channel activation statistics, scans per-module sensitivity and
        searches for the mixed-precision :class:`~repro.nn.calibration.QuantPolicy`
        that keeps greedy decode agreement at or above ``target_agreement``
        (pinning at most ``max_float_fraction`` of the quantizable parameters
        to float32).  ``alpha`` is the SmoothQuant-style outlier-migration
        knob (0 = weight-only scales, 1 = activation-only).  The policy and
        the activation statistics are stored on the instance so a subsequent
        :meth:`quantize_int8` applies them by default, and :meth:`save`
        persists the policy inside ``weights.npz``.  The model itself stays
        unquantized (and trainable) until :meth:`quantize_int8` is called.
        See ``docs/numerics.md`` for the full workflow.
        """
        if self.quantized:
            raise ModelConfigError("calibrate() needs float weights; the model is already int8")
        if not texts:
            raise ModelConfigError("calibrate() needs at least one calibration text")
        if n < 1:
            raise ModelConfigError(f"calibration sample count must be >= 1, got {n}")
        sample = list(texts)[:n]
        self.model.eval()
        encoded = self.tokenizer.batch_encode(sample, max_length=self.config.max_input_length)
        from repro.core.batching import pad_sequences

        input_ids = pad_sequences(encoded, self.tokenizer.vocab.pad_id, self.config.max_input_length)
        policy, stats = calibrate_policy(
            self.model,
            input_ids,
            alpha=alpha,
            target_agreement=target_agreement,
            max_float_fraction=max_float_fraction,
            max_length=decode_budget(max_length, self.config.max_decode_length),
        )
        self.quant_policy = policy
        self._calibration_stats = stats
        return policy

    def quantize_int8(self, policy: QuantPolicy | None = None) -> "DataVisT5":
        """Quantize every projection/embedding weight to int8 in place.

        With a :class:`~repro.nn.calibration.QuantPolicy` — passed explicitly
        or left over from :meth:`calibrate` / an int8 checkpoint — each
        module takes its calibrated mode (symmetric int8, zero-point int8, or
        a float32 pin), with activation-aware equalization folded in when the
        calibration statistics are available on this instance.  Without any
        policy every module is quantized symmetrically, as before.

        Flips the instance's default precision to ``"int8"`` (so ``predict``
        decodes in float32 over the quantized weights) and freezes the
        quantized parameters — further :meth:`train_step` calls raise.
        The config object is replaced, not mutated, so other models sharing
        the caller's config instance are unaffected.  Returns ``self`` for
        chaining.
        """
        policy = policy or self.quant_policy
        if not self.quantized:
            if policy is not None:
                apply_policy(self.model, policy, self._calibration_stats)
            else:
                self.model.quantize_int8()
        self.quant_policy = policy
        self.config = replace(self.config, precision="int8")
        return self

    def resolve_precision(self, precision: str | None = None) -> str:
        """Resolve a per-call precision override against the config default.

        Raises :class:`ModelConfigError` for unknown modes, or for ``int8``
        when the weights have not been quantized.
        """
        resolved = validate_precision(precision or self.config.precision)
        if resolved == "int8" and not self.quantized:
            raise ModelConfigError(
                "precision='int8' requires quantized weights; call quantize_int8() "
                "or load an int8 checkpoint first"
            )
        return resolved

    # -- optimization -----------------------------------------------------------------
    def make_optimizer(
        self,
        total_steps: int,
        learning_rate: float = 5e-3,
        warmup_ratio: float = 0.1,
        weight_decay: float = 0.01,
    ) -> Adam:
        """An AdamW optimizer with the paper's linear warm-up schedule."""
        schedule = LinearWarmupSchedule(learning_rate, total_steps=max(total_steps, 1), warmup_ratio=warmup_ratio)
        return Adam(self.model.parameters(), learning_rate=schedule, weight_decay=weight_decay)

    def train_step(
        self,
        batch: Batch,
        optimizer: Adam,
        max_grad_norm: float = 1.0,
    ) -> float:
        """One optimization step on a padded batch; returns the loss value."""
        if self.quantized:
            raise ModelConfigError(
                "cannot train an int8-quantized model; quantize after training "
                "(training always runs in float64, see docs/numerics.md)"
            )
        self.model.train()
        optimizer.zero_grad()
        output = self.model(batch.input_ids, labels=batch.labels)
        loss = output["loss"]
        loss.backward()
        clip_grad_norm(self.model.parameters(), max_grad_norm)
        optimizer.step()
        return float(loss.item())

    def compute_loss(self, sources: Sequence[str], targets: Sequence[str]) -> float:
        """Average token-level cross-entropy of ``targets`` given ``sources`` (no update)."""
        self.model.eval()
        batch = self.collate(sources, targets)
        output = self.model(batch.input_ids, labels=batch.labels)
        return float(output["loss"].item())

    def collate(self, sources: Sequence[str], targets: Sequence[str]) -> Batch:
        """Tokenize and pad (source, target) text pairs into a training batch."""
        return collate_text_pairs(
            sources,
            targets,
            self.tokenizer,
            max_input_length=self.config.max_input_length,
            max_target_length=self.config.max_target_length,
        )

    # -- inference ----------------------------------------------------------------------
    def predict(
        self,
        source: str,
        num_beams: int = 1,
        max_length: int | None = None,
        use_cache: bool = True,
        precision: str | None = None,
    ) -> str:
        """Generate the output text for one source text."""
        return self.predict_batch(
            [source], num_beams=num_beams, max_length=max_length, use_cache=use_cache, precision=precision
        )[0]

    def predict_batch(
        self,
        sources: Sequence[str],
        num_beams: int = 1,
        max_length: int | None = None,
        use_cache: bool = True,
        precision: str | None = None,
    ) -> list[str]:
        """Generate output texts for a batch of source texts.

        ``use_cache`` selects between KV-cached incremental decoding (the
        default fast path) and the naive reference loop; both produce
        identical texts.  ``precision`` overrides the config's inference
        precision for this call (``"float64"`` / ``"float32"`` / ``"int8"``;
        ``int8`` requires already-quantized weights).  ``max_length=None``
        means the config's ``max_decode_length``; a budget below 1 raises
        :class:`ModelConfigError`.
        """
        max_length = decode_budget(max_length, self.config.max_decode_length)
        if not sources:
            return []
        resolved = self.resolve_precision(precision)
        self.model.eval()
        encoded = self.tokenizer.batch_encode(list(sources), max_length=self.config.max_input_length)
        from repro.core.batching import pad_sequences

        input_ids = pad_sequences(encoded, self.tokenizer.vocab.pad_id, self.config.max_input_length)
        generated = self.model.generate(
            input_ids,
            max_length=max_length,
            num_beams=num_beams,
            use_cache=use_cache,
            dtype=precision_compute_dtype(resolved),
        )
        return [self.tokenizer.decode(row) for row in generated]

    # -- persistence --------------------------------------------------------------------
    def save(self, directory: str | Path) -> None:
        """Save config, vocabulary and weights under ``directory``.

        Quantized models persist their weights as int8 codes plus per-row
        scales (``<name>.int8`` / ``<name>.int8_scale`` entries in
        ``weights.npz``, plus ``.int8_zp`` / ``.int8_eq`` for calibrated
        zero points and equalization), which shrinks the checkpoint by
        roughly the quantized fraction of the parameters (~8x on the
        projection and embedding weights); :meth:`load` reconstructs the
        exact same dequantized masters bitwise.  A calibrated
        :class:`~repro.nn.calibration.QuantPolicy` travels inside
        ``weights.npz`` under :data:`QUANT_POLICY_KEY`, and its float32-pinned
        weights are stored as float32 (the in-memory masters were already
        snapped to float32 precision when the policy was applied, so the
        round trip stays bitwise).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        config_payload = {
            "size": self.config.size,
            "d_model": self.config.d_model,
            "num_heads": self.config.num_heads,
            "d_ff": self.config.d_ff,
            "num_encoder_layers": self.config.num_encoder_layers,
            "num_decoder_layers": self.config.num_decoder_layers,
            "dropout": self.config.dropout,
            "max_input_length": self.config.max_input_length,
            "max_target_length": self.config.max_target_length,
            "max_decode_length": self.config.max_decode_length,
            "precision": self.config.precision,
            "seed": self.config.seed,
        }
        (directory / "config.json").write_text(json.dumps(config_payload, indent=2), encoding="utf-8")
        self.tokenizer.vocab.save(directory / "vocab.json")
        state = self.model.int8_state_dict() if self.quantized else self.model.state_dict()
        if self.quant_policy is not None:
            if self.quantized:
                for name in self.quant_policy.float32_modules:
                    key = f"{name}.weight"
                    if key in state:
                        state[key] = state[key].astype(np.float32)
            state[QUANT_POLICY_KEY] = np.array(self.quant_policy.to_json())
        np.savez(directory / "weights.npz", **state)

    @classmethod
    def load(cls, directory: str | Path) -> "DataVisT5":
        """Load a model previously written by :meth:`save`.

        Int8 checkpoints round-trip bitwise: the loaded model's codes, scales
        and dequantized masters equal the saved model's exactly, so its
        predictions are identical.  A persisted
        :class:`~repro.nn.calibration.QuantPolicy` is restored onto
        ``quant_policy`` (and re-validated — a tampered policy entry fails
        loudly), so re-quantizing a float checkpoint or rebuilding a deployed
        pipeline reuses the exact calibrated configuration.
        """
        directory = Path(directory)
        config_path = directory / "config.json"
        vocab_path = directory / "vocab.json"
        weights_path = directory / "weights.npz"
        for path in (config_path, vocab_path, weights_path):
            if not path.exists():
                raise ModelConfigError(f"missing checkpoint file: {path}")
        payload = json.loads(config_path.read_text(encoding="utf-8"))
        config = DataVisT5Config(**payload)
        tokenizer = DataVisTokenizer(Vocabulary.load(vocab_path))
        model = cls(config, tokenizer)
        with np.load(weights_path) as data:
            state = {name: data[name] for name in data.files}
        policy_entry = state.pop(QUANT_POLICY_KEY, None)
        if policy_entry is not None:
            model.quant_policy = QuantPolicy.from_json(str(policy_entry))
        model.model.load_state_dict(state)
        return model

    def clone_architecture(self) -> "DataVisT5":
        """A fresh model with the same config and tokenizer but re-initialised weights."""
        return DataVisT5(self.config, self.tokenizer)

    def copy_weights_from(self, other: "DataVisT5") -> None:
        """Copy weights from another model with an identical architecture."""
        self.model.load_state_dict(other.model.state_dict())
