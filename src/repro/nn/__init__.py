"""A small numpy-based neural-network substrate.

The paper builds DataVisT5 on the HuggingFace T5/CodeT5+ stack; this
environment is offline and has no deep-learning framework installed, so the
package provides the pieces that stack supplies:

* :mod:`repro.nn.tensor` -- a reverse-mode autograd engine over numpy arrays;
* :mod:`repro.nn.layers` -- modules (Linear, Embedding, RMSNorm, Dropout);
* :mod:`repro.nn.calibration` -- activation-aware int8 calibration:
  activation statistics, SmoothQuant-style equalization, and mixed-precision
  :class:`~repro.nn.calibration.QuantPolicy` search;
* :mod:`repro.nn.attention` -- multi-head attention with T5 relative
  position biases, taking a ``Tensor`` or a plain array like every module;
* :mod:`repro.nn.decode_cache` -- the paged, refcounted key/value arena
  incremental decoding keeps its history in;
* :mod:`repro.nn.transformer` -- a T5-style encoder--decoder LM whose greedy
  and beam-search generation run on one paged decode step;
* :mod:`repro.nn.rnn` -- a GRU sequence-to-sequence model with attention
  (the Seq2Vis baseline);
* :mod:`repro.nn.optim` -- Adam, gradient clipping and LR schedules.

Models are deliberately small (a few hundred thousand parameters) so the
whole benchmark suite trains in seconds on a CPU, but the architecture and
objectives are the same shape as the paper's.
"""

from repro.nn.tensor import Tensor, autocast, compute_dtype, no_grad
from repro.nn import functional
from repro.nn.decode_cache import PagedKVArena, PagedSequence
from repro.nn.layers import Module, Linear, Embedding, RMSNorm, Dropout, Parameter, asymmetric_int8, symmetric_int8
from repro.nn.calibration import (
    ActivationObserver,
    ActivationStats,
    QuantPolicy,
    apply_policy,
    calibrate_policy,
    collect_activation_stats,
    equalization_scales,
    observe_activations,
    quantizable_modules,
    sensitivity_scan,
    token_agreement,
)
from repro.nn.attention import MultiHeadAttention, RelativePositionBias
from repro.nn.transformer import PagedDecodeBatch, TransformerConfig, T5Model, TransformerEncoder, TransformerDecoder
from repro.nn.rnn import GRUCell, GRUEncoder, AttentionGRUDecoder, Seq2SeqModel
from repro.nn.optim import Adam, SGD, clip_grad_norm, LinearWarmupSchedule, ConstantSchedule

__all__ = [
    "Tensor",
    "no_grad",
    "autocast",
    "compute_dtype",
    "symmetric_int8",
    "asymmetric_int8",
    "ActivationObserver",
    "ActivationStats",
    "QuantPolicy",
    "apply_policy",
    "calibrate_policy",
    "collect_activation_stats",
    "equalization_scales",
    "observe_activations",
    "quantizable_modules",
    "sensitivity_scan",
    "token_agreement",
    "functional",
    "PagedKVArena",
    "PagedSequence",
    "Module",
    "Linear",
    "Embedding",
    "RMSNorm",
    "Dropout",
    "Parameter",
    "MultiHeadAttention",
    "RelativePositionBias",
    "TransformerConfig",
    "T5Model",
    "PagedDecodeBatch",
    "TransformerEncoder",
    "TransformerDecoder",
    "GRUCell",
    "GRUEncoder",
    "AttentionGRUDecoder",
    "Seq2SeqModel",
    "Adam",
    "SGD",
    "clip_grad_norm",
    "LinearWarmupSchedule",
    "ConstantSchedule",
]
