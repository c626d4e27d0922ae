"""Exception hierarchy shared by every subsystem of the reproduction.

Keeping all exceptions in one module lets downstream code catch the broad
:class:`ReproError` when it only cares about "something inside the library
failed", while tests and callers that need precision can catch the specific
subclass raised by the relevant subsystem.

These exceptions are a *library-level* contract: they propagate to callers
that invoke subsystems directly.  The serving layer deliberately does not
expose them to traffic — admission control and per-request failures surface
as structured error responses whose machine-readable codes live in one
place, :data:`repro.serving.protocol.ERROR_CODE_MEANINGS` (an exception
caught during serving becomes an ``invalid_request`` or ``backend_error``
response; the reconciliation is tested by
``tests/test_serving_protocol_codes.py``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class VQLSyntaxError(ReproError):
    """Raised when a DV query cannot be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class VQLValidationError(ReproError):
    """Raised when a syntactically valid DV query is inconsistent with a schema."""


class SchemaError(ReproError):
    """Raised for malformed database schemas (duplicate tables, unknown columns...)."""


class ExecutionError(ReproError):
    """Raised when the relational engine cannot execute a DV query."""


class TokenizationError(ReproError):
    """Raised when text cannot be encoded or decoded by the tokenizer."""


class ModelConfigError(ReproError):
    """Raised for invalid neural-network or training configuration."""


class ServingStateError(ReproError):
    """Raised when the serving layer's runtime state is used out of order.

    Distinct from :class:`ModelConfigError` (a *configuration* was invalid):
    this marks a correct configuration driven through an invalid state
    transition at runtime — a serving backend returning the wrong number of
    outputs for a batch, a continuous-decode ticket consumed mid-flight or
    failed by an engine error.
    """


class DatasetError(ReproError):
    """Raised when a synthetic corpus cannot be generated or partitioned."""


class CorpusEmptyError(ReproError):
    """Raised when a corpus-QA request finds no retrievable documents.

    The deployment serves ``corpus_qa`` but its :class:`~repro.datasets.
    corpus.CorpusIndex` holds zero documents (or retrieval produced no
    candidates), so there is no context to ground an answer in.  The serving
    layer folds this into the structured ``corpus_empty`` error code.
    """


class IndexMismatchError(ReproError):
    """Raised when a request's corpus-index fingerprint pin does not match.

    A ``corpus_qa`` request may pin the exact retrieval index it was built
    against (``Request.index = "sha256:..."``); if the serving deployment's
    loaded :class:`~repro.datasets.corpus.CorpusIndex` hashes differently the
    answer would be grounded in a corpus the caller never saw.  The serving
    layer folds this into the structured ``index_mismatch`` error code.
    """


class EvaluationError(ReproError):
    """Raised when an evaluation harness receives inconsistent inputs."""
