"""Exception types shared across the pipeline."""


class QAForgeError(Exception):
    pass


class ConfigError(QAForgeError):
    """Bad or inconsistent configuration; fatal before any stage runs."""


class IngestError(QAForgeError):
    """Unreadable corpus path or malformed source spec."""


class ConfigDriftError(QAForgeError):
    """Resume was asked to continue a run under a different config."""


class RunDirLockedError(QAForgeError):
    """Another process is running or resuming the same run dir."""


class GatewayError(QAForgeError):
    pass


class TransientProviderError(GatewayError):
    """Retryable provider failure (timeouts, throttling, 5xx)."""


class PermanentProviderError(GatewayError):
    """Non-retryable provider failure (auth, bad request, missing script entry)."""


class RequestRejectedError(PermanentProviderError):
    """The provider refused this one request (HTTP 400/413/422), e.g. as too long.

    Other requests can still succeed, so the pipeline drops the item instead of
    aborting the run.
    """


class TransportError(GatewayError):
    """Retries exhausted; carries the attempt count."""

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts


class StructuredParseError(GatewayError):
    """Response never produced the required fields, even after re-asks."""
