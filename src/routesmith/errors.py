"""Exception hierarchy shared across the package."""


class RoutesmithError(Exception):
    """Base class for all package errors."""


class ConfigError(RoutesmithError):
    """Invalid configuration value, file, or CLI flag combination."""


class InputError(RoutesmithError):
    """Malformed caller input, e.g. a customer id out of range."""


class StructuralError(RoutesmithError):
    """A solution's internal bookkeeping is inconsistent with its tours."""


class InstanceError(RoutesmithError):
    """An instance violates a precondition (e.g. unreachable time window)."""


class InstanceFormatError(RoutesmithError):
    """Instance file cannot be parsed or fails its checksum."""

    def __init__(self, message, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class OperatorProtocolError(RoutesmithError):
    """An operator returned something that cannot be sanitized at all."""


class RenderError(RoutesmithError):
    """Prompt rendering failed, typically a missing binding."""

    def __init__(self, message, slot: str | None = None):
        super().__init__(message)
        self.slot = slot


class ExtractionError(RoutesmithError):
    """No fenced code block could be extracted from a model response."""


class GatewayError(RoutesmithError):
    """Base class for LLM transport failures."""


class AuthError(GatewayError):
    """Terminal authentication/authorization failure (no retry)."""


class MalformedResponseError(GatewayError):
    """The endpoint answered but not in the expected chat-completion shape."""


class RetryExhaustedError(GatewayError):
    """Transient failures persisted beyond the retry budget."""


class BuildEnvironmentError(RoutesmithError):
    """The evaluation toolchain itself is unusable (aborts discovery)."""


class DiscoveryError(RoutesmithError):
    """The genetic search cannot proceed (e.g. every candidate disqualified)."""
