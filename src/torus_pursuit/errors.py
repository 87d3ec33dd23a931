"""Exception types shared across the package."""


class SingularityError(ValueError):
    """An operation hit a zero-distance configuration it cannot evaluate."""


class EpisodeDoneError(RuntimeError):
    """step() was called on a state whose episode has already ended."""


class BufferNotReadyError(RuntimeError):
    """A replay buffer was sampled before it held a full batch."""


class ConfigError(ValueError):
    """Configuration failed validation; the message carries the field path."""


class DigestMismatchError(ValueError):
    """A checkpoint's config digest does not match the supplied config."""


class SchemaVersionError(ValueError):
    """An emitted file declares a schema this code does not understand."""


class TrajectoryParseError(ValueError):
    """A trajectory CSV row is malformed; the message carries the line number."""


class CheckpointIntegrityError(ValueError):
    """A checkpoint's array sidecar is missing or differs from what its manifest records."""
