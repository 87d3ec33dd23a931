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
    """A trajectory CSV is malformed; the message names the file and, where one
    line is at fault, its line number."""


class AnalysisInputError(ValueError):
    """Trajectory logs parse but cannot be analyzed together: they hold no
    episodes, or one ratio's episodes have different pursuer counts."""


class CheckpointIntegrityError(ValueError):
    """A checkpoint's sidecar is missing or differs from what its manifest records,
    or its manifest does not describe one team (a field missing, agents disagreeing)."""
