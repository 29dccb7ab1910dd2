"""Exception types shared across the package."""


class DagrlError(Exception):
    """Base class for all library errors."""


class IngestionError(DagrlError):
    """A required input file (dataset or config) is missing or unreadable."""


class DatasetFormatError(DagrlError):
    """Dataset content is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class ConfigurationError(DagrlError):
    """A run was configured in a way that cannot be executed."""


class ContractViolation(DagrlError, ValueError):
    """An operation was called outside its documented contract."""
