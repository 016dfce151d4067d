"""Exception taxonomy shared by all corpuscausal modules."""


class CorpusCausalError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CorpusCausalError):
    """An input file, record or configuration value is unreadable or invalid.

    The CLI exits 1 on these and 2 on every other `CorpusCausalError`.
    """


# --- graph ---------------------------------------------------------------


class CyclicGraphError(CorpusCausalError):
    """A directed cycle was found where a DAG is required."""


class UnknownNodeError(CorpusCausalError):
    """A node name does not exist in the graph."""


class DuplicateNodeError(CorpusCausalError):
    """A node name was declared more than once."""


class OverlappingSetsError(CorpusCausalError):
    """Query endpoints overlap with the conditioning set (or each other)."""


# --- estimator -----------------------------------------------------------


class UnknownColumnError(CorpusCausalError):
    """A named column does not exist in the table."""


class EmptyTableError(CorpusCausalError):
    """The observation table has no rows."""


class PositivityError(CorpusCausalError):
    """No confounder stratum contains both treatment arms."""


class NotNormalizedError(CorpusCausalError):
    """A joint distribution's probability mass does not sum to 1."""


# --- corpus --------------------------------------------------------------


class IoFailureError(InputError):
    """An underlying file operation failed."""


class EncodingError(InputError):
    """Input bytes are not valid UTF-8."""


class MalformedPatternError(InputError):
    """A template does not contain exactly one [X] and one [Y] slot."""


class EmptyCandidateSetError(CorpusCausalError):
    """An argmax was requested over an empty candidate mapping."""


# --- kb / predictions ----------------------------------------------------


class ParseError(InputError):
    """A record could not be parsed; carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyKbError(InputError):
    """A knowledge-base file yielded zero triplets."""


class UnknownRelationError(InputError):
    """A relation id is not present in the knowledge base."""


class CandidateViolationError(InputError):
    """A prediction lies outside its relation's candidate set."""


class DuplicateKeyError(InputError):
    """Two prediction records share the same (subject, relation, template) key."""


class MissingStatsError(InputError):
    """A corpus index is required but was not supplied."""


class MissingReferenceError(CorpusCausalError):
    """No reference object is defined for an outcome comparison."""


# --- population / pipeline -----------------------------------------------


class MissingPredictionError(CorpusCausalError):
    """Population rows have cloze keys not covered by the prediction set."""

    def __init__(self, message, missing=()):
        super().__init__(message)
        self.missing = tuple(missing)


class EmptyPopulationError(CorpusCausalError):
    """A population table ended up with no matched pairs."""


class IncompleteReportError(CorpusCausalError):
    """Some hypotheses have no estimate; the report written holds the others."""


class ConfigError(InputError):
    """A run configuration value is missing or invalid."""
