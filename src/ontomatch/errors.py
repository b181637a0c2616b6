"""Exception types raised across the toolkit.

Every error below derives from :class:`OntomatchError` so callers can catch
the whole family with one clause.  The CLI maps :class:`ConfigError` to exit
code 1 and everything else to exit code 2.
"""

from __future__ import annotations


class OntomatchError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(OntomatchError):
    """Invalid, missing, or contradictory configuration."""


class MalformedDocument(OntomatchError):
    """A document could not be parsed.

    Carries the source line/column when the underlying parser reports one.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            suffix = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
            message = message + suffix
        super().__init__(message)
        self.line = line
        self.column = column


class UnsupportedFormat(OntomatchError):
    """A file suffix the parser does not handle."""


class MissingEntity(OntomatchError):
    """An alignment cell lacks one of its two entity references."""


class EmptyOntology(OntomatchError):
    """An operation needs at least one concept but the ontology has none."""


class EmptyCorpus(OntomatchError):
    """An operation needs at least one text but the corpus has none."""


class ViewMismatch(OntomatchError):
    """Two corpora were encoded under different views."""


class DimensionMismatch(OntomatchError):
    """Vector rows of inconsistent dimensionality."""


class EndpointUnreachable(OntomatchError):
    """The HTTP provider could not be reached (connection or timeout)."""


class ProviderError(OntomatchError):
    """The HTTP provider answered with a non-success status."""

    def __init__(self, status: int, body_excerpt: str):
        super().__init__(f"provider returned status {status}: {body_excerpt}")
        self.status = status
        self.body_excerpt = body_excerpt


class TemplateError(ConfigError):
    """A prompt template is missing a required placeholder."""


class PairCapExceeded(OntomatchError):
    """The pairwise workload is larger than the configured hard cap."""


class InvalidScore(OntomatchError):
    """A correspondence score fell outside [0, 1]."""
