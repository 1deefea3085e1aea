"""Exception types shared across the package."""

from __future__ import annotations


class ConfigurationError(Exception):
    """Bad user input: unreadable source, unknown branch, invalid options."""


class RepositoryNotFoundError(ConfigurationError):
    pass


class BranchNotFoundError(ConfigurationError):
    pass


class BundleFormatError(ConfigurationError):
    """A history bundle violates the manifest schema or references a missing blob."""


class GitError(ConfigurationError):
    """A git command failed, printed output that does not parse, or lacks an object."""


class PipelineOrderError(RuntimeError):
    """Commits were classified or indexed out of order; signals a pipeline bug."""
