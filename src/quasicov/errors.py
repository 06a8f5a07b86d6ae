"""Shared exception types and the default resource caps."""

# Default cap on the group elements that one call may enumerate.
DEFAULT_MAX_GROUP_ORDER = 10_000

# Default cap on the work counted before a loop starts: the rows times columns
# of each kernel-oracle residue block, the generator images of a fixed-space
# walk, the action-axioms element pairs and the path-basis vectors.
DEFAULT_MAX_MATRIX_ENTRIES = 1_000_000


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured resource cap."""
