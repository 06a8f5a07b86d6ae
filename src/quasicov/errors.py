"""Shared exception types and the default resource caps."""

# Default cap on the group elements that one call may enumerate.
DEFAULT_MAX_GROUP_ORDER = 10_000

# Default cap on the work of the two callers that build systems by degree:
# the rows times columns of each residue block of the kernel oracle, and the
# generator images walked for a fixed space.
DEFAULT_MAX_MATRIX_ENTRIES = 1_000_000


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured resource cap."""
