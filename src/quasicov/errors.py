"""Shared exception types and the default resource caps."""

# Fixed guard on the group elements that enumerate_group builds; the
# action-axioms pairs cap below keeps the order to 1000 at its default.
DEFAULT_MAX_GROUP_ORDER = 10_000

# Default cap on the work counted before a loop starts: the (rows + n) times
# columns of each kernel-oracle level, its m^n residues, the fixed-space walk's
# generator images times n, the action-axioms pairs and the path-basis vectors.
DEFAULT_MAX_MATRIX_ENTRIES = 1_000_000


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured resource cap."""


def count_text(count: int) -> str:
    """``count`` in decimal, or "at least 10^k" once it has more digits than
    Python converts to text: 3/10 < log10(2), so 10^k <= count."""
    try:
        return str(count)
    except ValueError:
        return f"at least 10^{(count.bit_length() - 1) * 3 // 10}"
