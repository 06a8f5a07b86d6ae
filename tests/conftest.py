"""Test-wide settings.

Property tests run under a derandomized hypothesis profile: every run draws
the same examples, writes no example database and has no per-example
deadline, so the suite stays deterministic and free of timing flakes.
"""

from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, max_examples=40
)
settings.load_profile("deterministic")
