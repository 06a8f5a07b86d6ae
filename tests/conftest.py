"""Test-wide settings.

Property tests run under a derandomized hypothesis profile: every run draws
the same examples, writes no example database and has no per-example
deadline, so the suite stays deterministic and free of timing flakes.

The tests that run ``python -m quasicov`` in a child process need the
package importable there too, so ``src`` goes first on PYTHONPATH.
"""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, max_examples=40
)
settings.load_profile("deterministic")

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
