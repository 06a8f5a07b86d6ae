"""Record the sha256 of each fixed command's stdout into expected_digests.json.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/record_digests.py

Every command must exit 0 with all its checks passing; the file is not
written otherwise.
"""

from __future__ import annotations

import json
import sys

import harness
import workloads


def main() -> int:
    runner = harness.ChildRunner()
    digests = {}
    commands = [workloads.SETUP_ARGV]
    for name in workloads.WORKLOADS:
        commands.extend(workloads.FIXED[name])
    for argv in commands:
        code, out = runner(argv)
        doc = json.loads(out) if code == 0 else None
        if doc is None or not all(c["pass"] for c in doc["checks"]):
            print(f"not recorded: {harness.command_key(argv)} exited {code}", file=sys.stderr)
            return 1
        digests[harness.command_key(argv)] = harness.sha256(out)
        print(f"{harness.sha256(out)}  {harness.command_key(argv)}")
    with open(harness.DIGESTS_FILE, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
