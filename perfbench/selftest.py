"""Self-test of the benchmark's checks and of its tracer.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It shows that the checker counts a failure for a tampered expected digest,
for a command forced to exit nonzero and for a round trip that does not
come back, and that two traced passes over the sentinel commands give the
same counts, equal to the recorded sentinels.  Exit code 0 when every
expectation holds.
"""

from __future__ import annotations

import sys

import harness
import run
import tracing
import workloads


def main() -> int:
    results = []

    def expect(label, ok, detail=""):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {label}" + (f": {detail}" if detail else ""))

    digests = harness.load_digests()
    cheap = workloads.Workload(
        "cheap", (workloads.FIXED["ideal"][2], workloads.FIXED["oracle"][1])
    )
    runner = harness.ChildRunner()
    attempted, failures = harness.run_pass(cheap, runner, digests)
    expect("recorded digests pass", attempted == 2 and not failures, failures)

    key = harness.command_key(cheap.fixed[0])
    tampered = dict(digests)
    tampered[key] = ("0" if digests[key][0] != "0" else "1") + digests[key][1:]
    _, failures = harness.run_pass(cheap, runner, tampered)
    expect("tampered digest counts as a failure",
           len(failures) == 1 and "digest" in failures[0], failures)

    capped = harness.ChildRunner({"QUASICOV_MAX_KERNEL_ENTRIES": "1"})
    _, failures = harness.run_pass(cheap, capped, digests)
    expect("command forced to exit 3 counts as a failure",
           len(failures) == 1 and "exit code 3" in failures[0], failures)

    trip = workloads.RoundTrip(3, 3, "quasi", (2, 3, 1), (1, 0, 0), "x1^2*x2")
    one_trip = workloads.Workload("trip", (), (trip,))
    _, failures = harness.run_pass(one_trip, runner, digests)
    expect("round trip with the true inverse passes", not failures, failures)
    inverse = workloads.inverse_element
    workloads.inverse_element = lambda tau, weights, m: (tau, weights)
    try:
        _, failures = harness.run_pass(one_trip, runner, digests)
    finally:
        workloads.inverse_element = inverse
    expect("round trip applying g twice counts as a failure",
           len(failures) == 1 and "give back" in failures[0], failures)

    sentinel_work = workloads.Workload(
        "sentinels", tuple(tuple(cmd.split()) for cmd in run.SENTINELS)
    )
    passes = []
    for _ in range(2):
        tracer = tracing.Tracer()
        _, failures = harness.run_pass(sentinel_work, tracing.InProcess(tracer), digests)
        expect("traced sentinel commands pass their checks", not failures, failures)
        passes.append(tracing.per_command_counts(tracer))
    expect("counts repeat exactly across two traced passes", passes[0] == passes[1])
    for cmd, expected in run.SENTINELS.items():
        actual = {name: passes[0][cmd].get(name, 0) for name in expected}
        expect(f"sentinel counts of `{cmd}`", actual == expected, actual)

    print(f"{sum(results)} of {len(results)} expectations hold")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
