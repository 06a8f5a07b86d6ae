"""Benchmark of the `quasicov` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ideal --seed 1 --seconds 20 --trace 0

One closed-loop client runs the workload's `python -m quasicov ... --json`
commands as sequential child processes, one at a time, and checks every
output.  With ``--trace 0`` it reports, as medians over the passes that fit
in ``--seconds``:

- ``wall_s``: wall seconds of one pass, summed over its commands;
- ``cpu_s``: user+sys CPU seconds of the pass's child processes;
- ``setup_s``: wall seconds of a fresh `basis --n 1 --m 1 --json`, the fixed
  cost of every command (median of several, taken before the passes);
- ``peak_rss_mb``: the largest max-RSS of any child in a pass.

``wall_s`` and ``cpu_s`` are scaled to a reference machine speed by a
calibration loop timed around and during each command (see
``harness.calibrate``); their medians as measured are printed too.

With ``--trace 1`` it runs the same commands in this process through
``quasicov.cli.main`` instead, alternating untraced and traced passes, and
reports the per-layer metrics of ``tracing.PER_LAYER``; spans and counts go
to ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any wrong output or exit code is
a failure; ``failed / attempted`` is printed as ``failed_frac`` on the line
before it, and the exit code is then 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import harness
import tracing
import workloads

OUT_DIR = harness.HERE / "out"

SETUP_SAMPLES = 9

# Expected counts at fixed commands; a change to the Groebner engine may
# move them on purpose, so a traced run reports them and does not fail.
SENTINELS = {
    "groebner --n 5 --m 2 --json": {
        "groebner.basis_in": 119, "groebner.spairs_reduced": 155, "groebner.spairs_zero": 153,
    },
    "groebner --n 6 --m 1 --json": {
        "groebner.basis_in": 63, "groebner.spairs_reduced": 81, "groebner.spairs_zero": 63,
    },
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def git_revision():
    if not (harness.ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=harness.ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or None


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "load_1m_start": os.getloadavg()[0],
    }


def _until(seconds, step):
    """Run step() at least once, then again while another one is expected
    to end within `seconds` of the start."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def _costs(runner) -> dict:
    """The runner's costs since its last reset, scaled and as measured."""
    return {
        "wall_s": runner.ref_wall_s,
        "cpu_s": runner.ref_cpu_s,
        "peak_rss_mb": runner.peak_rss_kb / 1024,
        "measured_wall_s": runner.wall_s,
        "measured_cpu_s": runner.cpu_s,
    }


def measure(work, digests, seconds) -> dict:
    runner = harness.ChildRunner()
    attempted, failures = 0, []
    setup = []
    for sample in range(SETUP_SAMPLES + 1):  # the first one warms the caches
        runner.reset()
        code, out = runner(workloads.SETUP_ARGV)
        attempted += 1
        reason = harness.check_fixed(workloads.SETUP_ARGV, code, out, digests)
        if reason:
            failures.append(f"setup: {reason}")
        if sample:
            setup.append(_costs(runner))
    passes = []

    def one_pass():
        nonlocal attempted
        runner.reset()
        count, errors = harness.run_pass(work, runner, digests)
        attempted += count
        failures.extend(errors)
        passes.append(_costs(runner))

    _until(seconds, one_pass)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(s["measured_wall_s"] for s in setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    measured = {
        "wall_s": statistics.median(p["measured_wall_s"] for p in passes),
        "cpu_s": statistics.median(p["measured_cpu_s"] for p in passes),
    }
    return {
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
        "measured": measured,
        "passes": passes,
        "setup_samples": setup,
    }


def measure_traced(work, digests, seconds) -> dict:
    attempted, failures = 0, []
    untraced, traced = [], []
    last = None

    def cycle():
        nonlocal attempted, last
        for tracer in (None, tracing.Tracer()):
            runner = tracing.InProcess(tracer)
            count, errors = harness.run_pass(work, runner, digests)
            attempted += count
            failures.extend(errors)
            if tracer is None:
                untraced.append(runner.wall_s)
            else:
                traced.append((runner.wall_s, tracing.layer_metrics(tracer), tracer))
                last = tracer

    _until(seconds, cycle)
    metrics = {}
    for name in tracing.PER_LAYER[:-1]:
        values = [m[name] for _, m, _ in traced]
        metrics[name] = statistics.median(values) if name.endswith("_s") else values[-1]
    metrics["trace.overhead_s"] = (
        statistics.median(w for w, _, _ in traced) - statistics.median(untraced)
    )
    counts = [tracing.per_command_counts(t) for _, _, t in traced]
    by_command = counts[-1]
    sentinels = {
        cmd: {name: {"expected": want, "actual": by_command[cmd].get(name, 0)}
              for name, want in expected.items()}
        for cmd, expected in SENTINELS.items() if cmd in by_command
    }
    return {
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
        "untraced_pass_s": untraced,
        "traced_pass_s": [w for w, _, _ in traced],
        "counts_repeat": all(c == by_command for c in counts),
        "sentinels_hold": all(v["expected"] == v["actual"]
                              for s in sentinels.values() for v in s.values()),
        "sentinels": sentinels,
        "layer_self_share": tracing.layer_shares(last),
        "counts_by_command": by_command,
        "spans": [[name, round(start - last.spans[0][1], 9), round(end - last.spans[0][1], 9),
                   parent, command] for name, start, end, parent, command, _ in last.spans],
    }


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".density")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.check_source_tree()
        digests = harness.load_digests()
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2

    meta = metadata(args)
    work = workloads.build(args.workload, args.seed)
    run = (measure_traced if args.trace else measure)(work, digests, args.seconds)
    meta["load_1m_end"] = os.getloadavg()[0]

    failed = len(run["failures"])
    record = {"meta": meta, **run}
    OUT_DIR.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "run"
    with open(OUT_DIR / f"{kind}-{args.workload}-seed{args.seed}.json", "w") as handle:
        json.dump(record, handle, indent=1)

    for reason in run["failures"][:20]:
        print(f"FAILED {reason}")
    print("meta " + json.dumps(meta))
    for name, value in run["metrics"].items():
        print(f"{name} {value if isinstance(value, int) else f'{value:.6g}'} {unit_of(name)}")
    for name, value in run.get("measured", {}).items():
        print(f"measured {name} {value:.6g} s (before scaling to reference speed)")
    if args.trace:
        print("layer self-time share " + json.dumps(
            {k: round(v, 4) for k, v in run["layer_self_share"].items()}))
        print(f"counts repeat across traced passes: {run['counts_repeat']}; "
              f"sentinel counts hold: {run['sentinels_hold']}")
    print(f"failed_frac {failed / run['attempted']:.6g} ({failed} of {run['attempted']} commands)")
    result = {
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in run["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
