"""Running `quasicov` commands and checking what they print.

A command is an argv tuple for `python -m quasicov`.  An executor runs one
command and returns (exit code, stdout bytes); ``ChildRunner`` does so in a
fresh process and ``tracing.InProcess`` through ``quasicov.cli.main``.
``run_pass`` drives one pass over a workload with either executor and
checks every output, so both modes apply the same checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS_FILE = HERE / "expected_digests.json"

# Linux refuses a single exec argument of 128 KiB or more.
MAX_ARG_BYTES = 128 * 1024 - 1

CHILD_TIMEOUT_S = 120.0

# Seconds per calibration round when the machine runs at its reference
# speed: the median on a 2-vCPU x86-64 VM with Python 3.11.7.
CALIBRATION_REF_S = 0.0044
# Each command is bracketed by calibration before and after it, each lasting
# this share of the command's previous wall time, and at least the minimum;
# while the child runs, one round is probed every interval.
CALIBRATION_SHARE = 0.02
CALIBRATION_MIN_S = 0.03
PROBE_INTERVAL_S = 0.1


def command_key(argv) -> str:
    return " ".join(argv)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def check_source_tree() -> None:
    """Raise when the checkout does not hold the package to benchmark."""
    if not (SRC / "quasicov" / "cli.py").is_file():
        raise FileNotFoundError(f"no quasicov package under {SRC}")


# ---- fresh-process executor ------------------------------------------------

def _calibration_round():
    table = {}
    total = Fraction(0)
    for i in range(1, 1000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
        total += Fraction(i % 13 + 1, i % 7 + 1)
        if i % 64 == 0:
            total = Fraction(total.numerator % 1009, total.denominator % 1013 + 1)


def calibrate(seconds: float) -> float:
    """Mean seconds per round of a fixed pure-Python loop of Fraction, tuple
    and dict work, the kind the package does, run for at least `seconds`:
    a sample of how fast this machine runs Python at this moment.

    On a shared machine the speed of the CPU drifts by 20-30 % over tens of
    seconds, and commands slow down with it.  Samples taken around and
    during each command track that drift, and dividing by them cancels most
    of it.  With `seconds` 0 it runs one round.
    """
    start = time.perf_counter()
    rounds = 0
    while True:
        _calibration_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / rounds


def _drain(proc, deadline, probes):
    """Read stdout and stderr to EOF; kill the child once the deadline passes.

    Both pipes are drained together so a child writing much to either one
    never blocks; the child is reaped afterwards with wait4.  Meanwhile one
    calibration round, a few milliseconds, is appended to `probes` every
    PROBE_INTERVAL_S.
    """
    chunks = {proc.stdout: [], proc.stderr: []}
    next_probe = time.monotonic() + PROBE_INTERVAL_S
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            now = time.monotonic()
            if now >= deadline and proc.poll() is None:
                proc.kill()
            if now >= next_probe:
                probes.append(calibrate(0))
                next_probe = time.monotonic() + PROBE_INTERVAL_S
            timeout = max(min(deadline, next_probe) - time.monotonic(), 0.0)
            for key, _ in sel.select(timeout=timeout):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


class ChildRunner:
    """Runs each command as `python -m quasicov ...` and sums its cost.

    Since the last ``reset``: ``wall_s`` and ``cpu_s`` sum the commands'
    costs as measured, ``peak_rss_kb`` is the largest max-RSS of any of
    them, and ``ref_wall_s`` and ``ref_cpu_s`` sum the same costs scaled to
    the reference speed, each command by the mean of the calibrations
    before, during and after it.  CPU and RSS come from wait4 on each
    child, so only the child is counted.
    """

    def __init__(self, extra_env=None):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.update(extra_env or {})
        self.last_wall_s = {}
        self.reset()

    def reset(self):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.ref_wall_s = 0.0
        self.ref_cpu_s = 0.0
        self.peak_rss_kb = 0

    def __call__(self, argv):
        span = max(CALIBRATION_MIN_S, CALIBRATION_SHARE * self.last_wall_s.get(argv, 0.0))
        before = calibrate(span)
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-m", "quasicov", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=ROOT,
            env=self.env,
        ) as proc:
            probes = []
            out, _ = _drain(proc, time.monotonic() + CHILD_TIMEOUT_S, probes)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        samples = [before, calibrate(span)]
        if probes:
            samples.append(statistics.mean(probes))
        scale = CALIBRATION_REF_S / statistics.mean(samples)
        cpu = usage.ru_utime + usage.ru_stime
        self.last_wall_s[argv] = wall
        self.wall_s += wall
        self.cpu_s += cpu
        self.ref_wall_s += wall * scale
        self.ref_cpu_s += cpu * scale
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out


# ---- output checks ---------------------------------------------------------

def closed_series(n: int, m: int) -> list:
    """Coefficients of ((1-t^m)/(1-t))^n * D_n(t^m), D_n the ballot series.

    Written out here, apart from the package, so the Groebner output is
    checked against a formula the package does not compute for it.
    """
    coeffs = [1]
    for _ in range(n):
        grown = [0] * (len(coeffs) + m - 1)
        for i, c in enumerate(coeffs):
            for j in range(m):
                grown[i + j] += c
        coeffs = grown
    ballot = [(n - k) * comb(n + k, k) // (n + k) for k in range(n)]
    out = [0] * (len(coeffs) + (n - 1) * m)
    for i, c in enumerate(coeffs):
        for k, b in enumerate(ballot):
            out[i + k * m] += c * b
    while out and out[-1] == 0:
        out.pop()
    return out


def _parse_doc(code, out):
    """The JSON document of a successful command, or an error string."""
    if code != 0:
        return None, f"exit code {code}"
    try:
        doc = json.loads(out)
    except ValueError:
        return None, "stdout is not JSON"
    failing = [c.get("name") for c in doc.get("checks", []) if c.get("pass") is not True]
    if failing:
        return None, f"failed checks {failing}"
    return doc, None


def _check_groebner(doc):
    n, m = doc["n"], doc["m"]
    sms = doc["result"]["standard_monomials"]
    target = m**n * comb(2 * n, n) // (n + 1)
    if not sms["complete"]:
        return "standard monomials not complete"
    if sms["count"] != target or len(sms["monomials"]) != target:
        return f"standard-monomial count {sms['count']} != m^n*catalan(n) = {target}"
    if sms["histogram"] != closed_series(n, m):
        return "standard-monomial histogram differs from the closed series"
    return None


def check_fixed(argv, code, out, digests):
    """None when a fixed command's output is right, else the reason."""
    doc, error = _parse_doc(code, out)
    if error:
        return error
    expected = digests.get(command_key(argv))
    if expected is None:
        return "no recorded digest"
    if sha256(out) != expected:
        return "stdout digest differs from the recorded one"
    if argv[0] == "groebner":
        return _check_groebner(doc)
    return None


def run_pass(work, execute, digests):
    """Run every command of the workload once; return (attempted, failures).

    A round trip applies g, then g^-1 to the first output, and must give
    back the generated polynomial text exactly.  When the forward command
    fails, the backward one is counted as attempted and failed.
    """
    attempted = 0
    failures = []

    def fail(argv, reason):
        failures.append(f"{command_key(argv)[:120]}: {reason}")

    for argv in work.fixed:
        attempted += 1
        code, out = execute(argv)
        reason = check_fixed(argv, code, out, digests)
        if reason:
            fail(argv, reason)
    for trip in work.round_trips:
        attempted += 2
        forward = trip.forward_argv()
        doc, reason = _parse_doc(*execute(forward))
        if not reason and doc["result"]["input"] != trip.poly:
            reason = "rendered input differs from the generated polynomial"
        if reason:
            fail(forward, reason)
            fail(forward, "backward command not run")
            continue
        backward = trip.backward_argv(doc["result"]["output"])
        if any(len(arg.encode()) > MAX_ARG_BYTES for arg in backward):
            fail(backward, "image polynomial exceeds the argument limit")
            continue
        doc, reason = _parse_doc(*execute(backward))
        if not reason and doc["result"]["output"] != trip.poly:
            reason = "g^-1 applied to g.p does not give back p"
        if reason:
            fail(backward, reason)
    return attempted, failures
