"""Command-line behaviour: outputs, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from quasicov.cli import _json_text, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv + ["--json"], capsys)
    return code, json.loads(out), err


# The benchmark's fixed commands and the sha256 of their recorded stdout.
RECORDED_DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expected_digests.json")
    .read_text(encoding="utf-8")
)


@pytest.mark.parametrize("command", list(RECORDED_DIGESTS))
def test_stdout_matches_the_recorded_digest(command, capsys):
    code, out, _ = run_cli(command.split(" "), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == RECORDED_DIGESTS[command]


def test_groebner_json_at_7_1_keeps_its_bytes(capsys):
    code, out, _ = run_cli(["groebner", "--n", "7", "--m", "1", "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "4d747bbd6e699d2162472079ef997dbac1952403ff536a0358a5c646727e8875"
    )


def test_groebner_json_at_6_2_keeps_its_bytes(capsys):
    code, out, _ = run_cli(["groebner", "--n", "6", "--m", "2", "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "b40a6feda99ea061b9cd7afd7b56c2709fccd1972941d73eb86041e7b2072ab8"
    )


def test_act_worked_example(capsys):
    code, out, _ = run_cli(
        [
            "act",
            "--n", "3", "--m", "3",
            "--element", "tau=3,1,2;weights=1,0,1",
            "--poly", "x1^2*x2",
            "--action", "quasi",
        ],
        capsys,
    )
    assert code == 0
    assert "output: (-1-z)*x1^2*x3" in out


def test_act_classical_variant(capsys):
    code, doc, _ = run_json(
        [
            "act",
            "--n", "3", "--m", "3",
            "--element", "tau=3,1,2;weights=1,0,1",
            "--poly", "x1^2*x2",
            "--action", "classical",
        ],
        capsys,
    )
    assert code == 0
    assert doc["result"]["output"] == "(-1-z)*x1*x3^2"


def test_act_identity_fixes(capsys):
    code, doc, _ = run_json(
        [
            "act",
            "--n", "2", "--m", "2",
            "--element", "tau=1,2;weights=0,0",
            "--poly", "x1*x2 + 3*x2",
        ],
        capsys,
    )
    assert code == 0
    assert doc["result"]["output"] == "x1*x2 + 3*x2"


def test_basis_command(capsys):
    code, doc, _ = run_json(["basis", "--n", "2", "--m", "2"], capsys)
    assert code == 0
    assert doc["result"]["count"] == 8
    assert doc["result"]["histogram"] == [1, 2, 2, 2, 1]
    assert doc["checks"][0]["pass"] is True

    code, doc, _ = run_json(["basis", "--n", "1", "--m", "1"], capsys)
    assert code == 0
    assert doc["result"]["count"] == 1
    assert doc["result"]["monomials"] == [[0]]

    code, doc, _ = run_json(["basis", "--n", "3", "--m", "1"], capsys)
    assert code == 0
    assert doc["result"]["count"] == 5


def test_groebner_command(capsys):
    code, doc, _ = run_json(["groebner", "--n", "2", "--m", "1"], capsys)
    assert code == 0
    assert doc["result"]["basis"] == ["x1 + x2", "x2^2"]
    assert doc["result"]["standard_monomials"]["complete"] is True

    code, doc, _ = run_json(["groebner", "--n", "2", "--m", "2"], capsys)
    assert doc["result"]["basis"] == ["x1^2 + x2^2", "x2^4"]

    code, doc, _ = run_json(["groebner", "--n", "1", "--m", "3"], capsys)
    assert doc["result"]["basis"] == ["x1^3"]


def test_dim_methods(capsys):
    code, doc, _ = run_json(["dim", "--n", "3", "--m", "2", "--method", "groebner"], capsys)
    assert code == 0 and doc["result"]["dimension"] == 40

    code, doc, _ = run_json(["dim", "--n", "1", "--m", "1", "--method", "harmonic"], capsys)
    assert code == 0 and doc["result"]["dimension"] == 1

    code, doc, _ = run_json(["dim", "--n", "2", "--m", "3", "--method", "basis"], capsys)
    assert code == 0 and doc["result"]["dimension"] == 18


def test_series_command(capsys):
    code, doc, _ = run_json(["series", "--n", "2", "--m", "2"], capsys)
    assert code == 0
    assert doc["result"]["series"] == "1 + 2t + 2t^2 + 2t^3 + t^4"
    assert doc["result"]["single_prefactor_variant"]["matches"] is False


@pytest.mark.parametrize(
    "suite", ["propu", "ppp", "main", "hilbert", "chevalley", "action-axioms"]
)
def test_verify_suites_pass(suite, capsys):
    code, doc, _ = run_json(["verify", "--suite", suite, "--n", "2", "--m", "2"], capsys)
    assert code == 0
    assert doc["result"]["status"] == "pass"
    assert all(c["pass"] for c in doc["checks"])


def test_verify_names_first_failing_check(capsys, monkeypatch):
    # force a cap small enough that the kernel oracle cannot run
    monkeypatch.setenv("QUASICOV_MAX_GROUP_ORDER", "1")
    code, out, err = run_cli(
        ["verify", "--suite", "action-axioms", "--n", "2", "--m", "2"], capsys
    )
    assert code == 3
    assert "resource limit" in err


def test_kernel_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("QUASICOV_MAX_KERNEL_ENTRIES", "10")
    code, _, err = run_cli(["dim", "--n", "2", "--m", "2", "--method", "harmonic"], capsys)
    assert code == 3
    assert "resource limit" in err


@pytest.mark.parametrize("n,m,dimension", [(4, 3, 1134), (4, 4, 3584)])
def test_harmonic_dim_runs_inside_the_default_cap(n, m, dimension, capsys):
    argv = ["dim", "--n", str(n), "--m", str(m), "--method", "harmonic"]
    code, doc, _ = run_json(argv, capsys)
    assert code == 0
    assert doc["result"]["dimension"] == dimension == m**n * 14


def test_kernel_cap_env_override_counts_each_residue_block(capsys, monkeypatch):
    """The largest residue block of n = 4 has 64 rows and 35 columns."""
    argv = ["dim", "--n", "4", "--m", "3", "--method", "harmonic"]
    monkeypatch.setenv("QUASICOV_MAX_KERNEL_ENTRIES", str(64 * 35 - 1))
    code, _, err = run_cli(argv, capsys)
    assert code == 3
    assert "resource limit" in err
    monkeypatch.setenv("QUASICOV_MAX_KERNEL_ENTRIES", str(64 * 35))
    code, doc, _ = run_json(argv, capsys)
    assert code == 0 and doc["result"]["dimension"] == 1134


def test_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense", "--n", "2", "--m", "2"])
    assert exc.value.code == 2


def test_bad_polynomial_is_a_usage_error(capsys):
    code, _, err = run_cli(
        [
            "act",
            "--n", "2", "--m", "2",
            "--element", "tau=1,2;weights=0,0",
            "--poly", "x1 + spam",
        ],
        capsys,
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "element,poly",
    [
        ("tau=1,2;weights=0,0", "1/0*x1"),
        ("tau=1,2;weights=0,0", "(1/0)*x1"),
        ("tau=2,1;weights=1,0;tau=1,2", "x1"),
    ],
)
def test_bad_act_input_is_a_usage_error(element, poly, capsys):
    code, _, err = run_cli(
        ["act", "--n", "2", "--m", "2", "--element", element, "--poly", poly],
        capsys,
    )
    assert code == 2
    assert err.startswith("error:")


def test_negative_degree_bound_is_a_usage_error(capsys):
    argv = ["groebner", "--n", "2", "--m", "1", "--degree-bound"]
    code, out, err = run_cli(argv + ["-1"], capsys)
    assert code == 2
    assert out == "" and err.startswith("error:")
    # bound 0 is accepted and truthfully reports an incomplete set
    code, doc, _ = run_json(argv + ["0"], capsys)
    assert code == 0
    assert doc["result"]["standard_monomials"]["complete"] is False


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "basis.json"
    code, out, err = run_cli(
        ["basis", "--n", "2", "--m", "1", "--out", str(target)], capsys
    )
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_closed_stdout_is_a_usage_error():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quasicov", "groebner", "--n", "2", "--m", "1",
             "--degree-bound", "1", "--json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=300,
        )
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_bad_n_is_rejected(capsys):
    code, _, err = run_cli(["basis", "--n", "0", "--m", "1"], capsys)
    assert code == 2


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "basis.json"
    code, out, _ = run_cli(
        ["basis", "--n", "2", "--m", "1", "--json", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["result"]["count"] == 2


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
_JSON_KEYS = st.text() | st.integers() | st.booleans() | st.none() | st.floats()
_JSON_VALUES = st.recursive(
    _JSON_SCALARS | st.lists(st.lists(st.integers())),
    lambda inner: (
        st.lists(inner)
        | st.lists(inner).map(tuple)
        | st.dictionaries(_JSON_KEYS, inner)
    ),
    max_leaves=40,
)


@given(_JSON_VALUES)
def test_json_writer_equals_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_json_writer_on_documents_with_int_rows():
    doc = {"n": 2, "rows": [[0, 1], [2, 3]], "flat": [1, -2], "mixed": [[1], [True]], "e": [[]]}
    assert _json_text(doc) == json.dumps(doc, indent=2)


def test_out_file_holds_the_indented_json(tmp_path, capsys):
    argv = ["groebner", "--n", "3", "--m", "2", "--json"]
    target = tmp_path / "groebner.json"
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert run_cli(argv + ["--out", str(target)], capsys)[:2] == (0, "")
    text = target.read_text(encoding="utf-8")
    assert text == out == json.dumps(json.loads(text), indent=2) + "\n"


def _run_subprocess(argv):
    return subprocess.run(
        [sys.executable, "-m", "quasicov", *argv],
        capture_output=True,
        timeout=300,
    )


def test_cross_process_byte_determinism():
    argv = ["verify", "--suite", "main", "--n", "2", "--m", "2", "--json"]
    first = _run_subprocess(argv)
    second = _run_subprocess(argv)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout

    argv = ["groebner", "--n", "3", "--m", "2", "--json"]
    first = _run_subprocess(argv)
    second = _run_subprocess(argv)
    assert first.returncode == 0
    assert first.stdout == second.stdout


@pytest.mark.parametrize(
    "poly,message",
    [
        ("(1/0)*x1", "error: cannot parse cyclotomic term '1/0' in '1/0'\n"),
        ("x0", "error: variable x0 out of range 1..2\n"),
        ("x1+x2", "error: cannot parse factor 'x1+x2' in 'x1+x2'\n"),
    ],
)
def test_act_parse_errors_keep_their_messages(poly, message, capsys):
    code, out, err = run_cli(
        ["act", "--n", "2", "--m", "3", "--element", "tau=1,2;weights=0,0", "--poly", poly],
        capsys,
    )
    assert code == 2
    assert out == "" and err == message


def test_importing_the_cli_does_not_import_dataclasses():
    # The package defines its records as namedtuples: importing dataclasses
    # (and with it inspect, ast and dis) would cost every process ~10 ms.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import quasicov.cli, sys; assert 'dataclasses' not in sys.modules"],
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
