"""Command-line behaviour: outputs, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quasicov.cli import _json_text, main
from quasicov.polynomials import Polynomial, render_polynomial
from quasicov.scalars import Cyclotomic, euler_phi
from quasicov.verify import SUITES, run_suite


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


def _pinned_poly(m):
    """Integer, fractional and cyclotomic terms, with z powers around phi
    and m - 1, and two terms that cancel: z^m * x1*x2*x3 against x1*x2*x3,
    and the sum of all m-th roots of unity (zero unless m = 1)."""
    phi = euler_phi(m)
    roots = "+".join(["1"] + [f"z^{k}" for k in range(1, m)])
    return " + ".join([
        "3*x1^2*x2",
        f"-1/2*x2*x3^{m}",
        f"(2/3-z^{phi - 1}+5z^{phi}-z^{m - 1})*x1*x3",
        f"(z^{m})*x1*x2*x3",
        "-x1*x2*x3",
        f"({roots})*x2^2",
        f"(7/4z^{m // 2 + 1})*x3",
    ])


# stdout sha256 of `act --json` on _pinned_poly(m): the action, scalar and
# text-format code must keep these bytes at every order, 105 and 300 included.
ACT_DIGESTS = {
    (1, "quasi"): "e429107b59073055ff03be79fe169c6769158ab22884f6e8bfbfc57a16bd89b7",
    (1, "classical"): "ad2e8ad46b02b90837587802a7ec5d437ad3cf2366cc1e641b150705fd1c711c",
    (2, "quasi"): "57157d0351b72c94321cb5f3cbff45eb642e396a581e4de5234e13674e82ce25",
    (2, "classical"): "c4dab9b8f7b5570afa1f530c11aa865d9d639269b45419a53d860ff2d36c19a2",
    (3, "quasi"): "501db6c55ca744b6548751c0372c3378dc9673830ec8d09bec351745011ecb9b",
    (3, "classical"): "51d72bdd9b74a70da1b03f1db39a6f48408f4a1ee44a4f9d2172ea8ea1d5421d",
    (5, "quasi"): "47eeb91a8eae4601e650262cd89708ca02ee37f7f2a4fb9f620f4209c7feebb9",
    (5, "classical"): "0c461d0c3bb7cd44f5b6eb374c197de71f9df3c54122fbbd649f3656e86add97",
    (7, "quasi"): "bde49ab2ff7c4c108819e1dbc8dcfd4f389b0c41c097e7539e24012b35828861",
    (7, "classical"): "5f9ed06a5239dbe8a2bf0f8eccf6ffe252a3c345b633189bf2b3854afc5cd0e4",
    (12, "quasi"): "d4633c46f2a67fa6c9dc6c30ab4b466341022123ef0340b1846a1277a1569752",
    (12, "classical"): "8f93d8e29dd411abcb9707672ea039bd0e8e2bf7d902af6f5ccb032c7b00df7b",
    (105, "quasi"): "dffdfb6d22322f6fd2f01b33d751d27b4cd7b2b5b9486ab4527cfde440eacded",
    (105, "classical"): "bfc203538f6c4b7f3468ac30d25dc2e0484e90153ba9c030dd4087b8ab079d56",
    (300, "quasi"): "29cf6a4de5a6b087197aac419001a788baae4aa7bc498b3ca313996417a79b81",
    (300, "classical"): "79f334654f5cb34577eeed3fac23d2b1eb50b4ebf4d8efbcef6964e17281a51b",
}


@pytest.mark.parametrize("m,action", list(ACT_DIGESTS))
def test_act_json_keeps_its_bytes(m, action, capsys):
    element = f"tau=3,1,2;weights={1 % m},{(m - 1) % m},{2 % m}"
    code, out, _ = run_cli(
        ["act", "--n", "3", "--m", str(m), "--element", element,
         "--poly", _pinned_poly(m), "--action", action, "--json"],
        capsys,
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ACT_DIGESTS[m, action]


def test_act_at_order_one_million():
    # Phi_{10^6}(z) = Phi_10(z^(10^5)), so zeta^-1 = z^(10^5 - 1) - ... in the
    # power basis.  Multiplying by zeta^999999 costs time linear in m.
    proc = subprocess.run(
        [sys.executable, "-m", "quasicov", "act", "--n", "1", "--m", "1000000",
         "--element", "tau=1;weights=999999", "--poly", "x1"],
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert "output: (z^99999-z^199999+z^299999-z^399999)*x1\n" in proc.stdout.decode()


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


def test_failed_check_exits_1_and_names_it_on_stderr(capsys, monkeypatch):
    # A wrong Catalan number makes the basis count check fail: the document
    # is still printed, and stderr names the first failing check.
    monkeypatch.setattr("quasicov.cli.catalan", lambda n: 3)
    code, out, err = run_cli(["basis", "--n", "2", "--m", "2", "--json"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["checks"] == [
        {"name": "count_equals_dimension_formula", "expected": 12, "actual": 8,
         "pass": False}
    ]
    assert err == "failed check count_equals_dimension_formula: expected 12, actual 8\n"


def test_group_order_cap_in_verify_is_a_resource_limit(capsys, monkeypatch):
    # force a cap small enough that the action-axioms suite cannot
    # enumerate the group
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
    with pytest.raises(ValueError) as exc:
        run_suite("nonsense", 2, 2, max_group_order=1, max_kernel_entries=1)
    assert str(exc.value) == (
        "unknown suite 'nonsense'; choose from "
        "propu, ppp, main, hilbert, chevalley, action-axioms"
    )


def test_action_axioms_pairs_are_capped(capsys, monkeypatch):
    """|G|^2 is counted against the cap before the group is enumerated:
    (4,3) has 1944^2 pairs, and (2,2) has 8^2 = 64."""
    code, out, err = run_cli(
        ["verify", "--suite", "action-axioms", "--n", "4", "--m", "3", "--json"], capsys
    )
    assert (code, out) == (3, "")
    assert err == (
        "resource limit: action axioms for n=4, m=3 need 3779136 element pairs, "
        "exceeding cap of 1000000\n"
    )
    argv = ["verify", "--suite", "action-axioms", "--n", "2", "--m", "2"]
    monkeypatch.setenv("QUASICOV_MAX_KERNEL_ENTRIES", "63")
    assert run_cli(argv, capsys)[0] == 3
    monkeypatch.setenv("QUASICOV_MAX_KERNEL_ENTRIES", "64")
    assert run_cli(argv, capsys)[0] == 0


@pytest.mark.parametrize(
    "argv", [["basis"], ["dim", "--method", "basis"], ["verify", "--suite", "main"]]
)
def test_path_basis_is_capped(argv, capsys):
    """m^n * catalan(n) = 5^14 * 2674440 vectors at (14,5) is counted
    against the cap before anything is enumerated."""
    code, out, err = run_cli(argv + ["--n", "14", "--m", "5", "--json"], capsys)
    assert (code, out) == (3, "")
    assert err == (
        "resource limit: quotient basis for n=14, m=5 has 16323486328125000 vectors, "
        "exceeding cap of 1000000\n"
    )


@pytest.mark.parametrize("argv", [["basis"], ["dim", "--method", "basis"]])
def test_path_basis_cap_is_the_vector_count(argv, capsys, monkeypatch):
    """(2,2) has 2^2 * catalan(2) = 8 vectors."""
    argv = argv + ["--n", "2", "--m", "2"]
    monkeypatch.setenv("QUASICOV_MAX_KERNEL_ENTRIES", "7")
    assert run_cli(argv, capsys)[0] == 3
    monkeypatch.setenv("QUASICOV_MAX_KERNEL_ENTRIES", "8")
    assert run_cli(argv, capsys)[0] == 0


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


@pytest.mark.parametrize(
    "argv",
    [["dim", "--method", "groebner"], ["dim", "--method", "basis"], ["series"]],
)
def test_only_groebner_takes_a_degree_bound(argv, capsys):
    argv = argv + ["--n", "3", "--m", "2", "--degree-bound", "12"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --degree-bound 12" in capsys.readouterr().err


def test_m1_bound_far_above_the_default_reuses_the_default_basis(capsys):
    argv = ["groebner", "--n", "1", "--m", "1", "--degree-bound", "100000000"]
    code, doc, _ = run_json(argv, capsys)
    _, default, _ = run_json(["groebner", "--n", "1", "--m", "1"], capsys)
    assert code == 0
    assert doc["result"]["degree_bound"] == 100000000
    assert doc["result"]["standard_monomials"] == default["result"]["standard_monomials"]
    assert doc["result"]["standard_monomials"]["monomials"] == [[0]]


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--n", "990", "--m", "1", "--method", "harmonic"],
        ["dim", "--n", "1200", "--m", "1", "--method", "harmonic"],
        ["dim", "--n", "1200", "--m", "2", "--method", "harmonic"],
        ["verify", "--n", "1200", "--m", "1", "--suite", "propu"],
    ],
)
def test_many_variables_reach_a_cap_not_the_recursion_limit(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("resource limit:") and "Traceback" not in err


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


def _corrupt(draw, text, alphabet):
    """text, or text with a slice replaced by up to 4 characters of alphabet."""
    if draw(st.booleans()):
        return text
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, len(text)))
    return text[:i] + draw(st.text(alphabet, max_size=4)) + text[j:]


@st.composite
def act_argv(draw):
    """`act` command lines, well formed or corrupted.  A corrupted --m has
    at most three characters, so the order stays small."""
    n = draw(st.integers(1, 3))
    m = draw(st.sampled_from([1, 2, 3, 5, 12]))
    tau = draw(st.permutations(range(1, n + 1)))
    weights = draw(st.lists(st.integers(-1, m), min_size=n, max_size=n))
    element = "tau=" + ",".join(map(str, tau)) + ";weights=" + ",".join(map(str, weights))
    rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    coeff = st.lists(rational, max_size=euler_phi(m) + 1).map(lambda cs: Cyclotomic(m, cs))
    exps = st.tuples(*[st.integers(0, 4)] * n)
    poly = render_polynomial(Polynomial(n, draw(st.dictionaries(exps, coeff, max_size=4))))
    number = st.text("-0123x", min_size=1, max_size=3)
    argv = [
        "act",
        "--n", draw(st.just(str(n)) | number),
        "--m", draw(st.just(str(m)) | number),
        "--element", _corrupt(draw, element, "tau=weights;,-0123 "),
        "--poly", _corrupt(draw, poly, "x123z^*+-/() 0"),
    ]
    if draw(st.booleans()):
        argv += ["--action", draw(st.sampled_from(["quasi", "classical", "spam"]))]
    if draw(st.booleans()):
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv + draw(st.sampled_from([[], ["--json"]]))


def _exit_code(argv):
    """``main(argv)`` with its output discarded; argparse's exit code when
    it rejects the command line."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=300)
@given(act_argv())
def test_act_command_lines_end_in_a_contract_exit_code(argv):
    assert _exit_code(argv) in (0, 2, 3)


@st.composite
def run_argv(draw):
    """`basis`, `dim`, `series`, `groebner` and `verify` command lines with
    small or invalid n, m and --degree-bound, and each choice option drawn
    from its choices plus one invalid string.  argparse refuses
    --degree-bound on `dim` and `series` (exit 2); only `groebner` takes it.
    n stays at most 4 because larger n reaches work that no cap bounds yet
    (the Groebner engine)."""
    command = draw(st.sampled_from(["basis", "dim", "series", "groebner", "verify"]))
    argv = [command, "--n", str(draw(st.integers(-1, 4))), "--m", str(draw(st.integers(-1, 3)))]
    if command in ("dim", "series", "groebner"):
        bound = draw(st.none() | st.integers(-1, 8))
        if bound is not None:
            argv += ["--degree-bound", str(bound)]
    if command == "dim":
        argv += ["--method", draw(st.sampled_from(["groebner", "basis", "harmonic", "spam"]))]
    if command == "verify":
        argv += ["--suite", draw(st.sampled_from(list(SUITES) + ["spam"]))]
    return argv + draw(st.sampled_from([[], ["--json"]]))


@settings(max_examples=60)
@given(run_argv())
def test_other_command_lines_end_in_a_contract_exit_code(argv):
    assert _exit_code(argv) in (0, 1, 2, 3)
