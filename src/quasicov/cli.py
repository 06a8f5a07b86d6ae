"""Command-line surface: bases, Groebner data, dimensions, actions, suites.

Each subcommand registers its runner with its parser; a runner reads its
options from the parsed arguments and returns (result, checks).  ``main``
validates n, m and the caps once, then builds the deterministic document
with fixed key order {"n", "m", "command", "result", "checks"}; with
--json the document is printed as JSON, otherwise as readable text.  The
exit code is 0 exactly when every check passes.  A failed check exits 1,
after the document is written, and stderr names the first failing check;
usage and parse problems exit 2, resource-cap violations exit 3.

Only ``groebner`` takes --degree-bound, the one place a bound changes a
result; ``dim`` and ``series`` use the default and refuse the flag.

One cap, 10^6 by default, bounds the (rows + n) times columns of each
level of the kernel oracle and its m^n residues, the generator images of
each fixed-space walk times n, the element pairs of the action-axioms
suite and the vectors of the path basis; the environment variable
QUASICOV_MAX_KERNEL_ENTRIES overrides it.  Group enumeration keeps a
fixed guard of 10^4 elements; at the default cap the pairs cap holds the
order to 1000 first.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import DEFAULT_MAX_MATRIX_ENTRIES, ResourceLimitError
from .group import classical_act, parse_group_element, quasi_act
from .groebner import quasi_ideal_basis, standard_monomials
from .hilbert import (
    kernel_dims_until_zero,
    quotient_series,
    series_from_monomials,
    single_prefactor_series,
)
from .paths import catalan, quotient_basis
from .polynomials import degree_histogram, parse_polynomial, render_polynomial
from .verify import SUITES, _check, run_suite


def _vector_text(nu) -> str:
    return "(" + ",".join(str(e) for e in nu) + ")"


def cmd_basis(args):
    vectors = quotient_basis(args.n, args.m, args.max_kernel_entries)
    target = args.m**args.n * catalan(args.n)
    result = {
        "count": len(vectors),
        "histogram": degree_histogram(vectors),
        "monomials": [list(nu) for nu in vectors],
    }
    return result, [_check("count_equals_dimension_formula", target, len(vectors))]


def cmd_groebner(args):
    """A bound below the default, one past the quotient's top degree,
    truncates the standard monomials; a higher one finds the same ones."""
    if args.degree_bound is not None and args.degree_bound < 0:
        raise ValueError(f"--degree-bound must be >= 0, got {args.degree_bound}")
    basis = quasi_ideal_basis(args.n, args.m, args.degree_bound)
    sms = standard_monomials(basis)
    result = {
        "degree_bound": basis.degree_bound,
        "reduced": basis.reduced,
        "basis": [render_polynomial(g) for g in basis.generators],
        "leading_monomials": [list(nu) for nu in basis.leading_monomials()],
        "standard_monomials": {
            "count": len(sms.monomials),
            "complete": sms.complete,
            "histogram": sms.degree_histogram(),
            "monomials": [list(nu) for nu in sms.monomials],
        },
    }
    return result, []


def cmd_dim(args):
    if args.method == "groebner":
        dimension = len(standard_monomials(quasi_ideal_basis(args.n, args.m)).monomials)
    elif args.method == "basis":
        dimension = len(quotient_basis(args.n, args.m, args.max_kernel_entries))
    else:  # harmonic
        dims = kernel_dims_until_zero(
            args.n, args.m, "quasi", max_entries=args.max_kernel_entries
        )
        dimension = sum(dims)
    # The target is computed after the route, whose caps decide first.
    target = args.m**args.n * catalan(args.n)
    result = {"method": args.method, "dimension": dimension}
    return result, [_check("dimension_equals_formula", target, dimension)]


def cmd_act(args):
    element = parse_group_element(args.element, args.n, args.m)
    poly = parse_polynomial(args.poly, args.n, order=args.m)
    act = quasi_act if args.action == "quasi" else classical_act
    image = act(element, poly)
    result = {
        "action": args.action,
        "element": args.element.strip(),
        "input": render_polynomial(poly),
        "output": render_polynomial(image),
    }
    return result, []


def cmd_verify(args):
    checks = run_suite(args.suite, args.n, args.m, max_kernel_entries=args.max_kernel_entries)
    overall = "pass" if all(c["pass"] for c in checks) else "fail"
    return {"suite": args.suite, "status": overall}, checks


def cmd_series(args):
    series = series_from_monomials(standard_monomials(quasi_ideal_basis(args.n, args.m)))
    closed = quotient_series(args.n, args.m)
    literal = single_prefactor_series(args.n, args.m)
    result = {
        "series": str(closed),
        "coefficients": list(closed.coefficients),
        "total": closed.total(),
        "single_prefactor_variant": {
            "series": str(literal),
            "coefficients": list(literal.coefficients),
            "matches": list(literal.coefficients) == list(closed.coefficients),
        },
    }
    checks = [
        _check(
            "standard_monomial_series_equals_closed_series",
            list(closed.coefficients),
            list(series.coefficients),
        )
    ]
    return result, checks


def _is_int_list(value) -> bool:
    return isinstance(value, (list, tuple)) and set(map(type, value)) == {int}


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)``, byte for byte.

    With an indent, ``json`` runs its pure-Python encoder.  Here lists of
    plain ints and lists of such rows, like the exponent vectors that make
    up most of a document, are joined with ``str.join``; every other
    scalar goes through ``json.dumps`` itself.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        brackets = "{}"
        items = [
            # json writes a non-string key as the string of its JSON text.
            json.dumps(key if isinstance(key, str) else json.dumps(key))
            + ": "
            + _json_text(sub, inner)
            for key, sub in value.items()
        ]
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        brackets = "[]"
        if _is_int_list(value):
            items = map(str, value)
        elif all(map(_is_int_list, value)):
            row_sep = ",\n" + inner + "  "
            items = [f"[\n{inner}  {row_sep.join(map(str, row))}\n{inner}]" for row in value]
        else:
            items = [_json_text(v, inner) for v in value]
    else:
        return json.dumps(value)
    body = (",\n" + inner).join(items)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def _render_text(doc: dict) -> str:
    lines = [f"command: {doc['command']}  n={doc['n']} m={doc['m']}"]

    def emit(value, indent=""):
        if isinstance(value, dict):
            for key, sub in value.items():
                if isinstance(sub, (dict, list)) and sub and not _is_scalar_list(sub):
                    lines.append(f"{indent}{key}:")
                    emit(sub, indent + "  ")
                else:
                    lines.append(f"{indent}{key}: {_scalar_text(sub)}")
        elif isinstance(value, list):
            for item in value:
                lines.append(f"{indent}- {_scalar_text(item)}")

    emit(doc["result"])
    for check in doc["checks"]:
        status = "pass" if check["pass"] else "FAIL"
        lines.append(
            f"check {check['name']}: {status} "
            f"(expected {_scalar_text(check['expected'])}, "
            f"actual {_scalar_text(check['actual'])})"
        )
    return "\n".join(lines)


def _is_scalar_list(value):
    return isinstance(value, list) and all(
        not isinstance(v, (dict, list)) for v in value
    )


def _scalar_text(value):
    if isinstance(value, list):
        if value and isinstance(value[0], list):
            return " ".join(_vector_text(v) for v in value)
        return "[" + ", ".join(str(v) for v in value) + "]"
    return str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasicov",
        description=(
            "Exact quotients by quasi-invariant ideals: bases, Groebner data, "
            "dimensions, group actions and verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--n", type=int, required=True, help="number of variables")
        p.add_argument("--m", type=int, required=True, help="cyclic order")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--out", default=None, help="write output to a file")
        return p

    common("basis", cmd_basis, "quotient basis from lattice-path combinatorics")
    p = common("groebner", cmd_groebner, "reduced basis and standard monomials")
    p.add_argument("--degree-bound", type=int)
    p = common("dim", cmd_dim, "quotient dimension by a chosen route")
    p.add_argument("--method", choices=("groebner", "basis", "harmonic"), required=True)
    p = common("act", cmd_act, "apply a group element to a polynomial")
    p.add_argument("--element", required=True, help='e.g. "tau=3,1,2;weights=1,0,1"')
    p.add_argument("--poly", required=True, help='e.g. "x1^2*x2"')
    p.add_argument("--action", choices=("quasi", "classical"), default="quasi")
    common("series", cmd_series, "Hilbert series of the quotient")
    p = common("verify", cmd_verify, "run a named verification suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    return parser


def _check_args(args) -> None:
    """Validate n and m, and store the caps on ``args``."""
    if args.n < 1 or args.m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={args.n}, m={args.m}")
    args.max_kernel_entries = int(
        os.environ.get("QUASICOV_MAX_KERNEL_ENTRIES", DEFAULT_MAX_MATRIX_ENTRIES)
    )
    if args.max_kernel_entries < 1:
        raise ValueError("resource cap must be positive")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        result, checks = args.run(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = {
        "n": args.n, "m": args.m, "command": args.command, "result": result, "checks": checks
    }
    text = _json_text(doc) if args.json else _render_text(doc)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            # The reader is gone; point stdout at devnull so the flush at
            # interpreter exit cannot raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            print(f"error: {exc}", file=sys.stderr)
            return 2
    failed = [c for c in checks if not c["pass"]]
    if failed:
        first = failed[0]
        print(
            f"failed check {first['name']}: expected {first['expected']}, "
            f"actual {first['actual']}",
            file=sys.stderr,
        )
        return 1
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
