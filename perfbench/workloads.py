"""The four workloads and the seeded generator of `act` round trips.

Each workload stresses different layers of the package (see README.md):

- ``ideal``: the m >= 2 Groebner route, with large standard-monomial outputs;
- ``ideal-m1``: the m = 1 Groebner route, dominated by the S-pair loop;
- ``oracle``: the Groebner-free route, dense exact elimination in linalg;
- ``actions``: the group actions and cyclotomic scalars, at monomial level
  (action axioms) and at the polynomial boundary (seeded round trips).

Only ``actions`` depends on the seed.  Its generated elements and
polynomials reach the program as command-line arguments only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SETUP_ARGV = ("basis", "--n", "1", "--m", "1", "--json")


def _command(name, n, m, *extra):
    return (name, "--n", str(n), "--m", str(m), *extra, "--json")


def _groebner(n, m):
    return _command("groebner", n, m)


def _suite(name, n, m):
    return _command("verify", n, m, "--suite", name)


def _harmonic(n, m):
    return _command("dim", n, m, "--method", "harmonic")


FIXED = {
    "ideal": (
        _groebner(5, 2),
        _groebner(5, 3),
        _groebner(4, 4),
        _suite("main", 4, 3),
    ),
    "ideal-m1": (_groebner(6, 1),),
    "oracle": (
        _harmonic(4, 2),
        _harmonic(3, 3),
        _harmonic(3, 4),
        _suite("propu", 5, 2),
        _suite("propu", 5, 3),
        _suite("propu", 4, 4),
    ),
    "actions": (
        _suite("action-axioms", 3, 2),
        _suite("action-axioms", 2, 5),
    ),
}

WORKLOADS = tuple(FIXED)

# (n, m, action) of the round trips: every n in {4, 5}, m in {2, 3, 5} and
# both actions occur, and the list is fixed, so the cost of a pass does not
# depend on the seed.
ROUND_TRIP_SHAPES = (
    (4, 2, "quasi"),
    (4, 3, "classical"),
    (4, 5, "quasi"),
    (5, 2, "classical"),
    (5, 3, "quasi"),
    (5, 5, "classical"),
)
ROUND_TRIP_TERMS = 600
MAX_EXPONENT = 5
PHI = {2: 1, 3: 2, 5: 4}  # Euler's phi: coefficient length in Q(zeta_m)


def element_text(tau, weights) -> str:
    return "tau=" + ",".join(map(str, tau)) + ";weights=" + ",".join(map(str, weights))


def inverse_element(tau, weights, m):
    """The inverse of the pseudo-permutation matrix with these rows."""
    n = len(tau)
    tau_inv = [0] * n
    for i, image in enumerate(tau):
        tau_inv[image - 1] = i + 1
    weights_inv = [(-weights[tau_inv[j] - 1]) % m for j in range(n)]
    return tau_inv, weights_inv


def _cyclotomic_text(coeffs) -> str:
    pieces = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            power = "z" if i == 1 else f"z^{i}"
            body = power if mag == 1 else f"{mag}{power}"
        pieces.append(("-" if c < 0 else "+", body))
    out = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    for sign, body in pieces[1:]:
        out += sign + body
    return out


def _monomial_text(exps) -> str:
    return "*".join(
        f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exps) if e
    )


def random_polynomial(rng, n, m, terms) -> str:
    """A polynomial in the program's canonical text form: descending lex
    terms, coefficients in Q(zeta_m) written in the power basis 1..z^(phi-1)
    with small integer entries."""
    base = MAX_EXPONENT + 1
    codes = sorted(rng.sample(range(1, base**n), terms), reverse=True)
    rendered = []
    for code in codes:
        exps = [(code // base ** (n - 1 - i)) % base for i in range(n)]
        coeffs = [0] * PHI[m]
        while not any(coeffs):
            coeffs = [rng.randint(-3, 3) for _ in coeffs]
        mon = _monomial_text(exps)
        if any(coeffs[1:]):
            rendered.append((False, f"({_cyclotomic_text(coeffs)})*{mon}"))
        else:
            mag = abs(coeffs[0])
            rendered.append((coeffs[0] < 0, mon if mag == 1 else f"{mag}*{mon}"))
    text = ("-" if rendered[0][0] else "") + rendered[0][1]
    for negative, body in rendered[1:]:
        text += (" - " if negative else " + ") + body
    return text


@dataclass(frozen=True)
class RoundTrip:
    n: int
    m: int
    action: str
    tau: tuple
    weights: tuple
    poly: str

    def _argv(self, tau, weights, poly):
        return _command(
            "act", self.n, self.m,
            "--element", element_text(tau, weights),
            "--poly", poly,
            "--action", self.action,
        )

    def forward_argv(self):
        return self._argv(self.tau, self.weights, self.poly)

    def backward_argv(self, image):
        tau_inv, weights_inv = inverse_element(self.tau, self.weights, self.m)
        return self._argv(tau_inv, weights_inv, image)


def round_trips(seed: int) -> tuple:
    rng = random.Random(seed)
    trips = []
    for n, m, action in ROUND_TRIP_SHAPES:
        tau = list(range(1, n + 1))
        rng.shuffle(tau)
        weights = [rng.randrange(m) for _ in range(n)]
        poly = random_polynomial(rng, n, m, ROUND_TRIP_TERMS)
        trips.append(RoundTrip(n, m, action, tuple(tau), tuple(weights), poly))
    return tuple(trips)


@dataclass(frozen=True)
class Workload:
    name: str
    fixed: tuple
    round_trips: tuple = ()


def build(name: str, seed: int) -> Workload:
    if name not in FIXED:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    trips = round_trips(seed) if name == "actions" else ()
    return Workload(name, FIXED[name], trips)
